"""The three phantom workloads: their inputs, their timed passes, their checks.

Every workload is a closed loop driven by one process: the next frame (or
batch) starts when the previous one has finished.  Inputs are generated
from the seed before any timing, from the acceptance phantom family of
``tests/conftest.py``; the program only ever sees the frames (as PGM files
or arrays) and the gold contours.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Ring-down around the catheter and two calibration squares, constant in
# every frame: 3778 px, 2.6% of a 384x384 frame.  The 40 px square sits on
# the frame centre, which is the default seed; frames where the filled
# square breaks the seed's dark core fail, and are counted as failures.
RINGDOWN_SQUARES = ((172, 172, 40), (16, 16, 33), (335, 335, 33))
RINGDOWN_INTENSITY = 240
# At the default threshold (40) the minimum image of a phantom pullback
# covers most of the frame and run_batch skips removal; 200 sits between
# the tissue minimum and the squares.
RINGDOWN_THRESHOLD = 200
MAX_MASK_FRACTION = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int
    frames: int
    batch: bool          # run_batch over a directory, else segment_frame per array
    jobs: int = 1
    gold: bool = False
    ringdown: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evaluate384",
            "the paper's evaluation path at 384x384: run_batch with gold, scoring, "
            "overlays and CSV at jobs=1, where metrics and cli output work show",
            size=384, frames=16, batch=True, gold=True,
        ),
        Workload(
            "segment768",
            "library segment_frame on 768x768 frames, past the 4 MiB L2; tree and "
            "extract dominate and metrics, preprocess and the pool are bypassed",
            size=768, frames=12, batch=False,
        ),
        Workload(
            "ringdown384_jobs2",
            "a 384x384 pullback with constant ring-down squares at jobs=2: the only "
            "workload that runs remove_artifacts and the process pool",
            size=384, frames=16, batch=True, jobs=2, ringdown=True,
        ),
    )
}


def run_config_kwargs(w: Workload, workdir: Path) -> dict:
    """RunConfig arguments of the workload, as JSON-friendly values."""
    if not w.batch:
        return {}
    kw = {"inputs": [str(workdir / "frames")], "outdir": str(workdir / "out"), "jobs": w.jobs}
    if w.gold:
        kw["gold_dir"] = str(workdir / "gold")
    if w.ringdown:
        kw["ringdown_threshold"] = RINGDOWN_THRESHOLD
    else:
        kw["no_ringdown"] = True
    return kw


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _acceptance_phantom_spec():
    spec = importlib.util.spec_from_file_location(
        "ivuseg_acceptance_conftest", ROOT / "tests" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.acceptance_phantom_spec


def _scaled(spec, size: int):
    """Scale a 384x384 phantom's geometry to size x size, as
    scripts/runtime_scaling.py does for its fixed seed-0 phantom."""
    from ivuseg import Ellipse

    s = size / 384.0
    return replace(
        spec, width=size, height=size,
        lumen=Ellipse(spec.lumen.cx * s, spec.lumen.cy * s, spec.lumen.a * s,
                      spec.lumen.b * s, spec.lumen.theta),
        media=Ellipse(spec.media.cx * s, spec.media.cy * s, spec.media.a * s,
                      spec.media.b * s, spec.media.theta),
    )


@dataclass
class Inputs:
    stems: list[str]
    truths: dict            # stem -> GroundTruth
    arrays: dict = field(default_factory=dict)  # stem -> Frame, library workloads


def generate(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Frame i has the geometry of acceptance phantom i (odd i with a
    shadow) and speckle drawn from s * 1000 + i for seed s.

    The seed changes every pixel but not the vessel shapes: across
    phantom geometries the per-frame cost varies by half, which would
    otherwise swamp a run-to-run comparison.
    """
    from ivuseg import RingDownArtifact, generate_phantom, save_contour, save_frame

    spec_for = _acceptance_phantom_spec()
    inputs = Inputs(stems=[], truths={})
    if w.batch:
        (workdir / "frames").mkdir(parents=True)
        if w.gold:
            (workdir / "gold").mkdir()
    for i in range(w.frames):
        spec = replace(spec_for(i, shadow=i % 2 == 1), rng_seed=seed * 1000 + i)
        if w.size != 384:
            spec = _scaled(spec, w.size)
        if w.ringdown:
            squares = [RingDownArtifact(x, y, n, RINGDOWN_INTENSITY) for x, y, n in RINGDOWN_SQUARES]
            spec = replace(spec, artifacts=spec.artifacts + squares)
        frame, truth = generate_phantom(spec)
        stem = f"frame_{i:03d}"
        inputs.stems.append(stem)
        inputs.truths[stem] = truth
        if not w.batch:
            inputs.arrays[stem] = frame
            continue
        save_frame(frame, workdir / "frames" / f"{stem}.pgm")
        if w.gold:
            save_contour(truth.lumen_contour, workdir / "gold" / f"{stem}_lumen.txt")
            save_contour(truth.media_contour, workdir / "gold" / f"{stem}_media.txt")
    return inputs


# ---------------------------------------------------------------------------
# Outcomes and checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """A correctness check of the benchmark did not hold."""


@dataclass
class Outcome:
    """What one frame produced: contours, or the error it recorded."""

    error: str | None = None
    lumen: np.ndarray | None = None
    media: np.ndarray | None = None
    digest: str = ""


def batch_outcomes(outdir: Path, stems: list[str]) -> dict[str, Outcome]:
    """Read run_batch's outputs; every frame must have contours and an
    overlay, or an error record."""
    from ivuseg import errors, load_contour

    out = {}
    for stem in stems:
        err = outdir / f"{stem}_error.json"
        if err.exists():
            name = json.loads(err.read_text())["error"]
            kind = getattr(errors, name, None)
            if not (isinstance(kind, type) and issubclass(kind, errors.SegmentationError)):
                raise CheckFailed(f"{stem}: error record {name!r} is not a SegmentationError")
            out[stem] = Outcome(error=name, digest=name)
            continue
        paths = [outdir / f"{stem}_{part}" for part in ("lumen.txt", "media.txt", "overlay.ppm")]
        missing = [p.name for p in paths if not p.exists()]
        if missing:
            raise CheckFailed(f"{stem}: neither outputs nor an error record (missing {missing})")
        digest = hashlib.sha256(paths[0].read_bytes() + paths[1].read_bytes()).hexdigest()
        out[stem] = Outcome(
            lumen=load_contour(paths[0]).points, media=load_contour(paths[1]).points,
            digest=digest,
        )
    return out


def check_repeat(reference: dict[str, Outcome], outcomes: dict[str, Outcome]) -> None:
    for stem, o in outcomes.items():
        ref = reference.setdefault(stem, o)
        if ref.digest != o.digest:
            raise CheckFailed(f"{stem}: outputs differ between repeats of one seed")


@dataclass
class ProbeRecord:
    start: float
    end: float
    masked_px: int       # -1 when segment_frame got no artifact model
    mask_frac: float


class LatencyProbe:
    """Times every cli.segment_frame call, in this process or a pool worker.

    Forked pool workers inherit the patched attribute; each process appends
    one line per call to its own file, which the parent reads after the
    batch.  Records the artifact model each call received.
    """

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self._original = None

    def __enter__(self) -> "LatencyProbe":
        from ivuseg import cli

        original = self._original = cli.segment_frame
        directory = self.directory

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                model = args[2] if len(args) > 2 else kwargs.get("artifact_model")
                masked = -1 if model is None else int(model.mask.sum())
                frac = 0.0 if model is None else float(model.mask.mean())
                with open(directory / f"{os.getpid()}.txt", "a") as fh:
                    fh.write(f"{t0!r} {t1!r} {masked} {frac!r}\n")

        cli.segment_frame = timed
        return self

    def __exit__(self, *exc) -> None:
        from ivuseg import cli

        cli.segment_frame = self._original

    def collect(self) -> list[ProbeRecord]:
        """Records written since the last collect, oldest first."""
        records = []
        for path in sorted(self.directory.glob("*.txt")):
            for line in path.read_text().splitlines():
                t0, t1, masked, frac = line.split()
                records.append(ProbeRecord(float(t0), float(t1), int(masked), float(frac)))
            path.unlink()
        return sorted(records, key=lambda r: r.start)


def check_artifact_model(w: Workload, masked: list[int], fracs: list[float]) -> None:
    """ringdown384_jobs2 removes artifacts on every frame, the others never.

    masked holds one entry per segmented frame: the masked pixel count of
    the artifact model it got, or -1 for none."""
    if w.ringdown:
        bad = [f for m, f in zip(masked, fracs) if m <= 0 or not 0 < f <= MAX_MASK_FRACTION]
        if bad or not masked:
            raise CheckFailed(
                f"artifact model not applied with a mask fraction in (0, {MAX_MASK_FRACTION}] "
                f"on every frame ({len(bad)} of {len(masked)} frames)"
            )
    elif any(m >= 0 for m in masked):
        raise CheckFailed("artifact model applied on a workload that disables it")


# ---------------------------------------------------------------------------
# Quality against the exact phantom truth
# ---------------------------------------------------------------------------

def polygon_mask(points: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Pixel centres inside a closed polygon, by the even-odd rule."""
    import numpy as np

    h, w = shape
    x0, y0 = points[:, 0], points[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    rows = np.arange(h, dtype=np.float64)[:, None]
    # half-open in y so a vertex on a row is crossed exactly once
    crosses = (np.minimum(y0, y1) <= rows) & (rows < np.maximum(y0, y1))
    r, e = np.nonzero(crosses)
    x_at = x0[e] + (r - y0[e]) * (x1[e] - x0[e]) / (y1[e] - y0[e])
    # a crossing at x toggles every pixel centre right of it
    first = np.clip(np.floor(x_at).astype(np.int64) + 1, 0, w)
    toggles = np.zeros((h, w + 1), dtype=np.int64)
    np.add.at(toggles, (r, first), 1)
    return (np.cumsum(toggles, axis=1)[:, :w] % 2).astype(bool)


def quality(outcomes: dict[str, Outcome], truths: dict, shape: tuple[int, int]) -> dict[str, float]:
    """Mean JM and Hausdorff distance (px) of the produced contours against
    the phantom ellipses, over the frames that produced contours."""
    from ivuseg import Contour, ellipse_mask, hausdorff, jaccard

    rows = {"lumen_jm": [], "media_jm": [], "lumen_hd_px": [], "media_hd_px": []}
    for stem, o in outcomes.items():
        if o.error is not None:
            continue
        truth = truths[stem]
        for part, pts, gold, gold_contour in (
            ("lumen", o.lumen, truth.lumen, truth.lumen_contour),
            ("media", o.media, truth.media, truth.media_contour),
        ):
            rows[f"{part}_jm"].append(jaccard(polygon_mask(pts, shape), ellipse_mask(gold, shape)))
            rows[f"{part}_hd_px"].append(hausdorff(Contour(points=pts, closed=True), gold_contour))
    if not rows["lumen_jm"]:
        raise CheckFailed("no frame produced contours")
    return {k: statistics.fmean(v) for k, v in rows.items()}


def clear_dir(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
