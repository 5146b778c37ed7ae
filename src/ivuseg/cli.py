"""Batch orchestration: preprocess, extract, select, fit, evaluate.

Subcommands:
  segment   batch segmentation of PGM frames with optional gold scoring
  evaluate  segmentation plus mandatory gold scoring and aggregate stats
  phantom   synthetic frame/sequence generation with ground truth
  bestcase  per-frame upper bound: score every extracted region against gold

Exit codes: 0 success, 2 partial batch failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import erel, metrics, phantom, preprocess, selection
from .component_tree import build_component_tree
from .errors import ConfigError, SegmentationError
from .geometry import Ellipse, ellipse_from_moments, ellipse_mask, rasterize_ellipse
from .imaging import (
    Contour,
    Frame,
    Sequence,
    frame_center,
    load_contour,
    load_frame,
    median_filter,
    save_contour,
    save_frame,
)

OVERLAY_LUMEN = (255, 0, 255)
OVERLAY_MEDIA = (0, 255, 0)
OVERLAY_GOLD = (255, 255, 0)


def _truthy(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


def _parse_seed(text: str) -> tuple[int, int] | None:
    if not text:
        return None
    try:
        x, y = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --seed value {text!r}; expected x,y") from exc
    return x, y


def _tunable(default, parse, flag: str | None = None, help: str | None = None):
    """A RunConfig field that is also a CLI flag and a config-file key.

    parse turns the text of a flag or config value into the field value
    (_truthy makes a store-true flag); the flag defaults to the field name
    with dashes.
    """
    return field(default=default, metadata={"parse": parse, "flag": flag, "help": help})


@dataclass
class RunConfig:
    """Every tunable of the pipeline, shared by all subcommands.

    The fields after gold_dir are the CLI flags and config-file keys; the
    command line is built from their metadata.
    """

    inputs: list[Path] = field(default_factory=list)
    gold_dir: Path | None = None
    outdir: Path = _tunable(Path("out"), Path)
    mm_per_px: float | None = _tunable(None, float)
    alpha: float = _tunable(erel.DEFAULT_ALPHA, float)
    beta: int = _tunable(erel.DEFAULT_BETA, int)
    amin_frac: float = _tunable(erel.DEFAULT_AMIN_FRAC, float)
    amax_frac: float = _tunable(erel.DEFAULT_AMAX_FRAC, float)
    ringdown_threshold: int = _tunable(preprocess.DEFAULT_RINGDOWN_THRESHOLD, int)
    no_ringdown: bool = _tunable(False, _truthy)
    min_peaks: int = _tunable(selection.DEFAULT_MIN_PEAKS, int)
    z_min: float = _tunable(selection.DEFAULT_Z_MIN, float, flag="--zmin")
    z_max: float = _tunable(selection.DEFAULT_Z_MAX, float, flag="--zmax")
    seed: tuple[int, int] | None = _tunable(
        None, _parse_seed, help="seed pixel as x,y (default: frame centre)"
    )
    despeckle_radius: int = _tunable(1, int)
    jobs: int = _tunable(1, int)
    trace: bool = _tunable(False, _truthy)
    contour_points: int = _tunable(360, int)

    def validate(self) -> None:
        try:
            erel.check_criterion(self.alpha, self.beta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        checks = [
            (0 < self.amin_frac < self.amax_frac <= 1, "need 0 < amin-frac < amax-frac <= 1"),
            (0 <= self.ringdown_threshold <= 255, "ringdown threshold must lie in [0, 255]"),
            (self.min_peaks >= 1, "min-peaks must be >= 1"),
            (self.z_min < self.z_max, "z-min must be below z-max"),
            (self.despeckle_radius >= 1, "despeckle radius must be >= 1"),
            (self.jobs >= 1, "jobs must be >= 1"),
            (self.contour_points >= 16, "contour-points must be >= 16"),
            (self.mm_per_px is None or self.mm_per_px > 0, "mm-per-px must be positive"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)


@dataclass
class SegmentResult:
    lumen: Ellipse
    media: Ellipse
    trace: dict


def _extract(
    frame: Frame,
    cfg: RunConfig,
    artifact_model: preprocess.ArtifactModel | None,
) -> tuple[tuple[int, int], erel.ErelParams, erel.RegionSeries]:
    """The front half of the pipeline: (seed, params, extracted series).

    Despeckling, artifact removal, the seed check, and extraction of the
    seed's nested regions in the frame's area band.
    """
    cfg.validate()
    despeckled = median_filter(frame, cfg.despeckle_radius)
    if artifact_model is not None:
        despeckled = preprocess.remove_artifacts(despeckled, artifact_model)
    seed = cfg.seed if cfg.seed is not None else frame_center(frame)
    if not (0 <= seed[0] < frame.width and 0 <= seed[1] < frame.height):
        raise ConfigError(f"seed {seed} outside the {frame.width}x{frame.height} frame")
    params = erel.ErelParams.for_frame(
        despeckled.pixels.shape,
        alpha=cfg.alpha,
        beta=cfg.beta,
        amin_frac=cfg.amin_frac,
        amax_frac=cfg.amax_frac,
    )
    tree = build_component_tree(despeckled.pixels, seed, params.a_max)
    return seed, params, erel.extract_qplus(tree, params, despeckled)


def segment_frame(
    frame: Frame,
    cfg: RunConfig,
    artifact_model: preprocess.ArtifactModel | None = None,
) -> SegmentResult:
    """Run the four pipeline stages on one frame.

    Despeckling, artifact removal, region extraction, selection, and the
    final ellipse fit; the returned trace records the region count after
    each stage plus the full stability profile.
    """
    seed, params, series = _extract(frame, cfg, artifact_model)
    lumen_region, media_region, profile = selection.select_regions(
        series, z_min=cfg.z_min, z_max=cfg.z_max, min_peaks=cfg.min_peaks
    )
    lumen = ellipse_from_moments(
        lumen_region.centroid, lumen_region.mu_xx, lumen_region.mu_xy, lumen_region.mu_yy
    )
    media = ellipse_from_moments(
        media_region.centroid, media_region.mu_xx, media_region.mu_xy, media_region.mu_yy
    )
    trace = {
        "seed": list(seed),
        "area_band": [params.a_min, params.a_max],
        "regions_extracted": len(series),
        "regions_after_outliers": len(profile.v),
        "levels": [r.level for r in series],
        "areas": [r.area for r in series],
        "v": profile.v.tolist(),
        "omega": profile.omega.tolist(),
        "peaks": [[int(i), float(p)] for i, p in profile.peaks],
        "lumen_index": profile.lumen_index,
        "media_index": profile.media_index,
        "degenerate_selection": profile.degenerate,
    }
    return SegmentResult(lumen=lumen, media=media, trace=trace)


# ---------------------------------------------------------------------------
# Batch machinery
# ---------------------------------------------------------------------------

def _collect_inputs(inputs: list[Path]) -> list[Path]:
    files: list[Path] = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            files.extend(sorted(p.glob("*.pgm")))
        else:
            files.append(p)
    return files


# Ring-down halos and calibration squares cover a small part of the frame;
# a mask beyond this fraction means the inputs are not a decorrelating
# pullback (or the threshold is wrong) and removal would destroy tissue.
MAX_ARTIFACT_FRACTION = 0.2


def _build_artifact_model(frames: list[Frame], cfg: RunConfig) -> preprocess.ArtifactModel | None:
    if cfg.no_ringdown:
        return None
    if len(frames) < 2:
        print(
            "warning: single frame supplied; skipping ring-down removal "
            "(sequence minimum needs at least 2 frames)",
            file=sys.stderr,
        )
        return None
    if len({f.pixels.shape for f in frames}) > 1:
        print(
            "warning: frames differ in size, so they are not one pullback; "
            "skipping ring-down removal",
            file=sys.stderr,
        )
        return None
    model = preprocess.build_artifact_model(Sequence(frames=frames), cfg.ringdown_threshold)
    fraction = float(model.mask.mean())
    if fraction > MAX_ARTIFACT_FRACTION:
        print(
            f"warning: artifact mask covers {100 * fraction:.0f}% of the frame, "
            f"which no catheter artifact does; skipping ring-down removal "
            f"(check --ringdown-threshold or pass --no-ringdown)",
            file=sys.stderr,
        )
        return None
    return model


def _error_record(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def _map_frames(cfg: RunConfig, worker):
    """Load every input frame and run the worker on each.

    The worker maps a (frame stem, frame, config, artifact model) task to
    (result, None) or (None, error record); frames share one artifact model
    and run serially or in a process pool.  Returns (input files, loaded
    frames, worker results, error records), the last three keyed by input
    position.  Load and worker failures are both recorded, so one bad frame
    never stops the batch.
    """
    cfg.validate()
    files = _collect_inputs(cfg.inputs)
    if not files:
        raise ConfigError("no input frames found")
    cfg.outdir.mkdir(parents=True, exist_ok=True)

    frames: dict[int, Frame] = {}
    errors: dict[int, dict] = {}
    for i, path in enumerate(files):
        try:
            frames[i] = load_frame(path)
        except SegmentationError as exc:
            errors[i] = _error_record(exc)

    model = _build_artifact_model(list(frames.values()), cfg)

    tasks = [(files[i].stem, frame, cfg, model) for i, frame in frames.items()]
    if cfg.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(worker, tasks, chunksize=1))
    else:
        outcomes = [worker(t) for t in tasks]

    results: dict[int, object] = {}
    for i, (result, error) in zip(frames, outcomes):
        if error is not None:
            errors[i] = error
        else:
            results[i] = result
    return files, frames, results, errors


def _segment_worker(task: tuple):
    _, frame, cfg, model = task
    try:
        return segment_frame(frame, cfg, model), None
    except SegmentationError as exc:
        return None, _error_record(exc)


def _draw_contour(rgb: np.ndarray, contour: Contour, color, dashed: bool = False) -> None:
    h, w, _ = rgb.shape
    pts = metrics.densify(contour, 0.7)
    keep = np.ones(len(pts), dtype=bool)
    if dashed:
        keep = (np.arange(len(pts)) // 6) % 2 == 0
    xs = np.rint(pts[keep, 0]).astype(int)
    ys = np.rint(pts[keep, 1]).astype(int)
    ok = (xs >= 0) & (xs < w) & (ys >= 0) & (ys < h)
    rgb[ys[ok], xs[ok]] = color


def _write_overlay(path: Path, frame: Frame, lumen: Contour, media: Contour,
                   gold: tuple[Contour, ...]) -> None:
    rgb = np.repeat(frame.pixels[:, :, None], 3, axis=2).astype(np.uint8)
    for g in gold:
        _draw_contour(rgb, g, OVERLAY_GOLD, dashed=True)
    _draw_contour(rgb, media, OVERLAY_MEDIA)
    _draw_contour(rgb, lumen, OVERLAY_LUMEN)
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")
    path.write_bytes(header + rgb.tobytes())


def _load_gold(gold_dir: Path, stem: str) -> tuple[Contour, Contour] | None:
    """(lumen, media) gold contours of a frame; None when either is missing.

    A malformed contour file raises ContourFormatError.
    """
    paths = gold_dir / f"{stem}_lumen.txt", gold_dir / f"{stem}_media.txt"
    if not all(p.exists() for p in paths):
        return None
    return load_contour(paths[0]), load_contour(paths[1])


def _score_frame(
    stem: str,
    lumen: Ellipse,
    media: Ellipse,
    shape: tuple[int, int],
    gold: tuple[Contour, Contour],
    mm_per_px: float | None,
    artifact: str = "none",
) -> metrics.EvaluationReport:
    gold_lumen, gold_media = gold
    return metrics.EvaluationReport(
        frame=stem,
        artifact=artifact,
        lumen=metrics.structure_metrics(
            ellipse_mask(lumen, shape), _polygon_mask(gold_lumen, shape),
            rasterize_ellipse(lumen, 720), gold_lumen, mm_per_px,
        ),
        media=metrics.structure_metrics(
            ellipse_mask(media, shape), _polygon_mask(gold_media, shape),
            rasterize_ellipse(media, 720), gold_media, mm_per_px,
        ),
    )


def _polygon_mask(contour: Contour, shape: tuple[int, int]) -> np.ndarray:
    """Even-odd scanline fill of a closed polygon at pixel centres."""
    h, w = shape
    pts = contour.points
    x0 = max(0, int(np.floor(pts[:, 0].min())))
    x1 = min(w, int(np.ceil(pts[:, 0].max())) + 1)
    y0 = max(0, int(np.floor(pts[:, 1].min())))
    y1 = min(h, int(np.ceil(pts[:, 1].max())) + 1)
    out = np.zeros((h, w), dtype=bool)
    if x0 >= x1 or y0 >= y1:
        return out
    xs = np.arange(x0, x1, dtype=np.float64)
    px, py = pts[:, 0], pts[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    keep = py != qy
    px, py, qx, qy = px[keep], py[keep], qx[keep], qy[keep]
    for row, y in enumerate(range(y0, y1)):
        crosses = ((py <= y) & (qy > y)) | ((qy <= y) & (py > y))
        if not crosses.any():
            continue
        x_at = px[crosses] + (y - py[crosses]) * (qx[crosses] - px[crosses]) / (qy[crosses] - py[crosses])
        x_at.sort()
        # odd number of crossings strictly right of a pixel centre = inside
        out[y, x0:x1] = (np.searchsorted(x_at, xs, side="right") % 2).astype(bool)
    return out


@dataclass
class BatchSummary:
    processed: int
    failed: int
    reports: list[metrics.EvaluationReport]

    @property
    def exit_code(self) -> int:
        return 0 if self.failed == 0 else 2


def run_batch(cfg: RunConfig) -> BatchSummary:
    """Segment every input frame; emit contours, overlays, traces, and CSV.

    Frames are processed independently (optionally in parallel) and results
    are written in input order, so outputs are byte-identical regardless of
    the parallelism degree.  Per-frame failures, malformed gold included,
    are recorded and the batch continues.
    """
    files, frames, results, errors = _map_frames(cfg, _segment_worker)
    reports: list[metrics.EvaluationReport] = []
    for i, path in enumerate(files):
        stem = path.stem
        gold = None
        if i not in errors and cfg.gold_dir is not None:
            # before any output, so a frame with bad gold gets only its error
            try:
                gold = _load_gold(cfg.gold_dir, stem)
            except SegmentationError as exc:
                errors[i] = _error_record(exc)
        if i in errors:
            (cfg.outdir / f"{stem}_error.json").write_text(
                json.dumps({"frame": stem, **errors[i]}, indent=2) + "\n"
            )
            continue
        result = results[i]
        frame = frames[i]
        lumen_contour = rasterize_ellipse(result.lumen, cfg.contour_points)
        media_contour = rasterize_ellipse(result.media, cfg.contour_points)
        save_contour(lumen_contour, cfg.outdir / f"{stem}_lumen.txt")
        save_contour(media_contour, cfg.outdir / f"{stem}_media.txt")
        if gold is not None:
            report = _score_frame(
                stem, result.lumen, result.media, frame.pixels.shape, gold, cfg.mm_per_px,
            )
            reports.append(report)
            metrics.write_report_json(report, cfg.outdir / f"{stem}_metrics.json")
        _write_overlay(
            cfg.outdir / f"{stem}_overlay.ppm", frame,
            lumen_contour, media_contour, gold or (),
        )
        if cfg.trace:
            (cfg.outdir / f"{stem}_trace.json").write_text(
                json.dumps({"frame": stem, **result.trace}, indent=2) + "\n"
            )

    if reports:
        metrics.write_report_csv(reports, cfg.outdir / "summary.csv")
    return BatchSummary(processed=len(files) - len(errors), failed=len(errors), reports=reports)


# ---------------------------------------------------------------------------
# bestcase: upper bound over all extracted regions (no selection)
# ---------------------------------------------------------------------------

def bestcase_frame(
    frame: Frame,
    cfg: RunConfig,
    gold_lumen: Contour,
    gold_media: Contour,
    artifact_model: preprocess.ArtifactModel | None = None,
) -> dict:
    """Score every extracted region against gold; keep the maximum-JM ones."""
    _, _, series = _extract(frame, cfg, artifact_model)
    shape = frame.pixels.shape
    lumen_mask = _polygon_mask(gold_lumen, shape)
    media_mask = _polygon_mask(gold_media, shape)
    best = {"lumen": (-1.0, None), "media": (-1.0, None)}
    for idx, region in enumerate(series):
        mask = region.mask
        jm_l = metrics.jaccard(mask, lumen_mask)
        jm_m = metrics.jaccard(mask, media_mask)
        if jm_l > best["lumen"][0]:
            best["lumen"] = (jm_l, idx)
        if jm_m > best["media"][0]:
            best["media"] = (jm_m, idx)
    out = {"n_regions": len(series)}
    for name, gold, gold_mask in (
        ("lumen", gold_lumen, lumen_mask),
        ("media", gold_media, media_mask),
    ):
        jm, idx = best[name]
        region = series[idx]
        contour = region.boundary
        hd = metrics.hausdorff(contour, gold)
        out[name] = {
            "jm": jm,
            "index": idx,
            "area": region.area,
            "hd_px": hd,
            "hd_mm": None if cfg.mm_per_px is None else hd * cfg.mm_per_px,
            "pad": metrics.pad(float(region.area), float(np.count_nonzero(gold_mask))),
        }
    return out


def _bestcase_worker(task: tuple):
    stem, frame, cfg, model = task
    try:
        gold = _load_gold(cfg.gold_dir, stem)
        if gold is None:
            return None, {"error": "FileNotFoundError", "message": "missing gold contours"}
        return bestcase_frame(frame, cfg, *gold, model), None
    except SegmentationError as exc:
        return None, _error_record(exc)


# ---------------------------------------------------------------------------
# Command-line front end
# ---------------------------------------------------------------------------

def _tunables() -> dict:
    """{field name: field} of the RunConfig fields that are CLI flags."""
    return {f.name: f for f in fields(RunConfig) if "parse" in f.metadata}


def _add_tunable_flags(p: argparse.ArgumentParser) -> None:
    # Absent flags stay out of the namespace, so a config-file value or the
    # RunConfig default shows through.
    p.add_argument("--config", type=Path, help="key=value config file; flags override it")
    for name, f in _tunables().items():
        flag = f.metadata["flag"] or "--" + name.replace("_", "-")
        if f.metadata["parse"] is _truthy:
            p.add_argument(flag, dest=name, action="store_true", default=argparse.SUPPRESS)
        else:
            p.add_argument(flag, dest=name, type=f.metadata["parse"],
                           default=argparse.SUPPRESS, help=f.metadata["help"])


def _read_config_file(path: Path) -> dict:
    """Parsed values of a key=value config file; keys are RunConfig field names."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    tunables = _tunables()
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"bad config line {raw!r}")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in tunables:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = tunables[key].metadata["parse"](value)
        except ValueError as exc:
            raise ConfigError(f"bad config value {key}={value!r}") from exc
    return values


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the flags given, then the config file, then the defaults."""
    values = _read_config_file(args.config) if args.config else {}
    tunables = _tunables()
    values.update((k, v) for k, v in vars(args).items() if k in tunables)
    cfg = RunConfig(inputs=args.inputs, gold_dir=args.gold, **values)
    cfg.validate()
    return cfg


def _cmd_segment(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    summary = run_batch(cfg)
    print(f"segmented {summary.processed} frame(s), {summary.failed} failure(s)")
    return summary.exit_code


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    summary = run_batch(cfg)
    if not summary.reports:
        print("no frames could be scored against gold", file=sys.stderr)
        return 2
    agg = metrics.aggregate(summary.reports)
    (cfg.outdir / "aggregate.json").write_text(json.dumps(agg, indent=2) + "\n")
    stats = agg["all"]
    line = (
        f"frames {stats['count']}: lumen JM {stats['lumen_jm_mean']:.3f} "
        f"(sd {stats['lumen_jm_std']:.3f}), lumen HD {stats['lumen_hd_px_mean']:.2f} px"
    )
    if "lumen_hd_mm_mean" in stats:
        line += f" = {stats['lumen_hd_mm_mean']:.3f} mm (sd {stats['lumen_hd_mm_std']:.3f})"
    print(line)
    print(
        f"media JM {stats['media_jm_mean']:.3f} (sd {stats['media_jm_std']:.3f}), "
        f"media HD {stats['media_hd_px_mean']:.2f} px"
    )
    return summary.exit_code


def _cmd_bestcase(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    files, frames, results, errors = _map_frames(cfg, _bestcase_worker)
    entries = []
    for i, path in enumerate(files):
        if i not in errors:
            entries.append({**results[i], "frame": path.stem})
        elif i in frames:
            print(f"{path.stem}: {errors[i]['message']}", file=sys.stderr)
        else:  # the frame itself could not be loaded
            print(f"{path}: {errors[i]['message']}", file=sys.stderr)
    (cfg.outdir / "bestcase.json").write_text(json.dumps(entries, indent=2) + "\n")
    if entries:
        jl = float(np.mean([r["lumen"]["jm"] for r in entries]))
        jm = float(np.mean([r["media"]["jm"] for r in entries]))
        print(f"best-case over {len(entries)} frame(s): lumen JM {jl:.3f}, media JM {jm:.3f}")
    return 0 if not errors else 2


def _cmd_phantom(args: argparse.Namespace) -> int:
    if args.spec is not None:
        spec = phantom.load_spec(args.spec)
    else:
        spec = phantom.PhantomSpec(rng_seed=args.rng_seed, speckle_sigma=args.sigma)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    generated, truth = phantom.generate_phantom(spec, n_frames=args.frames)
    frames = generated.frames if isinstance(generated, Sequence) else [generated]
    for i, frame in enumerate(frames):
        save_frame(frame, outdir / f"phantom_{i:03d}.pgm")
        save_contour(truth.lumen_contour, outdir / f"phantom_{i:03d}_lumen.txt")
        save_contour(truth.media_contour, outdir / f"phantom_{i:03d}_media.txt")
    phantom.save_spec(spec, outdir / "phantom.spec")
    print(f"wrote {len(frames)} phantom frame(s) to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivuseg",
        description="Lumen and media segmentation for IVUS B-mode frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
        ("segment", _cmd_segment, "segment frames; score them when gold is given"),
        ("evaluate", _cmd_evaluate, "segment and report metrics against gold"),
        ("bestcase", _cmd_bestcase, "per-frame maximum-JM region over all candidates"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("inputs", nargs="+", type=Path)
        p.add_argument("--gold", type=Path, required=name != "segment",
                       help="directory of gold-standard contours")
        _add_tunable_flags(p)
        p.set_defaults(func=func)

    p_ph = sub.add_parser("phantom", help="generate synthetic frames with ground truth")
    p_ph.add_argument("--spec", type=Path, help="phantom spec file (key=value)")
    p_ph.add_argument("--outdir", type=Path, default=Path("phantom_out"))
    p_ph.add_argument("--frames", type=int, default=1)
    p_ph.add_argument("--rng-seed", type=int, dest="rng_seed", default=0)
    p_ph.add_argument("--sigma", type=float, default=0.3)
    p_ph.set_defaults(func=_cmd_phantom)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
