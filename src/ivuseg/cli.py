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
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import erel, metrics, phantom, preprocess, selection
from .component_tree import build_component_tree
from .errors import ConfigError, ContourFormatError, DimensionMismatchError, SegmentationError
from .geometry import Ellipse, ellipse_from_moments, ellipse_mask, rasterize_ellipse
from .imaging import (
    Contour,
    Frame,
    frame_center,
    load_contour,
    load_frame,
    median_filter,
    read_settings,
    save_contour,
    save_frame,
)

log = logging.getLogger(__name__)

OVERLAY_LUMEN = (255, 0, 255)
OVERLAY_MEDIA = (0, 255, 0)
OVERLAY_GOLD = (255, 255, 0)
# The largest pixel pitch accepted: at 1 mm/px a 384-px frame spans 38 cm,
# beyond any IVUS field of view.
MAX_MM_PER_PX = 1.0


def _truthy(text: str) -> bool:
    """1/true/yes or 0/false/no in any case; anything else is a ValueError."""
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {text!r}")
    return text.lower() in ("1", "true", "yes")


def _parse_seed(text: str) -> tuple[int, int] | None:
    if not text:
        return None
    try:
        x, y = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError("expected x,y") from exc
    return x, y


def _seed_flag(text: str) -> tuple[int, int] | None:
    """_parse_seed for the --seed flag, whose bad value is a configuration
    error (exit 3), not an argparse usage error."""
    try:
        return _parse_seed(text)
    except ValueError as exc:
        raise ConfigError(f"bad --seed value {text!r}; {exc}") from exc


def _tunable(default, parse, help: str | None = None):
    """A RunConfig field that is also a CLI flag and a config-file key.

    parse turns the text of a flag or config value into the field value
    (_truthy makes a store-true flag); the flag is the field name with
    dashes.
    """
    return field(default=default, metadata={"parse": parse, "help": help})


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
    ringdown_threshold: int = _tunable(preprocess.DEFAULT_RINGDOWN_THRESHOLD, int)
    no_ringdown: bool = _tunable(False, _truthy)
    seed: tuple[int, int] | None = _tunable(
        None, _parse_seed, help="seed pixel as x,y (default: frame centre)"
    )
    jobs: int = _tunable(1, int)
    trace: bool = _tunable(False, _truthy)
    contour_points: int = _tunable(360, int)

    def validate(self) -> None:
        checks = [
            (0 <= self.ringdown_threshold <= 255, "ringdown threshold must lie in [0, 255]"),
            (self.jobs >= 1, "jobs must be >= 1"),
            (self.contour_points >= 16, "contour-points must be >= 16"),
            # a seed past one frame's size is that frame's error: sizes differ
            (self.seed is None or min(self.seed) >= 0, "seed coordinates must be >= 0"),
            (self.mm_per_px is None or 0 < self.mm_per_px <= MAX_MM_PER_PX,
             f"mm-per-px must be a finite positive number, at most {MAX_MM_PER_PX:g} mm/px"),
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
    despeckled = median_filter(frame)
    if artifact_model is not None:
        despeckled = preprocess.remove_artifacts(despeckled, artifact_model)
    seed = cfg.seed if cfg.seed is not None else frame_center(frame)
    if not (0 <= seed[0] < frame.width and 0 <= seed[1] < frame.height):
        raise ConfigError(f"seed {seed} outside the {frame.width}x{frame.height} frame")
    params = erel.ErelParams.for_frame(despeckled.pixels.shape)
    tree = build_component_tree(despeckled.pixels, seed, params.a_max)
    return seed, params, erel.extract_qplus(tree, params)


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
    lumen_i, media_i, profile = selection.select_regions(series)
    lumen, media = (ellipse_from_moments(*series.moments(i)) for i in (lumen_i, media_i))
    trace = {
        "seed": list(seed),
        "area_band": [params.a_min, params.a_max],
        "regions_extracted": len(series),
        "regions_after_outliers": len(profile.v),
        "levels": series.levels.tolist(),
        "areas": series.areas.tolist(),
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
    if cfg.no_ringdown or not frames:
        # with no frame loaded, every input already has its error record
        return None
    if len(frames) < 2:
        log.warning(
            "only 1 frame loaded; skipping ring-down removal "
            "(sequence minimum needs at least 2 frames)"
        )
        return None
    try:
        model = preprocess.build_artifact_model(frames, cfg.ringdown_threshold)
    except DimensionMismatchError:
        log.warning(
            "frames differ in size, so they are not one pullback; "
            "skipping ring-down removal"
        )
        return None
    if not model.positions.size:
        # nothing to fill: frames skip a copy, and pool tasks a mask
        return None
    fraction = float(model.mask.mean())
    if fraction > MAX_ARTIFACT_FRACTION:
        log.warning(
            "artifact mask covers %.0f%% of the frame, which no catheter "
            "artifact does; skipping ring-down removal "
            "(check --ringdown-threshold or pass --no-ringdown)",
            100 * fraction,
        )
        return None
    return model


def _make_outdir(outdir: Path) -> None:
    """Create the output directory; a path that cannot be one is a ConfigError."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {outdir}: {exc.strerror or exc}"
        ) from exc


def _error_record(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def _map_frames(cfg: RunConfig, worker) -> list[tuple[Path, bool, object, dict | None]]:
    """Load every input frame and run the worker on each.

    The worker maps a (frame stem, frame, config, artifact model) task to
    (result, None) or (None, error record); frames share one artifact model
    and run serially or in a process pool.  Returns one (input file, loaded,
    worker result, error record) per input, in input order; loaded is False
    for a frame that could not be read.  Load and worker failures are both
    recorded, so one bad frame never stops the batch.

    Outputs are named by the input's stem, so two inputs with the same stem
    are a ConfigError before any frame runs, and so is a gold directory
    that is not one.
    """
    cfg.validate()
    if cfg.gold_dir is not None and not cfg.gold_dir.is_dir():
        raise ConfigError(f"gold directory {cfg.gold_dir} does not exist or is not a directory")
    files = _collect_inputs(cfg.inputs)
    if not files:
        raise ConfigError("no input frames found")
    stems: dict[str, Path] = {}
    for path in files:
        if stems.setdefault(path.stem, path) is not path:
            raise ConfigError(f"inputs {stems[path.stem]} and {path} share a stem, "
                              f"so their outputs would overwrite each other")
    _make_outdir(cfg.outdir)

    frames: dict[int, Frame] = {}
    outcomes: dict[int, tuple] = {}
    for i, path in enumerate(files):
        try:
            frames[i] = load_frame(path)
        except SegmentationError as exc:
            outcomes[i] = None, _error_record(exc)

    model = _build_artifact_model(list(frames.values()), cfg)
    if cfg.gold_dir is not None:
        # Importing the scorer's scipy.spatial in the middle of a batch, at
        # its first scored frame, leaves the heap so that every later frame
        # takes hundreds of page faults; loaded here, before any frame and
        # before the pool forks, it costs the frames nothing.
        metrics.load_kdtree()

    tasks = [(files[i].stem, frame, cfg, model) for i, frame in frames.items()]
    if cfg.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(tasks))) as pool:
            outcomes.update(zip(frames, pool.map(worker, tasks, chunksize=1)))
    else:
        outcomes.update(zip(frames, map(worker, tasks)))
    return [(path, i in frames, *outcomes[i]) for i, path in enumerate(files)]


def _segment_worker(task: tuple):
    """Segment one frame, then score it against its gold (when a gold
    directory is given and holds the frame's contours) and write its
    outputs; the result is the frame's EvaluationReport, or None unscored.

    The gold is read before any output, so a frame with bad gold gets only
    its error record.
    """
    stem, frame, cfg, model = task
    try:
        result = segment_frame(frame, cfg, model)
        gold = None
        if cfg.gold_dir is not None:
            gold = _load_gold(cfg.gold_dir, stem, frame.pixels.shape)
    except SegmentationError as exc:
        return None, _error_record(exc)

    lumen_contour = rasterize_ellipse(result.lumen, cfg.contour_points)
    media_contour = rasterize_ellipse(result.media, cfg.contour_points)
    save_contour(lumen_contour, cfg.outdir / f"{stem}_lumen.txt")
    save_contour(media_contour, cfg.outdir / f"{stem}_media.txt")
    report = None
    if gold is not None:
        report = _score_frame(stem, result.lumen, result.media, frame.pixels.shape, gold,
                              cfg.mm_per_px)
        metrics.write_report_json(report, cfg.outdir / f"{stem}_metrics.json")
    _write_overlay(
        cfg.outdir / f"{stem}_overlay.ppm", frame,
        lumen_contour, media_contour, () if gold is None else (gold.lumen, gold.media),
    )
    if cfg.trace:
        (cfg.outdir / f"{stem}_trace.json").write_text(
            json.dumps({"frame": stem, **result.trace}, indent=2) + "\n"
        )
    return report, None


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
    rgb = np.repeat(frame.pixels[:, :, None], 3, axis=2)
    for g in gold:
        _draw_contour(rgb, g, OVERLAY_GOLD, dashed=True)
    _draw_contour(rgb, media, OVERLAY_MEDIA)
    _draw_contour(rgb, lumen, OVERLAY_LUMEN)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii"))
        fh.write(rgb)


@dataclass
class Gold:
    """A frame's gold contours and the pixel masks they enclose."""

    lumen: Contour
    media: Contour
    lumen_mask: np.ndarray
    media_mask: np.ndarray


def _load_gold(gold_dir: Path, stem: str, shape: tuple[int, int]) -> Gold | None:
    """Gold of a frame of the given (height, width); None when either
    contour file is missing.

    A malformed contour file raises ContourFormatError, and so does a point
    more than one frame width or height outside the frame (scoring samples
    every gold segment at half-pixel spacing, so a far-off point would cost
    memory without bound) and a polygon that covers no pixel centre of the
    frame (its area is zero, so no score is defined).
    """
    paths = gold_dir / f"{stem}_lumen.txt", gold_dir / f"{stem}_media.txt"
    if not all(p.exists() for p in paths):
        return None
    h, w = shape
    contours = load_contour(paths[0]), load_contour(paths[1])
    for path, contour in zip(paths, contours):
        x, y = contour.points.T
        if (x < -w).any() or (x > 2 * w).any() or (y < -h).any() or (y > 2 * h).any():
            raise ContourFormatError(
                f"gold contour {path} has a point more than one frame size "
                f"outside the {w}x{h} frame"
            )
    masks = _polygon_mask(contours[0], shape), _polygon_mask(contours[1], shape)
    for path, mask in zip(paths, masks):
        if not mask.any():
            raise ContourFormatError(
                f"gold contour {path} covers no pixel centre of the {w}x{h} frame"
            )
    return Gold(*contours, *masks)


def _score_frame(
    stem: str,
    lumen: Ellipse,
    media: Ellipse,
    shape: tuple[int, int],
    gold: Gold,
    mm_per_px: float | None,
    artifact: str = "none",
) -> metrics.EvaluationReport:
    return metrics.EvaluationReport(
        frame=stem,
        artifact=artifact,
        lumen=metrics.structure_metrics(
            ellipse_mask(lumen, shape), gold.lumen_mask,
            rasterize_ellipse(lumen, 720), gold.lumen, mm_per_px,
        ),
        media=metrics.structure_metrics(
            ellipse_mask(media, shape), gold.media_mask,
            rasterize_ellipse(media, 720), gold.media, mm_per_px,
        ),
    )


def _polygon_mask(contour: Contour, shape: tuple[int, int]) -> np.ndarray:
    """Even-odd scanline fill of a closed polygon at pixel centres.

    Edge p -> q crosses the rows y with min(py, qy) <= y < max(py, qy), so
    a vertex on a row is crossed once and a horizontal edge never.  A pixel
    centre is inside when an odd number of its row's crossings lie at or
    left of it: each crossing toggles the row from the first centre at or
    right of it, and a cumulative sum along the row counts the toggles.
    All rows are filled in one pass.
    """
    h, w = shape
    pts = contour.points
    x0 = max(0, int(np.floor(pts[:, 0].min())))
    x1 = min(w, int(np.ceil(pts[:, 0].max())) + 1)
    y0 = max(0, int(np.floor(pts[:, 1].min())))
    y1 = min(h, int(np.ceil(pts[:, 1].max())) + 1)
    out = np.zeros((h, w), dtype=bool)
    if x0 >= x1 or y0 >= y1:
        return out
    px, py = pts[:, 0], pts[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    # the integer rows in [lo, hi) are those in [ceil(lo), ceil(hi))
    first_row = np.ceil(np.minimum(py, qy)).clip(y0, y1).astype(np.int64)
    n_rows = np.ceil(np.maximum(py, qy)).clip(y0, y1).astype(np.int64) - first_row
    edge = np.repeat(np.arange(len(px)), n_rows)
    nth = np.arange(n_rows.sum()) - np.repeat(np.cumsum(n_rows) - n_rows, n_rows)
    y = first_row[edge] + nth
    x_at = px[edge] + (y - py[edge]) * (qx[edge] - px[edge]) / (qy[edge] - py[edge])
    xs = np.arange(x0, x1, dtype=np.float64)
    toggle_at = np.searchsorted(xs, x_at, side="left")
    width = x1 - x0 + 1
    toggles = np.bincount((y - y0) * width + toggle_at, minlength=(y1 - y0) * width)
    inside = np.cumsum(toggles.reshape(y1 - y0, width)[:, :-1], axis=1) % 2 == 1
    out[y0:y1, x0:x1] = inside
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

    Frames are processed independently (optionally in parallel), each
    segmented, scored and written by its worker (_segment_worker); the
    error records and the CSV are written here in input order, so outputs
    are byte-identical regardless of the parallelism degree.  Per-frame
    failures, malformed gold included, are recorded and the batch continues.
    """
    outcomes = _map_frames(cfg, _segment_worker)
    reports = [report for _, _, report, _ in outcomes if report is not None]
    failed = 0
    for path, _, _, error in outcomes:
        if error is not None:
            failed += 1
            (cfg.outdir / f"{path.stem}_error.json").write_text(
                json.dumps({"frame": path.stem, **error}, indent=2) + "\n"
            )
    if reports:
        metrics.write_report_csv(reports, cfg.outdir / "summary.csv")
    return BatchSummary(processed=len(outcomes) - failed, failed=failed, reports=reports)


# ---------------------------------------------------------------------------
# bestcase: upper bound over all extracted regions (no selection)
# ---------------------------------------------------------------------------

def bestcase_frame(
    frame: Frame,
    cfg: RunConfig,
    gold: Gold,
    artifact_model: preprocess.ArtifactModel | None = None,
) -> dict:
    """Score every extracted region against gold; keep the maximum-JM ones.

    A region's overlap with a gold mask comes from one histogram of the
    mask's join indices (RegionSeries.overlaps), its union from the areas.
    The best region's Hausdorff distance is taken between its
    border-exposed pixel centres and the half-pixel densified gold contour.
    """
    _, _, series = _extract(frame, cfg, artifact_model)
    areas = series.areas
    out = {"n_regions": len(series)}
    for name, contour, mask in (
        ("lumen", gold.lumen, gold.lumen_mask),
        ("media", gold.media, gold.media_mask),
    ):
        gold_area = int(np.count_nonzero(mask))
        inter = series.overlaps(mask)
        jms = inter / (areas + gold_area - inter)
        idx = int(np.argmax(jms))
        area = int(areas[idx])
        hd = metrics.hausdorff_points(series.boundary(idx), metrics.densify(contour))
        out[name] = {
            "jm": float(jms[idx]),
            "index": idx,
            "area": area,
            "hd_px": hd,
            "hd_mm": None if cfg.mm_per_px is None else hd * cfg.mm_per_px,
            "pad": metrics.pad(float(area), float(gold_area)),
        }
    return out


def _bestcase_worker(task: tuple):
    stem, frame, cfg, model = task
    try:
        gold = _load_gold(cfg.gold_dir, stem, frame.pixels.shape)
        if gold is None:
            return None, {"error": "FileNotFoundError", "message": "missing gold contours"}
        return bestcase_frame(frame, cfg, gold, model), None
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
        flag = "--" + name.replace("_", "-")
        if f.metadata["parse"] is _truthy:
            p.add_argument(flag, dest=name, action="store_true", default=argparse.SUPPRESS)
        else:
            parse = _seed_flag if name == "seed" else f.metadata["parse"]
            p.add_argument(flag, dest=name, type=parse,
                           default=argparse.SUPPRESS, help=f.metadata["help"])


def _read_config_file(path: Path) -> dict:
    """Parsed values of a key=value config file, keyed by RunConfig field
    name; a key is a field name or its flag spelling (mm-per-px)."""
    parsers = {}
    for name, f in _tunables().items():
        parsers[name] = parsers[name.replace("_", "-")] = f.metadata["parse"]
    return {key.replace("-", "_"): value
            for key, value in read_settings(path, "config", parsers)}


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
    entries = []
    failed = 0
    for path, loaded, result, error in _map_frames(cfg, _bestcase_worker):
        if error is None:
            entries.append({**result, "frame": path.stem})
            continue
        failed += 1
        # a frame that could not be loaded is named by its path
        print(f"{path.stem if loaded else path}: {error['message']}", file=sys.stderr)
    (cfg.outdir / "bestcase.json").write_text(json.dumps(entries, indent=2) + "\n")
    if entries:
        jl = float(np.mean([r["lumen"]["jm"] for r in entries]))
        jm = float(np.mean([r["media"]["jm"] for r in entries]))
        print(f"best-case over {len(entries)} frame(s): lumen JM {jl:.3f}, media JM {jm:.3f}")
    return 0 if not failed else 2


def _cmd_phantom(args: argparse.Namespace) -> int:
    # Absent flags stay out of the namespace, so the spec file's value, or
    # the PhantomSpec default, shows through.
    flags = {k: v for k, v in vars(args).items() if k in ("rng_seed", "speckle_sigma")}
    try:
        spec = phantom.load_spec(args.spec) if args.spec is not None else phantom.PhantomSpec()
        spec = replace(spec, **flags)
        frames, truth = phantom.generate_phantom(spec, n_frames=args.frames)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.frames == 1:
        frames = [frames]
    outdir = Path(args.outdir)
    _make_outdir(outdir)
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
    p_ph.add_argument("--spec", type=Path,
                      help="phantom spec file (key=value); --rng-seed and --sigma override it")
    p_ph.add_argument("--outdir", type=Path, default=Path("phantom_out"))
    p_ph.add_argument("--frames", type=int, default=1)
    p_ph.add_argument("--rng-seed", type=int, dest="rng_seed", default=argparse.SUPPRESS)
    p_ph.add_argument("--sigma", type=float, dest="speckle_sigma", default=argparse.SUPPRESS)
    p_ph.set_defaults(func=_cmd_phantom)

    return parser


def main(argv: list[str] | None = None) -> int:
    # the batch's warnings reach the command line's stderr as "warning: ..."
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    log.addHandler(handler)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    raise SystemExit(main())
