"""Which ivuseg calls the traced run wraps, and the per-layer metrics.

Span names are the module name plus the operation; a timing metric is the
span name plus ``_ms``.  Timings are per-frame medians over the serial
traced passes: every call of that name for one frame in one pass is summed
first.  Batch-level spans (the whole batch, the process pool, the artifact
model) are divided by the frames in their batch.  Counts are means per
distinct input frame and ``*_frames`` metrics count distinct frames; both
must come out the same in every pass, which ``counts_by_frame`` checks.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path

from spans import Probe, Span, Tracer, self_times

# Timed per frame; metric name is the span name plus "_ms".
FRAME_SPANS = (
    "imaging.load_frame", "imaging.median_filter", "imaging.save_contour",
    "preprocess.remove_artifacts",
    "component_tree.build", "component_tree.seed_chain",
    "erel.extract", "erel.gradient_maxima", "erel.select_extremum_levels",
    "selection.select_regions",
    "geometry.fit", "geometry.rasterize_ellipse", "geometry.ellipse_mask",
    "metrics.structure_metrics", "metrics.hausdorff", "metrics.densify",
    "cli.segment_frame",
)
# Timed per batch, reported per frame of the batch.
BATCH_SPANS = ("preprocess.build_artifact_model", "cli.pool")
# (metric, span, count key): mean over distinct frames of the per-frame sum.
COUNTS = (
    ("component_tree.chain_nodes", "component_tree.seed_chain", "chain_nodes"),
    ("erel.candidates", "erel.select_extremum_levels", "candidates"),
    ("erel.retained", "erel.select_extremum_levels", "retained"),
    ("preprocess.masked_px", "preprocess.remove_artifacts", "masked_px"),
    ("selection.regions_after_outliers", "selection.select_regions", "regions_after_outliers"),
    ("metrics.densify_points", "metrics.densify", "points"),
)
# (metric, span, count key): number of distinct frames where the flag is set.
FLAGS = (
    ("erel.retention_fallback_frames", "erel.select_extremum_levels", "fallback"),
    ("selection.degenerate_frames", "selection.select_regions", "degenerate"),
    ("selection.media_fallback_frames", "selection.select_regions", "media_fallback"),
)
# Counts that must repeat exactly for a frame; the quality metrics hang on them.
REPEATABLE = ("component_tree.seed_chain", "erel.select_extremum_levels",
              "selection.select_regions", "preprocess.remove_artifacts")

PER_LAYER = (
    [f"{name}_ms" for name in FRAME_SPANS + BATCH_SPANS]
    + ["erel.extract_self_ms", "cli.batch_self_ms"]
    + [m for m, _, _ in COUNTS + FLAGS]
    + ["erel.retained_ratio", "preprocess.us_per_masked_px",
       "cli.parent_serial_frac", "cli.failed_frac", "trace.overhead_frac"]
)


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_frac") or metric.endswith("_ratio"):
        return "fraction"
    if metric == "preprocess.us_per_masked_px":
        return "us/px"
    return "count"


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------

def _select_levels_counts(args, kwargs, result):
    n = len(args[0])
    # the retention fallback returns every candidate; the criterion itself
    # never retains position 0 (a local maximum needs a left neighbour)
    return {"candidates": n, "retained": len(result),
            "fallback": int(n > 0 and list(result) == list(range(n)))}


def _select_regions_counts(args, kwargs, result):
    from ivuseg import selection

    profile = result[2]
    min_peaks = kwargs.get("min_peaks", selection.DEFAULT_MIN_PEAKS)
    media_on_peak = (len(profile.peaks) >= min_peaks
                     and profile.media_index == profile.peaks[-1][0])
    return {"regions_after_outliers": len(profile.v),
            "degenerate": int(profile.degenerate),
            "media_fallback": int(not profile.degenerate and not media_on_peak)}


def _pool_class(tracer: Tracer, original):
    class TracedPool(original):
        def __enter__(self):
            self._span = tracer.begin("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._span)

    return TracedPool


def probes() -> list[Probe]:
    """Everything the traced run wraps.  cli imports some names directly,
    so those are wrapped where cli looks them up."""
    from ivuseg import cli, erel, metrics, preprocess, selection
    from ivuseg.component_tree import ComponentTree

    return [
        Probe(cli, "run_batch", "cli.run_batch", batch_level=True),
        Probe(cli, "ProcessPoolExecutor", "cli.pool", make=_pool_class),
        Probe(cli, "load_frame", "imaging.load_frame", frame_from=lambda a: Path(a[0]).stem),
        Probe(cli, "save_contour", "imaging.save_contour"),
        Probe(cli, "median_filter", "imaging.median_filter"),
        Probe(preprocess, "build_artifact_model", "preprocess.build_artifact_model",
              batch_level=True),
        Probe(preprocess, "remove_artifacts", "preprocess.remove_artifacts",
              count=lambda a, k, r: {"masked_px": int(a[1].mask.sum()),
                                     "mask_frac": float(a[1].mask.mean())}),
        Probe(cli, "segment_frame", "cli.segment_frame"),
        Probe(cli, "build_component_tree", "component_tree.build"),
        Probe(ComponentTree, "seed_chain", "component_tree.seed_chain",
              count=lambda a, k, r: {"chain_nodes": len(r)}),
        Probe(erel, "extract_qplus", "erel.extract"),
        Probe(erel, "gradient_magnitude_maxima", "erel.gradient_maxima"),
        Probe(erel, "select_extremum_levels", "erel.select_extremum_levels",
              count=_select_levels_counts),
        Probe(selection, "select_regions", "selection.select_regions",
              count=_select_regions_counts),
        Probe(cli, "ellipse_from_moments", "geometry.fit"),
        Probe(cli, "rasterize_ellipse", "geometry.rasterize_ellipse"),
        Probe(cli, "ellipse_mask", "geometry.ellipse_mask"),
        Probe(metrics, "structure_metrics", "metrics.structure_metrics"),
        Probe(metrics, "hausdorff", "metrics.hausdorff"),
        Probe(metrics, "densify", "metrics.densify",
              count=lambda a, k, r: {"points": len(r)}),
    ]


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def counts_by_frame(spans: list[Span], serial: set[int]) -> dict[str, dict[str, dict]]:
    """{span name: {frame: summed counts}} from the first serial pass that
    saw each frame; raises ValueError if a later pass counts differently."""
    per_occurrence: dict[tuple[str, int, str], dict] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.pass_no in serial and s.frame is not None and s.counts:
            acc = per_occurrence[(s.name, s.pass_no, s.frame)]
            for key, value in s.counts.items():
                acc[key] += value
    out: dict[str, dict[str, dict]] = defaultdict(dict)
    for (name, _, frame), counts in sorted(per_occurrence.items(), key=lambda kv: kv[0][1]):
        seen = out[name].get(frame)
        if seen is None:
            out[name][frame] = dict(counts)
        elif name in REPEATABLE and seen != dict(counts):
            raise ValueError(f"{name} counts for frame {frame} differ between passes: "
                             f"{seen} then {dict(counts)}")
    return out


def layer_metrics(
    spans: list[Span],
    serial: set[int],
    pooled: set[int],
    frames_per_batch: int,
    scale: dict[int, float] | None = None,
) -> dict[str, float]:
    """Per-layer metrics from the spans of the serial (and pooled) passes.

    ``serial`` passes run every frame in this process, so all spans exist;
    ``pooled`` passes give only the parent-side spans, from which the pool
    share is taken.  Times are multiplied by their pass's ``scale``.
    Metrics of layers that never ran are 0.
    """
    scale = scale or {}
    selfs = self_times(spans)
    frame_time: dict[str, dict[tuple[int, str], float]] = defaultdict(lambda: defaultdict(float))
    batch_time: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, selfs):
        k = scale.get(s.pass_no, 1.0)
        if s.pass_no in serial and s.frame is not None:
            frame_time[s.name][(s.pass_no, s.frame)] += k * s.duration
            if s.name == "erel.extract":
                frame_time["erel.extract_self"][(s.pass_no, s.frame)] += k * own
        if s.frame is None:
            batch_time[s.name][s.pass_no] += k * s.duration
            if s.name == "cli.run_batch":
                batch_time["cli.batch_self"][s.pass_no] += k * own

    out: dict[str, float] = {}
    for name in FRAME_SPANS + ("erel.extract_self",):
        out[f"{name}_ms"] = 1e3 * _median(list(frame_time[name].values()))
    for name in BATCH_SPANS + ("cli.batch_self",):
        passes = pooled if name == "cli.pool" else serial
        per = [t / frames_per_batch for p, t in batch_time[name].items() if p in passes]
        out[f"{name}_ms"] = 1e3 * _median(per)

    counts = counts_by_frame(spans, serial)
    for metric, name, key in COUNTS:
        vals = [c.get(key, 0) for c in counts.get(name, {}).values()]
        out[metric] = sum(vals) / len(vals) if vals else 0.0
    for metric, name, key in FLAGS:
        out[metric] = float(sum(1 for c in counts.get(name, {}).values() if c.get(key)))
    cands = sum(c["candidates"] for c in counts.get("erel.select_extremum_levels", {}).values())
    kept = sum(c["retained"] for c in counts.get("erel.select_extremum_levels", {}).values())
    out["erel.retained_ratio"] = kept / cands if cands else 0.0

    per_px = [
        1e6 * scale.get(s.pass_no, 1.0) * s.duration / s.counts["masked_px"]
        for s in spans
        if s.name == "preprocess.remove_artifacts" and s.pass_no in serial
        and s.counts.get("masked_px")
    ]
    out["preprocess.us_per_masked_px"] = _median(per_px)

    # share of a pooled batch's wall time spent outside the pool: the part
    # that two workers cannot shorten.  A serial batch is all parent time.
    fracs = []
    for p in pooled:
        total = batch_time["cli.run_batch"].get(p)
        pool = batch_time["cli.pool"].get(p, 0.0)
        if total:
            fracs.append((total - pool) / total)
    out["cli.parent_serial_frac"] = _median(fracs) if fracs else 1.0
    return out
