"""Segmentation quality measures: overlap, contour distance, area error.

The Hausdorff distance is computed between point sets sampled on the two
contours; both polylines are densified to at most half-pixel spacing first
so the sampling error stays below a tenth of a pixel.  hausdorff_points
takes the point sets themselves.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .imaging import Contour

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

DENSIFY_SPACING = 0.5
# Every this many densified points one is queried exactly; the rest are
# bounded from those (see _directed_max).
HAUSDORFF_STRIDE = 8

ARTIFACT_TAGS = ("none", "bifurcation", "side_vessel", "shadow")


def jaccard(auto_mask: np.ndarray, man_mask: np.ndarray) -> float:
    """Overlap |A intersect M| / |A union M| between two pixel masks."""
    if auto_mask.shape != man_mask.shape:
        raise ValueError("mask dimensions differ")
    union = np.count_nonzero(auto_mask | man_mask)
    if union == 0:
        raise ValueError("both masks are empty; overlap undefined")
    inter = np.count_nonzero(auto_mask & man_mask)
    return inter / union


def densify(contour: Contour, max_spacing: float = DENSIFY_SPACING) -> np.ndarray:
    """Points on the contour polyline at most max_spacing apart.

    Segment p -> q contributes p + (q - p) * i / steps for i in [0, steps),
    steps = max(1, ceil(|q - p| / max_spacing)); a closed contour adds the
    segment back to its first point, an open one ends with its last point.
    Every segment is sampled in one pass.
    """
    pts = contour.points
    if pts.shape[0] == 1:
        return pts.copy()
    segs = np.vstack([pts, pts[:1]]) if contour.closed else pts
    start = segs[:-1]
    delta = segs[1:] - start
    length = np.hypot(delta[:, 0], delta[:, 1])
    steps = np.maximum(1, np.ceil(length / max_spacing).astype(np.int64))
    i = np.arange(steps.sum()) - np.repeat(np.cumsum(steps) - steps, steps)
    frac = (i / np.repeat(steps, steps))[:, None]
    out = np.repeat(start, steps, axis=0) + np.repeat(delta, steps, axis=0) * frac
    return out if contour.closed else np.vstack([out, pts[-1:]])


def load_kdtree() -> type[cKDTree]:
    """scipy.spatial's cKDTree, which answers the nearest-point queries.

    scipy.spatial is imported on the first call, not with the package:
    segmenting never scores, and the import is about a fifth of the
    package's start-up.  A batch that scores calls this before its first
    frame (cli._map_frames).
    """
    from scipy.spatial import cKDTree

    return cKDTree


def _directed_max(tree: cKDTree, pts: np.ndarray, tol: float) -> np.float64:
    """Largest distance from a point of pts to its nearest point in the tree.

    The nearest distance d is 1-Lipschitz, so d(p_j) <= d(p_i) + |p_j - p_i|;
    skipping points by such a bound is the idea of Taha & Hanbury, "An
    efficient algorithm for calculating the exact Hausdorff distance"
    (IEEE TPAMI 2015).  Every HAUSDORFF_STRIDE-th point and the last are
    queried; each point is bounded from the sampled points before and
    after it in array order, and only points whose bound comes within tol
    of the best sampled distance are queried too.  tol covers rounding in
    the queries and the bounds, so a skipped point is never the farthest,
    and the result is the largest of the same per-point query values a
    full query gives.  The bound holds for points in any order; in contour
    order neighbours are close, so the bounds are tight and few points
    need a query.
    """
    k = HAUSDORFF_STRIDE
    n = len(pts)
    sampled = np.minimum(np.arange((n - 1) // k + 2) * k, n - 1)
    d = tree.query(pts[sampled])[0]
    best = d.max()
    at = np.arange(n) // k
    prev, nxt = sampled[at], sampled[at + 1]
    bound = np.minimum(
        d[at] + np.hypot(*(pts - pts[prev]).T),
        d[at + 1] + np.hypot(*(pts - pts[nxt]).T),
    )
    live = np.flatnonzero(bound + tol > best)
    if live.size:
        best = max(best, tree.query(pts[live])[0].max())
    return best


def hausdorff(c1: Contour, c2: Contour) -> float:
    """Symmetric Hausdorff distance in pixels between two contours."""
    return hausdorff_points(densify(c1), densify(c2))


def _check_points(name: str, pts: np.ndarray) -> None:
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{name} must be an (n, 2) array of points, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise ValueError(f"{name} is empty; the Hausdorff distance needs a point")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} has a non-finite coordinate")


def hausdorff_points(p1: np.ndarray, p2: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two non-empty (n, 2) point
    sets, in any order.  An empty, non-finite or not (n, 2) set raises
    ValueError."""
    _check_points("p1", p1)
    _check_points("p2", p2)
    kdtree = load_kdtree()
    # rounding in a distance or a bound is a few ulps of the coordinates
    tol = 1e-9 * (1.0 + max(np.abs(p1).max(), np.abs(p2).max()))
    d12 = _directed_max(kdtree(p2), p1, tol)
    d21 = _directed_max(kdtree(p1), p2, tol)
    return float(max(d12, d21))


def pad(auto_area: float, man_area: float) -> float:
    """Relative area difference |auto - man| / man."""
    if man_area <= 0:
        raise ValueError("manual area must be positive")
    return abs(auto_area - man_area) / man_area


# ---------------------------------------------------------------------------
# Per-frame reports and aggregation
# ---------------------------------------------------------------------------

@dataclass
class StructureMetrics:
    jm: float
    hd_px: float
    pad: float
    hd_mm: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.jm <= 1:
            raise ValueError("jm must lie in [0, 1]")
        if self.hd_px < 0 or self.pad < 0:
            raise ValueError("hd and pad must be non-negative")


@dataclass
class EvaluationReport:
    frame: str
    artifact: str
    lumen: StructureMetrics
    media: StructureMetrics

    def __post_init__(self) -> None:
        if self.artifact not in ARTIFACT_TAGS:
            raise ValueError(f"unknown artifact tag {self.artifact!r}")


def structure_metrics(
    auto_mask: np.ndarray,
    man_mask: np.ndarray,
    auto_contour: Contour,
    man_contour: Contour,
    mm_per_px: float | None = None,
) -> StructureMetrics:
    hd_px = hausdorff(auto_contour, man_contour)
    return StructureMetrics(
        jm=jaccard(auto_mask, man_mask),
        hd_px=hd_px,
        pad=pad(float(np.count_nonzero(auto_mask)), float(np.count_nonzero(man_mask))),
        hd_mm=None if mm_per_px is None else hd_px * mm_per_px,
    )


CSV_COLUMNS = (
    "frame", "artifact",
    "jm_lumen", "hd_lumen_px", "hd_lumen_mm", "pad_lumen",
    "jm_media", "hd_media_px", "hd_media_mm", "pad_media",
)


def report_row(report: EvaluationReport) -> dict:
    def fmt(value: float | None) -> str:
        return "" if value is None else f"{value:.6f}"

    return {
        "frame": report.frame,
        "artifact": report.artifact,
        "jm_lumen": fmt(report.lumen.jm),
        "hd_lumen_px": fmt(report.lumen.hd_px),
        "hd_lumen_mm": fmt(report.lumen.hd_mm),
        "pad_lumen": fmt(report.lumen.pad),
        "jm_media": fmt(report.media.jm),
        "hd_media_px": fmt(report.media.hd_px),
        "hd_media_mm": fmt(report.media.hd_mm),
        "pad_media": fmt(report.media.pad),
    }


def write_report_csv(reports: list[EvaluationReport], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rep in reports:
            writer.writerow(report_row(rep))


def write_report_json(report: EvaluationReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(asdict(report), indent=2) + "\n")


def aggregate(reports: list[EvaluationReport]) -> dict:
    """Mean and standard deviation of each measure per artifact category."""
    out: dict = {}
    groups: dict[str, list[EvaluationReport]] = {"all": list(reports)}
    for rep in reports:
        groups.setdefault(rep.artifact, []).append(rep)
    for tag, group in groups.items():
        if not group:
            continue
        stats: dict = {"count": len(group)}
        for structure in ("lumen", "media"):
            for measure in ("jm", "hd_px", "hd_mm", "pad"):
                vals = [getattr(getattr(r, structure), measure) for r in group]
                if any(v is None for v in vals):
                    continue
                arr = np.asarray(vals, dtype=np.float64)
                stats[f"{structure}_{measure}_mean"] = float(arr.mean())
                stats[f"{structure}_{measure}_std"] = float(arr.std())
        out[tag] = stats
    return out
