"""Choice of the lumen and media regions from the nested series.

Each region is scored by the product of its boundary length, mean
intensity, and entropy; the stability of that score across consecutive
regions (its value over the change between its two neighbours) peaks where
the evolution saturates, which is where the anatomy sits.  The more
prominent of the first two peaks marks the lumen, the last peak the media;
with few peaks the media falls back to the outermost region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .erel import RegionSeries, _local_maxima
from .errors import DegenerateSelectionError

# Plateaus in the score vector make the stability ratio blow up; they are
# maximal stability by definition, encoded as a large finite sentinel so
# traces stay JSON-serialisable.
STABILITY_SENTINEL = 1e18

DEFAULT_Z_MIN = -3.0
DEFAULT_Z_MAX = 3.0
DEFAULT_MIN_PEAKS = 3


@dataclass
class StabilityProfile:
    """Decision record of the selection strategy.

    peaks and the chosen indices refer to positions in the (outlier-pruned)
    region series; omega[j] is the stability of series index j + 1.
    """

    v: np.ndarray
    omega: np.ndarray
    peaks: list[tuple[int, float]]
    lumen_index: int = -1
    media_index: int = -1
    degenerate: bool = False


def remove_outliers(
    areas: np.ndarray,
    z_min: float = DEFAULT_Z_MIN,
    z_max: float = DEFAULT_Z_MAX,
) -> np.ndarray:
    """Positions of the areas that are no modified Z-score outlier.

    M_i = 0.6745 (A_i - median) / MAD; areas with M_i < z_min or
    M_i > z_max are dropped.  A zero MAD keeps everything.  Dropping more
    than a quarter of the areas raises DegenerateSelectionError: that many
    "outliers" means the area distribution itself is not MAD-testable (e.g.
    two separated size clusters), and the caller keeps the unfiltered
    series instead.
    """
    areas = np.asarray(areas, dtype=np.float64)
    if areas.size == 0:
        raise ValueError("cannot filter an empty series")
    med = float(np.median(areas))
    mad = float(np.median(np.abs(areas - med)))
    if mad == 0.0:
        return np.arange(areas.size)
    m = 0.6745 * (areas - med) / mad
    keep = np.flatnonzero((m >= z_min) & (m <= z_max))
    if (areas.size - keep.size) * 4 > areas.size:
        raise DegenerateSelectionError(
            "selection degenerate: outlier screen would drop more than a "
            "quarter of the series"
        )
    return keep


def feature_vector(series: RegionSeries) -> np.ndarray:
    """Per-region texture score: boundary length x mean intensity x entropy."""
    return series.boundary_length * series.mean_intensity * series.entropy


def stability_scores(v: np.ndarray) -> np.ndarray:
    """Stability of each interior score: v_i / (v_{i+1} - v_{i-1}).

    Defined for the interior indices only; a flat neighbourhood maps to the
    sentinel.  Vectors shorter than 3 yield an empty result.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size < 3:
        return np.empty(0, dtype=np.float64)
    denom = v[2:] - v[:-2]
    omega = np.full(v.size - 2, STABILITY_SENTINEL)
    nz = denom != 0
    omega[nz] = v[1:-1][nz] / denom[nz]
    return omega


def find_peaks(values: np.ndarray) -> list[tuple[int, float]]:
    """Interior local maxima with topographic prominence, sorted by index.

    A peak is strictly greater than its neighbours (plateaus count once, at
    their leftmost index).  Prominence is the peak height above the higher
    of the two key saddles: on each side, the lowest value before a
    strictly higher value or the vector end.
    """
    vals = np.asarray(values, dtype=np.float64)
    return [(int(i), _prominence(vals, int(i))) for i in _local_maxima(vals)]


def _prominence(vals: np.ndarray, idx: int) -> float:
    h = vals[idx]
    left_min = h
    for k in range(idx - 1, -1, -1):
        if vals[k] > h:
            break
        left_min = min(left_min, vals[k])
    right_min = h
    for k in range(idx + 1, vals.size):
        if vals[k] > h:
            break
        right_min = min(right_min, vals[k])
    return float(h - max(left_min, right_min))


def build_profile(v: np.ndarray) -> StabilityProfile:
    """Locate the stability peaks of the scores v (series coordinates)."""
    v = np.asarray(v, dtype=np.float64)
    omega = stability_scores(v)
    peaks = [(idx + 1, prom) for idx, prom in find_peaks(omega)]
    return StabilityProfile(v=v, omega=omega, peaks=peaks)


def assign_lumen_media(
    profile: StabilityProfile,
    min_peaks: int = DEFAULT_MIN_PEAKS,
) -> tuple[int, int]:
    """Positions of the lumen and the media in the profile's series.

    The lumen is the higher-prominence peak among the first two (ties go to
    the earlier one).  With at least min_peaks peaks the media is the last
    peak; fewer peaks mean artifacts disturbed the evolution and the last
    region stands in.  Without any peak the lumen falls back to the most
    stable region.
    """
    n = len(profile.v)
    if n == 0:
        raise ValueError("cannot select from an empty series")
    if n == 1:
        profile.lumen_index = profile.media_index = 0
        profile.degenerate = True
        return 0, 0

    peaks = profile.peaks
    if not peaks:
        if profile.omega.size:
            lumen_idx = int(np.argmax(profile.omega)) + 1
        else:
            lumen_idx = 0
        media_idx = n - 1
    else:
        first_two = peaks[:2]
        best = first_two[0]
        if len(first_two) == 2 and first_two[1][1] > best[1]:
            best = first_two[1]
        lumen_idx = best[0]
        media_idx = peaks[-1][0] if len(peaks) >= min_peaks else n - 1

    if lumen_idx == media_idx:
        media_idx = n - 1
    profile.lumen_index = lumen_idx
    profile.media_index = media_idx
    return lumen_idx, media_idx


def select_regions(
    series: RegionSeries,
    z_min: float = DEFAULT_Z_MIN,
    z_max: float = DEFAULT_Z_MAX,
    min_peaks: int = DEFAULT_MIN_PEAKS,
) -> tuple[int, int, StabilityProfile]:
    """Full selection: outlier pruning, scoring, peak analysis, labelling.

    Returns the lumen's and the media's positions in series, and the
    profile, whose indices are positions in the pruned series.  When the
    outlier screen would drop more than a quarter of the series
    (DegenerateSelectionError), the unfiltered series is used instead.
    """
    try:
        kept = remove_outliers(series.areas, z_min=z_min, z_max=z_max)
    except DegenerateSelectionError:
        kept = np.arange(len(series))
    profile = build_profile(feature_vector(series)[kept])
    lumen, media = assign_lumen_media(profile, min_peaks=min_peaks)
    return int(kept[lumen]), int(kept[media]), profile
