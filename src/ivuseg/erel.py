"""Extraction of nested dark-core regions from the component tree.

A 20 MHz IVUS lumen and media both evolve from a dark surface toward a
bright boundary, so only the chain of sub-level components rooted at the
catheter centre is tracked.  The chain is cut to an area band and thinned
by area, and every thinned candidate is a region of the series.

EREL's extremum-level criterion (Faraji et al., ICIP 2015) would keep only
the levels whose region boundary runs along maxima of the gradient
magnitude.  It is not applied: before its fallback to the whole thinned
band it finds at most 7 of the MIN_RETAINED_LEVELS = 24 levels it needs on
every phantom frame measured (544 frames at 384 and 768 px), so it never
keeps a level there.  gradient_magnitude_maxima and select_extremum_levels
stay as that criterion's reference, with its fixed settings DEFAULT_ALPHA
= 0.5 and DEFAULT_BETA = 1; extraction calls neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from .component_tree import ComponentTree
from .errors import NoCandidateRegionsError

DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 1
DEFAULT_AMIN_FRAC = 1.0 / 100.0
DEFAULT_AMAX_FRAC = 1.0 / 3.0
# Below this many retained levels the extremum filter falls back to the whole
# area band: the selection stage reads the evolution of the series (stability
# of consecutive scores), which a handful of isolated snapshots cannot carry.
MIN_RETAINED_LEVELS = 24


@dataclass
class ErelParams:
    """The area band [a_min, a_max] of extracted regions, in pixels."""

    a_min: int = 0
    a_max: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.a_min < self.a_max:
            raise ValueError("area band must satisfy 0 < a_min < a_max")

    @classmethod
    def for_frame(cls, shape: tuple[int, int]) -> "ErelParams":
        """The paper's area band: A_min = (R x C)/100, A_max = (R x C)/3.

        A frame too small to leave an area band has no candidate regions,
        which is a per-frame failure, not a bad config.
        """
        n = shape[0] * shape[1]
        a_min = int(n * DEFAULT_AMIN_FRAC)
        a_max = int(n * DEFAULT_AMAX_FRAC)
        if not 0 < a_min < a_max:
            raise NoCandidateRegionsError(
                f"no candidate regions: a {shape[1]}x{shape[0]} frame leaves an "
                f"empty area band [{a_min}, {a_max}]"
            )
        return cls(a_min=a_min, a_max=a_max)


@dataclass(eq=False)
class RegionSeries:
    """Strictly nested regions in increasing area order, one column each.

    The rows are extract_qplus's thinned area band, every candidate of it.
    Row i is chain node index[i] at level levels[i]: its area, the number
    of its border-exposed pixels (boundary_length), mean intensity and
    entropy (bits) of its intensity histogram, the columns selection reads.
    moments(i) computes a region's centroid and central moments on demand,
    for the regions that get an ellipse.

    Every region lies inside the largest one's bounding box, whose top-left
    pixel is origin (x, y) in a frame of the given shape (height, width).
    row_map covers that box: each pixel holds the first row whose region
    contains it, or len(series) when none does, so row i's region is the
    pixels where row_map <= i.  reach_map covers it too: each pixel holds
    the first row whose outside background reaches none of its
    4-neighbours, so row i's border-exposed pixels are those where
    row_map <= i < reach_map.
    """

    index: np.ndarray
    levels: np.ndarray
    areas: np.ndarray
    boundary_length: np.ndarray
    mean_intensity: np.ndarray
    entropy: np.ndarray
    row_map: np.ndarray
    reach_map: np.ndarray
    origin: tuple[int, int]
    shape: tuple[int, int]

    def __len__(self) -> int:
        return len(self.index)

    def _box(self) -> tuple[slice, slice]:
        (x0, y0), (bh, bw) = self.origin, self.row_map.shape
        return np.s_[y0 : y0 + bh, x0 : x0 + bw]

    def _row(self, i: int) -> int:
        """Row i as a sequence index: negative counts from the end, and a
        row outside the series is an IndexError."""
        return range(len(self))[i]

    def mask(self, i: int) -> np.ndarray:
        """Region i's pixel mask over the frame."""
        out = np.zeros(self.shape, dtype=bool)
        out[self._box()] = self.row_map <= self._row(i)
        return out

    def moments(self, i: int) -> tuple[tuple[float, float], float, float, float]:
        """Region i's centroid (cx, cy) and area-normalised second central
        moments mu_xx, mu_xy, mu_yy: the arguments of ellipse_from_moments.

        The region's pixel counts per box column and per box row, and x
        summed per box row, give its sums of x, y, xx, xy and yy as exact
        integers.
        """
        k = self._row(i)
        region = self.row_map <= k
        (x0, y0), (bh, bw) = self.origin, region.shape
        xs, ys = np.arange(x0, x0 + bw, dtype=np.int64), np.arange(y0, y0 + bh, dtype=np.int64)
        n_col, n_row = region.sum(axis=0, dtype=np.int64), region.sum(axis=1, dtype=np.int64)
        sx, sy, sxx, sxy, syy = (float(v) for v in (
            n_col @ xs, n_row @ ys, n_col @ (xs * xs), (region @ xs) @ ys, n_row @ (ys * ys)
        ))
        a = float(self.areas[k])
        cx, cy = sx / a, sy / a
        return (cx, cy), sxx / a - cx * cx, sxy / a - cx * cy, syy / a - cy * cy

    def boundary(self, i: int) -> np.ndarray:
        """Region i's border-exposed pixels as an (n, 2) array of frame
        (x, y) in raster order: the pixels boundary_length[i] counts."""
        k = self._row(i)
        ys, xs = np.nonzero((self.row_map <= k) & (k < self.reach_map))
        x0, y0 = self.origin
        return np.column_stack([xs + x0, ys + y0])

    def overlaps(self, mask: np.ndarray) -> np.ndarray:
        """Pixels of the frame mask inside each region.

        Region i holds the box pixels whose row is at most i, so one
        cumulative histogram of the rows under the mask counts every region.
        """
        if mask.shape != self.shape:
            raise ValueError(f"mask shape {mask.shape} is not the frame's {self.shape}")
        inside = np.bincount(self.row_map[mask[self._box()]], minlength=len(self) + 1)
        return np.cumsum(inside[: len(self)])


# ---------------------------------------------------------------------------
# Gradient support: 3x3 Sobel magnitude followed by non-maximum suppression
# along the quantised gradient direction.  The extremum criterion's input;
# extraction does not call it.
# ---------------------------------------------------------------------------

def gradient_magnitude_maxima(pixels: np.ndarray) -> np.ndarray:
    """Boolean map of pixels that are local maxima of |grad| along the gradient.

    Integer arithmetic throughout: squared magnitudes compare the same way
    magnitudes do, and the direction quantisation thresholds (tan 22.5 deg)
    are evaluated in a cross-multiplied form.
    """
    f = np.pad(pixels, 1, mode="edge").astype(np.int32)
    gx = (
        (f[:-2, 2:] + 2 * f[1:-1, 2:] + f[2:, 2:])
        - (f[:-2, :-2] + 2 * f[1:-1, :-2] + f[2:, :-2])
    )
    gy = (
        (f[2:, :-2] + 2 * f[2:, 1:-1] + f[2:, 2:])
        - (f[:-2, :-2] + 2 * f[:-2, 1:-1] + f[:-2, 2:])
    )
    mag = gx * gx + gy * gy  # |g| <= 4*255 so the squares stay in int32

    ax = np.abs(gx)
    ay = np.abs(gy)
    # tan(22.5 deg) = 0.41421356; scale by 2^20 to stay integral
    tan_scaled = 434322
    horizontal = (ay << 20) <= tan_scaled * ax    # gradient mostly along x
    vertical = (ax << 20) <= tan_scaled * ay
    diag_main = ~horizontal & ~vertical & (np.sign(gx) == np.sign(gy))
    diag_anti = ~horizontal & ~vertical & ~diag_main

    m = np.pad(mag, 1, mode="constant", constant_values=-1)
    c = m[1:-1, 1:-1]
    keep = np.zeros(c.shape, dtype=bool)
    for sel, (dy, dx) in (
        (horizontal, (0, 1)),
        (vertical, (1, 0)),
        (diag_main, (1, 1)),
        (diag_anti, (1, -1)),
    ):
        n1 = m[1 + dy : m.shape[0] - 1 + dy, 1 + dx : m.shape[1] - 1 + dx]
        n2 = m[1 - dy : m.shape[0] - 1 - dy, 1 - dx : m.shape[1] - 1 - dx]
        keep |= sel & (c >= n1) & (c >= n2)
    return keep & (mag > 0)


# ---------------------------------------------------------------------------
# Boundary machinery.  A region's boundary is its border-exposed pixels:
# region pixels with a 4-neighbour in the background that is 4-connected to
# the outside.  Hole boundaries do not count, and neither do pocket pixels
# that touch the outside only across a diagonal gap.  One widest-path pass
# (_boundary_counts) finds them for all candidates: boundary_length counts
# them, and RegionSeries.boundary lists them.
# ---------------------------------------------------------------------------

def _boundary_counts(band_map: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(boundary lengths, reach map) of all m candidates in one pass.

    band_map is extract_qplus's map of the largest candidate's bounding box:
    each pixel holds the position of the first candidate that contains it,
    or m when none does.  Every candidate lies inside the box, and
    everything outside it is background that reaches the frame border.

    Let L(p) be the band map's value at pixel p, and m on a one-pixel pad
    around the box.  Let e(q) be the widest-path value of q: the largest,
    over 4-paths from the pad to q, of the smallest L on the path (T. C.
    Hu, "The maximum capacity route problem", 1961; L. Vincent, IEEE TIP
    1993, computes it as a grey reconstruction).  q lies in candidate c's
    outside background exactly when e(q) > c.  So p lies on c's boundary
    exactly when L(p) <= c < E(p), where E(p) is the largest e over p's
    4-neighbours, and the counts are a difference array summed up to each
    candidate.  The reach map is E over the box.

    L, and so e, is constant on each horizontal run of equal L.  The runs
    are the nodes of a graph with one edge per pair of 4-adjacent runs,
    weighted so that its minimum spanning tree maximises the smaller L of
    the edges' ends.  The tree path from the pad to a run is then a widest
    path, and pointer jumping takes the running minimum of L along it.
    """
    ch, cw = band_map.shape
    w2 = cw + 2
    lp = np.full((ch + 2, w2), m, dtype=band_map.dtype)
    lp[1:-1, 1:-1] = band_map
    flat = lp.ravel()

    starts = np.empty(flat.size, dtype=bool)
    starts[0] = True
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::w2] = True
    run = np.cumsum(starts, dtype=np.int32)
    run -= 1
    n_runs = int(run[-1]) + 1
    # Renumber runs by decreasing L (stable, so the pad's first run stays
    # node 0) and file each edge under its lower-L end: the edge weights
    # then grow with the row, the graph's data is already sorted, and the
    # spanning tree's sort of the weights costs one pass.
    run_l = flat[starts]
    order = np.argsort(m - run_l, kind="stable")
    rank = np.empty(n_runs, dtype=np.int32)
    rank[order] = np.arange(n_runs, dtype=np.int32)
    run_l = run_l[order]

    # A run meets the run to its left in its row, and every run of the
    # next row it overlaps; an overlap begins where a run of either row
    # starts, so those columns list each vertical pair exactly once.
    right = np.flatnonzero(starts)
    right = right[right % w2 != 0]
    grid = starts.reshape(-1, w2)
    below = np.flatnonzero(grid[:-1] | grid[1:])
    a = rank[np.concatenate([run[right] - 1, run[below]])]
    b = rank[np.concatenate([run[right], run[below + w2]])]
    lower = np.maximum(a, b)
    weight = m + 2.0 - run_l[lower]
    graph = csr_matrix((weight, (lower, np.minimum(a, b))), shape=(n_runs, n_runs))
    tree = minimum_spanning_tree(graph, overwrite=True)
    _, up = breadth_first_order(tree, 0, directed=False, return_predecessors=True)
    up[0] = 0
    # e[v] is the smallest L on the tree path from v up to and including
    # up[v]; each round doubles the path until it ends at the pad (node 0)
    e = np.minimum(run_l, run_l[up])
    while up.any():
        e = np.minimum(e, e[up])
        up = up[up]

    ep = e[rank][run].reshape(ch + 2, w2)
    reach = np.maximum(
        np.maximum(ep[:-2, 1:-1], ep[2:, 1:-1]), np.maximum(ep[1:-1, :-2], ep[1:-1, 2:])
    )
    inner = lp[1:-1, 1:-1]
    on = inner < reach
    diff = np.bincount(inner[on], minlength=m + 1) - np.bincount(reach[on], minlength=m + 1)
    return np.cumsum(diff[:m]), reach


# ---------------------------------------------------------------------------
# Extremum-level retention: EREL's criterion, kept as the reference that
# shows it keeps no level on the phantoms; extraction does not call it.
# ---------------------------------------------------------------------------

def _moving_average(values: np.ndarray, half_width: int) -> np.ndarray:
    """Symmetric moving average over a window clamped to the vector ends."""
    n = values.size
    csum = np.r_[0.0, np.cumsum(values)]
    lo = np.maximum(np.arange(n) - half_width, 0)
    hi = np.minimum(np.arange(n) + half_width + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Interior local maxima, plateaus reduced to their leftmost index."""
    n = values.size
    out = []
    i = 1
    while i < n - 1:
        if values[i] > values[i - 1]:
            j = i
            while j + 1 < n and values[j + 1] == values[i]:
                j += 1
            if j < n - 1 and values[j + 1] < values[i]:
                out.append(i)
            i = j + 1
        else:
            i += 1
    return np.asarray(out, dtype=np.int64)


def select_extremum_levels(lengths: np.ndarray, hits: np.ndarray) -> list[int]:
    """Pick the candidate positions whose boundaries ride gradient maxima.

    lengths[i] is candidate i's boundary length, the number of its
    border-exposed pixels, and hits[i] how many of those are
    gradient-magnitude maxima, over the border-exposed pixels that
    RegionSeries.boundary lists.  The per-level criterion is
    the fraction hits / lengths; after smoothing with a moving average of
    half-width DEFAULT_BETA, local maxima at or above DEFAULT_ALPHA times
    the mean raw criterion are retained.  Too few retained levels fall back
    to keeping every candidate: the selection stage downstream reads the
    evolution of the series, which a handful of isolated snapshots cannot
    carry.
    """
    lengths = np.asarray(lengths)
    if not lengths.size:
        return []
    q = np.asarray(hits) / np.maximum(lengths, 1)
    smoothed = _moving_average(q, DEFAULT_BETA)
    threshold = DEFAULT_ALPHA * float(q.mean())
    retained = [int(i) for i in _local_maxima(smoothed) if smoothed[i] >= threshold]
    if len(retained) < MIN_RETAINED_LEVELS:
        return list(range(len(lengths)))
    return retained


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def extract_qplus(tree: ComponentTree, params: ErelParams) -> RegionSeries:
    """Extract the nested dark-core regions rooted at the tree's seed.

    The seed's component chain is cut to the [a_min, a_max] area band and
    thinned by area, and the thinned nodes' attributes, read from the
    image the tree was built on (chain.pixels), are gathered into the
    columns the selection stage reads: every thinned node is a row.
    Chain nodes are already deduplicated by construction: a node only
    exists at levels where the component gained pixels, so areas are
    strictly increasing.

    The tree must be built with a stop cap of at least a_max, so that its
    chain holds the whole band: ValueError otherwise.
    """
    chain = tree.seed_chain()
    pixels = chain.pixels
    areas = chain.areas
    if not (areas[-1] > params.a_max or areas[-1] == pixels.size):
        raise ValueError(
            f"the tree's chain stops at {areas[-1]} px, inside the area band "
            f"[{params.a_min}, {params.a_max}]: build it with a stop cap of at "
            f"least a_max"
        )
    band = np.flatnonzero((areas >= params.a_min) & (areas <= params.a_max))
    if not band.size:
        raise NoCandidateRegionsError(
            f"no candidate regions: seed chain has no component with area in "
            f"[{params.a_min}, {params.a_max}]"
        )
    # Deduplicate by area: under speckle nearly every level adds a stray
    # pixel or two, so exact-duplicate collapse alone would keep hundreds of
    # interchangeable copies of one region.  Levels growing less than 1%
    # (or 4 px) over the last kept one are the same region for selection
    # purposes; the lowest level of each run is kept.
    thinned = [band[0]]
    for k in band[1:]:
        last = areas[thinned[-1]]
        if areas[k] - last >= max(0.01 * last, 4):
            thinned.append(k)
    band = np.asarray(thinned)

    # The band map: over the largest candidate's bounding box, the position
    # of the first candidate that contains each pixel, or m for none.
    # Every candidate lies inside the box, so the boundary counts, the
    # attributes and the series' regions all read this one map.
    m = len(band)
    h, w = pixels.shape
    join = chain.join_index.reshape(h, w)
    inside = join <= band[-1]
    ys = np.flatnonzero(inside.any(axis=1))
    xs = np.flatnonzero(inside.any(axis=0))
    y0, y1, x0, x1 = int(ys[0]), int(ys[-1]) + 1, int(xs[0]), int(xs[-1]) + 1
    first = np.searchsorted(band, np.arange(len(chain) + 1)).astype(np.min_scalar_type(m))
    band_map = np.take(first, join[y0:y1, x0:x1])  # a table lookup, faster than first[...]
    lengths, reach = _boundary_counts(band_map, m)
    return RegionSeries(
        index=band,
        levels=chain.levels[band],
        areas=areas[band],
        boundary_length=lengths,
        **_region_attributes(band_map, pixels[y0:y1, x0:x1], areas[band]),
        row_map=band_map,
        reach_map=reach,
        origin=(x0, y0),
        shape=(h, w),
    )


def _region_attributes(row_map: np.ndarray, pixels: np.ndarray, areas: np.ndarray) -> dict:
    """Mean intensity and entropy of every row's region, from one histogram
    of (row, intensity) over the box that row_map covers.

    Row i's region is the box pixels with row_map <= i, so a cumulative sum
    over the rows turns the histogram into each region's own; its counts
    are exact integers.
    """
    n = areas.size
    rows = row_map.astype(np.int32)  # wide enough for the histogram keys
    hist = np.bincount((rows * 256 + pixels).ravel(), minlength=(n + 1) * 256)[: n * 256]
    hist = np.cumsum(hist.reshape(n, 256), axis=0)

    def entropy(counts: np.ndarray) -> float:
        p = counts[counts > 0] / counts.sum()
        return float(-(p * np.log2(p)).sum())

    return {
        "mean_intensity": (hist @ np.arange(256)).astype(np.float64) / areas,
        "entropy": np.array([entropy(counts) for counts in hist]),
    }
