"""Extraction of nested dark-core regions from the component tree.

A 20 MHz IVUS lumen and media both evolve from a dark surface toward a
bright boundary, so only the chain of sub-level components rooted at the
catheter centre is tracked.  The chain is filtered by an area band and an
edge-support criterion: levels whose region boundary runs along maxima of
the gradient magnitude are the distinguished levels worth keeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .component_tree import ComponentTree, SeedChain, build_component_tree
from .errors import NoCandidateRegionsError
from .imaging import Contour, Frame

EIGHT = np.ones((3, 3), dtype=bool)

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
    """Extraction tunables: criterion strength, smoothing width, area band."""

    alpha: float = DEFAULT_ALPHA
    beta: int = DEFAULT_BETA
    a_min: int = 0
    a_max: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= 2.5:
            raise ValueError("alpha must lie in [0, 2.5]")
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        if not 0 < self.a_min < self.a_max:
            raise ValueError("area band must satisfy 0 < a_min < a_max")

    @classmethod
    def for_frame(
        cls,
        shape: tuple[int, int],
        alpha: float = DEFAULT_ALPHA,
        beta: int = DEFAULT_BETA,
        amin_frac: float = DEFAULT_AMIN_FRAC,
        amax_frac: float = DEFAULT_AMAX_FRAC,
    ) -> "ErelParams":
        """Area band as fractions of the frame's pixel count.

        A frame too small for the fractions to leave an area band has no
        candidate regions, which is a per-frame failure, not a bad config.
        """
        n = shape[0] * shape[1]
        a_min = int(n * amin_frac)
        a_max = int(n * amax_frac)
        if a_max > n:
            raise ValueError("a_max cannot exceed the pixel count")
        if not 0 < a_min < a_max:
            raise NoCandidateRegionsError(
                f"no candidate regions: a {shape[1]}x{shape[0]} frame leaves an "
                f"empty area band [{a_min}, {a_max}]"
            )
        return cls(alpha=alpha, beta=beta, a_min=a_min, a_max=a_max)


@dataclass
class Region:
    """One extracted region with the attributes the selector consumes."""

    level: int
    area: int
    boundary_length: int
    mean_intensity: float
    entropy: float
    centroid: tuple[float, float]
    mu_xx: float
    mu_xy: float
    mu_yy: float
    chain_index: int = -1
    _chain: SeedChain | None = field(default=None, repr=False)
    _boundary_pixels: np.ndarray | None = field(default=None, repr=False)

    @property
    def mask(self) -> np.ndarray:
        if self._chain is None:
            raise ValueError("region carries no pixel set")
        return self._chain.mask(self.chain_index)

    @property
    def boundary_pixels(self) -> np.ndarray:
        """(n, 2) integer (x, y) coordinates of the outer boundary pixels."""
        if self._boundary_pixels is None:
            self._boundary_pixels = boundary_pixel_set(self.mask)
        return self._boundary_pixels

    @property
    def boundary(self) -> Contour:
        """Ordered outer-boundary trace."""
        if self._chain is not None and self.chain_index >= 0:
            return _cycle_contour(*_candidate_cycle(self._chain, self.chain_index))
        return trace_outer_boundary(self.mask)


@dataclass
class RegionSeries:
    """Strictly nested regions in increasing area order."""

    regions: list[Region]

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self):
        return iter(self.regions)

    def __getitem__(self, i):
        return self.regions[i]

    @property
    def areas(self) -> np.ndarray:
        return np.array([r.area for r in self.regions], dtype=np.int64)


# ---------------------------------------------------------------------------
# Gradient support: 3x3 Sobel magnitude followed by non-maximum suppression
# along the quantised gradient direction.
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
# Boundary machinery.  boundary_length is the number of distinct pixels on
# the Moore-traced outer contour; hole boundaries do not count.  The walk
# also skips pocket pixels that touch the outside only across a diagonal
# gap, so the flood-based set below is a superset used for cross-checks.
# ---------------------------------------------------------------------------

def outer_adjacent_pixels(mask: np.ndarray) -> np.ndarray:
    """(n, 2) (x, y) region pixels 8-adjacent to the border-connected
    background; a superset of the traced outer boundary."""
    padded = np.pad(mask, 1, mode="constant", constant_values=False)
    border = np.zeros_like(padded)
    border[0, :] = border[-1, :] = True
    border[:, 0] = border[:, -1] = True
    outer_bg = ndimage.binary_propagation(border & ~padded, mask=~padded, structure=EIGHT)
    boundary = padded & ndimage.binary_dilation(outer_bg, structure=EIGHT)
    ys, xs = np.nonzero(boundary[1:-1, 1:-1])
    return np.column_stack([xs, ys])


# Clockwise Moore neighbourhood in image coordinates (y down), west first.
_MOORE_STEPS = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))
# _NEXT_BACKTRACK[b][i-1]: backtrack direction after moving to the pixel found
# at clockwise probe i from backtrack direction b (the cell probed just
# before, seen from the new pixel).
_NEXT_BACKTRACK: list[list[int]] = []
for _b in range(8):
    row = []
    for _i in range(1, 9):
        _d = (_b + _i) % 8
        _py, _px = _MOORE_STEPS[(_b + _i - 1) % 8]
        _ny, _nx = _MOORE_STEPS[_d]
        row.append(_MOORE_STEPS.index((_py - _ny, _px - _nx)))
    _NEXT_BACKTRACK.append(row)


def _moore_cycle(vals, k: int, start_flat: int, w2: int) -> list[int]:
    """Flat padded-grid indices of the Moore walk cycle from start_flat.

    vals is a flat indexable over a grid with a one-pixel outside border of
    width w2; a pixel is inside the region when its value is <= k.  The
    walk starts at the region's first pixel in raster order, whose west
    neighbour is outside.
    """
    steps = [dy * w2 + dx for dy, dx in _MOORE_STEPS]
    probe = [[steps[(b + i) % 8] for i in range(1, 9)] for b in range(8)]
    nxt_b = _NEXT_BACKTRACK

    cur = start_flat
    b = 0
    path = [cur]
    seen = {(cur << 3) | b: 0}
    while True:
        offs = probe[b]
        for i in range(8):
            cand = cur + offs[i]
            if vals[cand] <= k:
                break
        else:
            return path  # an isolated pixel
        cur = cand
        b = nxt_b[b][i]
        state = (cur << 3) | b
        idx = seen.get(state)
        if idx is not None:
            return path[idx:]
        seen[state] = len(path)
        path.append(cur)


def _mask_cycle(mask: np.ndarray) -> tuple[list[int], int]:
    """(Moore walk cycle, padded width) of a bool mask's outer boundary."""
    if not mask.any():
        raise ValueError("cannot trace an empty region")
    ys, xs = np.nonzero(mask)
    w2 = mask.shape[1] + 2
    # byte indexing beats ndarray scalar lookups
    outside = np.pad(~mask, 1, constant_values=True).astype(np.uint8).tobytes()
    return _moore_cycle(outside, 0, (int(ys[0]) + 1) * w2 + int(xs[0]) + 1, w2), w2


def _cycle_xy(cycle, w2: int, ox: int = 0, oy: int = 0) -> np.ndarray:
    """(n, 2) integer frame (x, y) of flat padded-grid indices."""
    arr = np.asarray(cycle)
    return np.column_stack([arr % w2 - 1 + ox, arr // w2 - 1 + oy])


def _cycle_contour(cycle, w2: int, ox: int = 0, oy: int = 0) -> Contour:
    """A walk cycle as a contour; closed when it has at least 3 points."""
    pts = _cycle_xy(cycle, w2, ox, oy).astype(np.float64)
    return Contour(points=pts, closed=pts.shape[0] >= 3)


def trace_outer_boundary(mask: np.ndarray) -> Contour:
    """Ordered Moore-neighbourhood walk around the outer contour.

    Starts at the first region pixel in raster order (whose west neighbour
    is outside the region) and walks clockwise.  The walk is a deterministic
    function of its (pixel, backtrack) state, so it must eventually repeat a
    state; the contour is the pixel cycle between the two occurrences, which
    covers the complete outer boundary exactly once (spurs appear twice,
    once per side).
    """
    return _cycle_contour(*_mask_cycle(mask))


def boundary_pixel_set(mask: np.ndarray) -> np.ndarray:
    """Distinct (x, y) pixels on the Moore-traced outer boundary."""
    cycle, w2 = _mask_cycle(mask)
    return _cycle_xy(np.unique(cycle), w2)


# ---------------------------------------------------------------------------
# Extremum-level retention
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


@dataclass
class CandidateLevel:
    """One area-band survivor of the seed chain, with its boundary pixels."""

    chain_index: int
    level: int
    area: int
    boundary_pixels: np.ndarray  # (n, 2) integer (x, y)


def select_extremum_levels(
    candidates: list[CandidateLevel],
    params: ErelParams,
    mgm: np.ndarray,
) -> list[int]:
    """Pick the candidate positions whose boundaries ride gradient maxima.

    The per-level criterion is the fraction of boundary pixels that are
    gradient-magnitude maxima; after smoothing with a moving average of
    half-width beta, local maxima at or above alpha times the mean raw
    criterion are retained.  Too few retained levels fall back to keeping
    every candidate: the selection stage downstream reads the evolution of
    the series, which a handful of isolated snapshots cannot carry.
    """
    if not candidates:
        return []
    q = np.empty(len(candidates), dtype=np.float64)
    for i, cand in enumerate(candidates):
        bp = cand.boundary_pixels
        hits = int(mgm[bp[:, 1], bp[:, 0]].sum()) if bp.size else 0
        q[i] = hits / max(len(bp), 1)
    smoothed = _moving_average(q, params.beta)
    threshold = params.alpha * float(q.mean())
    retained = [int(i) for i in _local_maxima(smoothed) if smoothed[i] >= threshold]
    if len(retained) < MIN_RETAINED_LEVELS:
        return list(range(len(candidates)))
    return retained


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def _attributes_from_mask(mask: np.ndarray, pixels: np.ndarray):
    """Directly summed attributes of a pixel set; the slow reference path."""
    ys, xs = np.nonzero(mask)
    area = ys.size
    if area == 0:
        raise ValueError("empty region has no attributes")
    values = pixels[ys, xs]
    counts = np.bincount(values, minlength=256)
    p = counts[counts > 0] / area
    entropy = float(-(p * np.log2(p)).sum())
    xbar, ybar = float(xs.mean()), float(ys.mean())
    mu_xx = float(((xs - xbar) ** 2).mean())
    mu_xy = float(((xs - xbar) * (ys - ybar)).mean())
    mu_yy = float(((ys - ybar) ** 2).mean())
    boundary_length = len(boundary_pixel_set(mask))
    return boundary_length, float(values.mean()), entropy, (xbar, ybar), (mu_xx, mu_xy, mu_yy)


def region_attributes(tree: ComponentTree, node: int, frame: Frame):
    """(boundary_length, mean_intensity, entropy, centroid, moments) of a node."""
    return _attributes_from_mask(tree.node_mask(node), frame.pixels)


def _candidate_cycle(chain: SeedChain, k: int) -> tuple[list[int], int, int, int]:
    """(padded-crop walk cycle, padded width, x offset, y offset)."""
    vals, w2, ox, oy = chain.walk_grid()
    sx, sy = chain.first_pixel(k)
    start = (sy - oy + 1) * w2 + (sx - ox + 1)
    return _moore_cycle(vals, k, start, w2), w2, ox, oy


def _candidate_boundary(chain: SeedChain, k: int) -> np.ndarray:
    """Distinct outer-boundary pixels (frame x, y) of chain node k."""
    cycle, w2, ox, oy = _candidate_cycle(chain, k)
    return _cycle_xy(np.unique(cycle), w2, ox, oy)


def extract_qplus(
    tree: ComponentTree,
    params: ErelParams,
    seed: tuple[int, int],
    frame: Frame,
) -> RegionSeries:
    """Extract the nested dark-core regions rooted at the seed.

    The seed's component chain is restricted to the [a_min, a_max] area
    band, scored by the extremum-level criterion, and materialised into
    Regions carrying the attributes the selection stage needs.  Chain nodes
    are already deduplicated by construction: a node only exists at levels
    where the component gained pixels, so areas are strictly increasing.
    """
    chain = tree.seed_chain(seed)
    band = [
        k for k in range(len(chain))
        if params.a_min <= chain.areas[k] <= params.a_max
    ]
    if not band:
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
        last = chain.areas[thinned[-1]]
        if chain.areas[k] - last >= max(0.01 * last, 4):
            thinned.append(k)
    band = thinned
    chain.restrict(band[-1])

    candidates = [
        CandidateLevel(
            chain_index=k,
            level=int(chain.levels[k]),
            area=int(chain.areas[k]),
            boundary_pixels=_candidate_boundary(chain, k),
        )
        for k in band
    ]
    # All candidate boundaries live inside the largest candidate's bbox, so
    # the gradient map only needs computing there (padded for the Sobel and
    # suppression neighbourhoods).
    h, w = frame.pixels.shape
    bx0, by0, bx1, by1 = chain.bounding_box(band[-1])
    bx0, by0 = max(0, bx0 - 2), max(0, by0 - 2)
    bx1, by1 = min(w, bx1 + 2), min(h, by1 + 2)
    mgm = np.zeros((h, w), dtype=bool)
    mgm[by0:by1, bx0:bx1] = gradient_magnitude_maxima(frame.pixels[by0:by1, bx0:bx1])
    retained = select_extremum_levels(candidates, params, mgm)

    regions = []
    for pos in retained:
        cand = candidates[pos]
        k = cand.chain_index
        mu_xx, mu_xy, mu_yy = chain.central_moments(k)
        regions.append(
            Region(
                level=cand.level,
                area=cand.area,
                boundary_length=len(cand.boundary_pixels),
                mean_intensity=chain.mean_intensity(k),
                entropy=chain.entropy(k),
                centroid=chain.centroid(k),
                mu_xx=mu_xx,
                mu_xy=mu_xy,
                mu_yy=mu_yy,
                chain_index=k,
                _chain=chain,
                _boundary_pixels=cand.boundary_pixels,
            )
        )
    return RegionSeries(regions=regions)


def extract_from_frame(
    frame: Frame,
    params: ErelParams | None = None,
    seed: tuple[int, int] | None = None,
    capped: bool = True,
) -> RegionSeries:
    """Convenience wrapper: build the tree for a frame and extract.

    capped truncates tree construction once the seed component exceeds
    a_max, which cannot change the extracted series.
    """
    from .imaging import frame_center

    if params is None:
        params = ErelParams.for_frame(frame.pixels.shape)
    if seed is None:
        seed = frame_center(frame)
    if capped:
        tree = build_component_tree(frame.pixels, stop_seed=seed, stop_area=params.a_max)
    else:
        tree = build_component_tree(frame.pixels)
    return extract_qplus(tree, params, seed, frame)
