"""Independent brute-force reference implementations for the test suite.

Everything here favours obviousness over speed and, except for the
library's densify under two_tree_hausdorff (densify is itself checked
against brute_densify), the counting pass under crop_boundary_counts and
reference_regions, the gradient map under gradient_hits, and the stability
scores and peaks under reference_select_regions, stays independent of the
library's own code paths:
components come from scipy labelling or a full canonical parent image,
boundaries from a flood fill, medians from sorting full windows, moments
from direct summation, distances from all-pairs scans.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from ivuseg import erel, selection
from ivuseg.errors import ContourFormatError, DegenerateMaskError, DimensionMismatchError
from ivuseg.geometry import Ellipse
from ivuseg.imaging import Contour, Frame
from ivuseg.metrics import densify

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def brute_median_filter(pixels: np.ndarray, radius: int) -> np.ndarray:
    """Window-clamped median; even windows take the lower middle element."""
    h, w = pixels.shape
    out = np.empty_like(pixels)
    for y in range(h):
        for x in range(w):
            window = pixels[
                max(0, y - radius) : min(h, y + radius + 1),
                max(0, x - radius) : min(w, x + radius + 1),
            ].ravel()
            ordered = np.sort(window)
            out[y, x] = ordered[(ordered.size - 1) // 2]
    return out


def brute_densify(contour: Contour, max_spacing: float = 0.5) -> np.ndarray:
    """Points on the contour polyline at most max_spacing apart, one
    segment at a time."""
    pts = contour.points
    if pts.shape[0] == 1:
        return pts.copy()
    segs = np.vstack([pts, pts[:1]]) if contour.closed else pts
    out = []
    for p, q in zip(segs[:-1], segs[1:]):
        length = float(np.hypot(*(q - p)))
        steps = max(1, int(math.ceil(length / max_spacing)))
        frac = np.arange(steps, dtype=np.float64)[:, None] / steps
        out.append(p + (q - p) * frac)
    if not contour.closed:
        out.append(pts[-1:])
    return np.vstack(out)


def brute_polygon_mask(contour: Contour, shape: tuple[int, int]) -> np.ndarray:
    """Even-odd scanline fill of a closed polygon at pixel centres, one row
    at a time."""
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


def _lower_median(values: np.ndarray) -> int:
    ordered = np.sort(values)
    return int(ordered[(ordered.size - 1) // 2])


def brute_remove_artifacts(frame: Frame, model) -> Frame:
    """Masked pixels replaced one at a time by the lower median of the
    unmasked pixels in the first of the 7x7, 11x11, 15x15 windows (clipped
    to the frame) holding at least 5 of them, else of all unmasked pixels."""
    mask = model.mask
    if mask.shape != frame.pixels.shape:
        raise DimensionMismatchError("artifact mask dimensions must match the frame")
    if mask.all():
        raise DegenerateMaskError("degenerate mask: artifact mask covers the entire frame")
    if not mask.any():
        return Frame(pixels=frame.pixels.copy())

    src = frame.pixels
    h, w = src.shape
    global_fill = _lower_median(src[~mask])
    out = src.copy()
    ys, xs = np.nonzero(mask)
    for y, x in zip(ys.tolist(), xs.tolist()):
        fill = global_fill
        for radius in (3, 5, 7):
            y0, y1 = max(0, y - radius), min(h, y + radius + 1)
            x0, x1 = max(0, x - radius), min(w, x + radius + 1)
            window = src[y0:y1, x0:x1]
            clean = window[~mask[y0:y1, x0:x1]]
            if clean.size >= 5:
                fill = _lower_median(clean)
                break
        out[y, x] = fill
    return Frame(pixels=out)


def brute_component(pixels: np.ndarray, t: int, seed_xy: tuple[int, int]) -> np.ndarray | None:
    """4-connected component of {I <= t} containing the seed, or None."""
    x, y = seed_xy
    if pixels[y, x] > t:
        return None
    labels, _ = ndimage.label(pixels <= t, structure=FOUR)
    return labels == labels[y, x]


def chain_component_at(chain, t: int) -> np.ndarray | None:
    """Mask of the seed chain's component of {I <= t}, or None below the
    seed's own level: the last chain node at a level <= t."""
    if t < chain.levels[0]:
        return None
    k = int(np.searchsorted(chain.levels, t, side="right")) - 1
    return chain_mask(chain, k)


def brute_moments(mask: np.ndarray) -> tuple[tuple[float, float], float, float, float]:
    """Centroid and second central moments by direct summation."""
    ys, xs = np.nonzero(mask)
    xbar = xs.mean()
    ybar = ys.mean()
    mu_xx = ((xs - xbar) ** 2).mean()
    mu_xy = ((xs - xbar) * (ys - ybar)).mean()
    mu_yy = ((ys - ybar) ** 2).mean()
    return (xbar, ybar), mu_xx, mu_xy, mu_yy


def brute_hausdorff(points_a: np.ndarray, points_b: np.ndarray, chunk: int = 1024) -> float:
    """Exact symmetric Hausdorff distance between two point sets.

    All pairs are evaluated, chunked so the distance matrix never exceeds
    chunk x len(other) entries.
    """

    def directed(p, q):
        worst = 0.0
        for i in range(0, len(p), chunk):
            d2 = ((p[i : i + chunk, None, :] - q[None, :, :]) ** 2).sum(axis=2)
            worst = max(worst, float(d2.min(axis=1).max()))
        return worst

    return math.sqrt(max(directed(points_a, points_b), directed(points_b, points_a)))


def brute_entropy(values: np.ndarray) -> float:
    """Shannon entropy in bits over a 256-bin histogram."""
    counts = np.bincount(values.ravel(), minlength=256)
    p = counts[counts > 0] / values.size
    return float(-(p * np.log2(p)).sum())


def rasterize_disk(radius: float, size: int | None = None, center=None) -> np.ndarray:
    size = size or int(2 * radius + 5)
    if center is None:
        center = (size / 2.0, size / 2.0)
    ys, xs = np.mgrid[0:size, 0:size]
    return (xs - center[0]) ** 2 + (ys - center[1]) ** 2 <= radius ** 2


def rasterize_ellipse_mask(cx, cy, a, b, theta, shape) -> np.ndarray:
    ys, xs = np.mgrid[0 : shape[0], 0 : shape[1]]
    dx = xs - cx
    dy = ys - cy
    u = dx * np.cos(theta) + dy * np.sin(theta)
    v = -dx * np.sin(theta) + dy * np.cos(theta)
    return (u / a) ** 2 + (v / b) ** 2 <= 1.0


# ---------------------------------------------------------------------------
# Scoring and contour text the plain way: every densified point queried,
# the implicit form over the whole 2a x 2a square, one float() per token,
# one format call per point.  The library must match these bit for bit.
# ---------------------------------------------------------------------------

def two_tree_hausdorff(c1: Contour, c2: Contour) -> float:
    """Symmetric Hausdorff distance with every densified point queried."""
    p1 = densify(c1)
    p2 = densify(c2)
    d12 = cKDTree(p2).query(p1)[0].max()
    d21 = cKDTree(p1).query(p2)[0].max()
    return float(max(d12, d21))


def square_box_ellipse_mask(ellipse: Ellipse, shape: tuple[int, int]) -> np.ndarray:
    """Implicit form <= 1 at the pixel centres of the 2a x 2a square."""
    h, w = shape
    out = np.zeros((h, w), dtype=bool)
    x0 = max(0, int(math.floor(ellipse.cx - ellipse.a)))
    x1 = min(w, int(math.ceil(ellipse.cx + ellipse.a)) + 1)
    y0 = max(0, int(math.floor(ellipse.cy - ellipse.a)))
    y1 = min(h, int(math.ceil(ellipse.cy + ellipse.a)) + 1)
    if x0 >= x1 or y0 >= y1:
        return out
    ys, xs = np.mgrid[y0:y1, x0:x1]
    out[y0:y1, x0:x1] = ellipse.implicit(xs, ys) <= 1.0
    return out


def line_loop_load_contour(path, closed: bool = True) -> Contour:
    """Contour text read one line and one float() at a time."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ContourFormatError(f"contour file {path} is not text: {exc}") from exc
    pts = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            x, y = (float(v) for v in line.split())
        except ValueError as exc:
            raise ContourFormatError(f"bad contour line {line!r} in {path}") from exc
        pts.append((x, y))
    if not pts:
        raise ContourFormatError(f"empty contour file {path}")
    try:
        return Contour(points=np.array(pts, dtype=np.float64), closed=closed)
    except ValueError as exc:
        raise ContourFormatError(f"bad contour in {path}: {exc}") from exc


def per_point_save_contour(contour: Contour, path) -> None:
    """Contour text written with one f-string per point."""
    lines = [f"{x:.6f} {y:.6f}" for x, y in contour.points]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# The outer boundary of a bool mask, by flood fill.  The library reads every
# candidate's boundary off one widest-path pass; this labels one mask's
# background instead.
# ---------------------------------------------------------------------------

def border_exposed_pixels(mask: np.ndarray) -> np.ndarray:
    """(n, 2) (x, y) region pixels, in raster order, with a 4-neighbour in
    the background that is 4-connected to the frame border (the one-pixel
    padding around the frame counts as border).  It leaves out the hole
    boundaries and the pocket pixels that touch the outside only across a
    diagonal gap.  The flood runs over the mask's bounding box, padded by
    one pixel: background beyond the box reaches the border along its own
    row or column."""
    ys, xs = np.nonzero(mask)
    y0, x0 = ys.min(), xs.min()
    padded = np.pad(mask[y0 : ys.max() + 1, x0 : xs.max() + 1], 1, constant_values=False)
    labels, _ = ndimage.label(~padded, structure=FOUR)
    outside = labels == labels[0, 0]
    exposed = padded & ndimage.binary_dilation(outside, structure=FOUR)
    ys, xs = np.nonzero(exposed[1:-1, 1:-1])
    return np.column_stack([xs + x0, ys + y0])


# -- reference seed chain ----------------------------------------------------------
#
# A second seed-chain construction: a level sweep that builds the min-tree's
# whole canonical parent image (every node named by its first raster pixel at
# the node's level), then a top-down pass over the canonical pixels.  Unlike
# brute_component it reproduces the stop cap and the exact arrays (dtypes
# included) that the extraction stage reads, so the library's seed sweep must
# equal it byte for byte.

def _ref_find(uf: np.ndarray, x: np.ndarray) -> np.ndarray:
    if x.size == 0:
        return x
    r = uf[x]
    rr = uf[r]
    lag = rr != r
    if lag.any():
        idx = np.flatnonzero(lag)
        sub = rr[idx]
        while True:
            nxt = uf[sub]
            if (nxt == sub).all():
                break
            sub = nxt
        r[idx] = sub
        uf[x[idx]] = sub
    return r


def _ref_distinct(x: np.ndarray, stamp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pos = np.arange(x.size, dtype=np.int32)
    stamp[x] = pos
    slot = stamp[x]
    return slot, slot == pos


def _reference_parent_image(pixels: np.ndarray, seed: tuple[int, int], stop_area: int):
    """(levels, canonical parent image, canonical mask) of the min-tree,
    swept level by level until the seed's component exceeds stop_area."""
    img = np.asarray(pixels).astype(np.uint8)
    h, w = img.shape
    flat = img.ravel()
    n = flat.size

    order = np.argsort(flat, kind="stable").astype(np.int32)
    px_starts = np.r_[0, np.cumsum(np.bincount(flat, minlength=256))]

    uf = np.arange(n, dtype=np.int32)
    parent = np.arange(n, dtype=np.int32)
    node_rep = np.full(n, -1, dtype=np.int32)
    scratch = np.empty(n, dtype=np.int32)
    stamp = np.empty(n, dtype=np.int32)
    canonical = np.zeros(n, dtype=bool)

    sx, sy = seed
    seed_arr = np.array([sy * w + sx], dtype=np.int32)
    seed_level = int(flat[seed_arr[0]])
    comp_size = np.zeros(n, dtype=np.int32)
    tracking = False

    for t in range(256):
        a0, a1 = px_starts[t], px_starts[t + 1]
        if a0 == a1:
            continue
        new_px = order[a0:a1]
        nx = new_px % w
        u_old, v_old, u_new, v_new = [], [], [], []
        for off, valid in (
            (-1, nx > 0),
            (1, nx < w - 1),
            (-w, new_px >= w),
            (w, new_px < n - w),
        ):
            src = new_px[valid]
            dst = src + off
            lv = flat[dst]
            older = lv < t
            u_old.append(src[older])
            v_old.append(dst[older])
            if off > 0:
                same = lv == t
                u_new.append(src[same])
                v_new.append(dst[same])
        u = np.concatenate(u_old)
        v = np.concatenate(v_old)

        if not tracking and px_starts[t + 1] >= stop_area:
            active = order[: px_starts[t]]
            if active.size:
                comp_size[:] = np.bincount(_ref_find(uf, active), minlength=n)
            tracking = True

        rv = _ref_find(uf, v)
        pre_roots = rv[_ref_distinct(rv, stamp)[1]] if tracking else rv
        ru = np.concatenate([u, *u_new])
        rv = np.concatenate([rv, *v_new])
        while True:
            open_ = ru != rv
            if not open_.any():
                break
            ru, rv = ru[open_], rv[open_]
            uf[np.maximum(ru, rv)] = np.minimum(ru, rv)
            ru = _ref_find(uf, ru)
            rv = _ref_find(uf, rv)

        if tracking:
            pre_sizes = comp_size[pre_roots]

        # every component touched at this level becomes a node at t whose
        # canonical pixel is its first pixel of intensity t in raster order
        roots_new = _ref_find(uf, new_px)
        scratch[roots_new] = n
        np.minimum.at(scratch, roots_new, new_px)
        c_new = scratch[roots_new]
        parent[new_px] = c_new
        canonical[c_new] = True
        if pre_roots.size:
            reps = node_rep[pre_roots]
            reps = reps[reps >= 0]
            if reps.size:
                parent[reps] = scratch[_ref_find(uf, reps)]
        node_rep[roots_new] = c_new

        if tracking:
            roots = np.concatenate([_ref_find(uf, pre_roots), roots_new])
            slot, first = _ref_distinct(roots, stamp)
            gained = np.concatenate([pre_sizes, np.ones(new_px.size, dtype=np.int32)])
            sizes = np.bincount(slot, weights=gained, minlength=roots.size)
            comp_size[roots[first]] = sizes[first]
            if t >= seed_level and comp_size[_ref_find(uf, seed_arr)[0]] > stop_area:
                break

    return flat, parent, canonical


def reference_seed_chain(pixels: np.ndarray, seed: tuple[int, int], stop_area: int):
    """(join_index, levels, areas) of the seed chain, from the canonical
    parent image by a top-down pass over its canonical pixels."""
    levels, parent, canonical = _reference_parent_image(pixels, seed, stop_area)
    x, y = seed
    seed_px = y * np.asarray(pixels).shape[1] + x
    chain = [seed_px if canonical[seed_px] else int(parent[seed_px])]
    while parent[chain[-1]] != chain[-1]:
        chain.append(int(parent[chain[-1]]))
    nodes = np.asarray(chain, dtype=np.int64)
    n = levels.size
    chain_pos = np.full(n, -1, dtype=np.int32)
    chain_pos[nodes] = np.arange(len(chain), dtype=np.int32)

    # parents have strictly higher levels, so top-down over canonical pixels
    # a node inherits its parent's join index unless it is a chain node;
    # pixels with no chain ancestor land one past the chain
    k = len(chain)
    join_node = np.full(n, -1, dtype=np.int32)
    cs = np.flatnonzero(canonical)
    cs = cs[np.argsort(levels[cs], kind="stable")][::-1]
    clv = levels[cs]
    starts = np.flatnonzero(np.r_[True, clv[1:] != clv[:-1]])
    stops = np.r_[starts[1:], clv.size]
    for s, e in zip(starts.tolist(), stops.tolist()):
        sel = cs[s:e]
        own = chain_pos[sel]
        inherited = join_node[parent[sel]]
        join_node[sel] = np.where(own >= 0, own, inherited)
    pixel_node = np.where(canonical, np.arange(n, dtype=np.int32), parent)
    join_index = join_node[pixel_node]
    join_index[join_index < 0] = k
    areas = np.cumsum(np.bincount(join_index, minlength=k + 1)[:k])
    return join_index, levels[nodes].astype(np.int64), areas


# -- reference chain accessors -----------------------------------------------------
#
# The seed chain's node accessors as they were before extraction read one band
# map: a node's mask over the frame, its tight box with the join indices
# clipped one past it, every node's attributes up to that node from one pass
# over the box, and the boundary counts of a band of nodes from the box's join
# indices.  extract_qplus's columns and masks must equal these bit for bit.

class Crop(NamedTuple):
    """Chain node k's tight box: the join indices there, clipped at k + 1
    (so a value <= k marks a pixel of that node), the intensities, and the
    box's frame offset."""

    k: int
    join: np.ndarray
    pixels: np.ndarray
    x0: int
    y0: int


class NodeAttributes(NamedTuple):
    """Per-node attributes of chain nodes 0..k, each indexed by node: the
    centroid, the area-normalised second central moments, the mean intensity
    and the cumulative 256-bin intensity histogram (one row per node)."""

    cx: np.ndarray
    cy: np.ndarray
    mu_xx: np.ndarray
    mu_xy: np.ndarray
    mu_yy: np.ndarray
    mean_intensity: np.ndarray
    histogram: np.ndarray

    def entropy(self, k: int) -> float:
        """Shannon entropy (bits) of node k's intensity histogram."""
        counts = self.histogram[k]
        p = counts[counts > 0] / counts.sum()
        return float(-(p * np.log2(p)).sum())


def chain_mask(chain, k: int) -> np.ndarray:
    """Pixel mask of chain node k."""
    return (chain.join_index <= k).reshape(chain.pixels.shape)


def chain_crop(chain, k: int) -> Crop:
    """Node k's tight bounding box; every node <= k lies inside it."""
    if not 0 <= k < len(chain.levels):
        raise ValueError(f"chain index {k} outside the chain")
    h, w = chain.pixels.shape
    join2d = chain.join_index.reshape(h, w)
    inside = join2d <= k
    inside_rows = inside.any(axis=1)
    inside_cols = inside.any(axis=0)
    y0 = int(np.argmax(inside_rows))
    y1 = h - int(np.argmax(inside_rows[::-1]))
    x0 = int(np.argmax(inside_cols))
    x1 = w - int(np.argmax(inside_cols[::-1]))
    return Crop(
        k=int(k),
        join=np.minimum(join2d[y0:y1, x0:x1], k + 1),
        pixels=chain.pixels[y0:y1, x0:x1],
        x0=x0,
        y0=y0,
    )


def chain_attributes(chain, crop: Crop) -> NodeAttributes:
    """Centroid, central moments, mean intensity and cumulative histogram
    of every chain node 0..crop.k, from bucket sums per node over the crop
    followed by cumulative sums."""
    sub, kk = crop.join, crop.k
    ch, cw = sub.shape
    nb = kk + 2
    key = sub.ravel() * 256 + crop.pixels.ravel()
    hist = np.bincount(key, minlength=nb * 256)[: (kk + 1) * 256]
    hist = np.cumsum(hist.reshape(kk + 1, 256), axis=0)

    xs = np.arange(crop.x0, crop.x0 + cw, dtype=np.int64)
    ys = np.arange(crop.y0, crop.y0 + ch, dtype=np.int64)
    by_row = (sub * ch + np.arange(ch, dtype=np.int32)[:, None]).ravel()
    by_col = (sub * cw + np.arange(cw, dtype=np.int32)).ravel()
    n_row = np.bincount(by_row, minlength=nb * ch).reshape(nb, ch)[: kk + 1]
    n_col = np.bincount(by_col, minlength=nb * cw).reshape(nb, cw)[: kk + 1]
    x_row = np.bincount(
        by_row, weights=np.broadcast_to(xs.astype(np.float64), sub.shape).ravel(),
        minlength=nb * ch,
    ).reshape(nb, ch)[: kk + 1]
    sx, sy, sxx, sxy, syy = (
        np.cumsum(v.astype(np.float64))
        for v in (n_col @ xs, n_row @ ys, n_col @ (xs * xs),
                  x_row @ ys.astype(np.float64), n_row @ (ys * ys))
    )
    areas = chain.areas[: kk + 1]
    a = areas.astype(np.float64)
    cx, cy = sx / a, sy / a
    return NodeAttributes(
        cx=cx,
        cy=cy,
        mu_xx=sxx / a - cx * cx,
        mu_xy=sxy / a - cx * cy,
        mu_yy=syy / a - cy * cy,
        mean_intensity=(hist @ np.arange(256)).astype(np.float64) / areas,
        histogram=hist,
    )


def crop_boundary_counts(join: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Boundary lengths of the band's nodes, given the join-index crop of
    node band[-1], clipped at band[-1] + 1: the library's one-pass counts
    fed with the band positions looked up from the crop's join indices."""
    m = len(band)
    first = np.searchsorted(band, np.arange(int(band[-1]) + 2)).astype(np.min_scalar_type(m))
    return erel._boundary_counts(first[join], m)[0]


def gradient_hits(series, pixels: np.ndarray) -> np.ndarray:
    """How many of each row's border-exposed pixels are gradient-magnitude
    maxima of pixels, the frame the series was extracted from: the hits
    EREL's extremum criterion (erel.select_extremum_levels) reads.

    Row i's exposed pixels are the box pixels with row_map <= i < reach_map,
    so one difference array, summed up to each row, counts them all."""
    (x0, y0), (bh, bw) = series.origin, series.row_map.shape
    maxima = erel.gradient_magnitude_maxima(pixels)[y0 : y0 + bh, x0 : x0 + bw]
    hit = maxima & (series.row_map < series.reach_map)
    n = len(series)
    diff = (np.bincount(series.row_map[hit], minlength=n + 1)
            - np.bincount(series.reach_map[hit], minlength=n + 1))
    return np.cumsum(diff[:n])


def thinned_band(chain, params) -> np.ndarray:
    """The chain nodes extract_qplus scores: those in the area band, thinned
    to the first of each run growing less than 1% (or 4 px) over the last
    kept one, as a Python loop."""
    band = [k for k in range(len(chain)) if params.a_min <= chain.areas[k] <= params.a_max]
    thinned = band[:1]
    for k in band[1:]:
        last = chain.areas[thinned[-1]]
        if chain.areas[k] - last >= max(0.01 * last, 4):
            thinned.append(k)
    return np.asarray(thinned, dtype=np.intp)


# -- reference chain attributes ----------------------------------------------------
#
# The seed chain's per-node accessors as they were before the chain handed out
# whole attribute arrays: restricted to the nodes <= kmax, each table built on
# first use over node kmax's tight box.  The extraction stage's Region fields
# must equal these bit for bit.

class LazyChainAttributes:
    def __init__(self, chain, kmax: int):
        self._chain = chain
        self._pixels = chain.pixels
        self._kmax = int(kmax)
        self._crop = None
        self._prefix = None
        self._hist = None

    def _check(self, k: int) -> None:
        if k > self._kmax:
            raise ValueError(f"chain index {k} above the restricted maximum {self._kmax}")

    def _cropped(self):
        """(join values clipped to kmax+1, levels, x0, y0, crop width, crop height)
        over the tight bounding box of node kmax."""
        if self._crop is None:
            h, w = self._pixels.shape
            kk = self._kmax
            join2d = self._chain.join_index.reshape(h, w)
            inside = join2d <= kk
            inside_rows = inside.any(axis=1)
            inside_cols = inside.any(axis=0)
            y0 = int(np.argmax(inside_rows))
            y1 = h - int(np.argmax(inside_rows[::-1]))
            x0 = int(np.argmax(inside_cols))
            x1 = w - int(np.argmax(inside_cols[::-1]))
            sub = np.minimum(join2d[y0:y1, x0:x1], kk + 1)
            lv = self._pixels[y0:y1, x0:x1]
            self._crop = (sub, lv, x0, y0, x1 - x0, y1 - y0)
        return self._crop

    def _prefix_sums(self) -> dict:
        if self._prefix is None:
            sub, lv, x0, y0, cw, ch = self._cropped()
            kk = self._kmax
            nb = kk + 2
            xs = np.arange(x0, x0 + cw, dtype=np.int64)
            ys = np.arange(y0, y0 + ch, dtype=np.int64)
            by_row = (sub * ch + np.arange(ch, dtype=np.int32)[:, None]).ravel()
            by_col = (sub * cw + np.arange(cw, dtype=np.int32)).ravel()
            n_row = np.bincount(by_row, minlength=nb * ch).reshape(nb, ch)[: kk + 1]
            n_col = np.bincount(by_col, minlength=nb * cw).reshape(nb, cw)[: kk + 1]
            x_row = np.bincount(
                by_row, weights=np.broadcast_to(xs.astype(np.float64), sub.shape).ravel(),
                minlength=nb * ch,
            ).reshape(nb, ch)[: kk + 1]
            sums = {
                "x": n_col @ xs, "y": n_row @ ys, "xx": n_col @ (xs * xs),
                "xy": x_row @ ys.astype(np.float64), "yy": n_row @ (ys * ys),
            }
            tables = {name: np.cumsum(v.astype(np.float64)) for name, v in sums.items()}
            tables["i"] = (self._hist_table() @ np.arange(256)).astype(np.float64)
            self._prefix = tables
        return self._prefix

    def _hist_table(self) -> np.ndarray:
        if self._hist is None:
            sub, lv, *_ = self._cropped()
            nb = self._kmax + 2
            key = sub.ravel() * 256 + lv.ravel()
            hist = np.bincount(key, minlength=nb * 256)[: (self._kmax + 1) * 256]
            self._hist = np.cumsum(hist.reshape(self._kmax + 1, 256), axis=0)
        return self._hist

    def centroid(self, k: int) -> tuple[float, float]:
        self._check(k)
        t = self._prefix_sums()
        a = float(self._chain.areas[k])
        return t["x"][k] / a, t["y"][k] / a

    def central_moments(self, k: int) -> tuple[float, float, float]:
        self._check(k)
        t = self._prefix_sums()
        a = float(self._chain.areas[k])
        xb, yb = t["x"][k] / a, t["y"][k] / a
        mu_xx = t["xx"][k] / a - xb * xb
        mu_xy = t["xy"][k] / a - xb * yb
        mu_yy = t["yy"][k] / a - yb * yb
        return mu_xx, mu_xy, mu_yy

    def mean_intensity(self, k: int) -> float:
        self._check(k)
        return float(self._prefix_sums()["i"][k] / self._chain.areas[k])

    def entropy(self, k: int) -> float:
        self._check(k)
        counts = self._hist_table()[k]
        p = counts[counts > 0] / self._chain.areas[k]
        return float(-(p * np.log2(p)).sum())


# -- reference regions ---------------------------------------------------------------
#
# The extraction stage as it was when each region was its own object: the
# band and the area thinning as Python lists, then one Region per thinned
# candidate with its attributes looked up one at a time.  It reuses the
# library's boundary counts (checked against their own oracle), and
# extract_qplus's columns must equal its fields bit for bit.

@dataclass
class Region:
    level: int
    area: int
    boundary_length: int
    mean_intensity: float
    entropy: float
    centroid: tuple[float, float]
    mu_xx: float
    mu_xy: float
    mu_yy: float
    chain_index: int
    chain: object

    @property
    def mask(self) -> np.ndarray:
        return chain_mask(self.chain, self.chain_index)


def reference_regions(tree, params) -> list[Region]:
    """The regions of extract_qplus(tree, params), one object per thinned
    candidate; an empty band gives an empty list."""
    chain = tree.seed_chain()
    band = thinned_band(chain, params)
    if not band.size:
        return []
    crop = chain_crop(chain, int(band[-1]))
    lengths = crop_boundary_counts(crop.join, band)
    attrs = chain_attributes(chain, crop)
    regions = []
    for pos, k in enumerate(band.tolist()):
        regions.append(Region(
            level=int(chain.levels[k]),
            area=int(chain.areas[k]),
            boundary_length=int(lengths[pos]),
            mean_intensity=float(attrs.mean_intensity[k]),
            entropy=attrs.entropy(k),
            centroid=(attrs.cx[k], attrs.cy[k]),
            mu_xx=attrs.mu_xx[k],
            mu_xy=attrs.mu_xy[k],
            mu_yy=attrs.mu_yy[k],
            chain_index=k,
            chain=chain,
        ))
    return regions


def loop_find_peaks(values: np.ndarray) -> list[int]:
    """Indices of the interior local maxima, plateaus at their leftmost
    index, by the scan selection.find_peaks ran before sharing erel's."""
    vals = np.asarray(values, dtype=np.float64)
    n = vals.size
    peaks = []
    i = 1
    while i < n - 1:
        if vals[i] > vals[i - 1]:
            j = i
            while j + 1 < n and vals[j + 1] == vals[i]:
                j += 1
            if j < n - 1 and vals[j + 1] < vals[i]:
                peaks.append(i)
            i = j + 1
        else:
            i += 1
    return peaks


@dataclass
class ReferenceProfile:
    """The stability profile as selection filled it in before
    select_regions built it in one pass: the indices were patched in."""

    v: np.ndarray
    omega: np.ndarray
    peaks: list[tuple[int, float]]
    lumen_index: int = -1
    media_index: int = -1
    degenerate: bool = False


def reference_build_profile(v: np.ndarray) -> ReferenceProfile:
    """Locate the stability peaks of the scores v (series coordinates)."""
    v = np.asarray(v, dtype=np.float64)
    omega = selection.stability_scores(v)
    peaks = [(idx + 1, prom) for idx, prom in selection.find_peaks(omega)]
    return ReferenceProfile(v=v, omega=omega, peaks=peaks)


def reference_assign_lumen_media(profile: ReferenceProfile) -> tuple[int, int]:
    """Lumen and media positions by the rule as it was first written,
    recorded on the profile."""
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
        media_idx = peaks[-1][0] if len(peaks) >= 3 else n - 1

    if lumen_idx == media_idx:
        media_idx = n - 1
    profile.lumen_index = lumen_idx
    profile.media_index = media_idx
    return lumen_idx, media_idx


def reference_select_regions(series):
    """select_regions as a screen, a profile and a patched-in assignment.

    The screen is the modified Z-score with a plain loop over the areas;
    when it would drop more than a quarter of them the whole series is kept.
    """
    areas = np.asarray(series.areas, dtype=np.float64)
    med = float(np.median(areas))
    mad = float(np.median(np.abs(areas - med)))
    kept = np.arange(areas.size)
    if mad != 0.0:
        screened = [i for i, a in enumerate(areas) if -3.0 <= 0.6745 * (a - med) / mad <= 3.0]
        if (areas.size - len(screened)) * 4 <= areas.size:
            kept = np.array(screened, dtype=np.int64)
    v = series.boundary_length * series.mean_intensity * series.entropy
    profile = reference_build_profile(v[kept])
    lumen, media = reference_assign_lumen_media(profile)
    return int(kept[lumen]), int(kept[media]), profile
