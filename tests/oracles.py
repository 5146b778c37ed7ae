"""Independent brute-force reference implementations for the test suite.

Everything here favours obviousness over speed and, except for the mask
walk below, stays independent of the library's own code paths: components
come from scipy labelling, medians from sorting full windows, moments from
direct summation, distances from all-pairs scans.
"""

import math

import numpy as np
from scipy import ndimage

from ivuseg.erel import _cycle_contour, _cycle_xy, _moore_cycle
from ivuseg.imaging import Contour

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
EIGHT = np.ones((3, 3), dtype=bool)


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
    return chain.mask(k)


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
# Outer boundaries of a bool mask.  The library walks a chain node's boundary
# on the chain's join-index grid; the references below walk a plain mask
# instead.  The mask walk reuses the library's _moore_cycle on a padded
# ~mask byte grid (a pixel is inside when its byte is 0), so it checks the
# chain's grid, crop and start pixel rather than the walk itself; the flood
# from the frame border in outer_adjacent_pixels is independent of it.
# ---------------------------------------------------------------------------

def _mask_cycle(mask: np.ndarray) -> tuple[list[int], int]:
    """(Moore walk cycle, padded width) of a bool mask's outer boundary."""
    if not mask.any():
        raise ValueError("cannot trace an empty region")
    ys, xs = np.nonzero(mask)
    w2 = mask.shape[1] + 2
    outside = np.pad(~mask, 1, constant_values=True).astype(np.uint8).tobytes()
    return _moore_cycle(outside, 0, (int(ys[0]) + 1) * w2 + int(xs[0]) + 1, w2), w2


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


def outer_adjacent_pixels(mask: np.ndarray) -> np.ndarray:
    """(n, 2) (x, y) region pixels 8-adjacent to the border-connected
    background; a superset of the traced outer boundary, which skips pocket
    pixels that touch the outside only across a diagonal gap."""
    padded = np.pad(mask, 1, mode="constant", constant_values=False)
    border = np.zeros_like(padded)
    border[0, :] = border[-1, :] = True
    border[:, 0] = border[:, -1] = True
    outer_bg = ndimage.binary_propagation(border & ~padded, mask=~padded, structure=EIGHT)
    boundary = padded & ndimage.binary_dilation(outer_bg, structure=EIGHT)
    ys, xs = np.nonzero(boundary[1:-1, 1:-1])
    return np.column_stack([xs, ys])
