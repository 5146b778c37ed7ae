"""Ellipse fitting from second central moments, rasterisation, and masks.

A region with central moments (mu_xx, mu_xy, mu_yy) is summarised by the
ellipse {p : (p - c)^T M (p - c) <= 1} with

    M = (1 / (4 (mu_xx mu_yy - mu_xy^2))) [[mu_yy, -mu_xy], [-mu_xy, mu_xx]]

i.e. a quarter of the inverse covariance.  For a solid disk of radius R the
moments are R^2/4 on the diagonal, which forces semi-axes a = b = R; that
sanity case pins both the sign of the off-diagonal terms and the pairing of
eigenvalues with axes (the major axis belongs to the smaller eigenvalue of
M, the larger eigenvalue of the covariance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRegionError
from .imaging import Contour

MOMENT_DET_TOLERANCE = 1e-12


@dataclass
class Ellipse:
    """Centre, semi-axes (a >= b), and major-axis orientation in (-pi/2, pi/2]."""

    cx: float
    cy: float
    a: float
    b: float
    theta: float

    def __post_init__(self) -> None:
        if not (self.a >= self.b > 0):
            raise ValueError("ellipse needs a >= b > 0")
        if not (-math.pi / 2 < self.theta <= math.pi / 2):
            raise ValueError("theta must lie in (-pi/2, pi/2]")

    def implicit(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Value of the implicit form; <= 1 inside the ellipse."""
        dx = np.asarray(x, dtype=np.float64) - self.cx
        dy = np.asarray(y, dtype=np.float64) - self.cy
        c, s = math.cos(self.theta), math.sin(self.theta)
        u = dx * c + dy * s
        v = -dx * s + dy * c
        return (u / self.a) ** 2 + (v / self.b) ** 2


def ellipse_from_moments(
    centroid: tuple[float, float],
    mu_xx: float,
    mu_xy: float,
    mu_yy: float,
) -> Ellipse:
    """Ellipse whose uniform-density moments match the given ones."""
    det = mu_xx * mu_yy - mu_xy * mu_xy
    if det <= MOMENT_DET_TOLERANCE:
        raise DegenerateRegionError(
            f"degenerate region: moment determinant {det:.3e} does not define an ellipse"
        )
    # Eigenvalues of the covariance [[mu_xx, mu_xy], [mu_xy, mu_yy]]; the
    # smaller one comes from the determinant quotient for stability.
    half_trace = 0.5 * (mu_xx + mu_yy)
    spread = math.hypot(0.5 * (mu_xx - mu_yy), mu_xy)
    lam_max = half_trace + spread
    lam_min = min(det / lam_max, lam_max)  # quotient may exceed by one ulp
    a = 2.0 * math.sqrt(lam_max)
    b = 2.0 * math.sqrt(lam_min)
    # Major-axis angle; atan2 in (-pi, pi] halves into [-pi/2, pi/2], and
    # the -pi/2 edge (signed-zero mu_xy) folds onto +pi/2, the same axis.
    theta = 0.5 * math.atan2(2.0 * mu_xy, mu_xx - mu_yy)
    if theta <= -math.pi / 2:
        theta += math.pi
    return Ellipse(cx=float(centroid[0]), cy=float(centroid[1]), a=a, b=b, theta=theta)


def rasterize_ellipse(ellipse: Ellipse, n: int = 360) -> Contour:
    """Closed contour of n uniformly parametrised ellipse points."""
    if n < 3:
        raise ValueError("need at least 3 contour points")
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    c, s = math.cos(ellipse.theta), math.sin(ellipse.theta)
    u = ellipse.a * np.cos(t)
    v = ellipse.b * np.sin(t)
    pts = np.column_stack([ellipse.cx + u * c - v * s, ellipse.cy + u * s + v * c])
    return Contour(points=pts, closed=True)


def ellipse_mask(ellipse: Ellipse, shape: tuple[int, int]) -> np.ndarray:
    """Mask true exactly where the implicit form is <= 1 at pixel centres.

    shape is (height, width); the ellipse is clipped to the frame.  Only
    the rotated ellipse's bounding box, widened by a pixel so rounding at
    its edge cannot matter, is evaluated, from a row and a column of
    coordinates.
    """
    h, w = shape
    out = np.zeros((h, w), dtype=bool)
    c, s = math.cos(ellipse.theta), math.sin(ellipse.theta)
    half_w = math.hypot(ellipse.a * c, ellipse.b * s) + 1.0
    half_h = math.hypot(ellipse.a * s, ellipse.b * c) + 1.0
    x0 = max(0, int(math.floor(ellipse.cx - half_w)))
    x1 = min(w, int(math.ceil(ellipse.cx + half_w)) + 1)
    y0 = max(0, int(math.floor(ellipse.cy - half_h)))
    y1 = min(h, int(math.ceil(ellipse.cy + half_h)) + 1)
    if x0 >= x1 or y0 >= y1:
        return out
    xs = np.arange(x0, x1)[None, :]
    ys = np.arange(y0, y1)[:, None]
    out[y0:y1, x0:x1] = ellipse.implicit(xs, ys) <= 1.0
    return out
