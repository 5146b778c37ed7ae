"""Core raster types, PGM/contour I/O, despeckling, and coordinate helpers.

All operations are pure: they never mutate their inputs and return fresh
values, so frames can be shared freely across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContourFormatError, DimensionMismatchError, PgmFormatError


@dataclass
class Frame:
    """Single 8-bit grayscale raster.

    pixels is a (height, width) uint8 array in row-major order.  mm_per_px
    is the physical pixel pitch; it is configuration input, never inferred,
    and is only required when metrics must be reported in millimeters.
    """

    pixels: np.ndarray
    mm_per_px: float | None = None

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("frame pixels must be a non-empty 2-D array")
        if px.dtype != np.uint8:
            if not np.issubdtype(px.dtype, np.integer):
                raise ValueError("frame intensities must be integers")
            if px.min() < 0 or px.max() > 255:
                raise ValueError("frame intensities must lie in [0, 255]")
            px = px.astype(np.uint8)
        self.pixels = np.ascontiguousarray(px)
        if self.mm_per_px is not None and self.mm_per_px <= 0:
            raise ValueError("mm_per_px must be positive")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class Sequence:
    """Ordered pullback frames, all with identical dimensions."""

    frames: list[Frame]

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("sequence must contain at least one frame")
        w, h = self.frames[0].width, self.frames[0].height
        for f in self.frames[1:]:
            if f.width != w or f.height != h:
                raise DimensionMismatchError(
                    f"sequence frames disagree on size: {w}x{h} vs {f.width}x{f.height}"
                )

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)


@dataclass
class Contour:
    """Ordered sub-pixel (x, y) polyline, optionally closed."""

    points: np.ndarray
    closed: bool = True

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("contour points must be an (n, 2) array with n >= 1")
        if self.closed and pts.shape[0] < 3:
            raise ValueError("closed contour needs at least 3 points")
        if pts.shape[0] > 1:
            dup = np.all(pts[1:] == pts[:-1], axis=1)
            if dup.any():
                raise ValueError("contour has consecutive duplicate points")
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]


def frame_center(frame: Frame) -> tuple[int, int]:
    """Integer pixel at (floor(w/2), floor(h/2)); default root of extraction."""
    return frame.width // 2, frame.height // 2


# ---------------------------------------------------------------------------
# PGM P5 I/O.  Binary PGM with maxval 255 is the canonical interchange format
# so golden-file tests stay bit-exact; header comments are accepted on read.
# ---------------------------------------------------------------------------

def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise PgmFormatError("malformed PGM header: unexpected end of file")
    return data[start:pos], pos


def load_frame(path: str | Path) -> Frame:
    """Read a binary PGM (P5, maxval 255) raster into a Frame."""
    data = Path(path).read_bytes()
    if len(data) < 2:
        raise PgmFormatError("malformed PGM header: file too short")
    magic, pos = _next_token(data, 0)
    if magic == b"P2":
        raise PgmFormatError("unsupported PGM variant: P2 (ASCII)")
    if magic != b"P5":
        raise PgmFormatError(f"not a binary PGM file (magic {magic!r})")
    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        if not tok.isdigit():
            raise PgmFormatError(f"malformed PGM header: non-numeric field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmFormatError("malformed PGM header: non-positive dimensions")
    if maxval != 255:
        raise PgmFormatError(f"unsupported PGM maxval {maxval} (must be 255)")
    pos += 1  # single whitespace byte separates header from raster
    raster = data[pos : pos + width * height]
    if len(raster) < width * height:
        raise PgmFormatError(
            f"short read: expected {width * height} pixel bytes, got {len(raster)}"
        )
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return Frame(pixels=pixels.copy())


def save_frame(frame: Frame, path: str | Path) -> None:
    """Write a Frame as binary PGM P5 with maxval 255."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + frame.pixels.tobytes())


# ---------------------------------------------------------------------------
# Contour text I/O: one "x y" pair per line, the gold-standard annotation
# format.  Our own outputs use the same format so they can be re-evaluated.
# ---------------------------------------------------------------------------

def load_contour(path: str | Path, closed: bool = True) -> Contour:
    """Read a contour file.

    Raises ContourFormatError for text that does not decode, a line that is
    not two numbers, a file without points, and points that Contour rejects.
    """
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


def save_contour(contour: Contour, path: str | Path) -> None:
    lines = [f"{x:.6f} {y:.6f}" for x, y in contour.points]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Despeckling
# ---------------------------------------------------------------------------

def _median9_network(pixels: np.ndarray) -> np.ndarray:
    """Exact 3x3 median of the interior via a min/max sorting network."""
    v = [
        pixels[dy : pixels.shape[0] - 2 + dy, dx : pixels.shape[1] - 2 + dx]
        for dy in range(3)
        for dx in range(3)
    ]
    v = [a.copy() for a in v]

    def cswap(i, j):
        lo = np.minimum(v[i], v[j])
        np.maximum(v[i], v[j], out=v[j])
        v[i] = lo

    # classic 19-exchange median-of-9 network
    for i, j in (
        (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5),
        (7, 8), (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7),
        (4, 2), (6, 4), (4, 2),
    ):
        cswap(i, j)
    return v[4]


def _clamped_median_strip(pixels: np.ndarray, radius: int, ys, xs) -> np.ndarray:
    h, w = pixels.shape
    out = np.empty(len(ys), dtype=np.uint8)
    for i, (y, x) in enumerate(zip(ys, xs)):
        window = pixels[
            max(0, y - radius) : min(h, y + radius + 1),
            max(0, x - radius) : min(w, x + radius + 1),
        ]
        ordered = np.sort(window, axis=None)
        out[i] = ordered[(ordered.size - 1) // 2]
    return out


def median_filter(frame: Frame, radius: int = 1) -> Frame:
    """Median despeckle with a (2*radius+1)^2 window.

    Windows are clamped at the borders: only in-image pixels enter the
    median, no padding values are invented.  Windows with an even pixel
    count take the lower middle element, so output intensities are always
    drawn from the input.
    """
    if radius < 1:
        raise ValueError("median radius must be >= 1")
    h, w = frame.pixels.shape
    k = 2 * radius + 1

    if radius == 1 and h > 2 and w > 2:
        out = frame.pixels.copy()
        out[1:-1, 1:-1] = _median9_network(frame.pixels)
        border_ys, border_xs = np.nonzero(
            np.pad(np.zeros((h - 2, w - 2), dtype=bool), 1, constant_values=True)
        )
        out[border_ys, border_xs] = _clamped_median_strip(
            frame.pixels, radius, border_ys.tolist(), border_xs.tolist()
        )
        return Frame(pixels=out, mm_per_px=frame.mm_per_px)

    # general path: sort each clamped window, sentinel-padded so the per-
    # pixel valid count selects the lower-middle order statistic
    padded = np.full((h + 2 * radius, w + 2 * radius), 300, dtype=np.int16)
    padded[radius : radius + h, radius : radius + w] = frame.pixels
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k))
    stack = np.sort(windows.reshape(h, w, k * k), axis=2)

    rows = np.minimum(np.arange(h), radius) + np.minimum(h - 1 - np.arange(h), radius) + 1
    cols = np.minimum(np.arange(w), radius) + np.minimum(w - 1 - np.arange(w), radius) + 1
    counts = rows[:, None] * cols[None, :]
    mid = (counts - 1) // 2
    out = np.take_along_axis(stack, mid[:, :, None], axis=2)[:, :, 0]
    return Frame(pixels=out.astype(np.uint8), mm_per_px=frame.mm_per_px)
