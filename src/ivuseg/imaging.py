"""Raster types, PGM/contour/settings I/O, despeckling and coordinate helpers.

All operations are pure: they never mutate their inputs and return fresh
values, so frames can be shared freely across worker processes.

One window rule serves despeckling and the artifact fill: a pixel's value is
the lower median of the valid samples in a square window clipped to the
frame.  window_medians is its one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContourFormatError, PgmFormatError


@dataclass
class Frame:
    """Single 8-bit grayscale raster.

    pixels is a (height, width) uint8 array in row-major order.
    """

    pixels: np.ndarray

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

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class Contour:
    """Ordered sub-pixel (x, y) polyline, optionally closed."""

    points: np.ndarray
    closed: bool = True

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("contour points must be an (n, 2) array with n >= 1")
        if not np.isfinite(pts).all():
            raise ValueError("contour points must be finite")
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
    """Read a binary PGM (P5, maxval 255) raster into a Frame.

    Raises PgmFormatError for a file that cannot be read (missing, a
    directory, unreadable) as for one that is not such a raster.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise PgmFormatError(f"cannot read PGM file {path}: {exc.strerror or exc}") from exc
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

def _parse_contour_lines(text: str, path: str | Path) -> np.ndarray:
    """The points of the text one line at a time; raises ContourFormatError
    naming the first line that is not two numbers."""
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
    return np.array(pts, dtype=np.float64)


def load_contour(path: str | Path, closed: bool = True) -> Contour:
    """Read a contour file.

    Raises ContourFormatError for a file that cannot be read, text that
    does not decode, a line that is not two numbers, a file without points,
    and points that Contour rejects.
    Numbers are read as Python's float() reads them; all lines are
    converted at once, and only a failed conversion looks line by line for
    the one to report.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ContourFormatError(f"contour file {path} is not text: {exc}") from exc
    except OSError as exc:
        raise ContourFormatError(
            f"cannot read contour file {path}: {exc.strerror or exc}"
        ) from exc
    rows = [tokens for tokens in map(str.split, text.splitlines()) if tokens]
    if not rows:
        raise ContourFormatError(f"empty contour file {path}")
    try:
        pts = np.array(rows, dtype=np.float64)
    except ValueError:
        pts = None
    if pts is None or pts.shape[1] != 2:
        pts = _parse_contour_lines(text, path)
    try:
        return Contour(points=pts, closed=closed)
    except ValueError as exc:
        raise ContourFormatError(f"bad contour in {path}: {exc}") from exc


def save_contour(contour: Contour, path: str | Path) -> None:
    """Write one "x y" line per point, six decimals each."""
    pts = contour.points
    Path(path).write_text(("%.6f %.6f\n" * len(pts)) % tuple(pts.ravel().tolist()))


# ---------------------------------------------------------------------------
# key=value settings files: run configs (--config) and phantom specs (--spec)
# ---------------------------------------------------------------------------

def read_settings(path: str | Path, kind: str, parsers: dict) -> list[tuple[str, object]]:
    """(key, value) of every setting line of a key=value file, in file order.

    Blank lines and # comments are skipped, and keys and values are
    stripped.  parsers maps each known key to the function that turns its
    value text into the value.  A file that cannot be read or is not text,
    a line with no "=", an unknown key, and a value whose parser raises
    ValueError are each a ConfigError naming the kind of file ("config",
    "spec") and what is wrong.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{kind} file {path} is not text: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc.strerror or exc}") from exc
    settings = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"bad {kind} line {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in parsers:
            raise ConfigError(f"unknown {kind} key {key!r}")
        try:
            settings.append((key, parsers[key](value)))
        except ValueError as exc:
            raise ConfigError(f"bad {kind} value {key}={value!r}: {exc}") from exc
    return settings


# ---------------------------------------------------------------------------
# Despeckling
# ---------------------------------------------------------------------------

def _median3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Elementwise median of three arrays."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    np.minimum(hi, c, out=hi)
    return np.maximum(lo, hi, out=hi)


def _median9(pixels: np.ndarray) -> np.ndarray:
    """Exact 3x3 median of the interior.

    Each vertical triple is sorted once, and every window shares it with
    its two horizontal neighbours.  A window's median is then the median of
    its three columns' largest minimum, median median and smallest maximum,
    an exact identity for sorted columns.
    """
    a, b, c = pixels[:-2], pixels[1:-1], pixels[2:]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    low_of_hi = np.minimum(hi, c)
    np.maximum(hi, c, out=hi)
    mid = np.maximum(lo, low_of_hi)
    np.minimum(lo, low_of_hi, out=lo)
    left, centre, right = np.s_[:, :-2], np.s_[:, 1:-1], np.s_[:, 2:]
    lo_max = np.maximum(lo[left], lo[centre])
    np.maximum(lo_max, lo[right], out=lo_max)
    hi_min = np.minimum(hi[left], hi[centre])
    np.minimum(hi_min, hi[right], out=hi_min)
    return _median3(lo_max, _median3(mid[left], mid[centre], mid[right]), hi_min)


# Window values window_medians gathers and sorts at once: 2 MiB of uint16.
_WINDOW_CHUNK = 1 << 20


def window_medians(
    pixels: np.ndarray, excluded: np.ndarray | None, ys: np.ndarray, xs: np.ndarray, radius: int
) -> np.ndarray:
    """Lower medians of the windows centred on the pixels (ys, xs).

    A window's samples are the pixels at most radius away in each axis,
    clipped to the frame, less those marked in the bool map excluded (None
    excludes none).  Returns element (count - 1) // 2 of each window's
    sorted samples as uint16, where count is its number of samples.  A
    window without samples reads 256.  Windows are gathered and sorted a
    chunk of pixels at a time, _WINDOW_CHUNK values per chunk, so memory
    stays flat however many pixels or however large the window.
    """
    h, w = pixels.shape
    k = 2 * radius + 1
    # cells off the frame or excluded read 256, above every intensity, so
    # they sort after a window's samples
    grid = np.full((h + 2 * radius, w + 2 * radius), 256, dtype=np.uint16)
    inner = grid[radius : radius + h, radius : radius + w]
    inner[...] = pixels
    if excluded is not None:
        inner[excluded] = 256
    windows = np.lib.stride_tricks.sliding_window_view(grid, (k, k))
    medians = np.empty(ys.size, dtype=np.uint16)
    step = max(1, _WINDOW_CHUNK // (k * k))
    for start in range(0, ys.size, step):
        part = slice(start, start + step)
        cells = windows[ys[part], xs[part]].reshape(-1, k * k)
        counts = np.count_nonzero(cells != 256, axis=1)
        cells.sort(axis=1)
        medians[part] = cells[np.arange(cells.shape[0]), (counts - 1) // 2]
    return medians


def median_filter(frame: Frame) -> Frame:
    """3x3 median despeckle.

    Each pixel takes the lower median of its 3x3 window clipped to the
    frame: only in-image pixels enter, no padding values are invented, and
    a window with an even pixel count takes the lower middle element, so
    output intensities are always drawn from the input.  _median9 computes
    the interior from sorted columns and window_medians the one-pixel
    border.
    """
    px = frame.pixels
    h, w = px.shape
    out = np.empty_like(px)
    out[1:-1, 1:-1] = _median9(px)
    # the border rows, then the interior rows' end pixels; a frame less
    # than 3 pixels high or wide lists some pixels twice
    rows = np.arange(1, h - 1)
    ys = np.r_[np.zeros(w, np.intp), np.full(w, h - 1), rows, rows]
    xs = np.r_[np.arange(w), np.arange(w), np.zeros(rows.size, np.intp), np.full(rows.size, w - 1)]
    out[ys, xs] = window_medians(px, None, ys, xs, 1)
    return Frame(pixels=out)
