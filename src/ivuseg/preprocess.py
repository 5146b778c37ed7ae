"""Ring-down and calibration-square removal via the sequence minimum image.

Catheter artifacts sit at fixed pixels with near-constant bright intensity
in every frame of a pullback, so the pixel-wise minimum over the sequence
leaves them bright while real tissue (which varies) goes dark.  Thresholding
the minimum image yields the artifact mask; masked pixels are then filled
from the surrounding speckle instead of being zeroed, which would punch a
false dark region straight into the extractor's dark-core topology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateMaskError, DimensionMismatchError
from .imaging import Frame

DEFAULT_RINGDOWN_THRESHOLD = 40


@dataclass
class ArtifactModel:
    """The pixels a pullback's catheter artifacts cover (a bool mask)."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)


def build_artifact_model(
    frames: list[Frame], threshold: int = DEFAULT_RINGDOWN_THRESHOLD
) -> ArtifactModel:
    """Mask true exactly where the pixel-wise minimum over the frames (one
    or more) stays at or above threshold.

    Raises ValueError for no frames, and DimensionMismatchError when the
    frames differ in size: they are then not one pullback.
    """
    if not frames:
        raise ValueError("need at least one frame")
    h, w = frames[0].pixels.shape
    for f in frames[1:]:
        if f.pixels.shape != (h, w):
            raise DimensionMismatchError(
                f"frames disagree on size: {w}x{h} vs {f.width}x{f.height}"
            )
    return ArtifactModel(mask=np.minimum.reduce([f.pixels for f in frames]) >= threshold)


# Fill windows, smallest first, and the clean samples one must hold.
_FILL_RADII = (3, 5, 7)
_MIN_CLEAN = 5
# Masked pixels whose windows are gathered at once: a chunk's windows take
# 2 * 15 * 15 bytes per pixel, so memory stays flat however large the mask.
_FILL_CHUNK = 4096
# Window cells that are masked or off the frame read this value, above every
# intensity, so they sort after a window's clean samples.
_NOT_CLEAN = 256


def _lower_median(values: np.ndarray) -> int:
    """Lower median of uint8 values, from their histogram."""
    cumulative = np.cumsum(np.bincount(values, minlength=256))
    return int(np.searchsorted(cumulative, (values.size - 1) // 2, side="right"))


def remove_artifacts(frame: Frame, model: ArtifactModel) -> Frame:
    """Replace masked pixels with the median of nearby unmasked pixels.

    Each masked pixel takes the lower median of the unmasked pixels inside
    a 7x7 window; the window grows by 2 px per side (up to 15x15) until at
    least 5 unmasked samples exist, else the frame's global unmasked lower
    median is used.  Windows are clipped to the frame.  Unmasked pixels are
    never modified, and every replacement is computed from the original
    frame so the result is order-independent.  The windows of all masked
    pixels are gathered and sorted as arrays, a chunk of pixels at a time.
    """
    mask = model.mask
    if mask.shape != frame.pixels.shape:
        raise DimensionMismatchError("artifact mask dimensions must match the frame")
    if mask.all():
        raise DegenerateMaskError("degenerate mask: artifact mask covers the entire frame")
    if not mask.any():
        return Frame(pixels=frame.pixels.copy())

    src = frame.pixels
    r = _FILL_RADII[-1]
    grid = np.full((src.shape[0] + 2 * r, src.shape[1] + 2 * r), _NOT_CLEAN, dtype=np.uint16)
    grid[r:-r, r:-r][~mask] = src[~mask]
    windows = sliding_window_view(grid, (2 * r + 1, 2 * r + 1))
    ys, xs = np.nonzero(mask)
    fill = np.full(ys.size, _lower_median(src[~mask]), dtype=src.dtype)
    for start in range(0, ys.size, _FILL_CHUNK):
        chunk = windows[ys[start : start + _FILL_CHUNK], xs[start : start + _FILL_CHUNK]]
        todo = np.arange(chunk.shape[0])
        for radius in _FILL_RADII:
            cells = chunk[todo, r - radius : r + radius + 1, r - radius : r + radius + 1]
            cells = cells.reshape(todo.size, -1)
            clean = np.count_nonzero(cells != _NOT_CLEAN, axis=1)
            done = clean >= _MIN_CLEAN
            ordered = np.sort(cells[done], axis=1)
            fill[start + todo[done]] = ordered[np.arange(ordered.shape[0]), (clean[done] - 1) // 2]
            todo = todo[~done]
            if not todo.size:
                break
    out = src.copy()
    out[ys, xs] = fill
    return Frame(pixels=out)
