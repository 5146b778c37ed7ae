"""Ring-down and calibration-square removal via the sequence minimum image.

Catheter artifacts sit at fixed pixels with near-constant bright intensity
in every frame of a pullback, so the pixel-wise minimum over the sequence
leaves them bright while real tissue (which varies) goes dark.  Thresholding
the minimum image yields the artifact mask; masked pixels are then filled
from the surrounding speckle instead of being zeroed, which would punch a
false dark region straight into the extractor's dark-core topology.  A fill
is the lower median of the unmasked samples in a square window clipped to
the frame, the window rule of imaging.median_filter: 7x7, else 11x11, else
15x15, each needing at least 5 such samples, else the frame's global lower
median of its unmasked pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMaskError, DimensionMismatchError
from .imaging import Frame, window_medians

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


# Fill window radii, smallest first, and the clean samples a window must hold.
_FILL_RADII = (3, 5, 7)
_MIN_CLEAN = 5


def _lower_median(values: np.ndarray) -> int:
    """Lower median of uint8 values, from their histogram."""
    cumulative = np.cumsum(np.bincount(values, minlength=256))
    return int(np.searchsorted(cumulative, (values.size - 1) // 2, side="right"))


def remove_artifacts(frame: Frame, model: ArtifactModel) -> Frame:
    """Replace masked pixels with the median of nearby unmasked pixels.

    Each masked pixel takes the lower median of the unmasked pixels in its
    window clipped to the frame, the same window rule median_filter uses:
    the 7x7 window, else the 11x11, else the 15x15, the first that holds at
    least 5 unmasked samples, else the frame's global unmasked lower median.
    Unmasked pixels are never modified, and every replacement is computed
    from the original frame, so the result is order-independent.  Each
    window size is one imaging.window_medians call over the masked pixels
    still unfilled.
    """
    mask = model.mask
    if mask.shape != frame.pixels.shape:
        raise DimensionMismatchError("artifact mask dimensions must match the frame")
    if mask.all():
        raise DegenerateMaskError("degenerate mask: artifact mask covers the entire frame")
    if not mask.any():
        return Frame(pixels=frame.pixels.copy())

    src = frame.pixels
    ys, xs = np.nonzero(mask)
    fill = np.full(ys.size, _lower_median(src[~mask]), dtype=src.dtype)
    todo = np.arange(ys.size)
    for radius in _FILL_RADII:
        medians, counts = window_medians(src, mask, ys[todo], xs[todo], radius)
        done = counts >= _MIN_CLEAN
        fill[todo[done]] = medians[done]
        todo = todo[~done]
        if not todo.size:
            break
    out = src.copy()
    out[ys, xs] = fill
    return Frame(pixels=out)
