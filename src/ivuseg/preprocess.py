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

Which window fills a pixel depends on the mask alone, so ArtifactModel
decides it once per pullback (its fill schedule); each frame then gathers
every masked pixel's window at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMaskError, DimensionMismatchError
from .imaging import Frame, window_medians

DEFAULT_RINGDOWN_THRESHOLD = 40

# Fill window radii, smallest first, and the clean samples a window must hold.
_FILL_RADII = (3, 5, 7)
_MIN_CLEAN = 5
# The schedule's window index of a pixel that takes the global median.
_GLOBAL = len(_FILL_RADII)


def _fill_windows(mask: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The fill window of each masked pixel at the flat positions: the index
    into _FILL_RADII of the first window clipped to the frame that holds at
    least _MIN_CLEAN unmasked pixels, else _GLOBAL.

    Window counts are box sums of the clean map's integral image.  The
    windows nest, so a pixel's first window with enough samples comes right
    after all those with too few, and its index is the number of them.
    """
    h, w = mask.shape
    ys, xs = np.divmod(positions, w)
    # clean[y, x]: the unmasked pixels in rows < y and columns < x
    clean = np.zeros((h + 1, w + 1), dtype=np.intp)
    np.cumsum(np.cumsum(~mask, axis=0), axis=1, out=clean[1:, 1:])
    windows = np.zeros(ys.size, dtype=np.int8)
    for radius in _FILL_RADII:
        y0, y1 = np.maximum(ys - radius, 0), np.minimum(ys + radius + 1, h)
        x0, x1 = np.maximum(xs - radius, 0), np.minimum(xs + radius + 1, w)
        counts = clean[y1, x1] - clean[y0, x1] - clean[y1, x0] + clean[y0, x0]
        windows += counts < _MIN_CLEAN
    return windows


@dataclass(frozen=True)
class ArtifactModel:
    """The pixels a pullback's catheter artifacts cover, and the fill
    schedule derived from them once per pullback.

    mask is a read-only bool copy of the array passed.  The schedule holds
    one entry per masked pixel, in raster order: its flat position
    (positions) and its fill window (windows, int8), the index into
    _FILL_RADII of the first window with at least _MIN_CLEAN unmasked
    samples, or _GLOBAL for the global median.  The model is frozen, so the
    schedule always belongs to the mask.  A mask that is not 2-D raises
    ValueError.
    """

    mask: np.ndarray
    positions: np.ndarray = field(init=False, repr=False)
    windows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mask = np.array(self.mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError(f"artifact mask must be 2-D, not {mask.ndim}-D")
        mask.flags.writeable = False
        positions = np.flatnonzero(mask)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "windows", _fill_windows(mask, positions))


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
    from the original frame, so the result is order-independent.  The
    model's schedule names each pixel's window, so each window size is one
    imaging.window_medians call over only the pixels scheduled for it, and
    the global median is computed only when some pixel takes it.

    Raises DimensionMismatchError when the mask and the frame differ in
    size, and DegenerateMaskError when the mask covers the whole frame; an
    empty mask returns a copy of the frame.
    """
    mask = model.mask
    if mask.shape != frame.pixels.shape:
        raise DimensionMismatchError("artifact mask dimensions must match the frame")
    if model.positions.size == mask.size:
        raise DegenerateMaskError("degenerate mask: artifact mask covers the entire frame")

    src = frame.pixels
    out = src.copy()
    filled = out.reshape(-1)
    ys, xs = np.divmod(model.positions, mask.shape[1])
    for index, radius in enumerate(_FILL_RADII):
        part = model.windows == index
        if part.any():
            medians = window_medians(src, mask, ys[part], xs[part], radius)[0]
            filled[model.positions[part]] = medians
    part = model.windows == _GLOBAL
    if part.any():
        filled[model.positions[part]] = _lower_median(src[~mask])
    return Frame(pixels=out)
