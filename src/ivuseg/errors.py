"""Exception types shared across the pipeline.

Every error that the batch runner turns into a machine-readable record
derives from SegmentationError so callers can catch one base class.
Selection's fallbacks (the outlier screen keeping the whole series, the
media taken as the last region) are answers, not errors: select_regions
returns them in its StabilityProfile.
"""


class SegmentationError(Exception):
    """Base class for all recoverable pipeline errors."""


class PgmFormatError(SegmentationError):
    """Raised for malformed or unsupported PGM input."""


class ContourFormatError(SegmentationError):
    """Raised for contour text that is not one "x y" pair per line."""


class DimensionMismatchError(SegmentationError):
    """Raised when rasters that must share dimensions do not."""


class DegenerateMaskError(SegmentationError):
    """Raised when an artifact mask covers the entire frame."""


class NoCandidateRegionsError(SegmentationError):
    """Raised when the area band leaves no extracted region."""


class DegenerateRegionError(SegmentationError):
    """Raised when second central moments do not define an ellipse."""


class ConfigError(SegmentationError):
    """Raised for out-of-range or inconsistent run configuration."""
