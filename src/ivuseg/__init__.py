"""Lumen and media-adventitia segmentation for 20 MHz IVUS B-mode frames.

The pipeline extracts nested dark-core regions from a component tree,
selects two of them by the stability of their texture scores, and reports
ellipse contours plus overlap/distance metrics against gold-standard
contours.
"""

from .erel import ErelParams, RegionSeries, extract_qplus
from .errors import (
    ConfigError,
    ContourFormatError,
    DegenerateMaskError,
    DegenerateRegionError,
    DimensionMismatchError,
    NoCandidateRegionsError,
    PgmFormatError,
    SegmentationError,
)
from .geometry import Ellipse, ellipse_from_moments, ellipse_mask, rasterize_ellipse
from .imaging import (
    Contour,
    Frame,
    frame_center,
    load_contour,
    load_frame,
    median_filter,
    save_contour,
    save_frame,
)
from .metrics import EvaluationReport, StructureMetrics, hausdorff, jaccard, pad
from .phantom import (
    BifurcationArtifact,
    GroundTruth,
    PhantomSpec,
    RingDownArtifact,
    ShadowArtifact,
    generate_phantom,
)
from .preprocess import (
    ArtifactModel,
    build_artifact_model,
    remove_artifacts,
)
from .selection import (
    StabilityProfile,
    feature_vector,
    find_peaks,
    remove_outliers,
    select_regions,
    stability_scores,
)
from .cli import RunConfig, SegmentResult, main, run_batch, segment_frame

__version__ = "0.1.0"
