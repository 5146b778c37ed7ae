"""Synthetic IVUS-like frames with known lumen/media geometry.

The phantom mimics the radial layering a 20 MHz probe sees: a dark lumen,
a bright intima/plaque ring, a darker media band just inside the
media-adventitia border, and bright adventitia outside.  Speckle is
multiplicative log-normal.  Shadow wedges, bifurcation notches, and
constant ring-down squares can be injected to reproduce the common
acquisition artifacts at desk scale, with exact elliptical ground truth.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .geometry import Ellipse, ellipse_mask, rasterize_ellipse
from .imaging import Contour, Frame

DEFAULT_LAYER_MEANS = (40, 160, 70, 180)  # lumen, intima, media band, adventitia
GROUND_TRUTH_POINTS = 720


@dataclass
class ShadowArtifact:
    """Attenuates everything outside the lumen within an angular wedge."""

    angle_start: float
    angle_end: float
    attenuation: float

    def __post_init__(self) -> None:
        if not 0 < self.attenuation <= 1:
            raise ValueError("shadow attenuation must lie in (0, 1]")


@dataclass
class BifurcationArtifact:
    """Dark side-branch opening cutting through the wall in an angular wedge."""

    angle_start: float
    angle_end: float


@dataclass
class RingDownArtifact:
    """Constant bright square, identical in every frame of a sequence."""

    x: int
    y: int
    size: int
    intensity: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("ring-down square size must be >= 1")
        if not 0 <= self.intensity <= 255:
            raise ValueError("ring-down intensity must lie in [0, 255]")


@dataclass
class GroundTruth:
    """Exact contours and generators of the phantom's two structures."""

    lumen: Ellipse
    media: Ellipse
    lumen_contour: Contour
    media_contour: Contour


@dataclass
class PhantomSpec:
    width: int = 384
    height: int = 384
    lumen: Ellipse = field(default_factory=lambda: Ellipse(192.0, 192.0, 60.0, 52.0, 0.3))
    media: Ellipse = field(default_factory=lambda: Ellipse(192.0, 192.0, 112.0, 100.0, -0.2))
    layer_means: tuple[int, int, int, int] = DEFAULT_LAYER_MEANS
    speckle_sigma: float = 0.3
    artifacts: list = field(default_factory=list)
    rng_seed: int = 0
    media_band_fraction: float = 0.86  # inner edge of the dark media band
    # Azimuthal brightness modulation of the intima/plaque ring.  Real
    # plaque is heterogeneous, which is what makes the nested regions grow
    # gradually instead of flooding the whole ring at one threshold.
    intima_texture: float = 0.18
    texture_waves: int = 3
    # Optional radial brightening of blood speckle toward the lumen wall.
    # Zero keeps the blood pool flat, which gives the region evolution a
    # crisp stability plateau at the lumen.
    lumen_texture: float = 0.0

    def __post_init__(self) -> None:
        lum, inti, med, adv = self.layer_means
        if not all(0 <= v <= 255 for v in self.layer_means):
            raise ValueError("layer means must lie in [0, 255]")
        if not (lum < med < inti <= adv):
            raise ValueError(
                "layer means must satisfy lumen < media band < intima <= adventitia"
            )
        if not 0 < self.media_band_fraction < 1:
            raise ValueError("media_band_fraction must lie in (0, 1)")
        if not 0 <= self.speckle_sigma < float("inf"):
            raise ValueError("speckle_sigma must be finite and >= 0")
        if not 0 <= self.intima_texture < 0.5:
            raise ValueError("intima_texture must lie in [0, 0.5)")
        if not 0 <= self.lumen_texture < 1.0:
            raise ValueError("lumen_texture must lie in [0, 1)")
        # the textures scale a layer's mean by up to 1 + texture, which
        # rendering would otherwise clip at 255 without a word
        if inti * (1 + self.intima_texture) > 255:
            raise ValueError("intima mean * (1 + intima_texture) must not exceed 255")
        if lum * (1 + self.lumen_texture) > 255:
            raise ValueError("lumen mean * (1 + lumen_texture) must not exceed 255")
        # the lumen must sit strictly inside the media: every lumen contour
        # point has to be well inside the media's implicit unit level.
        pts = rasterize_ellipse(self.lumen, 256).points
        if self.media.implicit(pts[:, 0], pts[:, 1]).max() >= 0.98:
            raise ValueError("lumen ellipse must lie strictly inside the media ellipse")


def _layer_image(spec: PhantomSpec) -> np.ndarray:
    lum_mean, inti_mean, med_mean, adv_mean = spec.layer_means
    shape = (spec.height, spec.width)
    base = np.full(shape, float(adv_mean))
    media_inner = replace(
        spec.media,
        a=spec.media.a * spec.media_band_fraction,
        b=spec.media.b * spec.media_band_fraction,
    )
    base[ellipse_mask(spec.media, shape)] = float(med_mean)
    intima = ellipse_mask(media_inner, shape)
    if spec.intima_texture > 0:
        ys, xs = np.nonzero(intima)
        angles = np.arctan2(ys - spec.lumen.cy, xs - spec.lumen.cx)
        # phase tied to the seed so distinct phantoms get distinct plaque
        phase = (spec.rng_seed % 17) * 0.37
        mod = 1.0 + spec.intima_texture * np.sin(spec.texture_waves * angles + phase)
        base[ys, xs] = inti_mean * mod
    else:
        base[intima] = float(inti_mean)
    lumen = ellipse_mask(spec.lumen, shape)
    if spec.lumen_texture > 0:
        ys, xs = np.nonzero(lumen)
        rho = np.sqrt(np.clip(spec.lumen.implicit(xs, ys), 0.0, 1.0))
        base[ys, xs] = lum_mean * (1.0 + spec.lumen_texture * rho)
    else:
        base[lumen] = float(lum_mean)
    return base


def _apply_tissue_artifacts(spec: PhantomSpec, base: np.ndarray) -> np.ndarray:
    shadows = [a for a in spec.artifacts if isinstance(a, ShadowArtifact)]
    notches = [a for a in spec.artifacts if isinstance(a, BifurcationArtifact)]
    if not shadows and not notches:
        return base
    ys, xs = np.mgrid[0 : spec.height, 0 : spec.width]
    angles = np.arctan2(ys - spec.lumen.cy, xs - spec.lumen.cx)
    outside_lumen = spec.lumen.implicit(xs, ys) > 1.0
    out = base.copy()
    for a in shadows:
        wedge = (angles >= a.angle_start) & (angles <= a.angle_end)
        sel = wedge & outside_lumen
        out[sel] = out[sel] * a.attenuation
    lum_mean = float(spec.layer_means[0])
    inside_media = spec.media.implicit(xs, ys) <= 1.12
    for a in notches:
        wedge = (angles >= a.angle_start) & (angles <= a.angle_end)
        out[wedge & outside_lumen & inside_media] = lum_mean
    return out


def _render_frame(spec: PhantomSpec, base: np.ndarray, rng: np.random.Generator) -> Frame:
    if spec.speckle_sigma > 0:
        factors = np.exp(spec.speckle_sigma * rng.standard_normal(base.shape))
        img = base * factors
    else:
        img = base.copy()
    for a in spec.artifacts:
        if isinstance(a, RingDownArtifact):
            img[a.y : a.y + a.size, a.x : a.x + a.size] = float(a.intensity)
    return Frame(pixels=np.clip(np.rint(img), 0, 255).astype(np.uint8))


def generate_phantom(spec: PhantomSpec, n_frames: int = 1):
    """Deterministic phantom frame(s) plus exact ground truth.

    Returns (Frame, GroundTruth) for n_frames == 1 and
    (list of Frame, GroundTruth) otherwise.  Speckle is drawn independently
    per frame from one seeded generator; ring-down squares stay constant so
    the sequence minimum image exposes them.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    rng = np.random.default_rng(spec.rng_seed)
    base = _apply_tissue_artifacts(spec, _layer_image(spec))
    truth = GroundTruth(
        lumen=spec.lumen,
        media=spec.media,
        lumen_contour=rasterize_ellipse(spec.lumen, GROUND_TRUTH_POINTS),
        media_contour=rasterize_ellipse(spec.media, GROUND_TRUTH_POINTS),
    )
    if n_frames == 1:
        return _render_frame(spec, base, rng), truth
    return [_render_frame(spec, base, rng) for _ in range(n_frames)], truth


# ---------------------------------------------------------------------------
# key=value spec files
# ---------------------------------------------------------------------------

# spec-file name of each artifact kind, and the type of its fields
_ARTIFACT_KINDS = {
    "shadow": (ShadowArtifact, float),
    "bifurcation": (BifurcationArtifact, float),
    "ringdown": (RingDownArtifact, int),
}


def _format_artifact(a) -> str:
    for kind, (cls, _) in _ARTIFACT_KINDS.items():
        if type(a) is cls:
            return ":".join([kind, *map(str, astuple(a))])
    raise ValueError(f"unknown artifact {a!r}")


def _parse_artifact(text: str):
    kind, *parts = text.split(":")
    if kind not in _ARTIFACT_KINDS:
        raise ValueError(f"unknown artifact kind {kind!r}")
    cls, parse = _ARTIFACT_KINDS[kind]
    if len(parts) != len(fields(cls)):
        raise ValueError(f"artifact {text!r} needs {len(fields(cls))} fields, not {len(parts)}")
    return cls(*map(parse, parts))


def _format_ellipse(e: Ellipse) -> str:
    return f"{e.cx} {e.cy} {e.a} {e.b} {e.theta}"


def _parse_ellipse(text: str) -> Ellipse:
    cx, cy, a, b, theta = (float(v) for v in text.split())
    return Ellipse(cx, cy, a, b, theta)


def save_spec(spec: PhantomSpec, path: str | Path) -> None:
    lines = [
        f"width={spec.width}",
        f"height={spec.height}",
        f"lumen={_format_ellipse(spec.lumen)}",
        f"media={_format_ellipse(spec.media)}",
        f"layer_means={','.join(str(v) for v in spec.layer_means)}",
        f"speckle_sigma={spec.speckle_sigma}",
        f"rng_seed={spec.rng_seed}",
        f"media_band_fraction={spec.media_band_fraction}",
        f"intima_texture={spec.intima_texture}",
        f"texture_waves={spec.texture_waves}",
        f"lumen_texture={spec.lumen_texture}",
    ]
    lines += [f"artifact={_format_artifact(a)}" for a in spec.artifacts]
    Path(path).write_text("\n".join(lines) + "\n")


def load_spec(path: str | Path) -> PhantomSpec:
    kwargs: dict = {}
    artifacts = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in ("width", "height", "rng_seed", "texture_waves"):
            kwargs[key] = int(value)
        elif key in ("lumen", "media"):
            kwargs[key] = _parse_ellipse(value)
        elif key == "layer_means":
            kwargs[key] = tuple(int(v) for v in value.split(","))
        elif key in ("speckle_sigma", "media_band_fraction", "intima_texture", "lumen_texture"):
            kwargs[key] = float(value)
        elif key == "artifact":
            artifacts.append(_parse_artifact(value))
        else:
            raise ValueError(f"unknown phantom spec key {key!r}")
    return PhantomSpec(artifacts=artifacts, **kwargs)
