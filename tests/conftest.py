import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from ivuseg.geometry import Ellipse
from ivuseg.phantom import PhantomSpec, ShadowArtifact


def acceptance_phantom_spec(seed: int, shadow: bool = False) -> PhantomSpec:
    """The phantom family used by the end-to-end gates.

    Geometry is drawn per seed: lumen semi-axes 50-68 px, media 98-118 px,
    mild plaque texture and blood-speckle grading, log-normal speckle at
    sigma 0.3.  Shadow phantoms add one wedge of 0.6-1.1 rad attenuating
    everything outside the lumen to 60%.
    """
    r = np.random.default_rng(seed)
    cx = 192 + r.uniform(-8, 8)
    cy = 192 + r.uniform(-8, 8)
    la = r.uniform(50, 68)
    lb = la * r.uniform(0.75, 1.0)
    ma = r.uniform(98, 118)
    mb = ma * r.uniform(0.82, 1.0)
    artifacts = []
    if shadow:
        start = r.uniform(-np.pi, np.pi * 0.5)
        artifacts.append(ShadowArtifact(start, start + r.uniform(0.6, 1.1), 0.6))
    return PhantomSpec(
        lumen=Ellipse(cx, cy, la, lb, r.uniform(-1.2, 1.2)),
        media=Ellipse(cx + r.uniform(-5, 5), cy + r.uniform(-5, 5), ma, mb, r.uniform(-1.2, 1.2)),
        intima_texture=0.12,
        lumen_texture=0.08,
        speckle_sigma=0.3,
        rng_seed=seed,
        artifacts=artifacts,
    )


# the (seed, shadow) pairs of the 20 clean and 20 shadow acceptance phantoms
ACCEPTANCE_PHANTOMS = [(s, shadow) for shadow in (False, True) for s in range(20)]


def scaled_phantom_spec(spec: PhantomSpec, size: int) -> PhantomSpec:
    """spec's geometry on a size x size frame, scaled from the 384 x 384 one."""
    scale = size / 384.0

    def scaled(e: Ellipse) -> Ellipse:
        return Ellipse(e.cx * scale, e.cy * scale, e.a * scale, e.b * scale, e.theta)

    return replace(spec, width=size, height=size, lumen=scaled(spec.lumen), media=scaled(spec.media))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
