from dataclasses import fields

import numpy as np
import pytest

from ivuseg.geometry import Ellipse
from ivuseg.phantom import (
    BifurcationArtifact,
    PhantomSpec,
    RingDownArtifact,
    ShadowArtifact,
    generate_phantom,
    load_spec,
    save_spec,
)
from ivuseg.preprocess import build_artifact_model


def test_same_seed_identical_frames():
    spec = PhantomSpec(rng_seed=11)
    a, _ = generate_phantom(spec)
    b, _ = generate_phantom(spec)
    assert np.array_equal(a.pixels, b.pixels)


def test_distinct_seeds_differ_widely():
    a, _ = generate_phantom(PhantomSpec(rng_seed=1))
    b, _ = generate_phantom(PhantomSpec(rng_seed=2))
    assert (a.pixels != b.pixels).mean() > 0.5


def test_noiseless_phantom_recovers_lumen_by_threshold():
    # thresholding midway between lumen and intima keeps the lumen and the
    # (disjoint) media band; the component at the centre is exactly the lumen
    from scipy import ndimage

    from ivuseg.geometry import ellipse_mask
    from oracles import FOUR

    spec = PhantomSpec(speckle_sigma=0.0, intima_texture=0.0, lumen_texture=0.0)
    frame, truth = generate_phantom(spec)
    lum_mean, inti_mean = spec.layer_means[0], spec.layer_means[1]
    binary = frame.pixels <= (lum_mean + inti_mean) // 2
    labels, _ = ndimage.label(binary, structure=FOUR)
    recovered = labels == labels[192, 192]
    expected = ellipse_mask(truth.lumen, frame.pixels.shape)
    assert np.array_equal(recovered, expected)


def test_ground_truth_contours_satisfy_implicit_equation():
    _, truth = generate_phantom(PhantomSpec(rng_seed=3))
    for contour, ellipse in (
        (truth.lumen_contour, truth.lumen),
        (truth.media_contour, truth.media),
    ):
        vals = ellipse.implicit(contour.points[:, 0], contour.points[:, 1])
        assert np.abs(vals - 1.0).max() <= 1e-9


def test_sequence_mode_keeps_ringdown_constant():
    # enough frames that the per-pixel minimum of the speckle falls below
    # the detection threshold everywhere except the constant square
    spec = PhantomSpec(
        rng_seed=5,
        artifacts=[RingDownArtifact(x=50, y=40, size=6, intensity=220)],
    )
    frames, _ = generate_phantom(spec, n_frames=40)
    assert isinstance(frames, list) and len(frames) == 40
    mask = build_artifact_model(frames, threshold=150).mask
    expected = np.zeros_like(mask)
    expected[40:46, 50:56] = True
    assert np.array_equal(mask, expected)
    # speckle must vary between frames away from the constant square
    assert (frames[0].pixels != frames[1].pixels).mean() > 0.3


def test_shadow_darkens_wedge_only_outside_lumen():
    base_spec = PhantomSpec(rng_seed=9, speckle_sigma=0.0, intima_texture=0.0)
    shadow_spec = PhantomSpec(
        rng_seed=9, speckle_sigma=0.0, intima_texture=0.0,
        artifacts=[ShadowArtifact(0.0, 1.0, 0.5)],
    )
    plain, truth = generate_phantom(base_spec)
    shadowed, _ = generate_phantom(shadow_spec)
    changed = plain.pixels != shadowed.pixels
    from ivuseg.geometry import ellipse_mask

    lumen = ellipse_mask(truth.lumen, plain.pixels.shape)
    assert changed.any()
    assert not (changed & lumen).any()


def test_layer_ordering_enforced():
    with pytest.raises(ValueError):
        PhantomSpec(layer_means=(80, 160, 70, 180))  # lumen >= media band


@pytest.mark.parametrize("means", [(40, 160, 70, 400), (-10, 160, 70, 180)])
def test_layer_means_must_be_grey_levels(means):
    # ordered, but a mean outside [0, 255] would be clipped when rendered
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        PhantomSpec(layer_means=means)


@pytest.mark.parametrize("means, textures, layer", [
    # the intima modulation reaches 200 * 1.4 = 280
    ((40, 200, 70, 220), {"intima_texture": 0.4}, "intima"),
    # the lumen grading reaches 150 * 1.9 = 285
    ((150, 200, 170, 220), {"lumen_texture": 0.9}, "lumen"),
])
def test_textures_must_keep_layers_below_255(means, textures, layer):
    with pytest.raises(ValueError, match=f"{layer} mean"):
        PhantomSpec(layer_means=means, **textures)


def test_textures_reaching_exactly_255_are_accepted():
    spec = PhantomSpec(
        layer_means=(170, 204, 180, 220), intima_texture=0.25, lumen_texture=0.5,
        speckle_sigma=0.0,
    )
    frame, _ = generate_phantom(spec)
    assert frame.pixels.max() == 255


def test_lumen_must_fit_inside_media():
    with pytest.raises(ValueError):
        PhantomSpec(
            lumen=Ellipse(192, 192, 110, 95, 0.0),
            media=Ellipse(192, 192, 105, 98, 0.0),
        )


def test_spec_round_trip(tmp_path):
    spec = PhantomSpec(
        width=200,
        height=180,
        lumen=Ellipse(101.5, 88.25, 40.0, 33.0, 0.7),
        media=Ellipse(99.0, 91.0, 70.0, 61.5, -0.45),
        layer_means=(30, 150, 60, 200),
        speckle_sigma=0.25,
        artifacts=[
            ShadowArtifact(0.2, 1.1, 0.6),
            BifurcationArtifact(-2.0, -1.5),
            RingDownArtifact(10, 12, 5, 230),
        ],
        rng_seed=21,
        media_band_fraction=0.8,
        intima_texture=0.1,
        texture_waves=5,
        lumen_texture=0.05,
    )
    # every field is off its default, so a field the file drops shows here
    default = PhantomSpec()
    assert [f.name for f in fields(spec)
            if getattr(spec, f.name) == getattr(default, f.name)] == []
    path = tmp_path / "p.spec"
    save_spec(spec, path)
    again = load_spec(path)
    assert again == spec
