import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ivuseg import imaging, preprocess
from ivuseg.errors import DegenerateMaskError, DimensionMismatchError
from ivuseg.imaging import Frame
from ivuseg.preprocess import ArtifactModel, build_artifact_model, remove_artifacts
from oracles import brute_remove_artifacts


def frames_from(arrays_list):
    return [Frame(pixels=a.astype(np.uint8)) for a in arrays_list]


def minimum_image(frames):
    """The pixel-wise minimum of the frames, read back from their artifact
    masks: a pixel's minimum is the number of thresholds 1..255 it reaches."""
    return sum(build_artifact_model(frames, t).mask.astype(np.int64) for t in range(1, 256))


def test_minimum_image_singleton():
    seq = frames_from([np.arange(6).reshape(2, 3)])
    assert np.array_equal(minimum_image(seq), np.arange(6).reshape(2, 3))


def test_minimum_image_elementwise():
    seq = frames_from([np.array([[10, 200]]), np.array([[50, 100]])])
    assert minimum_image(seq).tolist() == [[10, 100]]


def test_minimum_image_bounded_by_inputs(rng):
    stack = [rng.integers(0, 256, (8, 8)).astype(np.uint8) for _ in range(20)]
    out = minimum_image(frames_from(stack))
    for frame in stack:
        assert (out <= frame).all()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=2, max_size=6), st.randoms())
def test_minimum_image_permutation_invariant(seeds, shuffler):
    stack = [np.random.default_rng(s).integers(0, 256, (5, 5)).astype(np.uint8) for s in seeds]
    base = minimum_image(frames_from(stack))
    shuffled = list(stack)
    shuffler.shuffle(shuffled)
    assert np.array_equal(base, minimum_image(frames_from(shuffled)))


def test_minimum_image_monotone_under_append(rng):
    stack = [rng.integers(0, 256, (6, 6)).astype(np.uint8) for _ in range(5)]
    previous = minimum_image(frames_from(stack[:1]))
    for n in range(2, 6):
        current = minimum_image(frames_from(stack[:n]))
        assert (current <= previous).all()
        previous = current


def test_artifact_model_rejects_mixed_sizes():
    a = Frame(pixels=np.zeros((4, 4), dtype=np.uint8))
    b = Frame(pixels=np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(DimensionMismatchError):
        build_artifact_model([a, b])


def test_artifact_model_rejects_no_frames():
    with pytest.raises(ValueError, match="at least one frame"):
        build_artifact_model([])


def test_detect_mask_nothing_above_threshold():
    frames = frames_from([np.zeros((4, 4))])
    assert not build_artifact_model(frames, 40).mask.any()


def test_detect_mask_single_pixel():
    pixels = np.zeros((4, 4), np.uint8)
    pixels[2, 1] = 255
    mask = build_artifact_model([Frame(pixels=pixels)], 40).mask
    assert mask.sum() == 1 and mask[2, 1]


def test_detect_mask_recovers_constant_square(rng):
    # constant bright square over varying noise <= 120
    frames = []
    for _ in range(12):
        base = rng.integers(0, 121, (32, 32)).astype(np.uint8)
        base[8:14, 10:16] = 200
        frames.append(base)
    model = build_artifact_model(frames_from(frames), threshold=150)
    expected = np.zeros((32, 32), dtype=bool)
    expected[8:14, 10:16] = True
    assert np.array_equal(model.mask, expected)


def test_artifact_model_validates_masked_intensities():
    # a pixel bright in all frames but one has a dark minimum: never masked
    stack = [np.full((3, 3), 250, np.uint8) for _ in range(4)]
    stack[2][0, 0] = 0
    mask = build_artifact_model(frames_from(stack), threshold=40).mask
    assert not mask[0, 0] and mask.sum() == 8


def test_remove_artifacts_empty_mask_is_identity(rng):
    pixels = rng.integers(0, 256, (10, 10)).astype(np.uint8)
    model = ArtifactModel(mask=np.zeros((10, 10), dtype=bool))
    out = remove_artifacts(Frame(pixels=pixels), model)
    assert np.array_equal(out.pixels, pixels)


def test_remove_artifacts_single_pixel_constant_surroundings():
    pixels = np.full((9, 9), 60, np.uint8)
    pixels[4, 4] = 255
    mask = np.zeros((9, 9), dtype=bool)
    mask[4, 4] = True
    model = ArtifactModel(mask=mask)
    out = remove_artifacts(Frame(pixels=pixels), model)
    assert out.pixels[4, 4] == 60


def test_remove_artifacts_never_touches_unmasked(rng):
    pixels = rng.integers(0, 256, (20, 20)).astype(np.uint8)
    mask = rng.random((20, 20)) < 0.1
    model = ArtifactModel(mask=mask)
    out = remove_artifacts(Frame(pixels=pixels), model)
    assert np.array_equal(out.pixels[~mask], pixels[~mask])


def test_remove_artifacts_takes_a_0_1_uint8_mask(rng):
    pixels = rng.integers(0, 256, (20, 20)).astype(np.uint8)
    mask = rng.random((20, 20)) < 0.1
    out = remove_artifacts(Frame(pixels=pixels), ArtifactModel(mask=mask.astype(np.uint8)))
    expected = remove_artifacts(Frame(pixels=pixels), ArtifactModel(mask=mask))
    assert np.array_equal(out.pixels, expected.pixels)


def test_remove_artifacts_full_mask_is_degenerate():
    pixels = np.full((4, 4), 250, np.uint8)
    model = ArtifactModel(mask=np.ones((4, 4), dtype=bool))
    with pytest.raises(DegenerateMaskError):
        remove_artifacts(Frame(pixels=pixels), model)


def test_remove_artifacts_dimension_mismatch():
    model = ArtifactModel(mask=np.zeros((4, 4), dtype=bool))
    with pytest.raises(DimensionMismatchError):
        remove_artifacts(Frame(pixels=np.zeros((5, 5), np.uint8)), model)


def test_remove_artifacts_fills_square_from_speckle(rng):
    # bright constant square over speckle; the filled region should match
    # the surrounding statistics within +-10 intensity levels
    base = np.clip(120 * np.exp(0.2 * rng.standard_normal((48, 48))), 0, 255).astype(np.uint8)
    corrupted = base.copy()
    corrupted[20:26, 22:28] = 240
    mask = np.zeros((48, 48), dtype=bool)
    mask[20:26, 22:28] = True
    model = ArtifactModel(mask=mask)
    out = remove_artifacts(Frame(pixels=corrupted), model)
    filled_mean = out.pixels[mask].mean()
    surround = base[~mask].mean()
    assert abs(filled_mean - surround) <= 10


@st.composite
def masked_frames(draw):
    """(pixels, mask): a frame up to 40x40 and a mask made of a rectangle,
    which may reach the frame edge, plus scattered pixels of any density."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    pixels = draw(arrays(np.uint8, (h, w)))
    y0, y1 = sorted(draw(st.tuples(st.integers(0, h), st.integers(0, h))))
    x0, x1 = sorted(draw(st.tuples(st.integers(0, w), st.integers(0, w))))
    density = draw(st.sampled_from([0.0, 0.03, 0.3, 0.8, 0.97]))
    scatter = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((h, w)) < density
    mask = scatter.copy()
    mask[y0:y1, x0:x1] = True
    assume(mask.any() and not mask.all())
    return pixels, mask


def _block_case(h, w, block):
    pixels = np.random.default_rng(7).integers(0, 256, (h, w)).astype(np.uint8)
    mask = np.zeros((h, w), dtype=bool)
    mask[block] = True
    return pixels, mask


@settings(max_examples=300, deadline=None)
@given(masked_frames())
# a 34x34 block inside a 3-px clean rim: rows of the block need the 7x7,
# 11x11 and 15x15 windows in turn, and its centre the global median
@example(_block_case(40, 40, np.s_[3:37, 3:37]))
# a block on the frame edge, so windows are clipped on two sides
@example(_block_case(30, 30, np.s_[0:20, 12:30]))
def test_remove_artifacts_matches_pixel_loop(case):
    pixels, mask = case
    model = ArtifactModel(mask=mask)
    frame = Frame(pixels=pixels)
    ours = remove_artifacts(frame, model)
    ref = brute_remove_artifacts(frame, model)
    assert np.array_equal(ours.pixels, ref.pixels)


@settings(max_examples=60, deadline=None)
@given(masked_frames(), st.integers(1, 2000))
def test_remove_artifacts_in_chunks_matches_pixel_loop(case, chunk):
    # a small sort budget splits the masked pixels into chunks of 1 to 40
    # windows, so the fills of each window size cross chunk boundaries
    pixels, mask = case
    model = ArtifactModel(mask=mask)
    frame = Frame(pixels=pixels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(imaging, "_WINDOW_CHUNK", chunk)
        ours = remove_artifacts(frame, model)
    assert np.array_equal(ours.pixels, brute_remove_artifacts(frame, model).pixels)


def test_artifact_model_is_frozen():
    model = ArtifactModel(mask=np.eye(4, dtype=bool))
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.mask = np.zeros((4, 4), dtype=bool)
    # nor can the mask change in place under its schedule
    with pytest.raises(ValueError):
        model.mask[0, 1] = True


@pytest.mark.parametrize("shape", [(), (16,), (4, 4, 1)])
def test_artifact_model_rejects_a_mask_that_is_not_2d(shape):
    with pytest.raises(ValueError, match="2-D"):
        ArtifactModel(mask=np.ones(shape, dtype=bool))


def test_full_mask_model_constructs_and_schedules_the_global_median():
    model = ArtifactModel(mask=np.ones((4, 4), dtype=bool))
    assert (model.windows == 3).all() and model.positions.tolist() == list(range(16))


def test_fill_schedule_of_a_block_in_a_clean_rim():
    # the 34x34 block's 3-px outer ring reaches the rim with the 7x7 window,
    # the next 2 rings with the 11x11, the next 2 with the 15x15, and its
    # 20x20 centre takes the global median
    _, mask = _block_case(40, 40, np.s_[3:37, 3:37])
    model = ArtifactModel(mask=mask)
    assert np.array_equal(model.positions, np.flatnonzero(mask))
    assert np.bincount(model.windows, minlength=4).tolist() == [372, 208, 176, 400]


def test_pickled_model_fills_as_the_original(rng):
    pixels, mask = _block_case(30, 30, np.s_[0:20, 12:30])
    model = ArtifactModel(mask=mask)
    copy = pickle.loads(pickle.dumps(model))
    assert np.array_equal(copy.mask, mask)
    assert np.array_equal(copy.windows, model.windows)
    for frame in (Frame(pixels=pixels), Frame(pixels=rng.integers(0, 256, (30, 30)))):
        assert np.array_equal(remove_artifacts(frame, copy).pixels,
                              remove_artifacts(frame, model).pixels)


@pytest.mark.parametrize("block", [np.s_[3:37, 3:37], np.s_[0:20, 12:30], np.s_[0:40, 0:39]])
def test_each_masked_window_is_gathered_at_most_once_per_frame(monkeypatch, block):
    pixels, mask = _block_case(40, 40, block)
    model = ArtifactModel(mask=mask)
    calls = []

    def spy(pixels, excluded, ys, xs, radius):
        calls.append((radius, ys * pixels.shape[1] + xs))
        return imaging.window_medians(pixels, excluded, ys, xs, radius)

    monkeypatch.setattr(preprocess, "window_medians", spy)
    remove_artifacts(Frame(pixels=pixels), model)
    radii = [radius for radius, _ in calls]
    gathered = np.concatenate([flat for _, flat in calls])
    assert len(set(radii)) == len(radii)
    assert np.unique(gathered).size == gathered.size
    assert gathered.size == np.count_nonzero(model.windows < 3)
