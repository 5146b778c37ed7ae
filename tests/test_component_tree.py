import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from conftest import ACCEPTANCE_PHANTOMS, acceptance_phantom_spec, scaled_phantom_spec
from ivuseg.component_tree import _pools, build_component_tree
from ivuseg.erel import ErelParams
from ivuseg.imaging import frame_center, median_filter
from ivuseg.phantom import PhantomSpec, RingDownArtifact, generate_phantom
from ivuseg.preprocess import build_artifact_model, remove_artifacts
from oracles import (
    FOUR,
    brute_component,
    chain_attributes,
    chain_component_at,
    chain_crop,
    chain_mask,
    reference_seed_chain,
)

tree_frames = arrays(
    np.uint8,
    st.tuples(st.integers(1, 20), st.integers(1, 20)),
    elements=st.integers(0, 255),
)
# low-cardinality images stress plateaus and same-level merges
plateau_frames = arrays(
    np.uint8,
    st.tuples(st.integers(1, 16), st.integers(1, 16)),
    elements=st.integers(0, 3),
)
# 1xN and Nx1 frames: the edges at row and column ends
line_frames = arrays(
    np.uint8,
    st.one_of(
        st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1)),
    ),
    elements=st.integers(0, 255),
)


def whole_chain(pixels, seed):
    """The seed's chain with a cap the sweep never crosses."""
    return build_component_tree(pixels, seed, pixels.size).seed_chain()


def chain_matches_brute_force(pixels, seed):
    chain = whole_chain(pixels, seed)
    for t in np.unique(pixels).tolist() + [255]:
        ours = chain_component_at(chain, int(t))
        ref = brute_component(pixels, int(t), seed)
        if (ours is None) != (ref is None):
            return False
        if ours is not None and not np.array_equal(ours, ref):
            return False
    return True


def test_constant_frame_single_node():
    pixels = np.full((6, 8), 42, np.uint8)
    chain = whole_chain(pixels, (3, 2))
    assert len(chain) == 1
    assert chain.areas.tolist() == [48]
    assert chain_component_at(chain, 41) is None
    for t in (42, 100, 255):
        assert chain_component_at(chain, t).all()


def test_two_blobs_merge_at_background_level():
    pixels = np.full((7, 9), 200, np.uint8)
    pixels[1:3, 1:3] = 10
    pixels[4:6, 6:8] = 30
    # each blob is its own leaf and both join the root at level 200
    for seed, leaf_level in (((1, 1), 10), ((6, 4), 30)):
        chain = whole_chain(pixels, seed)
        assert chain.levels.tolist() == [leaf_level, 200]
        assert chain.areas.tolist() == [4, 63]
    # a background seed sees only the root
    chain = whole_chain(pixels, (0, 0))
    assert chain.levels.tolist() == [200]
    assert chain.areas.tolist() == [63]


@settings(max_examples=60, deadline=None)
@given(tree_frames, st.data())
def test_seed_chain_equals_brute_force(pixels, data):
    h, w = pixels.shape
    seed = (
        data.draw(st.integers(0, w - 1), label="seed_x"),
        data.draw(st.integers(0, h - 1), label="seed_y"),
    )
    assert chain_matches_brute_force(pixels, seed)


@settings(max_examples=40, deadline=None)
@given(plateau_frames, st.data())
def test_seed_chain_equals_brute_force_on_plateaus(pixels, data):
    h, w = pixels.shape
    seed = (
        data.draw(st.integers(0, w - 1), label="seed_x"),
        data.draw(st.integers(0, h - 1), label="seed_y"),
    )
    assert chain_matches_brute_force(pixels, seed)


@settings(max_examples=30, deadline=None)
@given(tree_frames, st.data())
def test_chain_components_are_nested(pixels, data):
    h, w = pixels.shape
    seed = (
        data.draw(st.integers(0, w - 1), label="seed_x"),
        data.draw(st.integers(0, h - 1), label="seed_y"),
    )
    chain = whole_chain(pixels, seed)
    previous = None
    for k in range(len(chain)):
        mask = chain_mask(chain, k)
        if previous is not None:
            assert (previous <= mask).all()
            assert mask.sum() > previous.sum()
        previous = mask
    assert np.all(np.diff(chain.areas) > 0)
    assert np.all(np.diff(chain.levels) > 0)


@settings(max_examples=25, deadline=None)
@given(tree_frames, st.data())
def test_chain_attributes_match_direct_summation(pixels, data):
    h, w = pixels.shape
    seed = (
        data.draw(st.integers(0, w - 1), label="seed_x"),
        data.draw(st.integers(0, h - 1), label="seed_y"),
    )
    chain = whole_chain(pixels, seed)
    attrs = chain_attributes(chain, chain_crop(chain, len(chain) - 1))
    for k in range(len(chain)):
        mask = chain_mask(chain, k)
        ys, xs = np.nonzero(mask)
        area = ys.size
        assert chain.areas[k] == area
        cx, cy = attrs.cx[k], attrs.cy[k]
        assert abs(cx - xs.mean()) <= 1e-6 * max(1.0, abs(cx))
        assert abs(cy - ys.mean()) <= 1e-6 * max(1.0, abs(cy))
        for ours, ref in (
            (attrs.mu_xx[k], ((xs - xs.mean()) ** 2).mean()),
            (attrs.mu_xy[k], ((xs - xs.mean()) * (ys - ys.mean())).mean()),
            (attrs.mu_yy[k], ((ys - ys.mean()) ** 2).mean()),
        ):
            assert abs(ours - ref) <= 1e-6 * max(1.0, abs(ref))
        assert abs(attrs.mean_intensity[k] - pixels[mask].mean()) <= 1e-9
        assert attrs.mean_intensity[k] <= chain.levels[k]


@settings(max_examples=40, deadline=None)
@given(st.one_of(tree_frames, plateau_frames), st.data())
def test_attributes_do_not_depend_on_the_crop(pixels, data):
    # every table entry is an exact integer sum, so node j's attributes from
    # the box of any node k >= j equal those from j's own box
    h, w = pixels.shape
    seed = (
        data.draw(st.integers(0, w - 1), label="seed_x"),
        data.draw(st.integers(0, h - 1), label="seed_y"),
    )
    chain = whole_chain(pixels, seed)
    k = data.draw(st.integers(0, len(chain) - 1), label="k")
    wide = chain_attributes(chain, chain_crop(chain, k))
    for j in range(k + 1):
        own = chain_attributes(chain, chain_crop(chain, j))
        for name, ours, theirs in zip(own._fields, wide, own):
            assert np.array_equal(ours[: j + 1], theirs), name
        assert wide.entropy(j) == own.entropy(j)


def test_capped_build_matches_full_on_retained_band(rng):
    for _ in range(20):
        h, w = rng.integers(4, 24, size=2)
        pixels = rng.integers(0, 256, (h, w)).astype(np.uint8)
        seed = (int(rng.integers(0, w)), int(rng.integers(0, h)))
        cap = max(4, (h * w) // 3)
        full = whole_chain(pixels, seed)
        capped = build_component_tree(pixels, seed, cap).seed_chain()
        retained = [k for k in range(len(full)) if full.areas[k] <= cap]
        for k in retained:
            assert full.areas[k] == capped.areas[k]
            assert np.array_equal(chain_mask(full, k), chain_mask(capped, k))


# -- the sweep against the canonical-parent-image reference -----------------------

def assert_matches_reference(pixels, seed, cap):
    """join_index, levels and areas equal the reference's, dtypes included."""
    chain = build_component_tree(pixels, seed, cap).seed_chain()
    ref = reference_seed_chain(pixels, seed, cap)
    for ours, theirs in zip((chain.join_index, chain.levels, chain.areas), ref):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    assert len(chain) == len(ref[1])
    return chain


@settings(max_examples=150, deadline=None)
@given(st.one_of(tree_frames, plateau_frames), st.data())
def test_seed_sweep_equals_reference(pixels, data):
    h, w = pixels.shape
    seed = (
        data.draw(st.integers(0, w - 1), label="seed_x"),
        data.draw(st.integers(0, h - 1), label="seed_y"),
    )
    cap = data.draw(st.integers(1, pixels.size), label="cap")
    assert_matches_reference(pixels, seed, cap)


@settings(max_examples=150, deadline=None)
@given(st.one_of(tree_frames, plateau_frames, line_frames), st.booleans(), st.data())
def test_seed_sweep_equals_reference_from_the_extreme_levels(pixels, brightest, data):
    # on the brightest pixel the sweep starts with every other level
    # labelled up front; on the darkest nothing is darker than the seed
    flat = pixels.ravel()
    extreme = flat.max() if brightest else flat.min()
    at = data.draw(st.sampled_from(np.flatnonzero(flat == extreme).tolist()), label="seed_at")
    w = pixels.shape[1]
    cap = data.draw(st.integers(1, pixels.size), label="cap")
    assert_matches_reference(pixels, (at % w, at // w), cap)


@pytest.mark.parametrize("size", [384, 768])
@pytest.mark.parametrize("phantom_seed, shadow", ACCEPTANCE_PHANTOMS)
def test_seed_sweep_equals_reference_on_acceptance_phantoms(phantom_seed, shadow, size):
    spec = scaled_phantom_spec(acceptance_phantom_spec(phantom_seed, shadow), size)
    frame, _ = generate_phantom(spec)
    pixels = median_filter(frame).pixels
    for cap in (ErelParams.for_frame(pixels.shape).a_max, pixels.size):
        assert_matches_reference(pixels, frame_center(frame), cap)


@pytest.fixture(scope="module")
def ringdown_pullback():
    """The frames of a pullback with a 40 px ring-down square on the frame
    centre, despeckled and with the square filled in: the fill puts the
    seed above about half of each frame."""
    spec = PhantomSpec(rng_seed=3, artifacts=[RingDownArtifact(172, 172, 40, 240)])
    frames, _ = generate_phantom(spec, n_frames=4)
    model = build_artifact_model(frames, 200)
    return [remove_artifacts(median_filter(f), model) for f in frames]


@pytest.mark.parametrize("i", range(4))
def test_seed_sweep_equals_reference_on_a_ringdown_pullback(ringdown_pullback, i):
    frame = ringdown_pullback[i]
    pixels = frame.pixels
    seed = frame_center(frame)
    assert (pixels < pixels[seed[1], seed[0]]).mean() > 0.4
    for cap in (ErelParams.for_frame(pixels.shape).a_max, pixels.size):
        assert_matches_reference(pixels, seed, cap)


# -- the labelling of the pools below the seed's level ---------------------------

mask_frames = st.one_of(
    arrays(bool, st.tuples(st.integers(1, 20), st.integers(1, 20))),
    arrays(bool, st.one_of(
        st.tuples(st.just(1), st.integers(1, 40)),
        st.tuples(st.integers(1, 40), st.just(1)),
    )),
)


@settings(max_examples=200, deadline=None)
@given(mask_frames, st.integers(0, 5))
@example(np.zeros((3, 4), bool), 1)
@example(np.ones((3, 4), bool), 1)
@example(np.ones((1, 5), bool), 1)
@example(np.array([[1], [1], [0], [1]], bool), 1)
# a run ending one row and a run starting the next, not joined vertically
@example(np.array([[0, 0, 1], [1, 0, 0]], bool), 1)
# an overlap that begins where the upper run starts, not the lower
@example(np.array([[0, 1, 1], [1, 1, 0]], bool), 1)
def test_pools_equal_a_four_connected_labelling(mask, outside):
    count, label = _pools(mask, outside)
    ref, ref_count = ndimage.label(mask, structure=FOUR)
    assert count == ref_count
    assert label.shape == (mask.size,)
    assert (label[~mask.ravel()] == outside).all()
    # the same partition of the mask, numbered outside + 1 .. outside + count
    ours, theirs = label[mask.ravel()], ref.ravel()[mask.ravel()]
    assert np.array_equal(np.unique(ours), np.arange(outside + 1, outside + 1 + count))
    assert len(np.unique(ours * (count + 1) + theirs)) == count


# -- the stop rule ---------------------------------------------------------------

def nested_squares():
    """A 2x2 block at 10 inside a 3x3 block at 20 in the corner of a 4x5
    frame at 30: seed (0, 0) has the chain [10, 20, 30] of areas [4, 9, 20]."""
    pixels = np.full((4, 5), 30, np.uint8)
    pixels[:3, :3] = 20
    pixels[:2, :2] = 10
    return pixels


@pytest.mark.parametrize("cap, levels, areas", [
    (0, [10], [4]),
    (3, [10], [4]),         # below the seed's first node: that node alone
    (4, [10, 20], [4, 9]),  # equal to a node's area: the sweep goes on
    (8, [10, 20], [4, 9]),
    (9, [10, 20, 30], [4, 9, 20]),
    (19, [10, 20, 30], [4, 9, 20]),
    (20, [10, 20, 30], [4, 9, 20]),  # >= N: the whole tree
    (100, [10, 20, 30], [4, 9, 20]),
])
def test_sweep_stops_once_the_area_exceeds_the_cap(cap, levels, areas):
    pixels = nested_squares()
    chain = assert_matches_reference(pixels, (0, 0), cap)
    assert chain.levels.tolist() == levels
    assert chain.areas.tolist() == areas
    # pixels beyond the last node sit one past the chain
    outside = pixels > levels[-1]
    assert (chain.join_index.reshape(pixels.shape)[outside] == len(levels)).all()


@pytest.mark.parametrize("shape", [(1, 9), (9, 1)])
def test_single_line_frames(shape):
    line = np.array([50, 20, 70, 10, 60, 30, 90, 5, 40], np.uint8).reshape(shape)
    for seed_at in range(9):
        seed = (seed_at, 0) if shape[0] == 1 else (0, seed_at)
        for cap in range(1, 10):
            assert_matches_reference(line, seed, cap)
        assert chain_matches_brute_force(line, seed)
    # from the 10: the 60 brings the 30 pool, the 70 the 20 and 50 pool
    chain = whole_chain(line, (3, 0) if shape[0] == 1 else (0, 3))
    assert chain.levels.tolist() == [10, 60, 70, 90]
    assert chain.areas.tolist() == [1, 3, 6, 9]


def test_seed_on_a_plateau_reaching_the_frame_edge():
    pixels = np.full((6, 7), 200, np.uint8)
    pixels[1:5, 0:4] = 50   # the plateau runs into the left edge
    pixels[2, 1] = 30       # a darker pit inside it
    pixels[0, 6] = 10       # a separate pool in the far corner
    for seed in ((0, 1), (3, 4), (2, 3)):
        for cap in range(1, pixels.size + 1):
            assert_matches_reference(pixels, seed, cap)
        assert chain_matches_brute_force(pixels, seed)
    chain = whole_chain(pixels, (0, 1))
    assert chain.levels.tolist() == [50, 200]
    assert chain.areas.tolist() == [16, 42]


@pytest.mark.parametrize("ring", [False, True])
def test_seed_with_only_darker_neighbours_joins_through_their_pools(ring):
    # the seed's four neighbours are separate pools (diagonal contact only),
    # or, with the ring, one pool around it
    pixels = np.full((5, 5), 200, np.uint8)
    if ring:
        pixels[1:4, 1:4] = 20
    else:
        pixels[[1, 3, 2, 2], [2, 2, 1, 3]] = [20, 25, 30, 35]
    pixels[2, 2] = 100
    for cap in range(1, pixels.size + 1):
        assert_matches_reference(pixels, (2, 2), cap)
    chain = whole_chain(pixels, (2, 2))
    assert chain.levels.tolist() == [100, 200]
    assert chain.areas.tolist() == [9 if ring else 5, 25]
    assert chain_mask(chain, 0).sum() == chain.areas[0]


@pytest.mark.parametrize("cap", [30, 144])
def test_join_levels_of_absorbed_pools_unreached_lone_pixels_and_own_levels(cap):
    # a basin at 60 holding the seed, a ring at 80 around it, and a corridor
    # at 120 to a pool at 10, darker than the seed; a lone pixel at 150
    # sits in the background at 200
    pixels = np.full((12, 12), 200, np.uint8)
    pixels[0:5, 0:5] = 80
    pixels[1:4, 1:4] = 60
    pixels[2, 5:8] = 120
    pixels[1:4, 8:10] = 10
    pixels[9, 9] = 150
    chain = assert_matches_reference(pixels, (2, 2), cap)
    join = chain.levels.tolist() + [None]
    at = lambda y, x: join[chain.join_index.reshape(pixels.shape)[y, x]]
    # the ring and the corridor join at their own levels, the pool at the
    # corridor's, 110 levels above its pixels
    assert (at(0, 0), at(2, 4), at(2, 6), at(2, 8), at(3, 9)) == (80, 80, 120, 120, 120)
    if cap == 30:
        # the seed's component outgrows the cap at 120 (34 px), so the sweep
        # never reaches the lone pixel, which is numbered all the same: the
        # levels listed at 120 span at least 144 / 32 = 4 px, through 150
        assert chain.levels.tolist() == [60, 80, 120]
        assert at(9, 9) is None
    else:
        # the lone pixel is a pool of one from 150 on, absorbed at 200
        assert chain.levels.tolist() == [60, 80, 120, 200]
        assert at(9, 9) == 200


# -- the per-frame edge lists and lone-pixel numbers -----------------------------
#
# The sweep lists each neighbour bit's edges and numbers the lone pixels (no
# darker 4-neighbour) a block of levels at a time, a block spanning at least
# 1/32 of the frame, so on frames of 64 px and more a block can run past the
# level the sweep stops at.

def lone_pixels(pixels):
    """Pixels with no strictly darker 4-neighbour."""
    padded = np.pad(pixels.astype(np.int16), 1, constant_values=256)
    darkest = np.minimum.reduce([
        padded[1:-1, :-2], padded[1:-1, 2:], padded[:-2, 1:-1], padded[2:, 1:-1],
    ])
    return darkest >= pixels


@pytest.mark.parametrize("step", [1, 16])  # 16: plateaus, so equal edges
@pytest.mark.parametrize("seed_at", range(0, 256, 17))
def test_cap_crossed_at_the_seed_level_leaves_brighter_lone_pixels_unreached(seed_at, step):
    # a dark seed, so that the levels listed with the seed's hold lone pixels
    rng = np.random.default_rng(seed_at)
    pixels = (step * rng.integers(0, 256 // step, (16, 16))).astype(np.uint8)
    seed = (seed_at % 16, seed_at // 16)
    level = step * int(rng.integers(0, 64 // step))
    pixels[seed[1], seed[0]] = level
    brighter = pixels > level
    # the seed's component at its own level exceeds both caps
    for cap in (0, brute_component(pixels, level, seed).sum() - 1):
        chain = assert_matches_reference(pixels, seed, cap)
        assert chain.levels.tolist() == [level]
        join = chain.join_index.reshape(pixels.shape)
        assert (join[brighter & lone_pixels(pixels)] == len(chain)).all()
        assert (join[brighter] == len(chain)).all()
    assert (brighter & lone_pixels(pixels)).any()


@pytest.mark.parametrize("shape", [(1, 120), (120, 1)])
@pytest.mark.parametrize("grey_levels", [4, 256])
def test_line_frames_whose_vertical_or_horizontal_lists_are_empty(shape, grey_levels):
    # a 1xN frame has no N, S or equal-S edges, an Nx1 frame no W, E or
    # equal-E edges; few grey levels give long plateaus of equal edges
    rng = np.random.default_rng(grey_levels)
    line = rng.integers(0, grey_levels, shape).astype(np.uint8)
    for seed_at in range(0, 120, 7):
        seed = (seed_at, 0) if shape[0] == 1 else (0, seed_at)
        for cap in (0, 1, 5, 17, 40, 80, 119, 120):
            assert_matches_reference(line, seed, cap)
        assert chain_matches_brute_force(line, seed)


@pytest.mark.parametrize("shape", [(1, 1), (1, 70), (70, 1), (12, 12)])
def test_seed_at_level_255(shape):
    rng = np.random.default_rng(255)
    pixels = rng.integers(0, 256, shape).astype(np.uint8)
    seed_px = shape[0] * shape[1] // 2
    pixels.flat[seed_px] = 255
    seed = (seed_px % shape[1], seed_px // shape[1])
    for cap in (0, 1, pixels.size // 3, pixels.size):
        chain = assert_matches_reference(pixels, seed, cap)
        # the sub-level set at 255 is the whole frame
        assert chain.levels.tolist() == [255]
        assert chain.areas.tolist() == [pixels.size]


def test_levels_without_lone_pixels_between_levels_with_them():
    # a ramp rising from the top-left corner: every pixel but the corner
    # has a darker neighbour, except for a few pits cut into it
    ys, xs = np.mgrid[:20, :20]
    pixels = (4 * (xs + ys)).astype(np.uint8)
    pixels[5, 9], pixels[14, 3], pixels[12, 15] = 30, 45, 90
    lone = lone_pixels(pixels)
    lone_levels = set(pixels[lone].tolist())
    assert lone_levels == {0, 30, 45, 90}
    # levels 4, 8, ... carry pixels and no lone pixel, before and after
    # levels that carry some
    assert not ({4, 8, 32, 48, 92} & lone_levels)
    for seed in ((0, 0), (9, 5), (3, 14), (15, 12), (10, 10)):
        for cap in (0, 1, 3, 10, 50, 133, 200, 399, 400):
            assert_matches_reference(pixels, seed, cap)
        assert chain_matches_brute_force(pixels, seed)


# -- input validation ------------------------------------------------------------

@pytest.mark.parametrize("pixels", [
    np.array([[1.0, 5.0, 40.0]]),
    np.array([[-1.5, 5.0, 40.0]]),
    np.array([[True, False, True]]),
])
def test_rejects_non_integer_intensities(pixels):
    with pytest.raises(ValueError, match="integers"):
        build_component_tree(pixels, (0, 0), 3)


@pytest.mark.parametrize("pixels", [
    np.array([[300, 5, 40]]),
    np.array([[-1, 5, 40]], dtype=np.int8),
    np.array([[256, 0, 0]], dtype=np.uint16),
])
def test_rejects_intensities_outside_0_255(pixels):
    with pytest.raises(ValueError, match=r"\[0, 255\]"):
        build_component_tree(pixels, (0, 0), 3)


def test_accepts_wider_integer_dtypes_in_range():
    pixels = np.array([[255, 5, 40], [0, 7, 7]], dtype=np.int64)
    wide = build_component_tree(pixels, (1, 1), 6).seed_chain()
    narrow = build_component_tree(pixels.astype(np.uint8), (1, 1), 6).seed_chain()
    assert np.array_equal(wide.join_index, narrow.join_index)
    assert wide.levels.tolist() == narrow.levels.tolist() == [7, 40, 255]
