import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ivuseg.component_tree import build_component_tree
from oracles import brute_component, chain_component_at

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
        mask = chain.mask(k)
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
    for k in range(len(chain)):
        mask = chain.mask(k)
        ys, xs = np.nonzero(mask)
        area = ys.size
        assert chain.areas[k] == area
        cx, cy = chain.centroid(k)
        assert abs(cx - xs.mean()) <= 1e-6 * max(1.0, abs(cx))
        assert abs(cy - ys.mean()) <= 1e-6 * max(1.0, abs(cy))
        mu_xx, mu_xy, mu_yy = chain.central_moments(k)
        for ours, ref in (
            (mu_xx, ((xs - xs.mean()) ** 2).mean()),
            (mu_xy, ((xs - xs.mean()) * (ys - ys.mean())).mean()),
            (mu_yy, ((ys - ys.mean()) ** 2).mean()),
        ):
            assert abs(ours - ref) <= 1e-6 * max(1.0, abs(ref))
        assert abs(chain.mean_intensity(k) - pixels[mask].mean()) <= 1e-9
        assert chain.mean_intensity(k) <= chain.levels[k]


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
            assert np.array_equal(full.mask(k), capped.mask(k))
