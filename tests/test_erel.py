import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ACCEPTANCE_PHANTOMS, SRC, acceptance_phantom_spec, scaled_phantom_spec
from ivuseg import erel
from ivuseg.cli import RunConfig, _extract
from ivuseg.component_tree import build_component_tree
from ivuseg.erel import (
    MIN_RETAINED_LEVELS,
    ErelParams,
    _local_maxima,
    _moving_average,
    extract_qplus,
    gradient_magnitude_maxima,
    select_extremum_levels,
)
from ivuseg.errors import NoCandidateRegionsError
from ivuseg.geometry import Ellipse
from ivuseg.imaging import Frame, frame_center, median_filter
from ivuseg.phantom import PhantomSpec, generate_phantom
from oracles import (
    LazyChainAttributes,
    border_exposed_pixels,
    brute_entropy,
    brute_moments,
    chain_attributes,
    chain_crop,
    chain_mask,
    crop_boundary_counts,
    rasterize_disk,
    reference_regions,
    thinned_band,
)


# -- parameters ----------------------------------------------------------------

def test_params_for_frame_uses_reference_fractions():
    params = ErelParams.for_frame((384, 384))
    assert params.a_min == 1474
    assert params.a_max == 49152


def test_params_validation():
    with pytest.raises(ValueError):
        ErelParams(alpha=3.0, a_min=10, a_max=100)
    with pytest.raises(ValueError):
        ErelParams(beta=0, a_min=10, a_max=100)
    with pytest.raises(ValueError):
        ErelParams(a_min=100, a_max=100)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (9, 11)])
def test_params_for_frame_without_area_band_has_no_candidates(shape):
    with pytest.raises(NoCandidateRegionsError):
        ErelParams.for_frame(shape)


# -- boundary machinery ----------------------------------------------------------

def test_square_boundary_count():
    pixels = np.full((20, 20), 200, np.uint8)
    pixels[4:14, 3:13] = 10
    series = extract_qplus(build_component_tree(pixels, (3, 4), pixels.size),
                           ErelParams(a_min=1, a_max=100))
    exposed = border_exposed_pixels(pixels == 10)
    assert len(exposed) == 36
    assert np.array_equal(series.boundary(0), exposed)


def test_ring_boundary_excludes_hole():
    ys, xs = np.mgrid[0:40, 0:40]
    disk = (ys - 20) ** 2 + (xs - 20) ** 2 <= 15 ** 2
    ring = disk & ~((ys - 20) ** 2 + (xs - 20) ** 2 <= 5 ** 2)
    assert np.array_equal(border_exposed_pixels(ring), border_exposed_pixels(disk))


def test_single_pixel_boundary():
    pixels = np.full((5, 6), 200, np.uint8)
    pixels[2, 3] = 10
    series = extract_qplus(build_component_tree(pixels, (3, 2), pixels.size),
                           ErelParams(a_min=1, a_max=2))
    assert border_exposed_pixels(pixels == 10).tolist() == [[3, 2]]
    assert series.boundary(0).tolist() == [[3, 2]]


@pytest.fixture(scope="module")
def demo_series():
    frame, _ = generate_phantom(PhantomSpec(rng_seed=5))
    return _extract(frame, RunConfig(), None)[2], frame.pixels.shape


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@example(0, 0.0)
@example(0, 1.0)
def test_overlaps_count_every_region_against_a_mask(demo_series, seed, density):
    series, shape = demo_series
    mask = np.random.default_rng(seed).random(shape) < density
    expected = [int(np.count_nonzero(series.mask(i) & mask)) for i in range(len(series))]
    assert series.overlaps(mask).tolist() == expected


def test_overlaps_reject_a_mask_of_another_shape(demo_series):
    series, (h, w) = demo_series
    with pytest.raises(ValueError, match="not the frame's"):
        series.overlaps(np.ones((h - 1, w), dtype=bool))


def test_boundary_is_the_counted_border_exposed_set(demo_series):
    series, _ = demo_series
    for i in range(len(series)):
        boundary = series.boundary(i)
        assert np.array_equal(boundary, border_exposed_pixels(series.mask(i)))
        assert len(boundary) == series.boundary_length[i]


def test_rows_index_like_a_sequence(demo_series):
    series, _ = demo_series
    n = len(series)
    assert np.array_equal(series.mask(-1), series.mask(n - 1))
    assert np.array_equal(series.boundary(-n), series.boundary(0))
    assert series.moments(-1) == series.moments(n - 1)
    assert series.moments(-n) == series.moments(0)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            series.mask(i)
        with pytest.raises(IndexError):
            series.boundary(i)
        with pytest.raises(IndexError):
            series.moments(i)


def _counted_candidates(run):
    """Run extraction via run() and return the series it gave, the chain it
    read, the thinned candidates' chain indices (band), and (lengths, hits,
    maxima) as _boundary_counts answered and saw them, for every thinned
    candidate, not only the retained regions."""
    seen = {}
    count, extract = erel._boundary_counts, erel.extract_qplus

    def capture_counts(band_map, m, maxima):
        seen["maxima"] = maxima
        seen["counts"] = count(band_map, m, maxima)
        return seen["counts"]

    def capture_extract(tree, params):
        seen["chain"], seen["params"] = tree.seed_chain(), params
        return extract(tree, params)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(erel, "_boundary_counts", capture_counts)
        mp.setattr(erel, "extract_qplus", capture_extract)
        series = run()
    chain = seen["chain"]
    lengths, hits, _ = seen["counts"]
    return series, chain, thinned_band(chain, seen["params"]), lengths, hits, seen["maxima"]


def _oracle_counts(chain, band, k, maxima):
    """(border-exposed pixel count, gradient maxima among them) of chain node
    k, with maxima given over the crop of the band's last node."""
    crop = chain_crop(chain, int(band[-1]))
    exposed = border_exposed_pixels(chain_mask(chain, k))
    return len(exposed), int(maxima[exposed[:, 1] - crop.y0, exposed[:, 0] - crop.x0].sum())


@pytest.mark.parametrize("seed,shadow", [(0, False), (1, False), (2, True), (3, True)])
def test_boundary_counts_match_the_oracle_on_acceptance_phantoms(seed, shadow):
    frame, _ = generate_phantom(acceptance_phantom_spec(seed, shadow=shadow))
    _, chain, band, lengths, hits, maxima = _counted_candidates(
        lambda: _extract(frame, RunConfig(), None)[2]
    )
    assert len(band) >= 40
    assert len(lengths) == len(hits) == len(band)
    for k, length, hit in zip(band, lengths, hits):
        assert (length, hit) == _oracle_counts(chain, band, k, maxima)


def _frame_with(shape, fill, dark, value=0):
    pixels = np.full(shape, fill, np.uint8)
    for y, x in dark:
        pixels[y, x] = value
    return pixels


# a dark ring around a bright hole; the band includes the ring with its hole
HOLE = _frame_with((7, 7), 100, [(y, x) for y in range(1, 6) for x in range(1, 6)])
HOLE[3, 3] = 200
# a 5x5 block whose pocket at (3, 3) meets the notch (4, 4)-(5, 4) only
# across a diagonal gap, so the pocket's walls are not exposed
POCKET = _frame_with(
    (7, 7), 100,
    [(y, x) for y in range(1, 6) for x in range(1, 6) if (y, x) not in {(3, 3), (4, 4), (5, 4)}],
)
# a dark block in the frame's corner, inside every larger region
CORNER = _frame_with((8, 9), 100, [(y, x) for y in range(4) for x in range(5)])
# a dark 2x3 block off the diagonal: its box's x and y offsets differ
OFFSET = _frame_with((6, 9), 100, [(y, x) for y in (1, 2) for x in (3, 4, 5)])


@settings(max_examples=150, deadline=None)
@given(
    arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12)),
           elements=st.sampled_from([0, 40, 41, 90, 200, 255])),
    st.tuples(st.integers(0, 11), st.integers(0, 11)),
    st.integers(0, 1_000_000),
)
@example(HOLE, (1, 1), 0)
@example(POCKET, (1, 1), 0)
@example(CORNER, (0, 0), 0)
@example(np.array([[40, 41, 0]], np.uint8), (0, 0), 0)  # maxima need 2 px of margin
def test_boundary_counts_match_the_border_exposed_oracle(pixels, seed, a_max_draw):
    h, w = pixels.shape
    seed = (seed[0] % w, seed[1] % h)
    n = pixels.size
    if n < 2:
        return
    a_max = n - a_max_draw % (n - 1)  # a band [1, a_max] within the frame
    params = ErelParams(a_min=1, a_max=a_max)
    try:
        _, chain, band, lengths, hits, maxima = _counted_candidates(
            lambda: erel.extract_qplus(build_component_tree(pixels, seed, a_max), params)
        )
    except NoCandidateRegionsError:
        assume(False)  # the seed's first component outgrows the band
    assert len(lengths) == len(hits) == len(band)
    # the maxima come from a window 2 px wider than the crop, as wide as the
    # Sobel and suppression neighbourhoods reach, so they equal the map of
    # the whole frame
    crop = chain_crop(chain, int(band[-1]))
    (ch, cw), x0, y0 = crop.join.shape, crop.x0, crop.y0
    assert np.array_equal(maxima, gradient_magnitude_maxima(pixels)[y0 : y0 + ch, x0 : x0 + cw])
    for k, length, hit in zip(band, lengths, hits):
        assert (length, hit) == _oracle_counts(chain, band, k, maxima)


@settings(max_examples=150, deadline=None)
@given(
    arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24)),
           elements=st.one_of(st.sampled_from([0, 40, 41, 90, 200, 255]), st.integers(0, 255))),
    st.tuples(st.integers(0, 23), st.integers(0, 23)),
    st.integers(0, 1_000_000),
    st.integers(0, 1_000_000),
)
@example(HOLE, (1, 1), 0, 1)
@example(POCKET, (1, 1), 0, 1)
@example(CORNER, (0, 0), 0, 1)
def test_regions_equal_the_lazy_accessor_reference(pixels, seed, lo_draw, hi_draw):
    h, w = pixels.shape
    seed = (seed[0] % w, seed[1] % h)
    # an area band that holds chain nodes lo..hi, so there are candidates
    areas = build_component_tree(pixels, seed, pixels.size).seed_chain().areas
    lo = lo_draw % len(areas)
    hi = lo + hi_draw % (len(areas) - lo)
    a_max = int(areas[hi]) + 1
    params = ErelParams(a_min=int(areas[lo]), a_max=a_max)
    series, chain, band, lengths, _, _ = _counted_candidates(
        lambda: erel.extract_qplus(build_component_tree(pixels, seed, a_max), params)
    )
    ref = LazyChainAttributes(chain, int(band[-1]))
    for i, k in enumerate(series.index.tolist()):
        (cx, cy), *mu = series.moments(i)
        row = (series.levels[i], series.areas[i], series.boundary_length[i],
               series.mean_intensity[i], series.entropy[i], cx, cy, *mu)
        expected = (chain.levels[k], chain.areas[k], lengths[band.tolist().index(k)],
                    ref.mean_intensity(k), ref.entropy(k), *ref.centroid(k),
                    *ref.central_moments(k))
        assert row == expected
        assert np.array_equal(series.boundary(i), border_exposed_pixels(chain_mask(chain, k)))


def _retaining(keep_seed):
    """A stand-in for select_extremum_levels that retains a random
    non-empty subset of the candidates, drawn from keep_seed."""
    def select(lengths, hits, params):
        rng = np.random.default_rng(keep_seed)
        keep = rng.random(len(lengths)) < rng.random()
        keep[rng.integers(len(lengths))] = True
        return np.flatnonzero(keep).tolist()
    return select


def assert_series_equals_the_per_region_reference(series, expected, shape, rng):
    """Every column, moment, mask, boundary and mask overlap of the series
    equals the per-region reference's, whose masks read the chain itself;
    the moments also match direct summation over the mask, and each
    boundary is the mask's border-exposed pixels, as many as
    boundary_length counts."""
    assert len(series) == len(expected)
    for column, values in (
        (series.index, [r.chain_index for r in expected]),
        (series.levels, [r.level for r in expected]),
        (series.areas, [r.area for r in expected]),
        (series.boundary_length, [r.boundary_length for r in expected]),
        (series.mean_intensity, [r.mean_intensity for r in expected]),
        (series.entropy, [r.entropy for r in expected]),
    ):
        assert column.tolist() == values
    gold = rng.random(shape) < rng.random()
    assert series.overlaps(gold).tolist() == [int(np.count_nonzero(r.mask & gold)) for r in expected]
    for i, region in enumerate(expected):
        assert np.array_equal(series.mask(i), region.mask)
        moments = series.moments(i)
        assert moments == (region.centroid, region.mu_xx, region.mu_xy, region.mu_yy)
        (cx, cy), *mu = moments
        (bx, by), *brute = brute_moments(region.mask)
        assert [cx, cy, *mu] == pytest.approx([bx, by, *brute], rel=1e-9, abs=1e-9)
        boundary = series.boundary(i)
        assert np.array_equal(boundary, border_exposed_pixels(region.mask))
        assert len(boundary) == region.boundary_length


@settings(max_examples=150, deadline=None)
@given(
    arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24)),
           elements=st.one_of(st.sampled_from([0, 40, 41, 90, 200, 255]), st.integers(0, 255))),
    st.tuples(st.integers(0, 23), st.integers(0, 23)),
    st.integers(0, 1_000_000),
    st.integers(0, 1_000_000),
    st.integers(0, 1_000_000),
    st.none() | st.integers(0, 2**32 - 1),
)
@example(HOLE, (1, 1), 0, 0, 0, None)
@example(POCKET, (1, 1), 0, 0, 0, None)
@example(CORNER, (0, 0), 0, 0, 0, None)
@example(CORNER, (0, 0), 0, 0, 0, 0)
@example(OFFSET, (3, 1), 0, 48, 0, None)  # the band is the block alone
def test_region_columns_equal_the_per_region_reference(
    pixels, seed, a_min_draw, a_max_draw, cap_draw, keep_seed
):
    # any area band, any stop cap from a_max up, and, unless keep_seed is
    # None, a random retained subset in place of the extremum criterion's
    h, w = pixels.shape
    seed = (seed[0] % w, seed[1] % h)
    n = pixels.size
    assume(n >= 2)
    a_max = n - a_max_draw % (n - 1)  # a band within the frame
    params = ErelParams(a_min=1 + a_min_draw % (a_max - 1), a_max=a_max)
    tree = build_component_tree(pixels, seed, a_max + cap_draw % (n - a_max + 1))
    with pytest.MonkeyPatch.context() as mp:
        if keep_seed is not None:
            mp.setattr(erel, "select_extremum_levels", _retaining(keep_seed))
        expected = reference_regions(tree, params)
        if not expected:
            with pytest.raises(NoCandidateRegionsError):
                extract_qplus(tree, params)
            return
        series = extract_qplus(tree, params)
    assert_series_equals_the_per_region_reference(
        series, expected, pixels.shape, np.random.default_rng(a_min_draw)
    )


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("size", [384, 768])
@pytest.mark.parametrize("phantom_seed, shadow", ACCEPTANCE_PHANTOMS)
def test_region_columns_equal_the_per_region_reference_on_acceptance_phantoms(
    phantom_seed, shadow, size, forced, monkeypatch
):
    # forced: the extremum criterion takes effect, so rows skip candidates
    # and both row maps are relabelled
    if forced:
        monkeypatch.setattr(erel, "MIN_RETAINED_LEVELS", 1)
    spec = scaled_phantom_spec(acceptance_phantom_spec(phantom_seed, shadow), size)
    frame, _ = generate_phantom(spec)
    pixels = median_filter(frame).pixels
    params = ErelParams.for_frame(pixels.shape)
    tree = build_component_tree(pixels, frame_center(frame), params.a_max)
    expected = reference_regions(tree, params)
    if forced:
        assert len(expected) < len(thinned_band(tree.seed_chain(), params))
    else:
        assert len(expected) >= MIN_RETAINED_LEVELS
    assert_series_equals_the_per_region_reference(
        extract_qplus(tree, params), expected, pixels.shape, np.random.default_rng(phantom_seed)
    )


def test_pinned_boundary_counts():
    # the hole's and the pocket's walls stay off the boundary: the ring
    # counts its 16 outer pixels, the pocketed block its 15 outer pixels and
    # the notch's 2 inner neighbours, the corner block its 14 edge pixels;
    # the whole frame counts its border
    for pixels, seed, counts in ((HOLE, (1, 1), [16, 24]), (POCKET, (1, 1), [17, 24]),
                                 (CORNER, (0, 0), [14, 30])):
        params = ErelParams(a_min=1, a_max=pixels.size)
        _, _, _, lengths, _, _ = _counted_candidates(
            lambda: erel.extract_qplus(build_component_tree(pixels, seed, pixels.size), params)
        )
        assert lengths.tolist() == counts


@pytest.mark.parametrize("module", ["scipy.ndimage", "scipy.spatial"])
def test_import_leaves_scipy_ndimage_out(module):
    # scipy.ndimage costs about 0.1 s at import and the library does not need
    # it; scipy.spatial costs as much and only scoring needs it
    code = f"import sys, ivuseg; print({module!r} in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


# -- attributes -------------------------------------------------------------------

def test_region_attributes_on_square():
    pixels = np.full((20, 20), 200, np.uint8)
    pixels[4:14, 3:13] = 10
    chain = build_component_tree(pixels, (3, 4), pixels.size).seed_chain()
    assert chain.areas[0] == 100
    crop = chain_crop(chain, 0)
    lengths, hits = crop_boundary_counts(crop.join, np.array([0]), np.ones(crop.join.shape, dtype=bool))
    assert (lengths.tolist(), hits.tolist()) == ([36], [36])
    attrs = chain_attributes(chain, crop)
    assert attrs.mean_intensity[0] == 10.0
    assert attrs.entropy(0) == 0.0
    assert (attrs.cx[0], attrs.cy[0]) == (7.5, 8.5)  # 10x10 block starting at x=3, y=4
    series = extract_qplus(build_component_tree(pixels, (3, 4), pixels.size),
                           ErelParams(a_min=1, a_max=100))
    assert series.areas.tolist() == [100]
    assert (series.boundary_length[0], series.mean_intensity[0], series.entropy[0],
            *series.moments(0)[0]) == (36, 10.0, 0.0, 7.5, 8.5)
    # a 10 px run of integers has variance (10**2 - 1) / 12 = 8.25
    assert series.moments(0) == ((7.5, 8.5), 8.25, 0.0, 8.25)


def test_entropy_two_equal_bins_is_one_bit():
    values = np.array([10] * 50 + [200] * 50, dtype=np.uint8)
    assert brute_entropy(values) == 1.0
    pixels = np.full((10, 10), 10, np.uint8)
    pixels.ravel()[50:] = 200
    pixels = np.sort(pixels.ravel()).reshape(10, 10)
    tree = build_component_tree(pixels, (0, 0), pixels.size)
    series = extract_qplus(tree, ErelParams(a_min=1, a_max=pixels.size))
    assert series.areas[-1] == pixels.size  # whole frame
    assert series.entropy[-1] == pytest.approx(1.0, abs=1e-12)


def test_disk_moments_quarter_radius_squared():
    mask = rasterize_disk(40.0)
    (xbar, ybar), mu_xx, mu_xy, mu_yy = brute_moments(mask)
    assert mu_xx == pytest.approx(400.0, rel=0.02)
    assert mu_yy == pytest.approx(400.0, rel=0.02)
    assert abs(mu_xy) < 1.0


# -- MGM ---------------------------------------------------------------------------

def test_mgm_marks_vertical_step_edge():
    pixels = np.zeros((16, 16), np.uint8)
    pixels[:, 8:] = 200
    mgm = gradient_magnitude_maxima(pixels)
    assert mgm[:, 7:9].any()
    assert not mgm[:, :5].any() and not mgm[:, 12:].any()


# -- extremum-level retention -------------------------------------------------------

def test_moving_average_clamps_at_ends():
    q = np.array([1.0, 2.0, 3.0, 4.0])
    sm = _moving_average(q, 1)
    assert sm == pytest.approx([1.5, 2.0, 3.0, 3.5])


def test_local_maxima_takes_leftmost_of_plateau():
    vals = np.array([0.0, 2.0, 2.0, 2.0, 1.0, 3.0, 0.5])
    assert _local_maxima(vals).tolist() == [1, 5]


def counts_for(qs):
    # 100 boundary pixels per candidate, round(100 q) of them on maxima
    return np.full(len(qs), 100), np.array([int(round(q * 100)) for q in qs])


def test_alpha_zero_retains_all_local_maxima():
    qs = [0.1, 0.5, 0.2, 0.6, 0.1, 0.7, 0.3, 0.9, 0.2, 0.4]
    params = ErelParams(alpha=0.0, beta=1, a_min=1, a_max=10_000)
    retained = select_extremum_levels(*counts_for(qs), params)
    # fewer than the viability floor -> every candidate comes back
    assert retained == list(range(len(qs)))


def test_retention_fallback_keeps_tiny_chains():
    qs = [0.5, 0.9, 0.4]
    params = ErelParams(alpha=0.5, beta=1, a_min=1, a_max=10_000)
    retained = select_extremum_levels(*counts_for(qs), params)
    assert retained == [0, 1, 2]


# -- extraction ----------------------------------------------------------------------

def test_extract_dark_disk_smallest_region_matches():
    # dark disk of ~3000 px inside a bright ring on a 128x128 frame
    pixels = np.full((128, 128), 200, np.uint8)
    ys, xs = np.mgrid[0:128, 0:128]
    disk = (ys - 64) ** 2 + (xs - 64) ** 2 <= 31 ** 2  # ~3019 px
    pixels[disk] = 30
    # area band [1474, 5461]: a_min = int(128 * 128 * 0.09), a_max the paper's third
    params = ErelParams(a_min=1474, a_max=128 * 128 // 3)
    despeckled = median_filter(Frame(pixels=pixels)).pixels
    series = extract_qplus(build_component_tree(despeckled, (64, 64), params.a_max), params)
    assert series.areas[0] == pytest.approx(3019, rel=0.10)
    areas = series.areas.tolist()
    assert areas == sorted(areas)
    assert all(a > b for a, b in zip(areas[1:], areas[:-1]))


def test_extract_empty_band_raises():
    # smooth horizontal gradient; region areas grow in multiples of 32 rows
    pixels = np.tile(np.arange(32, dtype=np.uint8) * 8, (32, 1))
    params = ErelParams(a_min=995, a_max=1000)  # between area steps of 32
    tree = build_component_tree(pixels, (0, 16), pixels.size)
    with pytest.raises(NoCandidateRegionsError):
        extract_qplus(tree, params)


def test_extremum_levels_cluster_at_crisp_edges():
    # noiseless two-edge phantom: retained levels sit at the two layer jumps
    spec = PhantomSpec(
        width=256, height=256,
        lumen=Ellipse(128, 128, 45, 40, 0.0),
        media=Ellipse(128, 128, 85, 78, 0.0),
        speckle_sigma=0.0, intima_texture=0.0, lumen_texture=0.0,
        layer_means=(40, 160, 70, 180),
    )
    frame, truth = generate_phantom(spec)
    _, _, series = _extract(frame, RunConfig(), None)
    levels = sorted(set(series.levels.tolist()))
    # regions exist only at the distinct layer levels that contain the seed
    assert set(levels) <= {40, 70, 160}
    assert 40 in levels and 160 in levels


def test_capped_extraction_equals_full(rng):
    spec = PhantomSpec(rng_seed=7)
    frame, _ = generate_phantom(spec)
    f = median_filter(frame)
    params = ErelParams.for_frame(f.pixels.shape)
    seed = (f.width // 2, f.height // 2)
    full = extract_qplus(build_component_tree(f.pixels, seed, f.pixels.size), params)
    capped = extract_qplus(build_component_tree(f.pixels, seed, params.a_max), params)
    assert np.array_equal(full.areas, capped.areas)
    assert np.array_equal(full.levels, capped.levels)


def test_extraction_rejects_a_chain_cut_inside_the_band():
    # a cap below a_max cuts the chain short and would silently drop the
    # band's larger candidates
    frame, _ = generate_phantom(acceptance_phantom_spec(0))
    f = median_filter(frame)
    params = ErelParams.for_frame(f.pixels.shape)
    seed = (f.width // 2, f.height // 2)
    tree = build_component_tree(f.pixels, seed, params.a_max)
    assert len(extract_qplus(tree, params)) >= MIN_RETAINED_LEVELS
    capped = build_component_tree(f.pixels, seed, params.a_max // 4)
    with pytest.raises(ValueError, match="stop cap of at least a_max"):
        extract_qplus(capped, params)
