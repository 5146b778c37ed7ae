import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivuseg.cli import RunConfig, _extract
from ivuseg.component_tree import build_component_tree
from ivuseg.erel import (
    CandidateLevel,
    ErelParams,
    _candidate_boundary,
    _local_maxima,
    _moving_average,
    extract_qplus,
    gradient_magnitude_maxima,
    select_extremum_levels,
)
from ivuseg.errors import NoCandidateRegionsError
from ivuseg.geometry import Ellipse
from ivuseg.imaging import Frame, median_filter
from ivuseg.phantom import PhantomSpec, generate_phantom
from oracles import (
    FOUR,
    boundary_pixel_set,
    brute_entropy,
    brute_moments,
    outer_adjacent_pixels,
    rasterize_disk,
    trace_outer_boundary,
)

from scipy import ndimage


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

def test_square_boundary_count_and_trace():
    mask = np.zeros((20, 20), dtype=bool)
    mask[4:14, 3:13] = True
    assert len(boundary_pixel_set(mask)) == 36
    contour = trace_outer_boundary(mask)
    assert contour.closed
    assert len(set(map(tuple, contour.points.astype(int).tolist()))) == 36


def test_ring_boundary_excludes_hole():
    ys, xs = np.mgrid[0:40, 0:40]
    disk = (ys - 20) ** 2 + (xs - 20) ** 2 <= 15 ** 2
    ring = disk & ~((ys - 20) ** 2 + (xs - 20) ** 2 <= 5 ** 2)
    ring_b = set(map(tuple, boundary_pixel_set(ring).tolist()))
    disk_b = set(map(tuple, boundary_pixel_set(disk).tolist()))
    assert ring_b == disk_b


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_trace_is_connected_cycle_within_flood_superset(seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(3, 18, size=2)
    raw = rng.random((h, w)) < 0.55
    labels, count = ndimage.label(raw, structure=FOUR)
    if count == 0:
        return
    sizes = ndimage.sum_labels(np.ones_like(labels), labels, index=range(1, count + 1))
    comp = labels == (1 + int(np.argmax(sizes)))
    contour = trace_outer_boundary(comp)
    pts = contour.points.astype(int)
    trace_set = set(map(tuple, pts.tolist()))
    superset = set(map(tuple, outer_adjacent_pixels(comp).tolist()))
    assert trace_set <= superset
    if contour.closed:
        loop = np.vstack([pts, pts[:1]])
        steps = np.abs(np.diff(loop, axis=0)).max(axis=1)
        assert (steps <= 1).all()


def test_single_pixel_boundary():
    mask = np.zeros((5, 6), dtype=bool)
    mask[2, 3] = True
    contour = trace_outer_boundary(mask)
    assert not contour.closed
    assert contour.points.tolist() == [[3.0, 2.0]]
    assert boundary_pixel_set(mask).tolist() == [[3, 2]]


def test_chain_walk_matches_mask_walk():
    frame, _ = generate_phantom(PhantomSpec(rng_seed=5))
    _, _, series = _extract(frame, RunConfig(), None)
    for region in series.regions[:: max(1, len(series) // 8)]:
        traced = trace_outer_boundary(region.mask)
        assert np.array_equal(region.boundary.points, traced.points)
        assert region.boundary_length == len(boundary_pixel_set(region.mask))


# -- attributes -------------------------------------------------------------------

def test_region_attributes_on_square():
    pixels = np.full((20, 20), 200, np.uint8)
    pixels[4:14, 3:13] = 10
    chain = build_component_tree(pixels, (3, 4), pixels.size).seed_chain()
    assert chain.areas[0] == 100
    assert len(_candidate_boundary(chain, 0)) == 36
    assert chain.mean_intensity(0) == 10.0
    assert chain.entropy(0) == 0.0
    assert chain.centroid(0) == (7.5, 8.5)  # 10x10 block starting at x=3, y=4


def test_entropy_two_equal_bins_is_one_bit():
    values = np.array([10] * 50 + [200] * 50, dtype=np.uint8)
    assert brute_entropy(values) == 1.0
    pixels = np.full((10, 10), 10, np.uint8)
    pixels.ravel()[50:] = 200
    pixels = np.sort(pixels.ravel()).reshape(10, 10)
    chain = build_component_tree(pixels, (0, 0), pixels.size).seed_chain()
    k = len(chain) - 1  # whole frame
    assert chain.entropy(k) == pytest.approx(1.0, abs=1e-12)


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


def make_candidates(qs):
    # one synthetic boundary pixel per unit of q resolution: hits/len = q
    cands = []
    for i, q in enumerate(qs):
        n = 100
        hits = int(round(q * n))
        bp = np.zeros((n, 2), dtype=np.int64)
        bp[:, 0] = np.arange(n)
        bp[:, 1] = 2 * i  # each candidate on its own row
        cands.append(CandidateLevel(chain_index=i, level=i, area=10 * (i + 1), boundary_pixels=bp))
    return cands


def mgm_for(qs):
    rows = 2 * len(qs) + 1
    mgm = np.zeros((rows, 100), dtype=bool)
    for i, q in enumerate(qs):
        hits = int(round(q * 100))
        mgm[2 * i, :hits] = True
    return mgm


def test_alpha_zero_retains_all_local_maxima():
    qs = [0.1, 0.5, 0.2, 0.6, 0.1, 0.7, 0.3, 0.9, 0.2, 0.4]
    params = ErelParams(alpha=0.0, beta=1, a_min=1, a_max=10_000)
    retained = select_extremum_levels(make_candidates(qs), params, mgm_for(qs))
    # fewer than the viability floor -> every candidate comes back
    assert retained == list(range(len(qs)))


def test_retention_fallback_keeps_tiny_chains():
    qs = [0.5, 0.9, 0.4]
    params = ErelParams(alpha=0.5, beta=1, a_min=1, a_max=10_000)
    retained = select_extremum_levels(make_candidates(qs), params, mgm_for(qs))
    assert retained == [0, 1, 2]


# -- extraction ----------------------------------------------------------------------

def test_extract_dark_disk_smallest_region_matches():
    # dark disk of ~3000 px inside a bright ring on a 128x128 frame
    pixels = np.full((128, 128), 200, np.uint8)
    ys, xs = np.mgrid[0:128, 0:128]
    disk = (ys - 64) ** 2 + (xs - 64) ** 2 <= 31 ** 2  # ~3019 px
    pixels[disk] = 30
    frame = Frame(pixels=pixels)
    # area band [1474, 5461], as a_min = int(128 * 128 * 0.09)
    _, params, series = _extract(frame, RunConfig(seed=(64, 64), amin_frac=0.09), None)
    assert (params.a_min, params.a_max) == (1474, 128 * 128 // 3)
    smallest = series[0]
    assert smallest.area == pytest.approx(3019, rel=0.10)
    areas = [r.area for r in series]
    assert areas == sorted(areas)
    assert all(a > b for a, b in zip(areas[1:], areas[:-1]))


def test_extract_empty_band_raises():
    # smooth horizontal gradient; region areas grow in multiples of 32 rows
    pixels = np.tile(np.arange(32, dtype=np.uint8) * 8, (32, 1))
    frame = Frame(pixels=pixels)
    params = ErelParams(a_min=995, a_max=1000)  # between area steps of 32
    tree = build_component_tree(pixels, (0, 16), pixels.size)
    with pytest.raises(NoCandidateRegionsError):
        extract_qplus(tree, params, frame)


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
    levels = sorted({r.level for r in series})
    # regions exist only at the distinct layer levels that contain the seed
    assert set(levels) <= {40, 70, 160}
    assert 40 in levels and 160 in levels


def test_capped_extraction_equals_full(rng):
    spec = PhantomSpec(rng_seed=7)
    frame, _ = generate_phantom(spec)
    f = median_filter(frame, 1)
    params = ErelParams.for_frame(f.pixels.shape)
    seed = (f.width // 2, f.height // 2)
    full = extract_qplus(build_component_tree(f.pixels, seed, f.pixels.size), params, f)
    capped = extract_qplus(build_component_tree(f.pixels, seed, params.a_max), params, f)
    assert [r.area for r in full] == [r.area for r in capped]
    assert [r.level for r in full] == [r.level for r in capped]
