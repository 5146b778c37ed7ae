import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ivuseg.erel import RegionSeries
from ivuseg.selection import (
    STABILITY_SENTINEL,
    feature_vector,
    find_peaks,
    lumen_media,
    remove_outliers,
    select_regions,
    stability_scores,
)
from oracles import loop_find_peaks, reference_select_regions


def series_with_areas(areas, boundary_length=10, mean_intensity=1.0, entropy=1.0):
    """Columns of a series with the given areas; the scores broadcast."""
    n = len(areas)
    return RegionSeries(
        index=np.arange(n),
        levels=np.arange(n),
        areas=np.asarray(areas, dtype=np.int64),
        boundary_length=np.broadcast_to(boundary_length, n),
        mean_intensity=np.broadcast_to(mean_intensity, n).astype(np.float64),
        entropy=np.broadcast_to(entropy, n).astype(np.float64),
        row_map=None,
        reach_map=None,
        origin=(0, 0),
        shape=(0, 0),
    )


# -- outlier removal ---------------------------------------------------------

def test_outlier_example_drops_exactly_one():
    areas = np.array([800, 900, 1000, 1100, 10000])
    kept = remove_outliers(areas)
    assert kept.tolist() == [0, 1, 2, 3]
    assert areas[kept].tolist() == [800, 900, 1000, 1100]


def test_outlier_zero_mad_keeps_everything():
    assert remove_outliers(np.full(6, 500)).tolist() == list(range(6))


def test_outliers_within_one_mad_kept():
    # areas within +-1 of median and MAD = 1: all |M| <= 0.6745
    assert len(remove_outliers(np.array([99, 100, 100, 101, 101]))) == 5


def test_outlier_mass_removal_keeps_every_position():
    # two separated size clusters: the screen would drop the smaller cluster
    # wholesale, which is the degenerate case, so nothing is dropped
    areas = np.array([100, 101, 120, 5000, 5001, 5002, 5003, 5004, 5005])
    assert remove_outliers(areas).tolist() == list(range(9))


def test_select_regions_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        select_regions(series_with_areas([]))


def test_select_regions_falls_back_on_degenerate_removal():
    series = series_with_areas([100, 101, 120, 5000, 5001, 5002, 5003, 5004, 5005])
    lumen, media, profile = select_regions(series)
    assert len(profile.v) == len(series)


def test_select_regions_returns_positions_in_the_unpruned_series():
    # the freak area at position 0 is pruned, so the profile's positions
    # are one less than the series positions returned
    series = series_with_areas([1, 1000, 1001, 1002, 1003, 1004, 1005, 1006],
                               boundary_length=np.array([5, 1, 1, 9, 1, 1, 1, 1]))
    lumen, media, profile = select_regions(series)
    assert len(profile.v) == 7
    assert (lumen, media) == (profile.lumen_index + 1, profile.media_index + 1)


# -- feature vector -----------------------------------------------------------

def test_feature_vector_products():
    series = series_with_areas(
        [10, 20], boundary_length=np.array([36, 10]), mean_intensity=np.array([50.0, 2.0]),
        entropy=np.array([1.0, 0.0]),
    )
    v = feature_vector(series)
    assert v.tolist() == [1800.0, 0.0]
    assert (v >= 0).all()


# -- stability scores ----------------------------------------------------------

def test_stability_direct_cases():
    assert stability_scores(np.array([1.0, 2.0, 3.0])).tolist() == [1.0]
    assert stability_scores(np.array([1.0, 5.0, 9.0])).tolist() == [0.625]


def test_stability_plateau_maps_to_sentinel():
    omega = stability_scores(np.array([4.0, 5.0, 5.0, 5.0, 9.0]))
    assert omega[0] == pytest.approx(5.0)
    assert omega[1] == STABILITY_SENTINEL
    assert omega[2] == pytest.approx(1.25)


def test_stability_short_vector_empty():
    assert stability_scores(np.array([1.0, 2.0])).size == 0


# -- peaks -----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.one_of(
    arrays(np.float64, st.integers(0, 30), elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])),
    arrays(np.float64, st.integers(0, 30), elements=st.floats(-1e6, 1e6)),
))
def test_find_peaks_scans_like_the_old_loop(vals):
    # plateau-heavy vectors: a plateau peaks once, at its leftmost index
    peaks = find_peaks(vals)
    assert [i for i, _ in peaks] == loop_find_peaks(vals)
    assert all(type(i) is int and type(p) is float for i, p in peaks)


def test_find_peaks_single_interior():
    assert find_peaks(np.array([1.0, 3.0, 1.0])) == [(1, 2.0)]


def test_find_peaks_monotone_has_none():
    assert find_peaks(np.array([1.0, 2.0, 3.0, 4.0])) == []
    assert find_peaks(np.array([4.0, 3.0, 2.0, 1.0])) == []


def test_find_peaks_prominences():
    peaks = find_peaks(np.array([1.0, 4.0, 2.0, 3.0, 1.0]))
    assert peaks == [(1, 3.0), (3, 1.0)]


def test_find_peaks_plateau_leftmost():
    # plateau of 5s counts once at its leftmost index; prominence is the
    # height above the higher of the two flanking minima (0 left, 1 right)
    peaks = find_peaks(np.array([0.0, 5.0, 5.0, 5.0, 2.0, 1.0]))
    assert peaks == [(1, 4.0)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 1e6, allow_nan=False), min_size=3, max_size=40),
       st.floats(0.001, 1e3))
def test_selection_invariant_under_positive_scaling(vals, scale):
    from hypothesis import assume

    v = np.array(vals)
    # near-cancelling neighbour differences are not scale-stable in floats
    denom = np.abs(v[2:] - v[:-2])
    assume((denom == 0).all() or denom[denom > 0].min() > 1e-6 * np.abs(v).max())
    omega_base = stability_scores(v)
    omega_scaled = stability_scores(v * scale)
    sentinel_base = omega_base == STABILITY_SENTINEL
    sentinel_scaled = omega_scaled == STABILITY_SENTINEL
    assert np.array_equal(sentinel_base, sentinel_scaled)
    keep = ~sentinel_base
    assert np.allclose(omega_base[keep], omega_scaled[keep], rtol=1e-9, atol=1e-12)
    assert [i for i, _ in find_peaks(omega_base)] == [i for i, _ in find_peaks(omega_scaled)]


# -- lumen/media assignment --------------------------------------------------------

def test_assign_three_peaks_uses_prominence_then_last():
    assert lumen_media(11, np.ones(9), [(2, 3.0), (5, 1.2), (9, 2.0)]) == (2, 9)


def test_assign_two_peaks_media_falls_to_last_region():
    assert lumen_media(10, np.ones(8), [(4, 1.0), (6, 5.0)]) == (6, 9)


def test_assign_tie_prefers_earlier_peak():
    assert lumen_media(10, np.ones(8), [(3, 2.0), (5, 2.0), (8, 0.5)]) == (3, 8)


def test_assign_no_peaks_uses_max_stability():
    # omega argmax 1 -> series index 2; the media is the last region
    assert lumen_media(6, np.array([1.0, 7.0, 2.0, 3.0]), []) == (2, 5)


def test_assign_single_region_degenerate():
    assert lumen_media(1, np.empty(0), []) == (0, 0)
    lumen, media, profile = select_regions(series_with_areas([500]))
    assert (lumen, media) == (0, 0)
    assert (profile.lumen_index, profile.media_index, profile.degenerate) == (0, 0, True)


def test_assign_lumen_never_after_media():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        areas = np.unique(rng.integers(100, 10_000, n))
        m = areas.size
        series = series_with_areas(areas, boundary_length=rng.integers(4, 400, m),
                                   mean_intensity=rng.uniform(1, 200, m),
                                   entropy=rng.uniform(0.0, 8.0, m))
        lumen, media, profile = select_regions(series)
        assert profile.lumen_index <= profile.media_index
        assert lumen <= media
        assert areas[lumen] <= areas[media]


def test_profile_peaks_in_series_coordinates():
    # equal areas pass the screen whole; v spikes at series index 3 and
    # omega peaks there too (1-based interior)
    series = series_with_areas(np.full(10, 700),
                               boundary_length=np.array([1, 1, 1, 9, 1, 1, 1, 1, 1, 1]))
    lumen, media, profile = select_regions(series)
    assert any(idx == 3 for idx, _ in profile.peaks)
    assert len(profile.omega) == len(profile.v) - 2
    assert not profile.degenerate


def test_profile_is_frozen():
    _, _, profile = select_regions(series_with_areas([100, 140, 200, 280, 400]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.media_index = 0


def test_determinism():
    series = series_with_areas([100, 140, 200, 280, 400, 560, 800])
    a = select_regions(series)
    b = select_regions(series)
    assert a[:2] == b[:2]
    assert a[2].lumen_index == b[2].lumen_index
    assert a[2].media_index == b[2].media_index


# -- against the reference -------------------------------------------------------

@st.composite
def drawn_series(draw):
    """Series of 1-40 regions: plateau-heavy or free scores, and areas
    that are tight, spread, or two clusters that trip the quarter rule."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["tight", "spread", "clusters"]))
    if kind == "tight":
        areas = draw(st.lists(st.integers(1000, 1010), min_size=n, max_size=n))
    elif kind == "spread":
        areas = draw(st.lists(st.integers(1, 100_000), min_size=n, max_size=n))
    else:
        small = draw(st.integers(0, n))
        areas = ([100 + draw(st.integers(0, 20)) for _ in range(small)]
                 + [5000 + draw(st.integers(0, 10)) for _ in range(n - small)])
    scores = st.one_of(
        st.lists(st.sampled_from([1, 2, 3]), min_size=n, max_size=n),
        st.lists(st.integers(0, 500), min_size=n, max_size=n),
    )
    return series_with_areas(
        sorted(areas),
        boundary_length=np.array(draw(scores), dtype=np.int64),
        mean_intensity=np.array(draw(scores), dtype=np.float64),
        entropy=np.round(draw(st.lists(st.floats(0.0, 8.0), min_size=n, max_size=n)), 3),
    )


@settings(max_examples=400, deadline=None)
@given(drawn_series())
@example(series_with_areas([100, 101, 120, 5000, 5001, 5002, 5003, 5004, 5005],
                           boundary_length=np.array([3, 1, 2, 9, 1, 1, 4, 1, 2])))
@example(series_with_areas([42]))
def test_select_regions_equals_the_reference(series):
    lumen, media, profile = select_regions(series)
    ref_lumen, ref_media, ref = reference_select_regions(series)
    assert (lumen, media) == (ref_lumen, ref_media)
    assert profile.v.tobytes() == ref.v.tobytes()
    assert profile.omega.tobytes() == ref.omega.tobytes()
    assert profile.peaks == ref.peaks
    assert (profile.lumen_index, profile.media_index, profile.degenerate) == (
        ref.lumen_index, ref.media_index, ref.degenerate)
