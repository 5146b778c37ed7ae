import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SRC
from ivuseg.geometry import Ellipse, rasterize_ellipse
from ivuseg.imaging import Contour
from ivuseg.metrics import (
    EvaluationReport,
    StructureMetrics,
    aggregate,
    densify,
    hausdorff,
    hausdorff_points,
    jaccard,
    pad,
    structure_metrics,
    write_report_csv,
)
from oracles import brute_densify, brute_hausdorff, two_tree_hausdorff

random_contours = st.builds(
    lambda pts: Contour(points=np.array(pts, dtype=float), closed=False),
    st.lists(
        st.tuples(st.floats(0, 25), st.floats(0, 25)),
        min_size=1,
        max_size=30,
        unique=True,
    ),
)


# -- jaccard --------------------------------------------------------------------

def test_jaccard_identical_masks():
    mask = np.zeros((10, 10), bool)
    mask[2:6, 3:8] = True
    assert jaccard(mask, mask) == 1.0


def test_jaccard_disjoint_masks():
    a = np.zeros((10, 10), bool)
    b = np.zeros((10, 10), bool)
    a[0:2, 0:2] = True
    b[5:7, 5:7] = True
    assert jaccard(a, b) == 0.0


def test_jaccard_subset_half():
    a = np.zeros((20, 20), bool)
    a[:5, :20] = True  # 100 px
    b = np.zeros((20, 20), bool)
    b[:5, :10] = True  # 50 px subset
    assert jaccard(a, b) == 0.5


def test_jaccard_both_empty_is_error():
    empty = np.zeros((5, 5), bool)
    with pytest.raises(ValueError):
        jaccard(empty, empty)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_jaccard_symmetric_and_identity(seed):
    rng = np.random.default_rng(seed)
    a = rng.random((8, 8)) < 0.4
    b = rng.random((8, 8)) < 0.4
    if not (a.any() or b.any()):
        return
    assert jaccard(a, b) == jaccard(b, a)
    if a.any():
        assert jaccard(a, a) == 1.0
    if not np.array_equal(a, b):
        assert jaccard(a, b) < 1.0


# -- hausdorff -------------------------------------------------------------------

def test_hausdorff_identical_contours():
    c = rasterize_ellipse(Ellipse(0, 0, 10, 6, 0.3), 64)
    assert hausdorff(c, c) == 0.0


def test_hausdorff_two_single_points():
    a = Contour(points=np.array([[0.0, 0.0]]), closed=False)
    b = Contour(points=np.array([[3.0, 4.0]]), closed=False)
    assert hausdorff(a, b) == 5.0


def test_hausdorff_concentric_circles():
    inner = rasterize_ellipse(Ellipse(0, 0, 50, 50, 0.0), 720)
    outer = rasterize_ellipse(Ellipse(0, 0, 60, 60, 0.0), 720)
    assert hausdorff(inner, outer) == pytest.approx(10.0, abs=0.1)


def test_hausdorff_empty_raises():
    c = Contour(points=np.array([[0.0, 0.0]]), closed=False)
    with pytest.raises(ValueError):
        Contour(points=np.empty((0, 2)), closed=False)
    assert hausdorff(c, c) == 0.0


@settings(max_examples=50, deadline=None)
@given(random_contours, random_contours)
def test_hausdorff_symmetric(c1, c2):
    assert hausdorff(c1, c2) == hausdorff(c2, c1)


@settings(max_examples=40, deadline=None)
@given(random_contours, random_contours)
def test_hausdorff_matches_brute_force_on_densified_sets(c1, c2):
    ours = hausdorff(c1, c2)
    ref = brute_hausdorff(densify(c1), densify(c2))
    assert ours == pytest.approx(ref, abs=1e-9)


def test_densify_spacing_bound():
    c = Contour(points=np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 7.0]]), closed=True)
    pts = densify(c)
    loop = np.vstack([pts, pts[:1]])
    gaps = np.hypot(*np.diff(loop, axis=0).T)
    assert gaps.max() <= 0.5 + 1e-12


@st.composite
def polylines(draw):
    """Open or closed contours, one point upward, with repeated points;
    integer coordinates make repeats and axis-parallel segments likely.
    A closed contour may end on its first point: a zero-length segment."""
    coord = st.one_of(st.integers(-3, 8).map(float), st.floats(-40, 40, allow_nan=False))
    raw = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    pts = [p for i, p in enumerate(raw) if i == 0 or p != raw[i - 1]]
    closed = len(pts) >= 3 and draw(st.booleans())
    if closed and pts[-1] != pts[0] and draw(st.booleans()):
        pts.append(pts[0])
    return Contour(points=np.array(pts, dtype=float), closed=closed)


@settings(max_examples=300, deadline=None)
@given(polylines(), st.sampled_from([0.5, 0.7]))
def test_densify_matches_segment_loop_bytewise(contour, spacing):
    ours = densify(contour, spacing)
    ref = brute_densify(contour, spacing)
    assert ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


@st.composite
def collinear(draw):
    """Open or closed contours on one line through integer points, going
    back and forth along it, so points repeat and bounds are tight."""
    x0, y0 = draw(st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (3, 5)]))
    ts = draw(st.lists(st.integers(-15, 15), min_size=1, max_size=12))
    ts = [t for i, t in enumerate(ts) if i == 0 or t != ts[i - 1]]
    closed = len(ts) >= 3 and draw(st.booleans())
    pts = [(x0 + t * dx, y0 + t * dy) for t in ts]
    return Contour(points=np.array(pts, dtype=float), closed=closed)


@st.composite
def nested_ellipses(draw):
    """An ellipse and a smaller one inside it, each sampled at its own count."""
    cx, cy = draw(st.floats(-50, 450)), draw(st.floats(-50, 450))
    a = draw(st.floats(1, 150))
    b = a * draw(st.floats(0.05, 1))
    theta = draw(st.floats(-1.57, math.pi / 2))
    scale = draw(st.floats(0.3, 1))
    outer = rasterize_ellipse(Ellipse(cx, cy, a, b, theta), draw(st.integers(3, 720)))
    inner = rasterize_ellipse(
        Ellipse(cx, cy, a * scale, b * scale, theta), draw(st.integers(3, 720))
    )
    return outer, inner


def far_apart(contours):
    """The second contour moved by up to 10^4 px.  The move can round two
    close points onto one; such repeats are dropped, as polylines() drops
    its own, and a closed contour left with fewer than 3 points is open."""
    offsets = st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))

    def moved(t):
        first, second, offset = t
        pts = second.points + np.array(offset)
        pts = pts[np.r_[True, np.any(pts[1:] != pts[:-1], axis=1)]]
        return first, Contour(points=pts, closed=second.closed and len(pts) >= 3)

    return st.tuples(contours, contours, offsets).map(moved)


def same_float(x: float, y: float) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


ONE_POINT = Contour(points=np.array([[2.0, 3.0]]), closed=False)
SEGMENT = Contour(points=np.array([[0.0, 0.0], [40.0, 0.0]]), closed=False)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.tuples(polylines(), polylines()),
    st.tuples(collinear(), collinear()),
    st.tuples(collinear(), polylines()),
    far_apart(polylines()),
    nested_ellipses(),
))
@example((ONE_POINT, ONE_POINT))
@example((ONE_POINT, SEGMENT))
@example((SEGMENT, Contour(points=np.array([[0.0, 5.0], [40.0, 5.0], [20.0, 9.0]]))))
def test_pruned_hausdorff_equals_the_two_tree_query(pair):
    c1, c2 = pair
    assert same_float(hausdorff(c1, c2), two_tree_hausdorff(c1, c2))
    assert same_float(hausdorff(c2, c1), two_tree_hausdorff(c2, c1))


point_sets = st.lists(
    st.tuples(st.floats(0, 60), st.floats(0, 60)), min_size=1, max_size=200
).map(lambda pts: np.array(pts, dtype=float))
# integer pixel centres, as RegionSeries.boundary gives them: many ties
pixel_sets = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=200, unique=True
).map(lambda pts: np.array(pts, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(st.one_of(point_sets, pixel_sets), st.one_of(point_sets, pixel_sets),
       st.integers(0, 2**32 - 1))
def test_hausdorff_points_is_exact_for_unordered_point_sets(p, q, seed):
    rng = np.random.default_rng(seed)
    ps, qs = rng.permutation(p), rng.permutation(q)
    ours = hausdorff_points(ps, qs)
    assert ours == pytest.approx(brute_hausdorff(p, q), abs=1e-9)
    # the order changes only which points are queried, not their distances
    assert same_float(ours, hausdorff_points(p, q))


@pytest.mark.parametrize(
    "p, q, problem",
    [
        (np.empty((0, 2)), np.zeros((3, 2)), "p1 is empty"),
        (np.zeros((3, 2)), np.empty((0, 2)), "p2 is empty"),
        (np.zeros((3, 3)), np.ones((3, 3)), r"p1 must be an \(n, 2\) array"),
        (np.zeros((3, 2)), np.zeros(4), r"p2 must be an \(n, 2\) array"),
        (np.array([[0.0, 1.0], [np.nan, 2.0]]), np.zeros((3, 2)), "p1 has a non-finite"),
        (np.zeros((3, 2)), np.array([[np.inf, 1.0]]), "p2 has a non-finite"),
    ],
    ids=["empty p1", "empty p2", "3-d points", "flat array", "nan", "inf"],
)
def test_hausdorff_points_rejects_bad_point_sets(p, q, problem):
    with pytest.raises(ValueError, match=problem):
        hausdorff_points(p, q)


def _run_python(code: str) -> str:
    """Run code in a fresh interpreter with src/ and tests/ importable; its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.path.dirname(__file__),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_scoring_imports_scipy_spatial_only_when_called(tmp_path):
    # segmenting a frame and an unscored batch never load scipy.spatial; the
    # first Hausdorff call does, and gives the all-pairs oracle's value
    hd, ref = _run_python(f"""
        import sys
        from pathlib import Path
        from conftest import acceptance_phantom_spec
        from ivuseg import RunConfig, cli, metrics, rasterize_ellipse
        from ivuseg.imaging import save_frame
        from ivuseg.phantom import generate_phantom

        frame, truth = generate_phantom(acceptance_phantom_spec(0))
        lumen = rasterize_ellipse(cli.segment_frame(frame, RunConfig()).lumen, 720)
        frames = Path({str(tmp_path)!r}) / "frames"
        frames.mkdir()
        save_frame(frame, frames / "f.pgm")
        summary = cli.run_batch(RunConfig(inputs=[frames], outdir=frames.parent / "out", jobs=1))
        assert summary.processed == 1
        assert "scipy.spatial" not in sys.modules
        hd = metrics.hausdorff(lumen, truth.lumen_contour)
        assert "scipy.spatial" in sys.modules
        from oracles import brute_hausdorff
        ref = brute_hausdorff(metrics.densify(lumen), metrics.densify(truth.lumen_contour))
        print(hd.hex(), ref.hex())
    """).split()
    assert float.fromhex(hd) > 0
    assert hd == ref


def test_scored_batch_loads_scipy_spatial_before_its_first_frame(tmp_path):
    # loaded at the first scored frame instead, the import leaves the heap
    # so that every later frame takes hundreds of page faults
    out = _run_python(f"""
        import sys
        from pathlib import Path
        from conftest import acceptance_phantom_spec
        from ivuseg import RunConfig, cli
        from ivuseg.imaging import save_contour, save_frame
        from ivuseg.phantom import generate_phantom

        root = Path({str(tmp_path)!r})
        frame, truth = generate_phantom(acceptance_phantom_spec(0))
        save_frame(frame, root / "f.pgm")
        save_contour(truth.lumen_contour, root / "f_lumen.txt")
        save_contour(truth.media_contour, root / "f_media.txt")
        segment_frame = cli.segment_frame

        def watched(*args):
            print("scipy.spatial" in sys.modules)
            return segment_frame(*args)

        cli.segment_frame = watched
        cfg = RunConfig(inputs=[root / "f.pgm"], gold_dir=root, outdir=root / "out", jobs=1)
        assert len(cli.run_batch(cfg).reports) == 1
    """)
    assert out.split() == ["True"]


# -- pad -------------------------------------------------------------------------

def test_pad_cases():
    assert pad(100.0, 100.0) == 0.0
    assert pad(110.0, 100.0) == pytest.approx(0.1)
    assert pad(0.0, 100.0) == 1.0
    with pytest.raises(ValueError):
        pad(10.0, 0.0)


# -- reports ----------------------------------------------------------------------

def test_structure_metrics_mm_conversion():
    mask = np.zeros((30, 30), bool)
    mask[5:25, 5:25] = True
    contour = rasterize_ellipse(Ellipse(15, 15, 9, 9, 0.0), 128)
    m = structure_metrics(mask, mask, contour, contour, mm_per_px=0.026)
    assert m.hd_mm == m.hd_px * 0.026
    assert m.jm == 1.0


def test_report_csv_columns(tmp_path):
    rep = EvaluationReport(
        frame="f0",
        artifact="shadow",
        lumen=StructureMetrics(jm=0.9, hd_px=1.5, pad=0.05, hd_mm=None),
        media=StructureMetrics(jm=0.8, hd_px=2.5, pad=0.10, hd_mm=None),
    )
    path = tmp_path / "s.csv"
    write_report_csv([rep], path)
    header, row = path.read_text().strip().splitlines()
    assert header == (
        "frame,artifact,jm_lumen,hd_lumen_px,hd_lumen_mm,pad_lumen,"
        "jm_media,hd_media_px,hd_media_mm,pad_media"
    )
    assert row.startswith("f0,shadow,0.9")


def test_aggregate_groups_by_artifact():
    def rep(tag, jm):
        return EvaluationReport(
            frame="x",
            artifact=tag,
            lumen=StructureMetrics(jm=jm, hd_px=1.0, pad=0.1),
            media=StructureMetrics(jm=jm, hd_px=2.0, pad=0.2),
        )

    out = aggregate([rep("none", 0.9), rep("none", 0.8), rep("shadow", 0.5)])
    assert out["none"]["count"] == 2
    assert out["none"]["lumen_jm_mean"] == pytest.approx(0.85)
    assert out["shadow"]["count"] == 1
    assert out["all"]["count"] == 3


def test_report_rejects_unknown_artifact_tag():
    with pytest.raises(ValueError):
        EvaluationReport(
            frame="x",
            artifact="girder",
            lumen=StructureMetrics(jm=0.5, hd_px=1.0, pad=0.0),
            media=StructureMetrics(jm=0.5, hd_px=1.0, pad=0.0),
        )
