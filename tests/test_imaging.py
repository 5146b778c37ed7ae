import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ivuseg import imaging
from ivuseg.errors import ContourFormatError, PgmFormatError, SegmentationError
from ivuseg.imaging import (
    Contour,
    Frame,
    frame_center,
    load_contour,
    load_frame,
    median_filter,
    save_contour,
    save_frame,
    window_medians,
)
from oracles import brute_median_filter, line_loop_load_contour, per_point_save_contour

small_frames = arrays(
    np.uint8,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(0, 255),
)


# -- Frame basics ------------------------------------------------------------

def test_frame_rejects_out_of_range():
    with pytest.raises(ValueError):
        Frame(pixels=np.array([[300]], dtype=np.int32))


def test_frame_rejects_empty():
    with pytest.raises(ValueError):
        Frame(pixels=np.zeros((0, 4), dtype=np.uint8))


def test_frame_center_fixed_points():
    assert frame_center(Frame(pixels=np.zeros((384, 384), np.uint8))) == (192, 192)
    assert frame_center(Frame(pixels=np.zeros((5, 3), np.uint8))) == (1, 2)
    assert frame_center(Frame(pixels=np.zeros((1, 1), np.uint8))) == (0, 0)


# -- PGM I/O -------------------------------------------------------------------

def test_load_frame_exact_bytes(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7]))
    frame = load_frame(path)
    assert frame.width == 2 and frame.height == 2
    assert frame.pixels.tolist() == [[0, 128], [255, 7]]


def test_load_frame_header_comments(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n# comment line\n2 1 # trailing\n255\n" + bytes([9, 10]))
    frame = load_frame(path)
    assert frame.pixels.tolist() == [[9, 10]]


def test_load_frame_short_read(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(PgmFormatError, match="short read"):
        load_frame(path)


def test_load_frame_rejects_ascii_variant(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(PgmFormatError, match="unsupported PGM variant"):
        load_frame(path)


def test_load_frame_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n1 1\n100\n\x05")
    with pytest.raises(PgmFormatError, match="maxval"):
        load_frame(path)


@pytest.mark.parametrize("name", ["missing.pgm", "a_directory"])
def test_load_frame_unreadable_path_is_a_pgm_format_error(tmp_path, name):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / name
    with pytest.raises(PgmFormatError, match=f"cannot read PGM file {path}"):
        load_frame(path)


VALID_PGM = b"P5\n4 3\n255\n" + bytes(range(12))


@st.composite
def mutated_pgm(draw):
    """VALID_PGM after a few random byte replacements, insertions, deletions
    and truncations."""
    data = bytearray(VALID_PGM)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        pos = draw(st.integers(0, len(data)))
        if kind == "replace" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=6))
        elif kind == "delete":
            del data[pos : pos + draw(st.integers(1, 4))]
        elif kind == "truncate":
            del data[pos:]
    return bytes(data)


@st.composite
def random_header_pgm(draw):
    """A header of random magic and tokens, then random raster bytes."""
    token = st.one_of(
        st.integers(-3, 10**12).map(lambda v: str(v).encode()),
        st.sampled_from([b"0", b"255", b"#c\n", b"4", b"3"]),
        st.binary(max_size=4),
    )
    magic = draw(st.sampled_from([b"P5", b"P2", b"P6", b"P", b""]))
    sep = draw(st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" #x\n"]))
    tokens = draw(st.lists(token, max_size=4))
    return magic + sep + sep.join(tokens) + sep + draw(st.binary(max_size=24))


@settings(max_examples=400, deadline=None)
@given(data=st.one_of(mutated_pgm(), random_header_pgm()))
def test_load_frame_raises_only_pgm_format_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated.pgm"
    path.write_bytes(data)
    try:
        frame = load_frame(path)
    except PgmFormatError:
        return
    assert frame.pixels.dtype == np.uint8


@settings(max_examples=25, deadline=None)
@given(small_frames)
def test_pgm_round_trip_bit_exact(pixels):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/t.pgm"
        save_frame(Frame(pixels=pixels), path)
        again = load_frame(path)
    assert np.array_equal(again.pixels, pixels)


# -- Contours ------------------------------------------------------------------

def test_contour_closed_needs_three_points():
    with pytest.raises(ValueError):
        Contour(points=np.array([[0.0, 0.0], [1.0, 1.0]]), closed=True)


def test_contour_rejects_consecutive_duplicates():
    with pytest.raises(ValueError):
        Contour(points=np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), closed=True)


def test_contour_text_round_trip(tmp_path):
    pts = np.array([[1.25, 2.5], [3.0, 4.125], [0.5, 0.75]])
    path = tmp_path / "c.txt"
    save_contour(Contour(points=pts, closed=True), path)
    again = load_contour(path)
    assert np.allclose(again.points, pts)
    assert again.closed


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(b"1 2\nabc\n3 4\n", id="not-a-pair"),
        pytest.param(b"1 2\n3 4 5\n6 7\n", id="three-fields"),
        pytest.param(b"1 2\nx 4\n6 7\n", id="not-numbers"),
        pytest.param(b"\n  \n", id="no-points"),
        pytest.param(b"1 2\n3 4\n", id="two-points-closed"),
        pytest.param(b"1 2\n1 2\n3 4\n", id="duplicate-points"),
        pytest.param(b"1 2\n3 4\n\xff\xfe 5\n", id="not-utf8"),
        pytest.param(b"1 2\nnan 4\n6 7\n", id="nan-point"),
        pytest.param(b"1 2\n3 inf\n6 7\n", id="inf-point"),
    ],
)
def test_load_contour_rejects_malformed_text(tmp_path, data):
    path = tmp_path / "c.txt"
    path.write_bytes(data)
    with pytest.raises(ContourFormatError):
        load_contour(path)
    assert issubclass(ContourFormatError, SegmentationError)


@pytest.mark.parametrize("name", ["missing.txt", "a_directory"])
def test_load_contour_unreadable_path_is_a_contour_format_error(tmp_path, name):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / name
    with pytest.raises(ContourFormatError, match=f"cannot read contour file {path}"):
        load_contour(path)


# Tokens float() reads differently from a plain decimal, and ones it rejects.
TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e3, 1e3).map(lambda v: f"{v:.6f}"),
    st.sampled_from([
        "1_0", "1__0", "_1", "\u0661\u0662", "\u0663.\u0665", "infinity", "-Infinity",
        "nan", "-nan", "1e400", "-1e400", "1e-400", "0x1p3", "0x10", "1,5", "1d3", "1j",
        ".", "1.", ".5", "+.5e-3", "abc", "1.5\x00", "nan(1)", "-0",
    ]),
)
# "\x0b" is whitespace to str.split() and a line break to str.splitlines()
SPACES = st.sampled_from([" "] * 8 + ["  ", "\t", "\u00a0", "\u2003", "\x0b"])
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028", "\x85"])


@st.composite
def contour_texts(draw):
    """Contour files: lines of mostly two, sometimes zero, one or three
    tokens between arbitrary whitespace, joined by any line break
    str.splitlines() knows."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        n_tokens = draw(st.sampled_from([2] * 12 + [0, 1, 3]))
        tokens = draw(st.lists(TOKENS, min_size=n_tokens, max_size=n_tokens))
        pad = draw(SPACES) if draw(st.booleans()) else ""
        lines.append(pad + draw(SPACES).join(tokens) + pad)
    text = ""
    for line in lines:
        text += line + draw(BREAKS)
    return text


def _outcome(load, path, closed):
    try:
        c = load(path, closed)
    except ContourFormatError as exc:
        return type(exc), str(exc)
    return c.points.tobytes(), c.points.shape, c.closed


@settings(max_examples=600, deadline=None)
@given(contour_texts(), st.booleans())
@example("1 2\n3 4\n5 6\n", True)
@example("1 2\n3 4 5\n6 7\n", True)
@example("1 2\n3\n", False)
@example("1_0 \u0661\n1e400 2\n3 4\n", False)
@example("0x1p3 1\n", False)
def test_load_contour_matches_the_line_loop(tmp_path_factory, text, closed):
    path = tmp_path_factory.mktemp("text") / "c.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_contour, path, closed) == _outcome(line_loop_load_contour, path, closed)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=20,
))
@example([(-0.0, 0.0000005), (1e300, -1e-300), (2.5e-7, -2.5e-7)])
def test_save_contour_matches_per_point_format(tmp_path_factory, raw):
    pts = [p for i, p in enumerate(raw) if i == 0 or p != raw[i - 1]]
    contour = Contour(points=np.array(pts, dtype=float), closed=False)
    root = tmp_path_factory.mktemp("save")
    save_contour(contour, root / "ours.txt")
    per_point_save_contour(contour, root / "ref.txt")
    assert (root / "ours.txt").read_bytes() == (root / "ref.txt").read_bytes()


# -- Median filter ---------------------------------------------------------------

def test_median_constant_frame_unchanged():
    frame = Frame(pixels=np.full((9, 7), 77, np.uint8))
    assert np.array_equal(median_filter(frame).pixels, frame.pixels)


def test_median_removes_isolated_spike():
    pixels = np.zeros((3, 3), np.uint8)
    pixels[1, 1] = 255
    out = median_filter(Frame(pixels=pixels))
    assert out.pixels[1, 1] == 0


def test_median_salt_noise_on_constant():
    rng = np.random.default_rng(5)
    pixels = np.full((64, 64), 90, np.uint8)
    noisy = pixels.copy()
    idx = rng.random(pixels.shape) < 0.01
    noisy[idx] = 255
    out = median_filter(Frame(pixels=noisy)).pixels
    assert np.array_equal(out, brute_median_filter(noisy, 1))
    assert (out == 90).mean() >= 0.999


def all_window_medians(pixels: np.ndarray, radius: int) -> np.ndarray:
    """window_medians over every pixel of the frame, none excluded."""
    h, w = pixels.shape
    ys, xs = np.divmod(np.arange(h * w), w)
    return window_medians(pixels, None, ys, xs, radius).reshape(h, w)


@settings(max_examples=40, deadline=None)
@given(small_frames)
def test_median_matches_brute_force(pixels):
    out = median_filter(Frame(pixels=pixels)).pixels
    assert np.array_equal(out, brute_median_filter(pixels, 1))


# the ring-down fill takes the windows of radius 3, 5 and 7
@settings(max_examples=40, deadline=None)
@given(small_frames, st.integers(1, 7))
def test_window_medians_match_brute_force(pixels, radius):
    assert np.array_equal(all_window_medians(pixels, radius), brute_median_filter(pixels, radius))


@settings(max_examples=30, deadline=None)
@given(small_frames, st.integers(2, 3), st.integers(1, 400))
def test_median_in_chunks_matches_brute_force(pixels, radius, chunk):
    # a small sort budget splits the pixels into chunks of one or more windows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(imaging, "_WINDOW_CHUNK", chunk)
        out = all_window_medians(pixels, radius)
    assert np.array_equal(out, brute_median_filter(pixels, radius))


# Sorting every (2r+1)^2 window of the frame at once took 95 MiB at r = 6 on
# 384x384; sorting a whole row of windows at once took 84 MiB at r = 60 on a
# 3x1000 frame, whose one row of windows is 28 MiB.
@pytest.mark.parametrize("shape, radius", [((384, 384), 6), ((3, 1000), 60)])
def test_median_memory_does_not_grow_with_the_window(shape, radius):
    pixels = np.random.default_rng(0).integers(0, 256, shape).astype(np.uint8)
    tracemalloc.start()
    try:
        all_window_medians(pixels, radius)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# the radius-1 fast path: sorted columns inside, clamped windows on the border
@st.composite
def palette_frames(draw, shapes):
    # two or three grey levels tie most of a window's values; the frame is
    # drawn from a seeded generator, which mixes the levels more evenly
    # than Hypothesis's shrinking-friendly element draws
    palette = draw(st.lists(st.integers(0, 255), min_size=2, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.asarray(palette, np.uint8), draw(shapes))


# 3xN and Nx3 frames have a single row or column of interior windows
thin_shapes = st.integers(3, 40).flatmap(lambda n: st.sampled_from([(3, n), (n, 3)]))
radius1_frames = st.one_of(
    *(
        arrays(np.uint8, st.tuples(st.integers(3, 16), st.integers(3, 16)), elements=st.integers(0, hi))
        for hi in (255, 3)
    ),
    palette_frames(st.tuples(st.integers(3, 16), st.integers(3, 16)) | thin_shapes),
)


@settings(max_examples=120, deadline=None)
@given(radius1_frames)
def test_median_radius1_matches_brute_force(pixels):
    out = median_filter(Frame(pixels=pixels)).pixels
    assert np.array_equal(out, brute_median_filter(pixels, 1))


@pytest.mark.parametrize("shape", [(3, 3), (3, 11), (11, 3), (3, 40), (40, 3)])
def test_median_radius1_thinnest_frames(shape):
    rng = np.random.default_rng(sum(shape))
    for levels in (256, 2, 3):
        palette = rng.choice(256, levels, replace=False).astype(np.uint8)
        pixels = palette[rng.integers(0, levels, shape)]
        out = median_filter(Frame(pixels=pixels)).pixels
        assert np.array_equal(out, brute_median_filter(pixels, 1))


@settings(max_examples=30, deadline=None)
@given(small_frames)
def test_median_output_values_come_from_input(pixels):
    out = median_filter(Frame(pixels=pixels)).pixels
    assert set(np.unique(out)) <= set(np.unique(pixels))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 255), st.integers(2, 9), st.integers(2, 9))
def test_median_idempotent_on_constants(value, h, w):
    frame = Frame(pixels=np.full((h, w), value, np.uint8))
    once = median_filter(frame)
    twice = median_filter(once)
    assert np.array_equal(once.pixels, twice.pixels)
