import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ivuseg.errors import ContourFormatError, PgmFormatError, SegmentationError
from ivuseg.imaging import (
    Contour,
    Frame,
    Sequence,
    frame_center,
    load_contour,
    load_frame,
    median_filter,
    save_contour,
    save_frame,
)
from oracles import brute_median_filter

small_frames = arrays(
    np.uint8,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(0, 255),
)


# -- Frame / Sequence basics -------------------------------------------------

def test_frame_rejects_out_of_range():
    with pytest.raises(ValueError):
        Frame(pixels=np.array([[300]], dtype=np.int32))


def test_frame_rejects_empty():
    with pytest.raises(ValueError):
        Frame(pixels=np.zeros((0, 4), dtype=np.uint8))


def test_sequence_rejects_mixed_sizes():
    a = Frame(pixels=np.zeros((4, 4), dtype=np.uint8))
    b = Frame(pixels=np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(Exception):
        Sequence(frames=[a, b])


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
    assert frame.mm_per_px is None


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
    ],
)
def test_load_contour_rejects_malformed_text(tmp_path, data):
    path = tmp_path / "c.txt"
    path.write_bytes(data)
    with pytest.raises(ContourFormatError):
        load_contour(path)
    assert issubclass(ContourFormatError, SegmentationError)


# -- Median filter ---------------------------------------------------------------

def test_median_constant_frame_unchanged():
    frame = Frame(pixels=np.full((9, 7), 77, np.uint8))
    assert np.array_equal(median_filter(frame, 1).pixels, frame.pixels)


def test_median_removes_isolated_spike():
    pixels = np.zeros((3, 3), np.uint8)
    pixels[1, 1] = 255
    out = median_filter(Frame(pixels=pixels), 1)
    assert out.pixels[1, 1] == 0


def test_median_salt_noise_on_constant():
    rng = np.random.default_rng(5)
    pixels = np.full((64, 64), 90, np.uint8)
    noisy = pixels.copy()
    idx = rng.random(pixels.shape) < 0.01
    noisy[idx] = 255
    out = median_filter(Frame(pixels=noisy), 1).pixels
    assert np.array_equal(out, brute_median_filter(noisy, 1))
    assert (out == 90).mean() >= 0.999


def test_median_rejects_zero_radius():
    with pytest.raises(ValueError):
        median_filter(Frame(pixels=np.zeros((3, 3), np.uint8)), 0)


@settings(max_examples=40, deadline=None)
@given(small_frames, st.integers(1, 3))
def test_median_matches_brute_force(pixels, radius):
    out = median_filter(Frame(pixels=pixels), radius).pixels
    assert np.array_equal(out, brute_median_filter(pixels, radius))


@settings(max_examples=30, deadline=None)
@given(small_frames)
def test_median_output_values_come_from_input(pixels):
    out = median_filter(Frame(pixels=pixels), 1).pixels
    assert set(np.unique(out)) <= set(np.unique(pixels))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 255), st.integers(2, 9), st.integers(2, 9))
def test_median_idempotent_on_constants(value, h, w):
    frame = Frame(pixels=np.full((h, w), value, np.uint8))
    once = median_filter(frame, 1)
    twice = median_filter(once, 1)
    assert np.array_equal(once.pixels, twice.pixels)
