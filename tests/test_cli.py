import contextlib
import io
import json
import logging
import re
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import acceptance_phantom_spec
from oracles import brute_polygon_mask
from ivuseg import cli
from ivuseg.cli import (
    RunConfig,
    _config_from_args,
    _extract,
    _load_gold,
    _polygon_mask,
    bestcase_frame,
    build_parser,
    main,
    run_batch,
    segment_frame,
)
from ivuseg.errors import ConfigError, ContourFormatError, SegmentationError
from ivuseg.geometry import Ellipse, ellipse_mask, rasterize_ellipse
from ivuseg.imaging import Contour, Frame, load_contour, load_frame, save_contour, save_frame
from ivuseg.metrics import jaccard
from ivuseg.phantom import PhantomSpec, generate_phantom, load_spec, save_spec


@pytest.fixture(scope="module")
def phantom_dir(tmp_path_factory):
    """Six phantom frames with gold contours, one of them corrupt."""
    root = tmp_path_factory.mktemp("batch")
    frames = root / "frames"
    gold = root / "gold"
    frames.mkdir()
    gold.mkdir()
    for i in range(5):
        spec = acceptance_phantom_spec(i)
        frame, truth = generate_phantom(spec)
        save_frame(frame, frames / f"frame_{i:02d}.pgm")
        from ivuseg.imaging import save_contour

        save_contour(truth.lumen_contour, gold / f"frame_{i:02d}_lumen.txt")
        save_contour(truth.media_contour, gold / f"frame_{i:02d}_media.txt")
    return frames, gold


def test_segment_frame_on_clean_phantom():
    spec = acceptance_phantom_spec(1)
    frame, truth = generate_phantom(spec)
    result = segment_frame(frame, RunConfig())
    shape = frame.pixels.shape
    jm_l = jaccard(ellipse_mask(result.lumen, shape), ellipse_mask(truth.lumen, shape))
    jm_m = jaccard(ellipse_mask(result.media, shape), ellipse_mask(truth.media, shape))
    assert jm_l >= 0.85
    assert jm_m >= 0.70
    assert result.trace["regions_extracted"] >= result.trace["regions_after_outliers"]
    assert result.trace["lumen_index"] <= result.trace["media_index"]


def test_segment_frame_all_black_raises_no_candidates():
    from ivuseg.errors import NoCandidateRegionsError

    frame = Frame(pixels=np.zeros((64, 64), np.uint8))
    with pytest.raises(NoCandidateRegionsError):
        segment_frame(frame, RunConfig())


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(jobs=0).validate()


@pytest.mark.parametrize("pitch", ["0", "inf", "1e308"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_pixel_pitch_must_be_finite_and_positive(tmp_path, capsys, pitch, source):
    # an infinite pitch used to pass and write "hd_mm": Infinity, which is no
    # JSON; so did 1e308, whose distances overflow to infinity
    out = tmp_path / "o"
    args = ["evaluate", str(tmp_path), "--gold", str(tmp_path), "--outdir", str(out)]
    if source == "flag":
        args += ["--mm-per-px", pitch]
    else:
        (tmp_path / "run.conf").write_text(f"mm_per_px={pitch}\n")
        args += ["--config", str(tmp_path / "run.conf")]
    assert main(args) == 3
    assert "mm-per-px must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


def test_batch_outputs_and_metrics(phantom_dir, tmp_path):
    frames, gold = phantom_dir
    outdir = tmp_path / "out"
    cfg = RunConfig(inputs=[frames], gold_dir=gold, outdir=outdir, trace=True, no_ringdown=True)
    summary = run_batch(cfg)
    assert summary.processed == 5
    assert summary.failed == 0
    assert summary.exit_code == 0
    for i in range(5):
        stem = f"frame_{i:02d}"
        assert (outdir / f"{stem}_lumen.txt").exists()
        assert (outdir / f"{stem}_media.txt").exists()
        assert (outdir / f"{stem}_overlay.ppm").exists()
        trace = json.loads((outdir / f"{stem}_trace.json").read_text())
        assert trace["regions_extracted"] > 0
        per_frame = json.loads((outdir / f"{stem}_metrics.json").read_text())
        assert 0.0 <= per_frame["lumen"]["jm"] <= 1.0
    csv_text = (outdir / "summary.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert len(lines) == 6  # header + 5 frames
    assert not any(",," in line[:30] and "jm" in line for line in lines[1:])
    # populated metric columns
    first = lines[1].split(",")
    assert 0.0 <= float(first[2]) <= 1.0


def test_batch_parallel_outputs_byte_identical(phantom_dir, tmp_path):
    frames, gold = phantom_dir
    out1 = tmp_path / "serial"
    out8 = tmp_path / "parallel"
    run_batch(RunConfig(inputs=[frames], gold_dir=gold, outdir=out1, jobs=1, no_ringdown=True))
    run_batch(RunConfig(inputs=[frames], gold_dir=gold, outdir=out8, jobs=4, no_ringdown=True))
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name


def test_batch_continues_past_corrupt_frame(phantom_dir, tmp_path):
    frames, gold = phantom_dir
    broken_dir = tmp_path / "frames"
    broken_dir.mkdir()
    for p in frames.iterdir():
        (broken_dir / p.name).write_bytes(p.read_bytes())
    (broken_dir / "frame_99.pgm").write_bytes(b"P5\n8 8\n255\n\x00\x01")  # truncated
    outdir = tmp_path / "out"
    summary = run_batch(RunConfig(inputs=[broken_dir], outdir=outdir, no_ringdown=True))
    assert summary.processed == 5
    assert summary.failed == 1
    assert summary.exit_code == 2
    record = json.loads((outdir / "frame_99_error.json").read_text())
    assert record["error"] == "PgmFormatError"


def test_cli_segment_exit_codes(phantom_dir, tmp_path, capsys):
    frames, gold = phantom_dir
    out = tmp_path / "cli_out"
    code = main(["segment", str(frames), "--gold", str(gold), "--outdir", str(out), "--no-ringdown"])
    assert code == 0
    assert (out / "summary.csv").exists()


def test_cli_config_error_exit_code(tmp_path):
    assert main(["segment", str(tmp_path), "--outdir", str(tmp_path / "o"), "--jobs", "0"]) == 3


def test_cli_config_file_and_flag_precedence(phantom_dir, tmp_path):
    frames, _ = phantom_dir
    config = tmp_path / "run.conf"
    config.write_text("trace=yes\ncontour_points=64\n")
    out = tmp_path / "o1"
    code = main([
        "segment", str(frames / "frame_00.pgm"),
        "--config", str(config), "--outdir", str(out),
        "--contour-points", "128",  # flag beats config
    ])
    assert code == 0
    contour = load_contour(out / "frame_00_lumen.txt")
    assert len(contour.points) == 128
    assert (out / "frame_00_trace.json").exists()


def test_cli_unknown_config_key(tmp_path, phantom_dir):
    frames, _ = phantom_dir
    config = tmp_path / "bad.conf"
    config.write_text("warp_drive=1\n")
    assert main(["segment", str(frames), "--config", str(config), "--outdir", str(tmp_path / "o")]) == 3


def test_cli_phantom_subcommand(tmp_path):
    out = tmp_path / "ph"
    code = main(["phantom", "--outdir", str(out), "--frames", "3", "--rng-seed", "4"])
    assert code == 0
    pgms = sorted(out.glob("phantom_*.pgm"))
    assert len(pgms) == 3
    from ivuseg.imaging import load_frame

    frame = load_frame(pgms[0])
    assert frame.width == 384
    assert load_contour(out / "phantom_000_lumen.txt").closed
    assert (out / "phantom.spec").exists()


@pytest.mark.parametrize("flags, seed, sigma", [
    ([], 5, 0.2),
    (["--rng-seed", "9"], 9, 0.2),
    (["--sigma", "0.4"], 5, 0.4),
    (["--rng-seed", "9", "--sigma", "0.4"], 9, 0.4),
])
def test_cli_phantom_flags_override_the_spec_file(tmp_path, flags, seed, sigma):
    spec = PhantomSpec(width=96, height=96, lumen=Ellipse(48.0, 48.0, 15.0, 13.0, 0.3),
                       media=Ellipse(48.0, 48.0, 28.0, 25.0, -0.2),
                       rng_seed=5, speckle_sigma=0.2)
    save_spec(spec, tmp_path / "d.spec")
    out = tmp_path / "ph"
    assert main(["phantom", "--spec", str(tmp_path / "d.spec"), "--outdir", str(out), *flags]) == 0
    expected = replace(spec, rng_seed=seed, speckle_sigma=sigma)
    assert load_spec(out / "phantom.spec") == expected
    frame, _ = generate_phantom(expected)
    assert np.array_equal(load_frame(out / "phantom_000.pgm").pixels, frame.pixels)


@pytest.mark.parametrize("args, spec_text, message", [
    (["--frames", "0"], None, "need at least one frame"),
    (["--sigma", "-1"], None, "speckle_sigma must be finite and >= 0"),
    (["--sigma", "nan"], None, "speckle_sigma must be finite and >= 0"),
    (["--sigma", "inf"], None, "speckle_sigma must be finite and >= 0"),
    (["--spec", "bad.spec"], "speckle_sigma=nan\n", "speckle_sigma must be finite and >= 0"),
    (["--spec", "missing.spec"], None, "cannot read spec file"),
    (["--spec", "bad.spec"], "bogus=1\n", "unknown spec key 'bogus'"),
    (["--spec", "bad.spec"], "artifact=shadow:1\n", "needs 3 fields, not 1"),
    (["--spec", "bad.spec"], "layer_means=40,160,70,400\n", "layer means must lie in [0, 255]"),
    (["--spec", "bad.spec"], "artifact=shadow:0.2:1.1:0.6:99\n", "needs 3 fields, not 4"),
    (["--spec", "bad.spec"], "width=abc\n", "bad spec value width='abc'"),
    (["--spec", "bad.spec"], "width\n", "bad spec line 'width'"),
    (["--spec", "bad.spec"], b"\xff\xfe\x00", "is not text"),
])
def test_cli_bad_phantom_arguments_exit_3(tmp_path, capsys, args, spec_text, message):
    if isinstance(spec_text, bytes):
        (tmp_path / "bad.spec").write_bytes(spec_text)
    elif spec_text is not None:
        (tmp_path / "bad.spec").write_text(spec_text)
    args = [str(tmp_path / a) if a.endswith(".spec") else a for a in args]
    out = tmp_path / "ph"
    assert main(["phantom", "--outdir", str(out), *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert message in err
    assert not out.exists()


def test_pool_never_asks_for_more_workers_than_frames(phantom_dir, tmp_path, monkeypatch):
    frames, gold = phantom_dir
    three = tmp_path / "three"
    three.mkdir()
    for path in sorted(frames.glob("*.pgm"))[:3]:
        shutil.copy(path, three / path.name)
    requested = []

    class SerialPool:
        """Records the workers asked for and maps in this process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    out1, out64 = tmp_path / "jobs1", tmp_path / "jobs64"
    for jobs, out in ((1, out1), (64, out64)):
        run_batch(RunConfig(inputs=[three], gold_dir=gold, outdir=out, jobs=jobs, trace=True))
    assert requested == [3]
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out64.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out64 / name).read_bytes(), name


def test_cli_evaluate_reports_aggregate(phantom_dir, tmp_path, capsys):
    frames, gold = phantom_dir
    out = tmp_path / "eval"
    code = main([
        "evaluate", str(frames), "--gold", str(gold), "--outdir", str(out),
        "--mm-per-px", "0.026", "--no-ringdown",
    ])
    assert code == 0
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["all"]["count"] == 5
    assert 0 < agg["all"]["lumen_jm_mean"] <= 1
    assert agg["all"]["lumen_hd_mm_mean"] == pytest.approx(
        agg["all"]["lumen_hd_px_mean"] * 0.026
    )
    printed = capsys.readouterr().out
    assert "lumen JM" in printed


def test_cli_bestcase_dominates_selection(phantom_dir, tmp_path):
    frames, gold = phantom_dir
    out_best = tmp_path / "best"
    code = main(["bestcase", str(frames), "--gold", str(gold), "--outdir", str(out_best), "--no-ringdown"])
    assert code == 0
    best = {e["frame"]: e for e in json.loads((out_best / "bestcase.json").read_text())}
    assert len(best) == 5
    # best-case JM must dominate the selected region's JM per frame
    for i in range(5):
        stem = f"frame_{i:02d}"
        spec = acceptance_phantom_spec(i)
        frame, truth = generate_phantom(spec)
        from ivuseg.selection import select_regions

        _, _, series = _extract(frame, RunConfig(), None)
        lumen_i, media_i, _ = select_regions(series)
        gold_lumen = _polygon_mask(truth.lumen_contour, frame.pixels.shape)
        gold_media = _polygon_mask(truth.media_contour, frame.pixels.shape)
        jm_sel_lumen = jaccard(series.mask(lumen_i), gold_lumen)
        jm_sel_media = jaccard(series.mask(media_i), gold_media)
        assert best[stem]["lumen"]["jm"] >= jm_sel_lumen - 1e-12
        assert best[stem]["media"]["jm"] >= jm_sel_media - 1e-12


@pytest.mark.parametrize("i", [0, 3])
def test_bestcase_jm_is_the_region_mask_loop_maximum(phantom_dir, i):
    frames, gold_dir = phantom_dir
    stem = f"frame_{i:02d}"
    frame = load_frame(frames / f"{stem}.pgm")
    gold = _load_gold(gold_dir, stem, frame.pixels.shape)
    cfg = RunConfig(no_ringdown=True)
    best = bestcase_frame(frame, cfg, gold)
    _, _, series = _extract(frame, cfg, None)
    for name, mask in (("lumen", gold.lumen_mask), ("media", gold.media_mask)):
        jms = [jaccard(series.mask(i), mask) for i in range(len(series))]
        idx = jms.index(max(jms))
        assert (best[name]["index"], best[name]["jm"]) == (idx, jms[idx])


def test_polygon_mask_matches_ellipse_mask():
    e = Ellipse(40.0, 35.0, 22.0, 13.0, 0.5)
    poly = _polygon_mask(rasterize_ellipse(e, 720), (80, 80))
    direct = ellipse_mask(e, (80, 80))
    # sub-pixel polygonisation can flip boundary pixels only
    assert (poly ^ direct).sum() <= 0.02 * direct.sum()


@st.composite
def polygons(draw):
    """Closed polygons around and beyond a small frame; integer and
    half-integer vertices put vertices on pixel rows and make horizontal
    edges likely."""
    coord = st.one_of(
        st.integers(-12, 52).map(lambda v: v / 2),
        st.floats(-8, 28, allow_nan=False),
    )
    raw = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=30))
    pts = [p for i, p in enumerate(raw) if i == 0 or p != raw[i - 1]]
    assume(len(pts) >= 3)
    return Contour(points=np.array(pts, dtype=float), closed=True)


@settings(max_examples=300, deadline=None)
@given(polygons(), st.tuples(st.integers(1, 24), st.integers(1, 24)))
def test_polygon_mask_matches_row_loop(contour, shape):
    assert np.array_equal(_polygon_mask(contour, shape), brute_polygon_mask(contour, shape))


def test_batch_pullback_ringdown_removal(tmp_path):
    # a real pullback: same vessel, independent speckle, constant ring-down
    # square; the artifact model must locate and fill it in every frame
    from ivuseg.phantom import PhantomSpec, RingDownArtifact, generate_phantom
    from ivuseg.imaging import save_frame

    spec = PhantomSpec(
        rng_seed=31,
        artifacts=[RingDownArtifact(x=60, y=52, size=7, intensity=230)],
    )
    frames, truth = generate_phantom(spec, n_frames=12)
    frames_dir = tmp_path / "pullback"
    frames_dir.mkdir()
    for i, frame in enumerate(frames):
        save_frame(frame, frames_dir / f"f_{i:02d}.pgm")
    outdir = tmp_path / "out"
    # multiplicative phantom speckle never darkens bright tissue to the
    # clinical default threshold; pick one between tissue and the square
    summary = run_batch(
        RunConfig(inputs=[frames_dir], outdir=outdir, trace=True, ringdown_threshold=150)
    )
    assert summary.failed == 0
    assert summary.processed == 12
    # lumen stays accurate with the artifact model active
    trace = json.loads((outdir / "f_00_trace.json").read_text())
    assert trace["regions_extracted"] > 0
    first = load_contour(outdir / "f_00_lumen.txt")
    truth_pts = truth.lumen_contour.points
    centre_auto = first.points.mean(axis=0)
    centre_true = truth_pts.mean(axis=0)
    assert np.hypot(*(centre_auto - centre_true)) < 10


def test_batch_skips_implausible_artifact_model(tmp_path, capsys):
    # phantom speckle is multiplicative, so bright tissue never darkens to
    # the clinical default threshold in the minimum image; the batch must
    # refuse to treat most of the frame as a catheter artifact
    from ivuseg.phantom import PhantomSpec, generate_phantom, load_spec, save_spec
    from ivuseg.imaging import save_frame

    frames, truth = generate_phantom(PhantomSpec(rng_seed=7), n_frames=8)
    frames_dir = tmp_path / "pullback"
    frames_dir.mkdir()
    for i, frame in enumerate(frames):
        save_frame(frame, frames_dir / f"f_{i:02d}.pgm")
    gold_dir = tmp_path / "gold"
    gold_dir.mkdir()
    from ivuseg.imaging import save_contour

    for i in range(8):
        save_contour(truth.lumen_contour, gold_dir / f"f_{i:02d}_lumen.txt")
        save_contour(truth.media_contour, gold_dir / f"f_{i:02d}_media.txt")
    outdir = tmp_path / "out"
    summary = run_batch(RunConfig(inputs=[frames_dir], gold_dir=gold_dir, outdir=outdir))
    assert summary.failed == 0
    agg_jm = [r.lumen.jm for r in summary.reports]
    assert np.mean(agg_jm) > 0.85  # removal skipped, segmentation intact


def test_empty_artifact_mask_gives_no_model(tmp_path, monkeypatch):
    # a threshold the minimum image never reaches masks nothing: the frames
    # get no artifact model, and write what --no-ringdown writes
    frames, _ = generate_phantom(PhantomSpec(rng_seed=5), n_frames=3)
    frames[0] = Frame(pixels=np.minimum(frames[0].pixels, 254))
    frames_dir = tmp_path / "pullback"
    frames_dir.mkdir()
    for i, frame in enumerate(frames):
        save_frame(frame, frames_dir / f"f_{i:02d}.pgm")
    models = []
    original = cli.segment_frame

    def spy(frame, cfg, artifact_model=None):
        models.append(artifact_model)
        return original(frame, cfg, artifact_model)

    monkeypatch.setattr(cli, "segment_frame", spy)
    outputs = {}
    for name, kwargs in (("empty", {"ringdown_threshold": 255}), ("off", {"no_ringdown": True})):
        outdir = tmp_path / name
        summary = run_batch(RunConfig(inputs=[frames_dir], outdir=outdir, trace=True, **kwargs))
        assert summary.failed == 0
        outputs[name] = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    assert models == [None] * 6
    assert len(outputs["empty"]) == 12 and outputs["empty"] == outputs["off"]


def test_artifact_model_warnings_go_through_logging(tmp_path, caplog, capsys):
    single = tmp_path / "single"
    single.mkdir()
    save_frame(Frame(pixels=np.array([[1, 2], [3, 4]], np.uint8)), single / "tiny.pgm")
    text = (
        "only 1 frame loaded; skipping ring-down removal "
        "(sequence minimum needs at least 2 frames)"
    )
    with caplog.at_level(logging.WARNING, logger="ivuseg.cli"):
        run_batch(RunConfig(inputs=[single], outdir=tmp_path / "batch"))
    records = [r for r in caplog.records if r.name == "ivuseg.cli"]
    assert [(r.levelno, r.getMessage()) for r in records] == [(logging.WARNING, text)]
    assert capsys.readouterr().err == ""
    # the command line still prints it on stderr, with its prefix
    assert main(["segment", str(single), "--outdir", str(tmp_path / "cli")]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"warning: {text}"


@pytest.mark.parametrize("present", [0, 1])
def test_artifact_model_warning_counts_the_loaded_frames(tmp_path, caplog, present):
    # two inputs, of which `present` load: with none loaded each input has its
    # error record and there is nothing to warn about; with one, the warning
    # names the one frame loaded, not the two inputs
    inputs = [tmp_path / "a.pgm", tmp_path / "b.pgm"]
    for path in inputs[:present]:
        save_frame(Frame(pixels=np.array([[1, 2], [3, 4]], np.uint8)), path)
    with caplog.at_level(logging.WARNING, logger="ivuseg.cli"):
        summary = run_batch(RunConfig(inputs=inputs, outdir=tmp_path / "out"))
    assert summary.failed == 2  # a 2x2 frame has no candidate regions either
    messages = [r.getMessage() for r in caplog.records if r.name == "ivuseg.cli"]
    if present:
        assert messages == [
            "only 1 frame loaded; skipping ring-down removal "
            "(sequence minimum needs at least 2 frames)"
        ]
    else:
        assert messages == []


@settings(max_examples=200, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 64), st.integers(1, 64))))
def test_segment_frame_small_frames_segment_or_raise_segmentation_error(pixels):
    try:
        segment_frame(Frame(pixels=pixels), RunConfig())
    except SegmentationError:
        pass


@st.composite
def valid_configs(draw):
    """A RunConfig whose extraction tunables pass validate(): a seed that
    may lie outside the frame, which is the frame's ConfigError."""
    seed = st.tuples(st.integers(0, 70), st.integers(0, 70))
    cfg = RunConfig(seed=draw(st.none() | seed, label="seed"))
    cfg.validate()
    return cfg


@settings(max_examples=150, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 64), st.integers(1, 64))), valid_configs())
def test_segment_frame_any_valid_config_segments_or_raises_segmentation_error(pixels, cfg):
    try:
        segment_frame(Frame(pixels=pixels), cfg)
    except SegmentationError:
        pass


@pytest.fixture(scope="module")
def mixed_size_dir(phantom_dir, tmp_path_factory):
    """Two phantom frames and a 2x2 frame too small for any area band."""
    frames, _ = phantom_dir
    root = tmp_path_factory.mktemp("mixed")
    for name in ("frame_00.pgm", "frame_01.pgm"):
        (root / name).write_bytes((frames / name).read_bytes())
    save_frame(Frame(pixels=np.array([[1, 2], [3, 4]], np.uint8)), root / "tiny.pgm")
    return root


@pytest.mark.parametrize("ringdown", [[], ["--no-ringdown"]])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cli_tiny_frame_fails_alone(mixed_size_dir, tmp_path, jobs, ringdown):
    out = tmp_path / "out"
    code = main(["segment", str(mixed_size_dir), "--outdir", str(out), "--jobs", jobs, *ringdown])
    assert code == 2
    for stem in ("frame_00", "frame_01"):
        for suffix in ("lumen.txt", "media.txt", "overlay.ppm"):
            assert (out / f"{stem}_{suffix}").exists()
    record = json.loads((out / "tiny_error.json").read_text())
    assert record["error"] == "NoCandidateRegionsError"


def test_cli_bestcase_honours_jobs_and_reports_failures(phantom_dir, tmp_path, capsys):
    frames, gold = phantom_dir
    inputs = tmp_path / "frames"
    inputs.mkdir()
    for name in ("frame_00.pgm", "frame_01.pgm"):
        (inputs / name).write_bytes((frames / name).read_bytes())
    (inputs / "frame_98.pgm").write_bytes((frames / "frame_02.pgm").read_bytes())  # no gold
    (inputs / "frame_99.pgm").write_bytes(b"P5\n8 8\n255\n\x00\x01")  # truncated
    runs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        code = main([
            "bestcase", str(inputs), "--gold", str(gold), "--outdir", str(out),
            "--no-ringdown", "--jobs", jobs,
        ])
        assert code == 2
        runs[jobs] = (sorted(p.name for p in out.iterdir()),
                      (out / "bestcase.json").read_bytes(), capsys.readouterr())
    assert runs["1"] == runs["2"]
    names, best, printed = runs["1"]
    assert names == ["bestcase.json"]
    assert [e["frame"] for e in json.loads(best)] == ["frame_00", "frame_01"]
    errors = printed.err.splitlines()
    assert "frame_98: missing gold contours" in errors
    assert any(line.startswith(f"{inputs / 'frame_99.pgm'}: ") for line in errors)
    assert "best-case over 2 frame(s)" in printed.out


@pytest.mark.parametrize("x, y, ok", [
    (-40, 5, True), (80, 5, True), (5, -30, True), (5, 60, True),
    (-40.5, 5, False), (80.5, 5, False), (5, -30.5, False), (5, 60.5, False),
])
def test_gold_may_reach_one_frame_size_outside_the_frame(tmp_path, x, y, ok):
    for part in ("lumen", "media"):
        (tmp_path / f"f_{part}.txt").write_text(f"1 1\n10 1\n{x} {y}\n")
    if ok:
        assert _load_gold(tmp_path, "f", (30, 40)) is not None
    else:
        with pytest.raises(ContourFormatError, match="outside the 40x30 frame"):
            _load_gold(tmp_path, "f", (30, 40))


@pytest.mark.parametrize("part", ["lumen", "media"])
def test_gold_that_covers_no_pixel_centre_is_rejected(tmp_path, part):
    for name in ("lumen", "media"):
        (tmp_path / f"f_{name}.txt").write_text("1 1\n10 1\n5 8\n")
    path = tmp_path / f"f_{part}.txt"
    path.write_text("10.1 10.1\n10.3 10.1\n10.2 10.3\n")
    with pytest.raises(ContourFormatError, match="covers no pixel centre of the 40x30 frame"):
        _load_gold(tmp_path, "f", (30, 40))


@pytest.fixture(scope="module")
def bad_gold_demo(tmp_path_factory):
    """Three demo frames with gold; the middle frame's media file has a bad line."""
    root = tmp_path_factory.mktemp("bad_gold")
    assert main(["phantom", "--outdir", str(root), "--frames", "3", "--rng-seed", "7"]) == 0
    media = root / "phantom_001_media.txt"
    media.write_text(media.read_text() + "abc\n")
    return root


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_malformed_gold_fails_only_its_frame(bad_gold_demo, tmp_path, capsys, jobs):
    out = tmp_path / "eval"
    code = main(["evaluate", str(bad_gold_demo), "--gold", str(bad_gold_demo),
                 "--outdir", str(out), "--jobs", jobs])
    assert code == 2
    names = sorted(p.name for p in out.iterdir())
    assert [n for n in names if n.startswith("phantom_001")] == ["phantom_001_error.json"]
    record = json.loads((out / "phantom_001_error.json").read_text())
    assert record["error"] == "ContourFormatError"
    assert "abc" in record["message"]
    for stem in ("phantom_000", "phantom_002"):
        for suffix in ("lumen.txt", "media.txt", "metrics.json", "overlay.ppm"):
            assert (out / f"{stem}_{suffix}").exists()
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["phantom_000", "phantom_002"]
    assert "frames 2:" in capsys.readouterr().out

    best = tmp_path / "best"
    code = main(["bestcase", str(bad_gold_demo), "--gold", str(bad_gold_demo),
                 "--outdir", str(best), "--jobs", jobs])
    assert code == 2
    entries = json.loads((best / "bestcase.json").read_text())
    assert [e["frame"] for e in entries] == ["phantom_000", "phantom_002"]
    errors = capsys.readouterr().err.splitlines()
    assert any(line.startswith("phantom_001: bad contour line 'abc'") for line in errors)


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _outputs(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in outdir.iterdir()}


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def test_batch_outputs_are_strict_json(tmp_path):
    # every *.json the batch commands write must parse without NaN/Infinity
    demo = tmp_path / "demo"
    assert _run_quietly(["phantom", "--outdir", str(demo), "--frames", "2",
                         "--rng-seed", "7"])[0] == 0
    runs = {
        "segment": (["--trace"], 4),
        "evaluate": (["--mm-per-px", "0.026", "--trace"], 5),
        "bestcase": ([], 1),
    }
    for command, (extra, count) in runs.items():
        out = tmp_path / command
        code, _ = _run_quietly([command, str(demo), "--gold", str(demo),
                                "--outdir", str(out), *extra])
        assert code == 0
        written = sorted(out.rglob("*.json"))
        assert len(written) == count, [p.name for p in written]
        for path in written:
            json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.fixture(scope="module")
def small_demo(tmp_path_factory):
    """Three 96x96 phantom frames f1, f3, f5 with gold, and the outputs and
    stdout of evaluate and bestcase on those three alone."""
    root = tmp_path_factory.mktemp("small_demo")
    good = root / "good"
    good.mkdir()
    for i, stem in enumerate(("f1", "f3", "f5")):
        spec = PhantomSpec(
            width=96, height=96, rng_seed=i,
            lumen=Ellipse(48.0, 48.0, 15.0, 13.0, 0.3),
            media=Ellipse(48.0, 48.0, 29.0, 26.0, -0.2),
        )
        frame, truth = generate_phantom(spec)
        save_frame(frame, good / f"{stem}.pgm")
        save_contour(truth.lumen_contour, good / f"{stem}_lumen.txt")
        save_contour(truth.media_contour, good / f"{stem}_media.txt")
    ref = {}
    for command in ("evaluate", "bestcase"):
        out = root / command
        code, stdout = _run_quietly([command, str(good), "--gold", str(good),
                                     "--outdir", str(out), "--no-ringdown"])
        assert code == 0
        ref[command] = (_outputs(out), stdout)
    return good, ref


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("case", ["missing-frame", "gold-directory"])
def test_unreadable_file_fails_only_its_frame(small_demo, tmp_path, case, jobs):
    # a frame f2 named between f1 and f3: its input file is missing, or its
    # media gold path is a directory
    good, ref = small_demo
    inputs = tmp_path / "in"
    shutil.copytree(good, inputs)
    if case == "missing-frame":
        bad, named = inputs / "f2.pgm", str(inputs / "f2.pgm")
        record = "PgmFormatError", f"cannot read PGM file {bad}"
    else:
        for name in ("f1.pgm", "f1_lumen.txt"):
            shutil.copy(inputs / name, inputs / name.replace("f1", "f2"))
        bad, named = inputs / "f2_media.txt", "f2"
        bad.mkdir()
        record = "ContourFormatError", f"cannot read contour file {bad}"
    frames = [str(inputs / f"{stem}.pgm") for stem in ("f1", "f2", "f3", "f5")]
    for command in ("evaluate", "bestcase"):
        out = tmp_path / command
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, *frames, "--gold", str(inputs), "--outdir", str(out),
                         "--no-ringdown", "--jobs", jobs])
        assert code == 2
        outputs = _outputs(out)
        ref_outputs, ref_stdout = ref[command]
        assert stdout.getvalue() == ref_stdout
        if command == "evaluate":
            error = json.loads(outputs.pop("f2_error.json"))
            assert (error["error"], error["message"].startswith(record[1])) == (record[0], True)
        else:
            assert stderr.getvalue().startswith(f"{named}: {record[1]}")
        assert outputs == ref_outputs


def _polygon_text(pts) -> str:
    return "".join(f"{x!r} {y!r}\n" for x, y in pts)


@st.composite
def zero_area_gold(draw):
    """Polygons that cover no pixel centre of a 96x96 frame: collinear on
    integer points (so the fill's crossings are exact), inside one open
    pixel cell, or wholly beside the frame within one frame size of it."""
    kind = draw(st.sampled_from(["collinear", "sub-pixel", "off-frame"]))
    if kind == "collinear":
        x0, y0 = draw(st.integers(10, 85)), draw(st.integers(10, 85))
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (1, 3)]))
        ts = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=8))
        pts = [(float(x0 + t * dx), float(y0 + t * dy)) for t in ts]
    elif kind == "sub-pixel":
        cx, cy = draw(st.integers(0, 95)), draw(st.integers(0, 95))
        frac = st.floats(0.01, 0.99)
        pts = draw(st.lists(st.tuples(frac, frac), min_size=3, max_size=6))
        pts = [(cx + u, cy + v) for u, v in pts]
    else:
        side = draw(st.sampled_from(["left", "right", "above", "below"]))
        along, away = st.floats(-90, 185), st.floats(0.01, 90)
        pts = draw(st.lists(st.tuples(along, away), min_size=3, max_size=6))
        pts = [{"left": (-d, a), "right": (95 + d, a), "above": (a, -d),
                "below": (a, 95 + d)}[side] for a, d in pts]
    pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    assume(len(pts) >= 3)
    return _polygon_text(pts)


@st.composite
def bad_frames(draw):
    """(kind, detail): a truncated PGM cut at some byte, a 2x2 frame, a good
    frame with a malformed line appended to its lumen or media gold, or one
    whose lumen or media gold is replaced by a polygon that covers no pixel
    centre."""
    kind = draw(st.sampled_from(["truncated", "tiny", "gold", "gold-area"]))
    if kind == "truncated":
        return kind, draw(st.integers(0, len(b"P5\n96 96\n255\n") + 96 * 96 - 1))
    if kind == "gold":
        part = draw(st.sampled_from(["lumen", "media"]))
        text = draw(st.sampled_from(["abc\n", "nan 3\n", "1 2 3\n", "1e12 5\n"]))
        return kind, (part, text)
    if kind == "gold-area":
        return kind, (draw(st.sampled_from(["lumen", "media"])), draw(zero_area_gold()))
    return kind, None


@settings(max_examples=16, deadline=None)
@given(bad_frames(), st.integers(0, 3), st.sampled_from(["1", "2"]))
@example(("truncated", 20), 0, "2")
@example(("tiny", None), 3, "1")
@example(("gold", ("media", "nan 3\n")), 1, "2")
@example(("gold", ("media", "1e12 5\n")), 2, "1")
@example(("gold-area", ("media", "10.1 10.1\n10.3 10.1\n10.2 10.3\n")), 1, "1")
@example(("gold-area", ("lumen", "20 20\n21 21\n23 23\n21 21\n")), 3, "2")
def test_bad_frame_never_costs_the_others_their_outputs(small_demo, bad, position, jobs):
    good, ref = small_demo
    kind, detail = bad
    stem = f"f{2 * position}"  # sorts before, between or after f1, f3, f5
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "in"
        inputs.mkdir()
        for p in good.iterdir():
            (inputs / p.name).write_bytes(p.read_bytes())
        for part in ("lumen", "media"):
            (inputs / f"{stem}_{part}.txt").write_bytes((good / f"f1_{part}.txt").read_bytes())
        frame_bytes = (good / "f1.pgm").read_bytes()
        if kind == "truncated":
            frame_bytes = frame_bytes[:detail]
        elif kind == "tiny":
            frame_bytes = b"P5\n2 2\n255\n\x01\x02\x03\x04"
        elif kind == "gold":
            part, text = detail
            gold = inputs / f"{stem}_{part}.txt"
            gold.write_text(gold.read_text() + text)
        else:
            part, text = detail
            (inputs / f"{stem}_{part}.txt").write_text(text)
        (inputs / f"{stem}.pgm").write_bytes(frame_bytes)

        for command in ("evaluate", "bestcase"):
            out = Path(tmp) / command
            code, stdout = _run_quietly([command, str(inputs), "--gold", str(inputs),
                                         "--outdir", str(out), "--no-ringdown", "--jobs", jobs])
            assert code == 2
            outputs = _outputs(out)
            ref_outputs, ref_stdout = ref[command]
            assert stdout == ref_stdout
            if command == "evaluate":
                error = json.loads(outputs.pop(f"{stem}_error.json"))
                assert error["frame"] == stem
                if kind == "gold-area":
                    assert error["error"] == "ContourFormatError"
                    assert "covers no pixel centre" in error["message"]
            assert outputs == ref_outputs


# -- the command line is derived from RunConfig ------------------------------------

# Every flag the tunable subcommands accept; none may be renamed or added.
CLI_FLAGS = {
    "--help", "--gold", "--config", "--outdir", "--mm-per-px", "--ringdown-threshold",
    "--no-ringdown", "--seed", "--jobs", "--trace", "--contour-points",
}
# Flags and config keys of settings that are fixed constants now.
REMOVED_FLAGS = ["--amin-frac", "--amax-frac", "--min-peaks", "--zmin", "--zmax",
                 "--despeckle-radius", "--alpha", "--beta"]
REMOVED_KEYS = ["amin_frac", "amax_frac", "min_peaks", "z_min", "z_max", "despeckle_radius",
                "alpha", "beta"]
DEFAULTS = RunConfig(inputs=[Path("x")])


def parse(*argv):
    return _config_from_args(build_parser().parse_args(["segment", "x", *argv]))


@pytest.mark.parametrize("command", ["segment", "evaluate", "bestcase"])
def test_cli_flag_spellings(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == CLI_FLAGS


def test_cli_without_flags_gives_run_config_defaults():
    assert parse() == DEFAULTS


@pytest.mark.parametrize("argv, name, value", [
    (["--gold", "g"], "gold_dir", Path("g")),
    (["--outdir", "o"], "outdir", Path("o")),
    (["--mm-per-px", "0.026"], "mm_per_px", 0.026),
    (["--ringdown-threshold", "100"], "ringdown_threshold", 100),
    (["--no-ringdown"], "no_ringdown", True),
    (["--seed", "3,4"], "seed", (3, 4)),
    (["--jobs", "2"], "jobs", 2),
    (["--trace"], "trace", True),
    (["--contour-points", "64"], "contour_points", 64),
])
def test_cli_flag_sets_exactly_its_field(argv, name, value):
    assert parse(*argv) == replace(DEFAULTS, **{name: value})


def test_cli_config_file_applies_under_the_flags(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# comment\ncontour_points=64\nmm-per-px = 0.02\nseed=5,6\nno_ringdown=yes\n"
    )
    cfg = parse("--config", str(config), "--contour-points", "128")
    assert cfg == replace(DEFAULTS, contour_points=128, mm_per_px=0.02, seed=(5, 6),
                          no_ringdown=True)


@pytest.mark.parametrize("flag", REMOVED_FLAGS)
def test_cli_removed_flags_are_argparse_errors(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["segment", "x", flag, "1"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_cli_removed_config_keys_are_unknown(tmp_path, capsys, key):
    config = tmp_path / "old.conf"
    config.write_text(f"{key}=1\n")
    assert main(["segment", "x", "--config", str(config), "--outdir", str(tmp_path / "o")]) == 3
    assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_cli_config_file_that_is_not_text_exits_3(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_bytes(b"\xff\xfe\x00")
    out = tmp_path / "o"
    assert main(["segment", "x", "--config", str(config), "--outdir", str(out)]) == 3
    assert f"config file {config} is not text" in capsys.readouterr().err
    assert not out.exists()


# a bad config file's line, and the message that names what is wrong with it
BAD_CONFIG_LINES = {
    "zmin=-2\n": "unknown config key 'zmin'",
    "jobs=abc\n": "bad config value jobs='abc'",
    "jobs\n": "bad config line 'jobs'",
    "seed=1\n": "bad config value seed='1': expected x,y",
}


@pytest.mark.parametrize("text", BAD_CONFIG_LINES)
def test_cli_bad_config_file_exits_3(tmp_path, capsys, text):
    config = tmp_path / "bad.conf"
    config.write_text(text)
    assert main(["segment", "x", "--config", str(config), "--outdir", str(tmp_path / "o")]) == 3
    assert BAD_CONFIG_LINES[text] in capsys.readouterr().err


@pytest.mark.parametrize("text", ["no_ringdown=ture\n", "trace=maybe\n", "trace=\n"])
def test_cli_config_boolean_must_be_a_boolean(tmp_path, capsys, text):
    config = tmp_path / "bad.conf"
    config.write_text(text)
    assert main(["segment", "x", "--config", str(config), "--outdir", str(tmp_path / "o")]) == 3
    assert "bad config value" in capsys.readouterr().err


@pytest.mark.parametrize("text, value", [
    ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False), ("NO", False),
])
def test_cli_config_boolean_spellings(tmp_path, text, value):
    config = tmp_path / "run.conf"
    config.write_text(f"no_ringdown={text}\ntrace={text}\n")
    assert parse("--config", str(config)) == replace(DEFAULTS, no_ringdown=value, trace=value)


@pytest.mark.parametrize("command", ["segment", "evaluate", "bestcase"])
def test_inputs_sharing_a_stem_are_rejected_before_any_frame_runs(
    small_demo, tmp_path, capsys, command
):
    good = small_demo[0]
    other = tmp_path / "other"
    other.mkdir()
    shutil.copy(good / "f3.pgm", other / "f1.pgm")
    out = tmp_path / "out"
    code = main([command, str(good), str(other), "--gold", str(good), "--outdir", str(out),
                 "--no-ringdown", "--jobs", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert str(good / "f1.pgm") in err and str(other / "f1.pgm") in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["segment", "evaluate", "bestcase"])
def test_outdir_that_is_a_file_is_rejected_before_any_frame_loads(
    small_demo, tmp_path, capsys, monkeypatch, command
):
    out = tmp_path / "out"
    out.write_text("a file\n")
    monkeypatch.setattr(cli, "load_frame", lambda path: pytest.fail(f"{path} was loaded"))
    code = main([command, str(small_demo[0]), "--gold", str(small_demo[0]),
                 "--outdir", str(out), "--no-ringdown"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(out) in err
    assert out.read_text() == "a file\n"


def test_phantom_outdir_that_is_a_file_exits_3(tmp_path, capsys):
    out = tmp_path / "ph"
    out.write_text("a file\n")
    assert main(["phantom", "--outdir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(out) in err
    assert out.read_text() == "a file\n"


@pytest.mark.parametrize("command", ["segment", "evaluate", "bestcase"])
def test_missing_gold_directory_is_rejected_before_any_frame_runs(
    small_demo, tmp_path, capsys, monkeypatch, command
):
    gold = tmp_path / "no_such_gold"
    out = tmp_path / "out"
    monkeypatch.setattr(cli, "load_frame", lambda path: pytest.fail(f"{path} was loaded"))
    code = main([command, str(small_demo[0]), "--gold", str(gold), "--outdir", str(out),
                 "--no-ringdown"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(gold) in err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1,5", "5,-1"])
def test_negative_seed_is_rejected_before_any_frame_runs(small_demo, tmp_path, capsys, seed):
    out = tmp_path / "out"
    code = main(["segment", str(small_demo[0]), "--no-ringdown", f"--seed={seed}",
                 "--outdir", str(out)])
    assert code == 3
    assert "seed coordinates must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_seed_past_the_frame_fails_each_frame(small_demo, tmp_path):
    # frames may differ in size, so only the frame can tell its seed is outside
    out = tmp_path / "out"
    code, _ = _run_quietly(["segment", str(small_demo[0]), "--no-ringdown", "--seed=96,5",
                            "--outdir", str(out)])
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == [f"f{i}_error.json" for i in (1, 3, 5)]


def test_cli_bad_flag_values(capsys):
    with pytest.raises(SystemExit) as usage:
        main(["segment", "x", "--jobs", "abc"])
    assert usage.value.code == 2
    capsys.readouterr()
    assert main(["segment", "x", "--seed", "3"]) == 3
    assert "bad --seed value '3'; expected x,y" in capsys.readouterr().err
