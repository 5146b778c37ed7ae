import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import acceptance_phantom_spec
from ivuseg.cli import (
    RunConfig,
    _config_from_args,
    _extract,
    _polygon_mask,
    build_parser,
    main,
    run_batch,
    segment_frame,
)
from ivuseg.errors import ConfigError, SegmentationError
from ivuseg.geometry import Ellipse, ellipse_mask, rasterize_ellipse
from ivuseg.imaging import Frame, load_contour, save_frame
from ivuseg.metrics import jaccard
from ivuseg.phantom import PhantomSpec, generate_phantom


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
        RunConfig(alpha=9.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(amin_frac=0.5, amax_frac=0.1).validate()
    with pytest.raises(ConfigError):
        RunConfig(jobs=0).validate()


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
    assert main(["segment", str(tmp_path), "--outdir", str(tmp_path / "o"), "--alpha", "7"]) == 3


def test_cli_config_file_and_flag_precedence(phantom_dir, tmp_path):
    frames, _ = phantom_dir
    config = tmp_path / "run.conf"
    config.write_text("despeckle_radius=2\ncontour_points=64\n")
    out = tmp_path / "o1"
    code = main([
        "segment", str(frames / "frame_00.pgm"),
        "--config", str(config), "--outdir", str(out),
        "--contour-points", "128",  # flag beats config
    ])
    assert code == 0
    contour = load_contour(out / "frame_00_lumen.txt")
    assert len(contour.points) == 128


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
        lumen_r, media_r, _ = select_regions(series)
        gold_lumen = _polygon_mask(truth.lumen_contour, frame.pixels.shape)
        gold_media = _polygon_mask(truth.media_contour, frame.pixels.shape)
        jm_sel_lumen = jaccard(lumen_r.mask, gold_lumen)
        jm_sel_media = jaccard(media_r.mask, gold_media)
        assert best[stem]["lumen"]["jm"] >= jm_sel_lumen - 1e-12
        assert best[stem]["media"]["jm"] >= jm_sel_media - 1e-12


def test_polygon_mask_matches_ellipse_mask():
    e = Ellipse(40.0, 35.0, 22.0, 13.0, 0.5)
    poly = _polygon_mask(rasterize_ellipse(e, 720), (80, 80))
    direct = ellipse_mask(e, (80, 80))
    # sub-pixel polygonisation can flip boundary pixels only
    assert (poly ^ direct).sum() <= 0.02 * direct.sum()


def test_batch_pullback_ringdown_removal(tmp_path):
    # a real pullback: same vessel, independent speckle, constant ring-down
    # square; the artifact model must locate and fill it in every frame
    from ivuseg.phantom import PhantomSpec, RingDownArtifact, generate_phantom
    from ivuseg.imaging import Sequence, save_frame

    spec = PhantomSpec(
        rng_seed=31,
        artifacts=[RingDownArtifact(x=60, y=52, size=7, intensity=230)],
    )
    seq, truth = generate_phantom(spec, n_frames=12)
    frames_dir = tmp_path / "pullback"
    frames_dir.mkdir()
    for i, frame in enumerate(seq.frames):
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
    from ivuseg.phantom import PhantomSpec, generate_phantom
    from ivuseg.imaging import save_frame

    seq, truth = generate_phantom(PhantomSpec(rng_seed=7), n_frames=8)
    frames_dir = tmp_path / "pullback"
    frames_dir.mkdir()
    for i, frame in enumerate(seq.frames):
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


@settings(max_examples=200, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 64), st.integers(1, 64))))
def test_segment_frame_small_frames_segment_or_raise_segmentation_error(pixels):
    try:
        segment_frame(Frame(pixels=pixels), RunConfig())
    except SegmentationError:
        pass


@st.composite
def valid_configs(draw):
    """A RunConfig whose extraction and selection tunables pass validate()."""
    unit = dict(allow_nan=False, exclude_max=True)
    amin = draw(st.floats(0.0, 1.0, exclude_min=True, **unit), label="amin_frac")
    cfg = RunConfig(
        alpha=draw(st.floats(0.0, 2.5, allow_nan=False), label="alpha"),
        beta=draw(st.integers(1, 8), label="beta"),
        amin_frac=amin,
        amax_frac=draw(st.floats(amin, 1.0, exclude_min=True, allow_nan=False), label="amax_frac"),
        despeckle_radius=draw(st.integers(1, 3), label="despeckle_radius"),
        min_peaks=draw(st.integers(1, 6), label="min_peaks"),
    )
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


def test_cli_alpha_out_of_range_exits_3(tmp_path, capsys):
    code = main(["evaluate", str(tmp_path), "--gold", str(tmp_path),
                 "--outdir", str(tmp_path / "o"), "--alpha", "3"])
    assert code == 3
    assert "alpha must lie in [0, 2.5]" in capsys.readouterr().err


# -- the command line is derived from RunConfig ------------------------------------

# Every flag the tunable subcommands accept; none may be renamed or added.
CLI_FLAGS = {
    "--help", "--gold", "--config", "--outdir", "--mm-per-px", "--alpha", "--beta",
    "--amin-frac", "--amax-frac", "--ringdown-threshold", "--no-ringdown",
    "--min-peaks", "--zmin", "--zmax", "--seed", "--despeckle-radius", "--jobs",
    "--trace", "--contour-points",
}
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
    (["--alpha", "1.5"], "alpha", 1.5),
    (["--beta", "2"], "beta", 2),
    (["--amin-frac", "0.02"], "amin_frac", 0.02),
    (["--amax-frac", "0.5"], "amax_frac", 0.5),
    (["--ringdown-threshold", "100"], "ringdown_threshold", 100),
    (["--no-ringdown"], "no_ringdown", True),
    (["--min-peaks", "2"], "min_peaks", 2),
    (["--zmin", "-2.5"], "z_min", -2.5),
    (["--zmax", "2.5"], "z_max", 2.5),
    (["--seed", "3,4"], "seed", (3, 4)),
    (["--despeckle-radius", "2"], "despeckle_radius", 2),
    (["--jobs", "2"], "jobs", 2),
    (["--trace"], "trace", True),
    (["--contour-points", "64"], "contour_points", 64),
])
def test_cli_flag_sets_exactly_its_field(argv, name, value):
    assert parse(*argv) == replace(DEFAULTS, **{name: value})


def test_cli_config_file_applies_under_the_flags(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# comment\ncontour_points=64\nz-min = -2\nseed=5,6\nno_ringdown=yes\n"
    )
    cfg = parse("--config", str(config), "--contour-points", "128")
    assert cfg == replace(DEFAULTS, contour_points=128, z_min=-2.0, seed=(5, 6), no_ringdown=True)


@pytest.mark.parametrize("text", ["zmin=-2\n", "alpha=abc\n", "alpha\n", "seed=1\n"])
def test_cli_bad_config_file_exits_3(tmp_path, text):
    config = tmp_path / "bad.conf"
    config.write_text(text)
    assert main(["segment", "x", "--config", str(config), "--outdir", str(tmp_path / "o")]) == 3


def test_cli_bad_flag_values():
    with pytest.raises(SystemExit) as usage:
        main(["segment", "x", "--alpha", "abc"])
    assert usage.value.code == 2
    assert main(["segment", "x", "--seed", "3"]) == 3
