"""Benchmark of the ivuseg pipeline on seeded phantom workloads.

Run from the repository root:

    python3 perfbench/run.py --workload evaluate384 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it alternates untraced and traced
passes and prints the per-layer metrics, including the tracing overhead.
Each run prints one ``name value unit`` line per metric, the machine
context, and as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed``
count distinct input frames: every repeat of a frame must give the same
outcome, which the run checks.  The full result, and the spans of a traced
run, are written under ``.perfbench_results/``.

``frame_ms_p50``/``frame_ms_p75`` are per-call ``segment_frame`` latencies;
in the batch workloads a probe around ``cli.segment_frame`` times them, in
pool workers too.  Pass times (``frames_per_s``, ``frame_ms_*``) are scaled
to a nominal machine speed measured between passes (see ``speed.py``) and
printed raw as well; ``setup_s`` is raw.

The benchmark imports the package from ``src/`` next to this directory and
the phantom family from ``tests/conftest.py``; it exits with code 2 when
they are missing, and with code 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from layers import PER_LAYER, layer_metrics, probes, unit_of
from spans import Tracer
from speed import NOMINAL_S, Kernel
from workloads import (
    WORKLOADS, CheckFailed, LatencyProbe, Outcome, batch_outcomes, check_artifact_model,
    check_repeat, clear_dir, generate, quality, run_config_kwargs,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

SETUP_REPEATS = 5
TAIL_Q = 0.75  # the highest percentile with >= 10 samples beyond it on every workload
E2E_UNITS = {
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_p75": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lumen_jm_mean": "fraction",
    "media_jm_mean": "fraction",
    "media_hd_px_mean": "px",
}
# Printed and recorded, but not bounded.  The lumen Hausdorff distance is
# about 1.5 px with occasional 20-60 px misses, so its mean over one seed's
# frames spreads more between seeds than any bound allows.  The raw times
# are the bounded ones before scaling to the nominal machine speed.
INFO_UNITS = {
    "lumen_hd_px_mean": "px",
    "raw_frames_per_s": "1/s",
    "raw_frame_ms_p50": "ms",
    "raw_frame_ms_p75": "ms",
}


def build_config(kw: dict):
    """The workload's RunConfig; imports ivuseg, so it is part of setup_s."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ivuseg import RunConfig

    cfg = RunConfig(**{
        k: [Path(p) for p in v] if k == "inputs" else Path(v) if k in ("gold_dir", "outdir") else v
        for k, v in kw.items()
    })
    cfg.validate()
    return cfg


def tail_supported(n: int, q: float) -> bool:
    """A q-percentile of n samples needs at least ten samples beyond it."""
    return n - math.ceil(q * n - 1e-9) >= 10


def failed_frac(outcomes: dict) -> float:
    """Share of distinct frames whose outcome is a recorded error."""
    return sum(o.error is not None for o in outcomes.values()) / len(outcomes)


def machine() -> dict:
    """Where the numbers come from, read with ordinary process-level calls."""
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"l{level}"] = size
    return info


def measure_setup(kw: dict) -> float:
    """Median over fresh interpreters of importing ivuseg and building the
    workload's RunConfig."""
    code = (
        "import json, sys, time\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "t0 = time.perf_counter()\n"
        "run.build_config(json.loads(sys.argv[1]))\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(kw)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def library_pass(inputs, cfg, tracer=None) -> tuple[float, list[float], dict]:
    """segment_frame on every distinct frame once: (wall, latencies, outcomes)."""
    import hashlib

    from ivuseg import cli, rasterize_ellipse
    from ivuseg.errors import SegmentationError

    results = {}
    latencies = []
    if tracer is not None:
        tracer.start_pass()
    with tracer or nullcontext():
        t_pass = time.perf_counter()
        for stem in inputs.stems:
            frame = inputs.arrays[stem]
            if tracer is not None:
                tracer.claim(frame, stem)
            t0 = time.perf_counter()
            try:
                results[stem] = cli.segment_frame(frame, cfg)
            except SegmentationError as exc:
                results[stem] = type(exc).__name__
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t_pass

    outcomes = {}
    for stem, r in results.items():
        if isinstance(r, str):
            outcomes[stem] = Outcome(error=r, digest=r)
            continue
        lumen = rasterize_ellipse(r.lumen, cfg.contour_points).points
        media = rasterize_ellipse(r.media, cfg.contour_points).points
        digest = hashlib.sha256(lumen.tobytes() + media.tobytes()).hexdigest()
        outcomes[stem] = Outcome(lumen=lumen, media=media, digest=digest)
    return wall, latencies, outcomes


def batch_pass(inputs, cfg, tracer=None) -> tuple[float, dict]:
    """run_batch over the input directory into an emptied outdir."""
    from ivuseg import cli

    clear_dir(cfg.outdir)
    if tracer is not None:
        tracer.start_pass()
    with tracer or nullcontext():
        t0 = time.perf_counter()
        summary = cli.run_batch(cfg)
        wall = time.perf_counter() - t0
    outcomes = batch_outcomes(cfg.outdir, inputs.stems)
    errors = sum(o.error is not None for o in outcomes.values())
    if summary.processed + summary.failed != len(inputs.stems) or summary.failed != errors:
        raise CheckFailed(
            f"run_batch reported {summary.processed} processed and {summary.failed} failed "
            f"for {len(inputs.stems)} frames with {errors} error records"
        )
    return wall, outcomes


def run_workload(w, inputs, cfg, seconds: float, traced: bool, kernel: Kernel) -> dict:
    """Closed loop of passes until `seconds` have elapsed (at least two of
    each kind), with the speed kernel timed between passes.

    Untraced, every pass is plain.  Traced, plain and traced passes
    alternate; at jobs=2 a traced pass at jobs=1 follows, since spans from
    pool workers stay in the workers.  Latencies are (raw seconds, scale).
    """
    kinds = ["plain"]
    if traced:
        kinds += ["traced", "traced_serial"] if w.jobs > 1 else ["traced"]
    tracer = Tracer(probes()) if traced else None
    probe = LatencyProbe(cfg.outdir.parent / "probe") if w.batch else None

    reference: dict = {}
    passes = []
    records = []
    latencies: list[tuple[float, float]] = []
    if not w.batch:
        from ivuseg import cli

        cli.segment_frame(inputs.arrays[inputs.stems[0]], cfg)  # warm-up, untimed
    before = kernel.sample()
    t_begin = time.perf_counter()
    while len(passes) < 2 * len(kinds) or time.perf_counter() - t_begin < seconds:
        kind = kinds[len(passes) % len(kinds)]
        pass_tracer = tracer if kind != "plain" else None
        lat = []
        if not w.batch:
            wall, lat, outcomes = library_pass(inputs, cfg, pass_tracer)
        elif kind == "plain":
            with probe:
                wall, outcomes = batch_pass(inputs, cfg)
            new = probe.collect()
            records += new
            lat = [r.end - r.start for r in new]
        else:
            pass_cfg = replace(cfg, jobs=1) if kind == "traced_serial" else cfg
            wall, outcomes = batch_pass(inputs, pass_cfg, pass_tracer)
        check_repeat(reference, outcomes)
        after = kernel.sample()
        scale = NOMINAL_S / ((before + after) / 2)
        before = after
        if kind == "plain":
            latencies += [(t, scale) for t in lat]
        passes.append({"kind": kind, "wall": wall, "scale": scale, "frames": len(inputs.stems),
                       "tracer_pass": tracer.pass_no if pass_tracer is not None else None})

    if w.batch:
        # the library loop passes no artifact model, by construction
        check_artifact_model(w, [r.masked_px for r in records], [r.mask_frac for r in records])
    return {"passes": passes, "latencies": latencies, "outcomes": reference, "tracer": tracer}


def fps(passes: list[dict], kind: str, scaled: bool = True) -> float:
    return statistics.median(p["frames"] / (p["wall"] * (p["scale"] if scaled else 1.0))
                             for p in passes if p["kind"] == kind)


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus, for a pool, `jobs` times the largest
    child's; forked workers share pages with the parent, so this is an
    upper bound."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * child) / 1024.0


def end_to_end(w, inputs, run: dict, setup_s: float) -> dict:
    """Pass times at the nominal machine speed, plus their raw values.

    setup_s stays raw: it is import work in fresh processes, which the
    kernel between passes does not track."""
    out = {"setup_s": setup_s}
    for prefix, scaled in (("", True), ("raw_", False)):
        lat_ms = [1e3 * t * (s if scaled else 1.0) for t, s in run["latencies"]]
        out[f"{prefix}frames_per_s"] = fps(run["passes"], "plain", scaled)
        out[f"{prefix}frame_ms_p50"] = statistics.median(lat_ms)
        out[f"{prefix}frame_ms_p75"] = statistics.quantiles(lat_ms, n=4, method="inclusive")[2]
    out["peak_rss_mb"] = peak_rss_mb(w.jobs)
    q = quality(run["outcomes"], inputs.truths, (w.size, w.size))
    out.update({f"{k}_mean": v for k, v in q.items()})
    return out


def per_layer(w, run: dict) -> dict:
    tracer = run["tracer"]
    passes = run["passes"]
    serial_kind = "traced_serial" if w.jobs > 1 else "traced"
    serial = {p["tracer_pass"] for p in passes if p["kind"] == serial_kind}
    pooled = {p["tracer_pass"] for p in passes if p["kind"] == "traced" and w.jobs > 1}
    try:
        scale = {p["tracer_pass"]: p["scale"] for p in passes if p["tracer_pass"] is not None}
        out = layer_metrics(tracer.spans, serial, pooled, len(run["outcomes"]), scale)
    except ValueError as exc:
        raise CheckFailed(str(exc)) from exc

    removal = [s for s in tracer.spans
               if s.name == "preprocess.remove_artifacts" and s.pass_no in serial]
    expected = len(serial) * len(run["outcomes"]) if w.ringdown else 0
    if len(removal) != expected:
        raise CheckFailed(f"remove_artifacts ran {len(removal)} times in the serial traced "
                          f"passes, expected {expected}")
    check_artifact_model(w, [s.counts["masked_px"] for s in removal],
                         [s.counts["mask_frac"] for s in removal])

    out["cli.failed_frac"] = failed_frac(run["outcomes"])
    out["trace.overhead_frac"] = 1.0 - fps(passes, "traced") / fps(passes, "plain")
    return {k: out[k] for k in PER_LAYER}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "ivuseg" / "__init__.py").is_file() or not (ROOT / "tests" / "conftest.py").is_file():
        print(f"error: {ROOT} holds no ivuseg source tree (src/ivuseg, tests/conftest.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ivuseg

    if Path(ivuseg.__file__).resolve().parent != SRC / "ivuseg":
        print(f"error: ivuseg imported from {ivuseg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    inputs = None
    try:
        inputs = generate(w, seed, workdir)
        kw = run_config_kwargs(w, workdir)
        setup_s = measure_setup(kw)
        run = run_workload(w, inputs, build_config(kw), seconds, traced, Kernel())
        metrics = per_layer(w, run) if traced else end_to_end(w, inputs, run, setup_s)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        attempted = len(inputs.stems) if inputs is not None else 1
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m: unit_of(m) for m in metrics} if traced else {**E2E_UNITS, **INFO_UNITS}
    for m, v in metrics.items():
        print(f"{name} {m} {v:.6g} {units[m]}")
    reported = {m: v for m, v in metrics.items() if m not in INFO_UNITS}
    n = len(run["latencies"])
    print(f"{name} samples: {n} frame latencies"
          + ("" if traced or tail_supported(n, TAIL_Q) else f", too few for p{round(100 * TAIL_Q)}"))
    ctx = machine()
    print("machine " + json.dumps(ctx))
    result = {
        "correct": True,
        "attempted": len(run["outcomes"]),
        "failed": sum(o.error is not None for o in run["outcomes"].values()),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in reported.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(traced)}"
    record = {**result, "info": {m: metrics[m] for m in set(metrics) - set(reported)},
              "machine": ctx, "seconds": seconds, "passes": run["passes"],
              "failed_frames": sorted(k for k, o in run["outcomes"].items() if o.error)}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if traced:
        run["tracer"].dump(Path(f"{stem}-spans.json"))
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    code = 0
    for name in WORKLOADS:
        child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)])
        code = max(code, child.returncode)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
