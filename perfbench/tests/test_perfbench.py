"""Tests of the benchmark's own helpers.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import counts_by_frame, probes  # noqa: E402
from spans import Probe, Span, Tracer, self_times  # noqa: E402
from workloads import Inputs, polygon_mask  # noqa: E402


def test_self_time_subtracts_nested_children_once():
    spans = [
        Span("batch", 0.0, 10.0),
        Span("frame", 1.0, 4.0, parent=0),
        Span("tree", 1.5, 3.5, parent=1),   # grandchild: only the frame loses it
        Span("frame", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [Span("p", 0.0, 10.0), Span("a", 2.0, 6.0, parent=0), Span("b", 4.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_nests_spans_and_inherits_frame_ids():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda frame: mod.inner(1)
    tracer = Tracer([Probe(mod, "outer", "m.outer"), Probe(mod, "inner", "m.inner")])
    frame = object()
    tracer.start_pass()
    tracer.claim(frame, "f0")
    with tracer:
        assert mod.outer(frame) == 2
    outer, inner = tracer.spans
    assert (outer.name, outer.frame, outer.parent) == ("m.outer", "f0", None)
    assert (inner.name, inner.frame, inner.parent) == ("m.inner", "f0", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end


@pytest.mark.parametrize("n, q, ok", [(40, 0.75, True), (39, 0.75, False),
                                      (100, 0.9, True), (99, 0.9, False), (20, 0.5, True)])
def test_tail_percentile_needs_ten_samples_beyond_it(n, q, ok):
    assert run.tail_supported(n, q) is ok


def test_failed_frac_counts_a_frame_that_raises(monkeypatch):
    from ivuseg import Ellipse, RunConfig, cli
    from ivuseg.errors import NoCandidateRegionsError

    def fake_segment(frame, cfg, artifact_model=None):
        if frame == "bad":
            raise NoCandidateRegionsError("no candidate regions")
        e = Ellipse(20.0, 20.0, 8.0, 6.0, 0.1)
        return types.SimpleNamespace(lumen=e, media=e)

    monkeypatch.setattr(cli, "segment_frame", fake_segment)
    stems = ["a", "b", "c", "d"]
    arrays = {"a": "ok", "b": "bad", "c": "ok", "d": "ok"}
    wall, latencies, outcomes = run.library_pass(Inputs(stems, {}, arrays), RunConfig())
    assert len(latencies) == 4
    assert outcomes["b"].error == "NoCandidateRegionsError"
    assert run.failed_frac(outcomes) == 0.25


def test_traced_run_restores_every_wrapped_attribute():
    from ivuseg import RunConfig, cli, generate_phantom
    from ivuseg.phantom import PhantomSpec

    tracer = Tracer(probes())
    originals = [getattr(p.owner, p.attr) for p in tracer.probes]
    frame, _ = generate_phantom(PhantomSpec(rng_seed=3))
    tracer.start_pass()
    tracer.claim(frame, "f0")
    with pytest.raises(RuntimeError):
        with tracer:
            assert all(getattr(p.owner, p.attr) is not o for p, o in zip(tracer.probes, originals))
            cli.segment_frame(frame, RunConfig())
            raise RuntimeError("abort the traced run")
    assert all(getattr(p.owner, p.attr) is o for p, o in zip(tracer.probes, originals))
    names = {s.name for s in tracer.spans}
    assert {"cli.segment_frame", "component_tree.build", "component_tree.seed_chain",
            "erel.extract", "selection.select_regions", "geometry.fit"} <= names
    assert all(s.frame == "f0" for s in tracer.spans)


def test_counts_that_change_between_passes_are_rejected():
    def chain_span(pass_no, nodes):
        return Span("component_tree.seed_chain", 0.0, 1.0, pass_no=pass_no, frame="f0",
                    counts={"chain_nodes": nodes})

    assert counts_by_frame([chain_span(1, 7), chain_span(2, 7)], {1, 2}) == {
        "component_tree.seed_chain": {"f0": {"chain_nodes": 7}}
    }
    with pytest.raises(ValueError):
        counts_by_frame([chain_span(1, 7), chain_span(2, 8)], {1, 2})


def test_polygon_mask_matches_the_ellipse_it_samples():
    from ivuseg import Ellipse, ellipse_mask, rasterize_ellipse

    e = Ellipse(40.0, 35.0, 22.0, 13.0, 0.5)
    poly = polygon_mask(rasterize_ellipse(e, 720).points, (80, 80))
    direct = ellipse_mask(e, (80, 80))
    assert (poly ^ direct).sum() <= 0.02 * direct.sum()
    square = np.array([[2.0, 2.0], [6.0, 2.0], [6.0, 6.0], [2.0, 6.0]])
    assert polygon_mask(square, (8, 8)).sum() == 16
