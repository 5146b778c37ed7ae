"""Pinned SHA-256 digests of every file two end-to-end CLI runs write.

(a) The README demo at 4 frames: ``phantom --frames 4 --rng-seed 7``, then
    ``evaluate --mm-per-px 0.026 --trace`` and ``bestcase`` on its frames.
    Its artifact mask covers 93% of the frame, so ring-down removal is
    skipped.
(b) A 4-frame ring-down pullback: acceptance phantoms 0-3 (odd ones with a
    shadow) plus the three constant squares of the ``ringdown384_jobs2``
    benchmark workload, evaluated with ``--ringdown-threshold 200 --trace``.
    Its mask covers 3.5% of the frame, so removal runs.

A change that means to keep outputs byte-identical leaves every digest as
it is.  Changes that mean to alter outputs move them on purpose: ROADMAP
item 5 (filled regions and the media where the filled area stops growing)
and item 7 (artifact removal that keeps the dark core) will.  Such a change
regenerates the pinned file with ``PYTHONPATH=src python
tests/test_output_digests.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

from conftest import acceptance_phantom_spec
from ivuseg.cli import main
from ivuseg.imaging import save_contour, save_frame
from ivuseg.phantom import RingDownArtifact, generate_phantom
from ivuseg.preprocess import build_artifact_model

DIGESTS = Path(__file__).with_name("output_digests.json")
# (x, y, side) of the ringdown384_jobs2 squares, at intensity 240
SQUARES = ((172, 172, 40), (16, 16, 33), (335, 335, 33))


def pullback() -> list:
    """Run (b)'s frames and ground truths."""
    out = []
    for i in range(4):
        spec = acceptance_phantom_spec(i, shadow=i % 2 == 1)
        squares = [RingDownArtifact(x, y, n, 240) for x, y, n in SQUARES]
        out.append(generate_phantom(replace(spec, artifacts=spec.artifacts + squares)))
    return out


def run_outputs(workdir: Path) -> dict[str, str]:
    """Digest of every file the two runs write, keyed by its path under
    the runs' output directory."""
    inputs, out = workdir / "pullback", workdir / "out"
    inputs.mkdir()
    for i, (frame, truth) in enumerate(pullback()):
        save_frame(frame, inputs / f"frame_{i:03d}.pgm")
        save_contour(truth.lumen_contour, inputs / f"frame_{i:03d}_lumen.txt")
        save_contour(truth.media_contour, inputs / f"frame_{i:03d}_media.txt")
    demo = out / "demo"
    for args in (
        ["phantom", "--outdir", demo, "--frames", "4", "--rng-seed", "7"],
        ["evaluate", demo, "--gold", demo, "--outdir", out / "evaluate",
         "--mm-per-px", "0.026", "--trace"],
        ["bestcase", demo, "--gold", demo, "--outdir", out / "bestcase"],
        ["evaluate", inputs, "--gold", inputs, "--outdir", out / "ringdown",
         "--ringdown-threshold", "200", "--trace"],
    ):
        assert main([str(a) for a in args]) == 0
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def test_pullback_runs_ringdown_removal():
    mask = build_artifact_model([frame for frame, _ in pullback()], 200).mask
    assert 0.01 < mask.mean() < 0.2


def test_outputs_match_pinned_digests(tmp_path):
    ours = run_outputs(tmp_path)
    pinned = json.loads(DIGESTS.read_text())
    changed = sorted(k for k in ours.keys() | pinned.keys() if ours.get(k) != pinned.get(k))
    assert not changed, f"outputs differ from the pinned digests: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(run_outputs(Path(tmp)), indent=1, sort_keys=True) + "\n")
