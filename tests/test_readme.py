"""The README's Library snippets run as written, and its flag list is whole.

Every ```python block under "## Library" runs in order, in one namespace,
in a directory that holds a phantom frame saved as frame_00.pgm, so a
public name the README uses and the package renamed or dropped fails here.
"""

import argparse
import re
from pathlib import Path

from ivuseg import PhantomSpec, generate_phantom, save_frame
from ivuseg.cli import _tunables, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippets() -> list[str]:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_readme_library_snippets_run(tmp_path, monkeypatch):
    snippets = library_snippets()
    assert len(snippets) >= 2
    frame, _ = generate_phantom(PhantomSpec(rng_seed=3))
    save_frame(frame, tmp_path / "frame_00.pgm")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for code in snippets:
        exec(compile(code, str(README), "exec"), namespace)
    # the stage-by-stage snippet fits the lumen that segment_frame fits
    assert namespace["ellipse"] == namespace["result"].lumen


def test_readme_lists_exactly_the_tunable_flags():
    sentence = re.search(r"All tunables are flags \((.*?)\)", README.read_text(), re.DOTALL)
    listed = set(re.findall(r"--[a-z][a-z-]*", sentence.group(1)))
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    built = {flag for action in commands.choices["segment"]._actions
             if action.dest in _tunables() for flag in action.option_strings}
    assert listed == built
