"""README.md's examples run: every ``python`` block executes, and every
``densecolor`` command followed by ``# `` lines prints those lines."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from densecolor.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def _shown_outputs() -> list[tuple[str, list[str]]]:
    """(command line, the output lines shown under it) for each shell
    command whose output the README shows."""
    found = []
    for lang, body in BLOCKS:
        if lang != "sh":
            continue
        lines = body.splitlines()
        for i, line in enumerate(lines):
            shown = []
            for after in lines[i + 1 :]:
                if not after.startswith("# "):
                    break
                shown.append(after[2:])
            if line.startswith("densecolor ") and shown:
                found.append((line, shown))
    return found


def _run(pipeline: str, monkeypatch) -> str:
    """Run a pipeline of ``densecolor`` commands in-process; the stdout of
    the last one."""
    text = ""
    for stage in pipeline.split("|"):
        program, *args = shlex.split(stage)
        assert program == "densecolor", stage
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(args) == 0, stage
        text = out.getvalue()
    return text


@pytest.mark.parametrize("code", [body for lang, body in BLOCKS if lang == "python"])
def test_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize("command, shown", _shown_outputs())
def test_command_prints_what_the_readme_shows(command, shown, monkeypatch):
    assert _run(command, monkeypatch).splitlines() == shown


def test_the_readme_shows_examples():
    assert any(lang == "python" for lang, _ in BLOCKS) and _shown_outputs()
