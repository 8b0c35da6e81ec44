#!/usr/bin/env python3
"""The lines of src/srclab that a pytest selection never runs.

Usage: python scripts/line_reach.py [PYTEST_ARGS ...]     (default: tests)

Runs pytest in this process with the given arguments under a ``sys.settrace``
collector that follows only frames whose code lives under ``src/srclab`` of
the tree holding this script, then prints each executable line (a line some
code object of the module reports in ``co_lines``) that never ran, as
``module.py:N: text``, and last their count.  pytest's own output goes to
stderr.  Lines run only in subprocesses the tests start are not seen.
numpy and hypothesis are imported before the trace starts, which is why
pytest's warning that it cannot rewrite hypothesis's asserts is silenced.
"""
from __future__ import annotations

import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "srclab"
sys.path.insert(0, str(ROOT / "src"))

# the tests' heavy dependencies, imported untraced; srclab must be imported under the trace
import hypothesis  # noqa: E402,F401
import numpy  # noqa: E402,F401
import pytest  # noqa: E402


def executable_lines(path: Path) -> set[int]:
    """The line numbers the module's code objects, nested ones too, run code on."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    prefix, ran = str(PACKAGE) + "/", set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(["-W", "ignore::pytest.PytestAssertRewriteWarning", *(argv or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in ran:
                missed += 1
                print(f"{path.name}:{line}: {text[line - 1].strip()}")
    print(f"{missed} lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
