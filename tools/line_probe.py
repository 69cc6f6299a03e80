#!/usr/bin/env python3
"""The lines of `src/silicon` that no tier-1 test runs.

Run from anywhere:

    python3 tools/line_probe.py [extra pytest arguments]

It uses the standard library only.  A line tracer is installed with
`sys.settrace` and `threading.settrace` before `silicon` is imported; then the
tier-1 suite (`tests/`) runs in this process under `pytest -q -p
no:cacheprovider`, and for each module of `src/silicon` the probe prints the
executable lines (those of the compiled module's code objects) that no test
ran.  Pytest's own output goes to stderr and the report to stdout.  The exit
code is pytest's when the suite fails, else 1 if any line is not run, else 0:
every executable line of `src/silicon` must be run by some tier-1 test.

Code that the suite runs in a child process (a `python -m silicon` test, a
benchmark subprocess) is not traced, so its lines count as not run here.  The
tracer slows the suite about twofold.
"""

import contextlib
import os
import sys
import threading

ROOT = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "silicon")


def executable_lines(path: str) -> set[int]:
    """The line numbers of every code object compiled from `path`."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs: `3, 7-9`."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    modules = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                     if name.endswith(".py"))
    hits = {path: set() for path in modules}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):  # called on each new frame: trace only silicon's
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    sys.path.insert(0, SRC)  # the silicon of this checkout
    import pytest

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"),
                                *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in modules:
        lines = executable_lines(path)
        left = sorted(lines - hits[path])
        total += len(lines)
        missed += len(left)
        name = os.path.relpath(path, ROOT)
        print(f"{name}: {len(left)} of {len(lines)} lines not run"
              + (f": {spans(left)}" if left else ""))
    print(f"src/silicon: {missed} of {total} executable lines not run by the tier-1 tests")
    return int(code) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main())
