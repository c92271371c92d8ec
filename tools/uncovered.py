"""List each ``src/asefilt`` statement that no tier-1 test executes.

A standard-library line tracer, for machines without ``coverage``: it runs
the tier-1 suite in this process with ``pytest.main`` under
``sys.settrace`` and ``threading.settrace``, records every line of an
``src/asefilt`` module that runs, and prints, per module, the statements
that never did.  A statement is the first line of an :mod:`ast` statement
that compiles to bytecode (a function's docstring, say, does not).  A
frame stops being traced once every statement of its code has run, so
the suite takes about three times as long as it does untraced.

Code that runs only in a child process is invisible to an in-process
tracer: a test that starts ``python -c ...`` (as the SVG tick-loop test
does, so that a loop fails that test instead of hanging the suite) or the
console script marks nothing, and its lines are listed here although
they run.

    python tools/uncovered.py [PYTEST_ARGS ...]

prints lines such as ``signals.py: 130-131`` and exits with pytest's
status; the default arguments are ``-q -p no:cacheprovider``.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asefilt"


def _code_lines(code) -> set[int]:
    """Lines of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> set[int]:
    """First lines of the statements of ``path`` that compile to bytecode."""
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    return starts & _code_lines(compile(source, str(path), "exec"))


def _ranges(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` as ``"1-3, 7"``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    wanted = {str(path): statements(path) for path in sorted(PACKAGE.glob("*.py"))}
    executed: dict[str, set[int]] = {name: set() for name in wanted}
    pending: dict[object, set[int]] = {}

    def trace_line(frame, event, arg):
        if event == "line":
            todo = pending[frame.f_code]
            executed[frame.f_code.co_filename].add(frame.f_lineno)
            todo.discard(frame.f_lineno)
            if not todo:
                return None
        return trace_line

    def trace_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in wanted:
            return None
        todo = pending.get(code)
        if todo is None:
            todo = pending[code] = {line for _, _, line in code.co_lines()} & wanted[code.co_filename]
        return trace_line if todo else None

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, lines in wanted.items():
        missed = sorted(lines - executed[name])
        if missed:
            print(f"{Path(name).name}: {_ranges(missed)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
