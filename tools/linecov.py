"""Print the statement lines of src/renokit that the test suite never reaches,
and each `if` that it only ever takes one way.

Runs pytest in this process with a line tracer on every thread
(`sys.settrace`, and `threading.settrace` for threads started later) that
records, per frame, each step from one line to the next (an arc), and then
lists, per module, each statement whose lines saw no line event, with the
totals. A statement is one `ast` statement node: docstrings, `global` and
`nonlocal` run no code and are not counted; a compound statement (`if`,
`def`, `with`, ...) counts by its header lines only.

An `if` (or `elif`) is one-armed when its body was never entered or its test
never led anywhere else: to its `else`, past the statement, or out of the
frame. Only arcs that leave the test's lines count, and an arc into the
first statement of the body is the taken arm. An exception ends the arc, so
a test that raises takes neither arm. Such `if`s are listed as `if LINE:
ARM never`, with `ARM` either `body` or `else`. Code that tests run in a
subprocess is not traced.

Standard library and pytest only. The tracer makes the suite about three
times slower, so this is not part of the suite itself. Usage, from the
repository root:

    python tools/linecov.py                 # the whole suite
    python tools/linecov.py tests/test_cli.py -k stats

The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "renokit"


def statement_spans(tree: ast.Module) -> dict[int, tuple[int, int]]:
    """First line -> (first, last) line of each statement that runs code; a
    compound statement spans its header, up to the line before its body."""
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)
    }
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans[node.lineno] = (node.lineno, max(node.lineno, last))
    return spans


def if_arms(tree: ast.Module, spans: dict[int, tuple[int, int]]) -> dict[int, tuple[range, range]]:
    """First line of each `if` -> (the lines of its test, the span in `spans` of the
    first statement of its body): the lines an arc leaves, and those it enters to take the body."""
    return {node.lineno: (range(node.lineno, node.test.end_lineno + 1),
                          range(spans[node.body[0].lineno][0], spans[node.body[0].lineno][1] + 1))
            for node in ast.walk(tree) if isinstance(node, ast.If)}


def one_armed(arms: dict[int, tuple[range, range]], arcs: set[tuple[int | None, int | None]]) -> dict[int, str]:
    """First line of each `if` that some arc reached but that took only one arm -> the arm never taken."""
    left: dict[int, set[bool]] = defaultdict(set)  # if line -> {took the body?}
    header = {line: start for start, (test, _) in arms.items() for line in test}
    for src, dst in arcs:
        start = header.get(src)
        if start is not None and dst not in arms[start][0]:
            left[start].add(dst in arms[start][1])
    return {start: "else" if taken == {True} else "body" for start, taken in left.items() if len(taken) == 1}


def _ranges(lines: list[int]) -> str:
    """[3, 4, 5, 9] -> '3-5, 9'."""
    parts: list[list[int]] = []
    for line in lines:
        if parts and line == parts[-1][1] + 1:
            parts[-1][1] = line
        else:
            parts.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in parts)


def main(argv: list[str]) -> int:
    modules = {os.path.realpath(path): path for path in sorted(PACKAGE.rglob("*.py"))}
    # co_filename -> (line before, line) of every step; None as line before is
    # the frame's start or an exception, None as line is a return.
    arcs: dict[str, set[tuple[int | None, int | None]]] = defaultdict(set)
    watched: dict[str, bool] = {}  # co_filename -> under src/renokit

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in watched:
            watched[name] = os.path.realpath(name) in modules
        if not watched[name]:
            return None
        steps = arcs[name]
        last = None

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                steps.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return":
                steps.add((last, None))
            elif event == "exception":
                last = None
            return local

        return local

    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    arcs_by_path: dict[str, set[tuple[int | None, int | None]]] = defaultdict(set)
    for name, steps in arcs.items():
        arcs_by_path[os.path.realpath(name)] |= steps
    total = missed_total = ifs_total = one_armed_total = 0
    for real, path in modules.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = statement_spans(tree)
        arms = if_arms(tree, spans)
        hit = {line for _, line in arcs_by_path[real]}
        missed = sorted(line for line, (first, last) in spans.items()
                        if not any(n in hit for n in range(first, last + 1)))
        half = one_armed(arms, arcs_by_path[real])
        total += len(spans)
        missed_total += len(missed)
        ifs_total += len(arms)
        one_armed_total += len(half)
        if missed:
            print(f"{path.relative_to(ROOT)}: {_ranges(missed)}")
        for line, arm in sorted(half.items()):
            print(f"{path.relative_to(ROOT)}: if {line}: {arm} never")
    print(f"{missed_total} of {total} statement lines unreached")
    print(f"{one_armed_total} of {ifs_total} ifs taken one way only")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
