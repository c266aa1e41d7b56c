"""Print the statement lines of src/renokit that the test suite never reaches.

Runs pytest in this process with a line tracer on every thread
(`sys.settrace`, and `threading.settrace` for threads started later) and then
lists, per module, each statement whose lines saw no line event, with the
totals. A statement is one `ast` statement node: docstrings, `global` and
`nonlocal` run no code and are not counted; a compound statement (`if`,
`def`, `with`, ...) counts by its header lines only. Code that tests run in
a subprocess is not traced.

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
    reached: dict[str, set[int]] = defaultdict(set)
    watched: dict[str, bool] = {}  # co_filename -> under src/renokit

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in watched:
            watched[name] = os.path.realpath(name) in modules
        return local if watched[name] else None

    os.chdir(ROOT)
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    hit_by_path: dict[str, set[int]] = defaultdict(set)
    for name, lines in reached.items():
        hit_by_path[os.path.realpath(name)] |= lines
    total = missed_total = 0
    for real, path in modules.items():
        spans = statement_spans(ast.parse(path.read_text(encoding="utf-8")))
        hit = hit_by_path[real]
        missed = sorted(line for line, (first, last) in spans.items()
                        if not any(n in hit for n in range(first, last + 1)))
        total += len(spans)
        missed_total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {_ranges(missed)}")
    print(f"{missed_total} of {total} statement lines unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
