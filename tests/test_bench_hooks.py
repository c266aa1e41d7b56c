"""The traced benchmark wraps renokit functions by name from outside the
program (perfbench/layers.py:install, through Tracer.patch, which calls
getattr). Deleting or renaming any of them breaks every traced run, so this
test reads install's source with ast and checks that each name it reaches
into renokit for still exists."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _install() -> tuple[ast.FunctionDef, dict]:
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    constants = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                 and isinstance(node.value, ast.Tuple)}
    (install,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "install"]
    return install, constants


def _imported(install: ast.FunctionDef) -> dict:
    """The names install imports from renokit, bound to what they name."""
    names = {}
    for node in ast.walk(install):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "renokit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    importlib.import_module(f"{node.module}.{alias.name}") if node.module == "renokit"
                    else getattr(module, alias.name))
    return names


def _patch_table(install: ast.FunctionDef) -> list[tuple[str, str]]:
    """The (module, function) pairs of the loop that calls tracer.patch."""
    (loop,) = [node for node in ast.walk(install) if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)]
    return [(row.elts[0].id, name) for row in loop.iter.elts for name in ast.literal_eval(row.elts[1])]


def test_every_function_the_tracer_wraps_exists():
    install, _ = _install()
    names = _imported(install)
    table = _patch_table(install)
    assert {("dedup", "shingle"), ("tokenizers", "count_tokens"), ("filters", "filter_language")} <= set(table)
    missing = [f"{module}.{fn}" for module, fn in table if not callable(getattr(names[module], fn, None))]
    assert not missing, f"perfbench/layers.py:install wraps functions that are gone: {missing}"


def test_every_attribute_install_reads_from_renokit_exists():
    install, _ = _install()
    names = _imported(install)
    read = {(node.value.id, node.attr) for node in ast.walk(install)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in names}
    assert ("dedup", "compute_signatures") in read and ("pipeline", "run_dedup") in read
    missing = [f"{owner}.{attr}" for owner, attr in sorted(read) if not hasattr(names[owner], attr)]
    assert not missing, f"perfbench/layers.py:install reads names that are gone: {missing}"


def test_every_method_install_wraps_or_overrides_exists():
    install, constants = _install()
    names = _imported(install)
    methods = []
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "patch_method":
            owner, name = node.args[0], node.args[1]
            cls = names[owner.id] if isinstance(owner, ast.Name) else getattr(names[owner.value.id], owner.attr)
            if isinstance(name, ast.JoinedStr):  # f"stage_{stage}" inside `for stage in STAGES`
                prefix = "".join(part.value for part in name.values if isinstance(part, ast.Constant))
                methods += [(cls, prefix + stage) for stage in constants["STAGES"]]
            else:
                methods.append((cls, name.value))
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                methods += [(names[base.id], item.name) for item in node.body if isinstance(item, ast.FunctionDef)]
    assert len(methods) >= 7
    missing = [f"{cls.__name__}.{name}" for cls, name in methods if not callable(getattr(cls, name, None))]
    assert not missing, f"perfbench/layers.py:install wraps methods that are gone: {missing}"
