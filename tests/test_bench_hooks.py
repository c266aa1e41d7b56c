"""The traced benchmark wraps renokit functions by name from outside the
program (perfbench/layers.py:install, through Tracer.patch, which calls
getattr). Deleting or renaming any of them breaks every traced run, so this
test reads install's source with ast and checks that each name it reaches
into renokit for still exists. The scale run (tools/scale.py) reaches into
perfbench/corpus.py, perfbench/gates.py and renokit's pipeline by name too,
and is checked the same way."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"
SCALE = ROOT / "tools" / "scale.py"


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


def _top_level(path: Path) -> dict[str, ast.AST]:
    """The names a module defines at its top level, bound to the node that defines each."""
    names = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            names.update((target.id, node.value) for target in node.targets if isinstance(target, ast.Name))
    return names


def test_every_name_the_scale_tool_reaches_for_exists():
    spec = importlib.util.spec_from_file_location("scale", SCALE)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)  # it imports the benchmark's modules only when it runs
    perfbench = {module: _top_level(ROOT / "perfbench" / f"{module}.py") for module in ("corpus", "gates")}
    read = {(node.value.id, node.attr) for node in ast.walk(ast.parse(SCALE.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in perfbench}
    read |= {("corpus", name) for pair in scale.BUILDERS.values() for name in pair}  # taken with getattr
    assert ("gates", "check_corpus") in read and ("corpus", "build_books") in read
    missing = [f"{module}.{name}" for module, name in sorted(read) if name not in perfbench[module]]
    assert not missing, f"tools/scale.py reads names that perfbench no longer has: {missing}"
    for counts, key in scale.HELD:
        assert key in ast.literal_eval(perfbench["corpus"][counts]), f"{counts}[{key!r}]"
    pipeline = importlib.import_module("renokit.pipeline")
    assert callable(pipeline.run_pipeline)
    missing = [name for name in scale.STAGES if not callable(getattr(pipeline.PipelineRunner, f"stage_{name}", None))]
    assert not missing, f"tools/scale.py times PipelineRunner stages that are gone: {missing}"
