"""The README's "Pipeline config" section against the run config dataclasses:
its JSON examples must build, and its key table must list each section's
fields in order, with their JSON types, required keys and defaults. Every
renokit name its "Design notes" section spells as `module.name` must exist."""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil
import re
from pathlib import Path

import renokit
from renokit.dedup import DedupConfig
from renokit.filters import FilterConfig
from renokit.jsonl import _field_table, config_from_dict
from renokit.mixer import MixPlan
from renokit.pipeline import EvalSection, GenSection, IngestInput, IngestSection, RunConfig

_README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
_SECTION = _README.split("\n## Pipeline config\n", 1)[1].split("\n## ", 1)[0]
_DESIGN_NOTES = _README.split("\n## Design notes\n", 1)[1].split("\n## ", 1)[0]
_CLASSES = {"run": RunConfig, "ingest": IngestSection, "ingest input": IngestInput, "filters": FilterConfig,
            "dedup": DedupConfig, "mix": MixPlan, "gen": GenSection, "eval": EvalSection}
_JSON_NAMES = {"int": "int", "float": "number", "bool": "bool", "str": "string", "None": "null", "list": "list",
               "dict": "object"}


def test_readme_config_examples_build():
    blocks = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", _SECTION, re.S)]
    assert len(blocks) == 2
    run = config_from_dict(RunConfig, {**blocks[0], **blocks[1]}, "README run config")
    for spec in config_from_dict(IngestSection, run.ingest, "README ingest section").inputs:
        config_from_dict(IngestInput, spec, "README ingest input")
    config_from_dict(FilterConfig, run.filters, "README filters section")
    config_from_dict(DedupConfig, run.dedup, "README dedup section")
    config_from_dict(MixPlan, {"seed": run.seed, **run.mix}, "README mix section")
    config_from_dict(GenSection, run.gen, "README gen section")
    config_from_dict(EvalSection, run.eval, "README eval section")


def test_readme_key_table_matches_the_fields():
    rows = re.findall(r"^\| ([a-z ]+) \| `(\w+)` \| ([^|]+) \| ([^|]+) \|$", _SECTION, re.M)
    for section, cls in _CLASSES.items():
        table = [row[1:] for row in rows if row[0] == section]
        fields = {f.name: f for f in dataclasses.fields(cls)}
        assert [key for key, *_ in table] == [name for name, *_ in _field_table(cls)], section
        for (key, json_type, default), (name, annotation, _, required) in zip(table, _field_table(cls)):
            wants = [_JSON_NAMES[t.split("[")[0]] for t in annotation.split(" | ")]
            assert [part.split()[0] for part in json_type.split(" or ")] == wants, (section, key)
            if default.startswith("required"):
                assert required, (section, key)
            elif default.startswith("`"):
                field = fields[name]
                value = field.default if field.default_factory is dataclasses.MISSING else field.default_factory()
                assert json.loads(default.split("`")[1]) == value, (section, key)


def test_design_notes_name_only_what_exists():
    # `renokit.dedup.shingle` or `dedup.shingle`; not a file name such as `pipeline.py`
    modules = {info.name for info in pkgutil.iter_modules(renokit.__path__)}
    names = [(module, name) for module, name in re.findall(r"`(?:renokit\.)?(\w+)\.(\w+)`", _DESIGN_NOTES)
             if module in modules and name != "py"]
    assert len(names) > 10
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"renokit.{module}"), name)]
    assert not missing
