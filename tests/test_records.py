"""Each record's artifact is its fields in declaration order; the key lists
are written out here so that a reordered or added field fails a test
instead of silently changing an artifact. Records read back from JSON go
through from_dict, which checks each field's JSON type; every reader
refuses a mistyped row with its line number."""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil

import pytest

import renokit
from renokit.dedup import DedupReport, DupPair
from renokit.endpoint import EndpointConfig
from renokit.errors import ArityError, OptionMismatch, SchemaError
from renokit.evalharness import EvalReport, load_dataset
from renokit.filters import FilterReport
from renokit.ingest import Document, PipelineStats, read_documents
from renokit.jsonl import Record, _field_table, read_records, write_json, write_jsonl
from renokit.mixer import MipRecord, MipReport, MixReport, TrainerConfig, read_mix_records
from renokit.pipeline import _REPORT_SUMMARIES, PipelineManifest, StageRecord
from renokit.sftgen import GenReport, InstructionSample, MCQItem

_RECORDS = [
    (Document(doc_id="d", text="t", source_kind="domain_book", token_count=1, char_count=1),
     ["doc_id", "text", "source_kind", "token_count", "char_count", "status", "reason"]),
    (StageRecord(stage="ingest", config_digest="c", seed=0, inputs={}, outputs={}, started="s", finished="f"),
     ["stage", "config_digest", "seed", "inputs", "outputs", "started", "finished"]),
    (FilterReport(), ["input", "retained", "dropped"]),
    (DedupReport(), ["input", "retained", "dropped", "tokens_in", "tokens_out", "pairs", "lsh_candidates",
                    "candidate_prob_at_threshold"]),
    (DupPair(a="a", b="b", jaccard=0.9), ["a", "b", "jaccard"]),
    (MCQItem(question="q", question_type="judgment", options={"A": "是", "B": "否"}, correct_option="A",
             reason="", category="c", subclass="s", difficulty="expertise"),
     ["question", "question_type", "options", "correct_option", "reason", "category", "subclass", "difficulty"]),
    (InstructionSample(kind="one_turn", turns=[{"role": "user", "content": "问？"}, {"role": "assistant", "content": "答。"}],
                       knowledge_id="k"),
     ["kind", "turns", "category", "knowledge_id", "gen_meta"]),
    (EvalReport(dataset="e", items_total=0, config={}, per_item=[], per_category={}, overall_micro=0.0,
                overall_macro=0.0),
     ["dataset", "items_total", "config", "labels", "notes", "overall_micro", "overall_macro", "degraded",
      "per_category", "per_item"]),
    (TrainerConfig(),
     ["precision", "epochs", "batch_size", "learning_rate", "warmup_ratio", "lr_scheduler", "max_length"]),
    (EndpointConfig(base_url="http://localhost:9", model_name="m"),
     ["base_url", "model_name", "api_key_env", "temperature", "max_retries", "backoff", "concurrency_limit",
      "timeout"]),
    (GenReport(), ["requests_sent", "replayed", "accepted", "rejected", "rejected_total", "accepted_per_kind",
                   "jobs_total", "jobs_accepted", "jobs_skipped", "budget_exhausted"]),
    (MixReport(mode="dapt", unit="tokens", seed=0, ratio_general=1, domain_count=1, general_count=1, domain_tokens=1,
               general_tokens=1, achieved_ratio=1.0),
     ["mode", "unit", "seed", "ratio_general", "domain_count", "general_count", "domain_tokens", "general_tokens",
      "achieved_ratio", "tokenizer", "shortfall"]),
    (MipReport(mode="mip", seed=0, pretrain_count=1, instruction_count=1, total_tokens=2),
     ["mode", "seed", "pretrain_count", "instruction_count", "total_tokens", "tokenizer"]),
    (MipRecord(id="r", text="t", origin="pretrain"), ["id", "text", "origin"]),
    (PipelineStats(), ["tokenizer", "documents", "tokens", "failures", "total_documents", "total_tokens"]),
    (PipelineManifest(), ["version", "stages"]),
]


@pytest.mark.parametrize("record, keys", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_artifact_key_order(record, keys):
    assert list(record.to_dict()) == keys


def test_stats_tells_every_report_class_by_its_keys():
    """`stats` reads a JSON report as the one class whose fields are its keys."""
    key_sets = [frozenset(f.name for f in dataclasses.fields(cls)) for cls in _REPORT_SUMMARIES]
    assert len(set(key_sets)) == len(key_sets)


_TURNS = [{"role": "user", "content": "地板怎么选？"}, {"role": "assistant", "content": "看用途。"}]
_READ_BACK = [
    Document(doc_id="d", text="t", source_kind="domain_book", token_count=1, char_count=1, status="retained",
             reason="r"),
    InstructionSample(kind="one_turn", turns=_TURNS, category="c", knowledge_id="k", gen_meta={"model_name": "m"}),
    MCQItem(question="q", question_type="judgment", options={"A": "是", "B": "否"}, correct_option="B",
            reason="r", category="c", subclass="s", difficulty="fundamentals"),
    StageRecord(stage="ingest", config_digest="c", seed=3, inputs={"a": "1"}, outputs={"b": "2"}, started="s",
                finished="f"),
    TrainerConfig(precision="bf16", epochs=2, learning_rate=2e-5, max_length=1536),
    EndpointConfig(base_url="http://localhost:9", model_name="m", temperature=0.5, max_retries=0, backoff=(0.5, 1)),
    MipRecord(id="r", text="t", origin="instruction"),
]


@pytest.mark.parametrize("record", _READ_BACK, ids=[type(r).__name__ for r in _READ_BACK])
def test_from_dict_reads_back_to_dict(record):
    assert type(record).from_dict(json.loads(json.dumps(record.to_dict(), ensure_ascii=False))) == record


def test_write_json_bytes(tmp_path):
    """Indented by two, non-ASCII as UTF-8, a nested Record as its fields, one closing newline."""
    path = tmp_path / "report.json"
    write_json(path, {"name": "装修", "pair": DupPair(a="d1", b="d2", jaccard=0.875), "shots": [0, 5], "labels": {},
                      "none": None})
    assert path.read_bytes() == (
        '{\n  "name": "装修",\n  "pair": {\n    "a": "d1",\n    "b": "d2",\n    "jaccard": 0.875\n  },\n'
        '  "shots": [\n    0,\n    5\n  ],\n  "labels": {},\n  "none": null\n}\n').encode()


_DOC = {"doc_id": "d", "text": "t", "source_kind": "domain_book", "token_count": 1, "char_count": 1}
_SAMPLE = {"kind": "one_turn", "turns": _TURNS, "knowledge_id": "k"}
_MIP_ROW = {"id": "r", "text": "t", "origin": "pretrain"}
_MCQ = {"question": "q", "question_type": "judgment", "options": {"A": "是", "B": "否"}, "correct_option": "A"}
_MISSING = object()  # the key is left out of the row


def _read_samples(path):
    return read_records(InstructionSample, path)


def _read_mix(path):
    return list(read_mix_records(path))


def _read_mip(path):
    return list(read_mix_records(path, needs_text=True))


def _read_mip_rows(path):
    return read_records(MipRecord, path)


# (reader, a valid row, key, the value that breaks it)
_MISTYPED = [
    (read_documents, _DOC, "text", 5),
    (read_documents, _DOC, "doc_id", _MISSING),
    (read_documents, _DOC, "token_count", "1"),
    (read_documents, _DOC, "token_count", 1.0),
    (read_documents, _DOC, "char_count", True),
    (read_documents, _DOC, "source_kind", "blog"),
    (read_documents, _DOC, "status", None),
    (read_documents, _DOC, "reason", 5),
    (_read_samples, _SAMPLE, "turns", "地板"),
    (_read_samples, _SAMPLE, "turns", ["地板"]),
    (_read_samples, _SAMPLE, "knowledge_id", _MISSING),
    (_read_samples, _SAMPLE, "category", 5),
    (_read_samples, _SAMPLE, "gen_meta", []),
    (load_dataset, _MCQ, "question", 5),
    (load_dataset, _MCQ, "correct_option", ["A"]),
    (load_dataset, _MCQ, "options", ["是", "否"]),
    (load_dataset, _MCQ, "options", {"A": 1, "B": "否"}),
    (load_dataset, _MCQ, "question_type", _MISSING),
    (load_dataset, _MCQ, "difficulty", None),
    (_read_mix, _DOC, "token_count", None),
    (_read_mix, {"id": "s"}, "turns", ["地板"]),
    (_read_mix, {"id": "s"}, "turns", [{"content": 5}]),
    (_read_mix, {"id": "s"}, "text", 5),
    (_read_mip, _DOC, "text", _MISSING),
    (_read_mip_rows, _MIP_ROW, "text", 5),
    (_read_mip_rows, _MIP_ROW, "origin", "general"),
]


@pytest.mark.parametrize("read, row, key, value", _MISTYPED,
                         ids=[f"{r.__name__.lstrip('_')}-{key}-{i}" for i, (r, _, key, _) in enumerate(_MISTYPED)])
def test_reader_refuses_mistyped_row_with_its_line(tmp_path, read, row, key, value):
    bad = {k: v for k, v in row.items() if k != key}
    if value is not _MISSING:
        bad[key] = value
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [row, bad])
    with pytest.raises(SchemaError, match="line 2: ") as info:
        read(path)
    assert info.value.line == 2


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_reads_back_through_from_dict():
    """Every field of every record has a JSON type, so from_dict on any record
    refuses a bad row with SchemaError, never a KeyError from the type table."""
    for module in pkgutil.iter_modules(renokit.__path__):
        importlib.import_module(f"renokit.{module.name}")
    records = list(_subclasses(Record))
    assert {DedupReport, EvalReport, FilterReport, StageRecord, *_REPORT_SUMMARIES} <= set(records)
    for cls in records:
        assert _field_table(cls)
    with pytest.raises(SchemaError, match="missing required key"):
        EvalReport.from_dict({"dataset": "e"})



# A valid constructor call per record class with checks of its own, and the changes that break it.
_VALID = {
    Document: _DOC,
    InstructionSample: _SAMPLE,
    MCQItem: _MCQ,
    MipRecord: _MIP_ROW,
    EvalReport: {"dataset": "e", "items_total": 0, "config": {}, "per_item": [], "per_category": {},
                 "overall_micro": 0.0, "overall_macro": 0.0},
}
_REFUSED = [
    (Document, {"source_kind": "blog"}, SchemaError, "document d: bad source_kind 'blog'"),
    (Document, {"status": "gone"}, SchemaError, "document d: bad status 'gone'"),
    (InstructionSample, {"turns": _TURNS[:1]}, SchemaError, "one-turn samples have exactly 2 turns"),
    (InstructionSample, {"turns": [_TURNS[0], {"role": "assistant", "content": " "}]}, SchemaError,
     "every turn needs non-empty content"),
    (MCQItem, {"difficulty": "easy"}, SchemaError,
     "difficulty must be one of ('fundamentals', 'expertise', 'innovative_design')"),
    (MCQItem, {"options": {"A": "是", "B": "否", "C": "或"}}, ArityError,
     "judgment needs options ('A', 'B'), got ['A', 'B', 'C']"),
    (MCQItem, {"correct_option": "C"}, OptionMismatch, "correct option 'C' not in ['A', 'B']"),
    (MipRecord, {"origin": "general"}, SchemaError,
     "record r: origin must be one of ('pretrain', 'instruction'), got 'general'"),
    (EvalReport, {"labels": {"model": 1}}, SchemaError, "label values must be strings, got {'model': 1}"),
    (EvalReport, {"config": {"model": 5}}, SchemaError, "config model must be a string or null, got 5"),
]


@pytest.mark.parametrize("cls, changes, error, message", _REFUSED,
                         ids=[f"{cls.__name__}-{key}" for cls, changes, *_ in _REFUSED for key in changes])
def test_constructor_refuses_a_bad_value(cls, changes, error, message):
    """A record checks itself when built, so no invalid record exists to be written."""
    cls(**_VALID[cls])
    with pytest.raises(error) as info:
        cls(**{**_VALID[cls], **changes})
    assert type(info.value) is error and str(info.value) == message
