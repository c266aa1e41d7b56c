"""Each record's artifact is its fields in declaration order; the key lists
are written out here so that a reordered or added field fails a test
instead of silently changing an artifact."""

from __future__ import annotations

import pytest

from renokit.dedup import DedupReport, DupPair
from renokit.endpoint import EndpointConfig
from renokit.evalharness import EvalReport
from renokit.filters import FilterReport
from renokit.ingest import Document
from renokit.mixer import TrainerConfig
from renokit.pipeline import StageRecord
from renokit.sftgen import InstructionSample, MCQItem

_RECORDS = [
    (Document(doc_id="d", text="t", source_kind="domain_book", token_count=1, char_count=1),
     ["doc_id", "text", "source_kind", "token_count", "char_count", "status", "reason"]),
    (StageRecord(stage="ingest", config_digest="c", seed=0, inputs={}, outputs={}, started="s", finished="f"),
     ["stage", "config_digest", "seed", "inputs", "outputs", "started", "finished"]),
    (FilterReport(), ["input", "retained", "dropped"]),
    (DedupReport(), ["input", "retained", "dropped", "tokens_in", "tokens_out", "pairs"]),
    (DupPair(a="a", b="b", jaccard=0.9), ["a", "b", "jaccard"]),
    (MCQItem(question="q", question_type="judgment", options={"A": "是", "B": "否"}, correct_option="A",
             reason="", category="c", subclass="s", difficulty="expertise"),
     ["question", "question_type", "options", "correct_option", "reason", "category", "subclass", "difficulty"]),
    (InstructionSample(kind="one_turn", turns=[], knowledge_id="k"),
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
]


@pytest.mark.parametrize("record, keys", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_artifact_key_order(record, keys):
    assert list(record.to_dict()) == keys
