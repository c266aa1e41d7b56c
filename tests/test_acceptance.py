"""Acceptance suite: one test (or pair) per criterion, each printing a
PASS line once its assertions hold. Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 2 is split in two: the 78/113 and 61/113 reconstructions hold
exactly; the 68/113 -> 60.17 target is arithmetically unreachable under the
documented rounding rule (round(10000*c/t)/100 gives 60.18, and no integer
count out of 113 rounds to 60.17), so that check is expected to fail and is
kept as an honest record of the discrepancy.
"""

from __future__ import annotations

import time

from renokit.cli import main as cli_main
from renokit.dedup import DedupConfig, jaccard, near_dedup, shingle
from renokit.endpoint import ChatClient, EndpointConfig, OfflineTransport, ResponseArchive
from renokit.evalharness import EvalRunConfig, build_prompt, load_dataset, run_eval
from renokit.filters import FilterConfig, run_filters
from renokit.jsonl import config_from_json, write_jsonl
from renokit.mixer import MixPlan, TrainerConfig, emit_trainer_config, mix, records_tokens
from renokit.pipeline import PipelineManifest
from renokit.sftgen import batch_generate, load_categories

from fixture_data import (
    SENSITIVE_WORDS,
    build_dedup_docs,
    build_filter_docs,
    build_gen_docs,
    gen_script,
    packaged_templates,
    write_pipeline_fixture,
)
from mocks import GoldAnswerTransport, ScriptedTransport, archive_ids
from oracles import brute_force_pairs, select_exemplars


def _report(cid: str, text: str) -> None:
    print(f"[{cid}] {text}: PASS")


def mock_endpoint(concurrency: int = 4) -> EndpointConfig:
    return EndpointConfig(base_url="http://mock.invalid", model_name="mock-model", concurrency_limit=concurrency)


def test_c1_evalhome_statistics(evalhome_path, capsys):
    started = time.monotonic()
    dataset = load_dataset(evalhome_path)
    stats = dataset.stats()
    assert stats["per_difficulty"]["fundamentals"] == {"subclasses": 6, "questions": 22}
    assert stats["per_difficulty"]["expertise"] == {"subclasses": 17, "questions": 87}
    assert stats["per_difficulty"]["innovative_design"] == {"subclasses": 2, "questions": 4}
    assert stats["subclasses"] == 25
    assert stats["total"] == 113
    assert cli_main(["stats", str(evalhome_path)]) == 0
    printed = capsys.readouterr().out
    assert "113" in printed and "25" in printed
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report("C1", f"EvalHome statistics 22/87/4 over 6/17/2 subclasses, total 113 ({elapsed:.2f}s)")


def _micro_with_correct(evalhome, n_correct: int) -> float:
    correct_ids = {e.item_id for e in evalhome.entries[:n_correct]}
    transport = GoldAnswerTransport(evalhome, correct_ids)
    cfg = EvalRunConfig(shots=0, endpoint=mock_endpoint())
    report = run_eval(evalhome, cfg, transport=transport)
    assert sum(1 for r in report.per_item if r["correct"]) == n_correct
    return report.overall_micro


def test_c2_accuracy_arithmetic_78_and_61(evalhome):
    assert _micro_with_correct(evalhome, 78) == 69.03
    assert _micro_with_correct(evalhome, 61) == 53.98
    _report("C2", "accuracy arithmetic: 78/113 -> 69.03 and 61/113 -> 53.98, exact")


def test_c2_accuracy_arithmetic_68_of_113(evalhome):
    micro = _micro_with_correct(evalhome, 68)
    assert micro == 60.17, (
        f"got {micro}: 68/113 = 60.17699...%, and the documented rounding rule "
        "round(10000*c/t)/100 yields 60.18. No integer count of 113 rounds to "
        "60.17 under that rule (the rule is pinned by 78/113 -> 69.03), so the "
        "60.17 target cannot be reproduced by any implementation that also "
        "satisfies the other two checks. Expected failure, kept for the record."
    )


def test_c3_mix_ratios(tmp_path):
    domain = [
        {"doc_id": f"d{i:04d}", "text": "字" * 100, "source_kind": "domain_book", "token_count": 100}
        for i in range(100)
    ]  # 10,000 tokens
    general = [
        {"doc_id": f"g{i:04d}", "text": "字" * (80 + i % 41), "source_kind": "general",
         "token_count": 80 + i % 41}
        for i in range(1200)
    ]
    max_item = max(records_tokens(general))
    for k in (0, 1, 2, 5, 10):
        plan = MixPlan(seed=42, ratio=f"1:{k}", mode="dapt")
        mixed, report = mix(domain, general, plan)
        assert report.domain_tokens == 10_000
        assert abs(report.achieved_ratio - k) <= max_item / report.domain_tokens, f"k={k}"
        if k == 0:
            assert report.general_count == 0
        out_a, out_b = tmp_path / f"mix{k}_a.jsonl", tmp_path / f"mix{k}_b.jsonl"
        write_jsonl(out_a, mixed)
        write_jsonl(out_b, mix(domain, general, MixPlan(seed=42, ratio=f"1:{k}", mode="dapt"))[0])
        assert out_a.read_bytes() == out_b.read_bytes(), f"k={k} not byte-identical"
    _report("C3", "mix ratios 1:0..1:10 within one item's tokens, byte-identical reruns")


def test_c4_dedup_oracle():
    started = time.monotonic()
    docs, planted = build_dedup_docs(n_docs=500, n_pairs=50)
    cfg = DedupConfig(jaccard_threshold=0.8)
    shingles = {d.doc_id: shingle(d, cfg.ngram) for d in docs}
    for a, b in planted:  # planted pairs really are near-duplicates
        assert jaccard(shingles[a], shingles[b]) >= 0.85
    _, pairs, _ = near_dedup(docs, cfg)
    oracle = brute_force_pairs(docs, cfg)
    found = {(p.a, p.b) for p in pairs}
    truth = {(p.a, p.b) for p in oracle}
    assert found <= truth, "reported pair below threshold (precision < 1.0)"
    recall = len(found & truth) / len(truth)
    assert recall >= 0.95, f"recall {recall:.3f}"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report("C4", f"near-dup precision 1.0, recall {recall:.3f} vs O(n^2) oracle ({elapsed:.1f}s)")


def test_c5_filter_partition_and_monotonicity():
    docs = build_filter_docs(n=1000)
    lexicon = frozenset(SENSITIVE_WORDS)
    _, report = run_filters(docs, FilterConfig(), lexicon=lexicon)
    assert report.input == 1000
    assert report.retained + sum(report.dropped.values()) == 1000

    settings = {
        "length": [FilterConfig(min_effective_chars=c) for c in (100, 50, 10)],
        "language": [FilterConfig(min_language_ratio=r) for r in (0.9, 0.7, 0.3)],
    }
    for name, cfgs in settings.items():
        previous = None
        for cfg in cfgs:
            kept, _ = run_filters(build_filter_docs(n=1000), cfg, lexicon=lexicon)
            ids = {d.doc_id for d in kept}
            if previous is not None:
                assert previous <= ids, f"{name} filter not monotone"
            previous = ids
    lexicons = [frozenset(SENSITIVE_WORDS), frozenset(SENSITIVE_WORDS[:2]), frozenset(SENSITIVE_WORDS[:1])]
    previous = None
    for lex in lexicons:
        kept, _ = run_filters(build_filter_docs(n=1000), FilterConfig(), lexicon=lex)
        ids = {d.doc_id for d in kept}
        if previous is not None:
            assert previous <= ids, "sensitive filter not monotone"
        previous = ids
    _report("C5", "filter partition sums to 1000; 3-setting loosening is monotone per filter")


def test_c6_trainer_config_emission(tmp_path):
    dapt_path = tmp_path / "dapt.json"
    dapt = emit_trainer_config("dapt", dapt_path)
    assert dapt.to_dict() == {
        "precision": "fp16",
        "epochs": 4,
        "batch_size": 64,
        "learning_rate": 1e-4,
        "warmup_ratio": 0.1,
        "lr_scheduler": "cosine",
        "max_length": 1024,
    }
    assert config_from_json(TrainerConfig, dapt_path, "trainer config") == dapt
    sft_path = tmp_path / "sft.json"
    sft = emit_trainer_config("sft", sft_path)
    assert sft.max_length == 1536
    assert config_from_json(TrainerConfig, sft_path, "trainer config") == sft
    _report("C6", "trainer config exact values for dapt/sft with round-trip parse equality")


def test_c7_generation_validation(tmp_path):
    docs = build_gen_docs()
    categories = load_categories()
    archive = ResponseArchive(tmp_path / "archive")

    def run(transport):
        client = ChatClient(mock_endpoint(), transport)
        items, reports = [], []
        for subset, kind in ((docs[:50], "mcq"), (docs[50:97], "multi_turn"), (docs[97:], "one_turn")):
            got, report = batch_generate(subset, [kind], client, budget=1000, archive=archive,
                                          templates=packaged_templates(kind))
            items.extend(got)
            reports.append(report)
        return items, reports

    items, reports = run(ScriptedTransport(gen_script(categories)))
    assert len(archive_ids(archive)) == 100, "archive must hold exactly the 100 responses"
    assert sum(r.accepted for r in reports) == 90
    assert sum(r.rejected_total for r in reports) == 10
    merged: dict[str, int] = {}
    for r in reports:
        for cls, n in r.rejected.items():
            merged[cls] = merged.get(cls, 0) + n
    assert merged == {
        "MalformedResponse": 4,
        "OptionMismatch": 1,
        "ArityError": 1,
        "RoleOrderViolation": 2,
        "CategoryOutOfSet": 1,
        "CountOutOfRange": 1,
    }, "every generation error class classified"

    out_live = tmp_path / "live.jsonl"
    write_jsonl(out_live, (i.to_dict() for i in items))

    replay_items, replay_reports = run(OfflineTransport())
    assert sum(r.requests_sent for r in replay_reports) == 0, "network must stay untouched"
    out_replay = tmp_path / "replay.jsonl"
    write_jsonl(out_replay, (i.to_dict() for i in replay_items))
    assert out_live.read_bytes() == out_replay.read_bytes()
    _report("C7", "100 archived responses -> 90 accepted / 10 classified; offline replay byte-identical")


def test_c8_prompt_construction(evalhome):
    for entry in evalhome.entries:
        exemplars = select_exemplars(evalhome, entry, 5)
        (msg,) = build_prompt(entry.item, exemplars)
        blocks = msg["content"].split("\n\n")
        exemplar_blocks = [b for b in blocks[1:] if not b.rstrip().endswith("答案：")]
        target_blocks = [b for b in blocks[1:] if b.rstrip().endswith("答案：")]
        assert len(exemplar_blocks) == 5, entry.item_id
        assert len(target_blocks) == 1, entry.item_id
        assert entry.item.question in target_blocks[0]
        for block in exemplar_blocks:
            assert entry.item.question not in block, "scored item leaked into exemplars"

        (zero,) = build_prompt(entry.item, [])
        zero_blocks = zero["content"].split("\n\n")
        assert len(zero_blocks) == 2  # header + target only
        assert zero_blocks[1].rstrip().endswith("答案：")
    _report("C8", "5-shot prompts: 5 exemplar blocks, no leakage; zero-shot: none (all 113 items)")


def test_c9_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    config = write_pipeline_fixture(tmp_path)
    assert cli_main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out1")]) == 0
    assert cli_main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out2")]) == 0
    m1 = PipelineManifest.load_or_create(tmp_path / "out1" / "manifest.json")
    m2 = PipelineManifest.load_or_create(tmp_path / "out2" / "manifest.json")
    assert [r.stage for r in m1.stages] == [r.stage for r in m2.stages] == ["ingest", "filter", "dedup", "mix"]
    d1 = {k.replace("out1", "{out}"): v for k, v in m1.output_digests().items()}
    d2 = {k.replace("out2", "{out}"): v for k, v in m2.output_digests().items()}
    assert d1 == d2, "manifest digests differ between identical runs"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report("C9", f"pipeline run x2 over 20-doc fixture: identical manifest digests ({elapsed:.1f}s)")
