from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import runpy
import shutil
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import renokit.endpoint
import renokit.jsonl
import renokit.pipeline
from renokit.cli import main
from renokit.endpoint import EndpointConfig
from renokit.evalharness import EvalReport
from renokit.jsonl import read_json, read_jsonl, write_json, write_jsonl
from renokit.mixer import MODES, MixPlan
from renokit.pipeline import PipelineManifest, PipelineRunner, config_digest, run_pipeline, summarize_artifact
from renokit.errors import StageFailure, UnknownSchema

from fixture_data import write_evalhome, write_pipeline_fixture
from mocks import archive_entries


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture()
def corpus_dir(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "a.txt").write_text("第一篇正常长度的中文文章内容，覆盖装修流程说明。", encoding="utf-8")
    (raw / "b.txt").write_text("第二篇正常长度的中文文章内容，介绍防水施工要点。", encoding="utf-8")
    return raw


def _directory_config(tmp_path):
    """The pipeline fixture with its whole raw/ directory as one ingest input."""
    config_path = write_pipeline_fixture(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["ingest"]["inputs"] = [{"path": "raw", "kind": "domain_book"}]
    config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
    return config_path


class TestStageCommands:
    def test_ingest_filter_dedup_mix_chain(self, tmp_path, corpus_dir):
        docs = tmp_path / "docs.jsonl"
        assert run_cli("ingest", "--in", corpus_dir, "--kind", "domain_book", "--out", docs,
                       "--stats", tmp_path / "stats.json") == 0
        assert len(list(read_jsonl(docs))) == 2

        kept = tmp_path / "kept.jsonl"
        cfg = tmp_path / "filters.json"
        cfg.write_text('{"min_effective_chars": 5, "min_language_ratio": 0.5}', encoding="utf-8")
        assert run_cli("filter", "--in", docs, "--out", kept, "--report", tmp_path / "fr.json",
                       "--config", cfg) == 0
        report = read_json(tmp_path / "fr.json")
        assert report["input"] == 2 and report["retained"] == 2

        unique = tmp_path / "unique.jsonl"
        assert run_cli("dedup", "--in", kept, "--out", unique, "--pairs", tmp_path / "pairs.jsonl") == 0

        general = tmp_path / "general.jsonl"
        write_jsonl(general, [{"id": f"g{i}", "text": "通用内容样例" * 10, "source_kind": "general"} for i in range(20)])
        train = tmp_path / "train.jsonl"
        assert run_cli("mix", "--domain", unique, "--general", general, "--ratio", "1:1",
                       "--mode", "dapt", "--seed", 7, "--out", train, "--report", tmp_path / "mix.json") == 0
        assert read_json(tmp_path / "mix.json")["seed"] == 7

    def test_mix_short_pool_is_stage_error_without_flag(self, tmp_path):
        domain = tmp_path / "d.jsonl"
        general = tmp_path / "g.jsonl"
        write_jsonl(domain, [{"id": "d1", "text": "字" * 100, "source_kind": "domain_book", "token_count": 100}])
        write_jsonl(general, [{"id": "g1", "text": "字" * 10, "source_kind": "general", "token_count": 10}])
        out = tmp_path / "t.jsonl"
        assert run_cli("mix", "--domain", domain, "--general", general, "--ratio", "1:5",
                       "--mode", "dapt", "--out", out) == 3
        assert run_cli("mix", "--domain", domain, "--general", general, "--ratio", "1:5",
                       "--mode", "dapt", "--out", out, "--allow-short") == 0

    def test_emit_config(self, tmp_path):
        out = tmp_path / "trainer.json"
        assert run_cli("emit-config", "--mode", "sft", "--out", out) == 0
        assert read_json(out)["max_length"] == 1536

    def test_mix_mip_mode(self, tmp_path):
        domain = tmp_path / "d.jsonl"
        sft = tmp_path / "s.jsonl"
        write_jsonl(domain, [{"id": "d1", "text": "领域语料内容", "source_kind": "domain_book", "token_count": 6}])
        write_jsonl(sft, [{
            "kind": "one_turn",
            "turns": [{"role": "user", "content": "问？"}, {"role": "assistant", "content": "答。"}],
            "knowledge_id": "d1",
        }])
        out = tmp_path / "mip.jsonl"
        assert run_cli("mix", "--mode", "mip", "--domain", domain, "--instructions", sft,
                       "--seed", 3, "--out", out, "--report", tmp_path / "r.json") == 0
        rows = [obj for _, obj in read_jsonl(out)]
        assert {r["origin"] for r in rows} == {"pretrain", "instruction"}

    def test_mix_sft_mode_takes_instruction_rows(self, tmp_path):
        turns = [{"role": "user", "content": "地板怎么选？"}, {"role": "assistant", "content": "看用途。"}]
        rows = [{"sample_id": f"s{i}", "kind": "one_turn", "turns": turns, "knowledge_id": "k1"} for i in range(3)]
        write_jsonl(tmp_path / "sft.jsonl", rows)
        assert run_cli("mix", "--mode", "sft", "--domain", tmp_path / "sft.jsonl", "--out", tmp_path / "t.jsonl",
                       "--report", tmp_path / "r.json") == 0
        assert sorted((obj for _, obj in read_jsonl(tmp_path / "t.jsonl")), key=lambda r: r["sample_id"]) == rows
        assert read_json(tmp_path / "r.json")["domain_tokens"] == 3 * 8

    def test_mix_mip_rejects_general(self, tmp_path):
        domain = tmp_path / "d.jsonl"
        write_jsonl(domain, [{"id": "d1", "text": "x", "source_kind": "domain_book"}])
        assert run_cli("mix", "--mode", "mip", "--domain", domain, "--general", domain,
                       "--out", tmp_path / "o.jsonl") == 2


class TestStatsCommand:
    def test_mcq_stats_table(self, tmp_path, capsys):
        path = write_evalhome(tmp_path / "evalhome.jsonl")
        assert run_cli("stats", path) == 0
        out = capsys.readouterr().out
        assert "113" in out
        assert "25" in out
        assert "TOTAL" in out
        # difficulty and subclass are optional fields with defaults
        minimal = {"question": "台面高度合适吗？", "question_type": "judgment", "options": {"A": "是", "B": "否"},
                   "correct_option": "A"}
        write_jsonl(tmp_path / "minimal.jsonl", [minimal])
        assert run_cli("stats", tmp_path / "minimal.jsonl") == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"{'expertise':<20}{1:>12}{1:>12}", f"{'TOTAL':<20}{1:>12}{1:>12}", "question types: judgment=1"]
        write_jsonl(tmp_path / "bad.jsonl", [{**minimal, "correct_option": "C"}])
        assert run_cli("stats", tmp_path / "bad.jsonl") == 2

    def test_mixed_training_file_at_any_seed(self, tmp_path, capsys):
        """`mix --general` shuffles document rows and plain general rows together;
        the keys every row holds, not the first row's, choose how `stats` reads them."""
        domain, general = tmp_path / "unique.jsonl", tmp_path / "general.jsonl"
        write_jsonl(domain, [{"doc_id": f"d{i}", "text": "领域语料内容" * 10, "source_kind": "domain_book",
                              "token_count": 60, "char_count": 60, "status": "retained", "reason": None}
                             for i in range(6)])
        write_jsonl(general, [{"id": f"g{i}", "text": "通用内容样例" * 10, "source_kind": "general"} for i in range(20)])
        first_is_document, summaries = set(), set()
        for seed in range(6):
            train = tmp_path / f"train{seed}.jsonl"
            assert run_cli("mix", "--domain", domain, "--general", general, "--ratio", "1:1", "--seed", seed,
                           "--out", train) == 0
            first_is_document.add("doc_id" in next(read_jsonl(train))[1])
            capsys.readouterr()
            assert run_cli("stats", train) == 0
            summaries.add(capsys.readouterr().out)
        assert first_is_document == {True, False}
        assert summaries == {"training records: 12\n"}

    def test_document_file_is_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, [{"doc_id": f"d{i}", "text": "知识内容样例。", "source_kind": "domain_book",
                            "token_count": 6, "char_count": 7} for i in range(2)])
        calls = []

        def counting_read_jsonl(path):
            calls.append(path)
            return read_jsonl(path)

        monkeypatch.setattr(renokit.jsonl, "read_jsonl", counting_read_jsonl)
        assert summarize_artifact(path).startswith("documents: 2\n")
        assert calls == [path]

    def test_instruction_summary(self, tmp_path, capsys):
        turns = [{"role": "user", "content": "地板怎么选？"}, {"role": "assistant", "content": "看用途。"}]
        write_jsonl(tmp_path / "sft.jsonl", [
            {"kind": "one_turn", "turns": turns, "category": "材料", "knowledge_id": "k1"},
            {"kind": "multi_turn", "turns": turns * 2, "category": "材料", "knowledge_id": "k1"},
            {"kind": "one_turn", "turns": turns, "category": "施工", "knowledge_id": "k2"},
            {"kind": "one_turn", "turns": turns, "knowledge_id": "k2"},
        ])
        assert run_cli("stats", tmp_path / "sft.jsonl") == 0
        assert capsys.readouterr().out.splitlines() == [
            "instruction samples: 4", "  multi_turn: 1", "  one_turn: 3", "turns total: 10",
            "top categories: 材料=2, 施工=1"]

    def test_instruction_summary_without_categories(self, tmp_path, capsys):
        turns = [{"role": "user", "content": "地板怎么选？"}, {"role": "assistant", "content": "看用途。"}]
        write_jsonl(tmp_path / "sft.jsonl", [{"kind": "one_turn", "turns": turns, "knowledge_id": "k1"}] * 2)
        assert run_cli("stats", tmp_path / "sft.jsonl") == 0
        assert capsys.readouterr().out.splitlines() == ["instruction samples: 2", "  one_turn: 2", "turns total: 4"]

    def test_unknown_schema_exit_code(self, tmp_path):
        weird = tmp_path / "w.jsonl"
        write_jsonl(weird, [{"mystery": 1}])
        assert run_cli("stats", weird) == 2

    def test_summaries_cover_artifacts(self, tmp_path):
        config = write_pipeline_fixture(tmp_path)
        run_pipeline(config, tmp_path / "out")
        for name in ("docs.jsonl", "kept.jsonl", "unique.jsonl", "train.jsonl",
                     "filter_report.json", "dedup_report.json", "mix_report.json",
                     "trainer_config.json", "manifest.json", "ingest_stats.json",
                     "dup_pairs.jsonl"):
            assert summarize_artifact(tmp_path / "out" / name)
        dedup_summary = summarize_artifact(tmp_path / "out" / "dedup_report.json")
        assert "dedup report" in dedup_summary
        assert " LSH candidates; a pair at the threshold is a candidate with probability 0.9" in dedup_summary

    def test_unknown_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"foo": 1}', encoding="utf-8")
        with pytest.raises(UnknownSchema):
            summarize_artifact(path)

    def test_upper_case_suffixes(self, tmp_path, corpus_dir, capsys):
        """`stats` reads a file by its suffix in any case, as `ingest` does."""
        assert run_cli("ingest", "--in", corpus_dir, "--kind", "domain_book", "--out", tmp_path / "docs.JSONL",
                       "--stats", tmp_path / "stats.JSON") == 0
        for name, lower in (("docs.JSONL", "docs.jsonl"), ("stats.JSON", "stats.json")):
            shutil.copy(tmp_path / name, tmp_path / lower)
            capsys.readouterr()
            assert run_cli("stats", tmp_path / name) == 0
            assert capsys.readouterr().out == summarize_artifact(tmp_path / lower) + "\n"


class TestTermFreqCommand:
    def test_writes_csv(self, tmp_path):
        sft = tmp_path / "sft.jsonl"
        write_jsonl(sft, [{
            "kind": "one_turn",
            "turns": [{"role": "user", "content": "地板 地板 水电"}],
            "knowledge_id": "k",
        }])
        out = tmp_path / "new" / "terms.csv"
        assert run_cli("term-freq", "--in", sft, "--out", out) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1] == "地板,2"
        assert out.read_bytes() == "term,count\r\n地板,2\r\n水电,1\r\n".encode()
        assert [p.name for p in out.parent.iterdir()] == ["terms.csv"]  # written atomically, no temp file left

    def test_stopwords_are_dropped(self, tmp_path):
        sft = tmp_path / "sft.jsonl"
        write_jsonl(sft, [{"kind": "one_turn", "turns": [{"role": "user", "content": "地板 地板 水电"}],
                           "knowledge_id": "k"}])
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text(" 地板 \n\n", encoding="utf-8")
        out = tmp_path / "terms.csv"
        assert run_cli("term-freq", "--in", sft, "--out", out, "--stopwords", stopwords) == 0
        assert out.read_text(encoding="utf-8").splitlines() == ["term,count", "水电,1"]


@pytest.mark.parametrize("argv", [
    ("term-freq", "--in", "{tmp}/sft.jsonl", "--out", "{tmp}/terms.csv", "--stopwords", "{tmp}/missing_words.txt"),
    ("filter", "--in", "{tmp}/docs.jsonl", "--out", "{tmp}/kept.jsonl", "--report", "{tmp}/f.json",
     "--config", "{tmp}/filter_missing_words.json"),
], ids=["term-freq-stopwords", "filter-lexicon"])
def test_a_missing_word_list_is_a_missing_input(tmp_path, capsys, argv):
    """A stop-word list and a sensitive-word lexicon are read by one reader: a missing
    one is exit 2 with the message of any other missing input, and nothing is written."""
    _exit_code_inputs(tmp_path)
    write_json(tmp_path / "filter_missing_words.json", {"sensitive_word_list": str(tmp_path / "missing_words.txt")})
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    missing = tmp_path / "missing_words.txt"
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert not any((tmp_path / name).exists() for name in ("terms.csv", "kept.jsonl", "f.json"))


class TestPipelineRun:
    def test_manifest_chain_and_counts(self, tmp_path):
        config = write_pipeline_fixture(tmp_path)
        manifest = run_pipeline(config, tmp_path / "out")
        assert [r.stage for r in manifest.stages] == ["ingest", "filter", "dedup", "mix"]
        # chained: filter input digest equals ingest docs.jsonl output digest
        by_stage = {r.stage: r for r in manifest.stages}
        docs_path = str(tmp_path / "out" / "docs.jsonl")
        assert by_stage["filter"].inputs[docs_path] == by_stage["ingest"].outputs[docs_path]

    def test_rerun_identical_digests(self, tmp_path):
        config = write_pipeline_fixture(tmp_path)
        m1 = run_pipeline(config, tmp_path / "out1")
        m2 = run_pipeline(config, tmp_path / "out2")
        d1 = {k.replace("out1", ""): v for k, v in m1.output_digests().items()}
        d2 = {k.replace("out2", ""): v for k, v in m2.output_digests().items()}
        assert d1 == d2

    def test_resume_skips_everything(self, tmp_path):
        config = write_pipeline_fixture(tmp_path)
        m1 = run_pipeline(config, tmp_path / "out")
        n_records = len(m1.stages)
        m2 = run_pipeline(config, tmp_path / "out", resume=True)
        assert len(m2.stages) == n_records
        assert m2.output_digests() == m1.output_digests()

    def test_resume_reruns_a_stage_whose_output_is_gone(self, tmp_path):
        config = write_pipeline_fixture(tmp_path)
        m1 = run_pipeline(config, tmp_path / "out")
        kept = tmp_path / "out" / "kept.jsonl"
        before = kept.read_bytes()
        kept.unlink()
        m2 = run_pipeline(config, tmp_path / "out", resume=True)
        assert [r.stage for r in m2.stages] == [r.stage for r in m1.stages] + ["filter"]
        assert kept.read_bytes() == before
        assert m2.output_digests() == m1.output_digests()

    def test_run_without_a_mix_section(self, tmp_path):
        config_path = write_pipeline_fixture(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        del config["mix"]
        config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        assert run_cli("run", "--config", config_path, "--out-dir", tmp_path / "out") == 0
        assert [r.stage for r in PipelineManifest.load_or_create(tmp_path / "out" / "manifest.json").stages] == [
            "ingest", "filter", "dedup"]
        assert not (tmp_path / "out" / "train.jsonl").exists()

    def test_tampered_intermediate_detected_on_resume(self, tmp_path):
        config = write_pipeline_fixture(tmp_path)
        run_pipeline(config, tmp_path / "out")
        kept = tmp_path / "out" / "kept.jsonl"
        kept.write_text(kept.read_text(encoding="utf-8") + '{"doc_id": "x", "text": "t", "source_kind": "general", "token_count": 1, "char_count": 1}\n', encoding="utf-8")
        with pytest.raises(StageFailure, match="digest mismatch"):
            run_pipeline(config, tmp_path / "out", resume=True)

    def test_directory_input_runs_and_resumes(self, tmp_path):
        config = _directory_config(tmp_path)
        m1 = run_pipeline(config, tmp_path / "out")
        raw_files = sorted(str(p) for p in (tmp_path / "raw").iterdir())
        assert sorted(m1.latest("ingest").inputs) == raw_files
        n_records = len(m1.stages)
        m2 = run_pipeline(config, tmp_path / "out", resume=True)
        assert len(m2.stages) == n_records
        # a file added to the directory changes the input set: ingest reruns
        (tmp_path / "raw" / "extra.txt").write_text("新增的一篇装修文章，介绍吊顶的安装步骤与验收要点。" * 3, encoding="utf-8")
        m3 = run_pipeline(config, tmp_path / "out", resume=True)
        assert str(tmp_path / "raw" / "extra.txt") in m3.latest("ingest").inputs

    def test_resume_recomputes_stale_files(self, tmp_path):
        config_path = write_pipeline_fixture(tmp_path)
        run_pipeline(config_path, tmp_path / "out")
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["filters"]["min_effective_chars"] = 160
        config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        resumed = run_pipeline(config_path, tmp_path / "out", resume=True)
        assert [r.stage for r in resumed.stages] == ["ingest", "filter", "dedup", "mix", "filter", "dedup", "mix"]
        run_pipeline(config_path, tmp_path / "fresh")
        for name in ("kept.jsonl", "filter_report.json", "unique.jsonl", "dup_pairs.jsonl",
                     "dedup_report.json", "train.jsonl", "mix_report.json"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name

    def test_resume_keys_on_the_built_config(self, tmp_path):
        config_path = write_pipeline_fixture(tmp_path)
        n_records = len(run_pipeline(config_path, tmp_path / "out").stages)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["dedup"]["seed"] = 1  # the default, spelt out
        config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        assert len(run_pipeline(config_path, tmp_path / "out", resume=True).stages) == n_records

    def test_mix_digest_hashes_the_six_config_keys(self, tmp_path):
        """The mix stage's config digest is the asdict of its MixPlan, so a derived
        value such as ratio_general must stay a property, out of every resume key."""
        config_path = write_pipeline_fixture(tmp_path)
        write_jsonl(tmp_path / "sft.jsonl", [{"kind": "one_turn", "turns": [], "knowledge_id": "k"}])
        config = json.loads(config_path.read_text(encoding="utf-8"))
        for mix in (config["mix"], {"mode": "mip", "instructions": "sft.jsonl"}):
            runner = PipelineRunner({**config, "mix": mix}, tmp_path, tmp_path / "out")
            assert isinstance(runner.mix, MixPlan)
            assert list(dataclasses.asdict(runner.mix)) == ["seed", "ratio", "mode", "unit", "instructions",
                                                            "allow_short"]

    def test_config_digest_hashes_as_before(self):
        """Resume keys written by earlier versions still match: sorted keys, non-ASCII kept, a path as its str."""
        config = {"seed": 42, "inputs": [{"path": Path("raw/书.txt"), "kind": "domain_book"}]}
        assert config_digest(config) == "d6430694ed2e852cd93afa3043063ed19fa28042c5bf87ebf8c20fc2ccf36624"

    def test_resume_reruns_after_source_edit(self, tmp_path):
        config = write_pipeline_fixture(tmp_path)
        run_pipeline(config, tmp_path / "out")
        raw = tmp_path / "raw" / "book1.txt"
        raw.write_text(raw.read_text(encoding="utf-8") + "新增一句关于墙面找平的说明。", encoding="utf-8")
        resumed = run_pipeline(config, tmp_path / "out", resume=True)
        assert [r.stage for r in resumed.stages] == ["ingest", "filter", "dedup", "mix"] * 2
        run_pipeline(config, tmp_path / "fresh")
        names = sorted(p.name for p in (tmp_path / "fresh").iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in (tmp_path / "out").iterdir() if p.name != "manifest.json")
        for name in names:
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name

    def test_resume_reruns_after_lexicon_edit(self, tmp_path):
        config = write_pipeline_fixture(tmp_path)
        run_pipeline(config, tmp_path / "out")
        (tmp_path / "lexicon.txt").write_text("", encoding="utf-8")
        resumed = run_pipeline(config, tmp_path / "out", resume=True)
        assert [r.stage for r in resumed.stages][4:] == ["filter", "dedup", "mix"]
        run_pipeline(config, tmp_path / "fresh")
        for name in ("kept.jsonl", "filter_report.json", "unique.jsonl", "train.jsonl"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name

    def test_gen_rejects_a_reply_that_fails_its_schema(self, tmp_path):
        """An MCQ reply with an unknown difficulty is one MalformedResponse rejection, not a stage
        failure; a second run into the same out dir replays it from the run's archive."""
        def reply(messages):
            difficulty = "easy" if "指南" in messages[0]["content"] else "expertise"  # one web page's doc
            return json.dumps({**_MCQ_REPLY, "difficulty": difficulty}, ensure_ascii=False)

        config = _full_config(tmp_path)
        _mock_run(config, tmp_path / "out", reply)
        report = read_json(tmp_path / "out" / "gen_report.json")
        assert (report["accepted"], report["rejected"], report["requests_sent"]) == (9, {"MalformedResponse": 1}, 10)
        sft = (tmp_path / "out" / "sft.jsonl").read_bytes()
        assert len(sft.splitlines()) == 9

        def refuse(messages):
            raise AssertionError("sent a request the archive holds")

        _mock_run(config, tmp_path / "out", refuse)
        replay = read_json(tmp_path / "out" / "gen_report.json")
        assert (replay["requests_sent"], replay["replayed"]) == (0, 10)
        assert replay["rejected"] == {"MalformedResponse": 1}
        assert (tmp_path / "out" / "sft.jsonl").read_bytes() == sft

    def test_cli_run_and_exit_codes(self, tmp_path):
        config = write_pipeline_fixture(tmp_path)
        assert run_cli("run", "--config", config, "--out-dir", tmp_path / "out") == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run_cli("run", "--config", bad, "--out-dir", tmp_path / "out2") == 2

    def test_stage_failure_exit_code(self, tmp_path):
        config_path = tmp_path / "p.json"
        config_path.write_text(json.dumps({
            "seed": 1,
            "ingest": {"inputs": [{"path": "missing.txt", "kind": "domain_book"}]},
        }), encoding="utf-8")
        assert run_cli("run", "--config", config_path, "--out-dir", tmp_path / "out") == 3

    def test_manifest_records_seed_and_version(self, tmp_path):
        config = write_pipeline_fixture(tmp_path)
        manifest = run_pipeline(config, tmp_path / "out")
        assert all(r.seed == 42 for r in manifest.stages)
        loaded = PipelineManifest.load_or_create(tmp_path / "out" / "manifest.json")
        assert [r.stage for r in loaded.stages] == [r.stage for r in manifest.stages]

    def test_optional_gen_and_eval_stages(self, tmp_path):
        manifest = _gen_and_eval_run(tmp_path)
        assert [r.stage for r in manifest.stages] == ["ingest", "filter", "dedup", "mix", "gen", "eval"]
        sft_rows = [obj for _, obj in read_jsonl(tmp_path / "out" / "sft.jsonl")]
        domain_docs = [
            obj for _, obj in read_jsonl(tmp_path / "out" / "unique.jsonl")
            if obj["source_kind"] != "general"
        ]
        assert len(sft_rows) == len(domain_docs)
        report = read_json(tmp_path / "out" / "eval_report.json")
        assert report["items_total"] == 113

    def test_an_archive_of_one_file_per_request_is_refused_before_ingest(self, tmp_path, capsys):
        config_path = _full_config(tmp_path)
        archive = tmp_path / "out" / "gen_archive"
        write_json(archive / "0123456789abcdef0123456789abcdef.json", {"request_id": "0123456789abcdef0123456789abcdef",
                                                                        "response": "旧", "error": None})
        assert run_cli("run", "--config", config_path, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {archive}: archive of one .json file per request") and err.count("\n") == 1
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["gen_archive"]
        assert not (tmp_path / "out" / "docs.jsonl").exists()

    def test_gen_budget_exhaustion_exit_code_4(self, tmp_path):
        config_path = _full_config(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["gen"]["budget"] = 2
        del config["eval"]
        config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        # unreachable endpoint is irrelevant: budget dies first on fresh requests
        assert run_cli("run", "--config", config_path, "--out-dir", tmp_path / "out") == 4
        assert (tmp_path / "out" / "sft.jsonl").exists()


@pytest.mark.parametrize("command", ["run-gen", "run-eval", "eval"])
def test_a_base_url_that_is_no_http_url_is_refused_up_front(tmp_path, capsys, command):
    """requests would refuse it only at the first request: `run` after ingest,
    filter, dedup and mix had run, exiting 3."""
    config_path = _full_config(tmp_path)
    endpoint = tmp_path / "ep_no_scheme.json"
    endpoint.write_text(json.dumps({"base_url": "localhost:9/v1", "model_name": "m"}), encoding="utf-8")
    if command == "eval":
        argv = ("eval", "--dataset", tmp_path / "evalhome.jsonl", "--endpoint", endpoint, "--shots", "0",
                "--out", tmp_path / "out" / "report.json")
    else:
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config[command.removeprefix("run-")]["endpoint"] = endpoint.name
        config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        argv = ("run", "--config", config_path, "--out-dir", tmp_path / "out")
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (f"error: endpoint config {endpoint}: base_url must be an http or https URL "
                                       "with a host, got 'localhost:9/v1'\n")
    assert not (tmp_path / "out").exists()


def _full_config(tmp_path):
    """The pipeline fixture with gen and eval stages against ep.json."""
    config_path = write_pipeline_fixture(tmp_path)
    endpoint = EndpointConfig(base_url="http://mock.invalid", model_name="mock-model", max_retries=0, backoff=(0.0,))
    write_json(tmp_path / "ep.json", endpoint.to_dict())
    write_evalhome(tmp_path / "evalhome.jsonl")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["gen"] = {"kind": "mcq", "endpoint": "ep.json", "budget": 100}
    config["eval"] = {"dataset": "evalhome.jsonl", "endpoint": "ep.json", "shots": [0]}
    config_path.write_text(json.dumps(config, ensure_ascii=False, indent=2), encoding="utf-8")
    return config_path


_MCQ_REPLY = {
    "question": "知识点判断？",
    "question_type": "单选",
    "candidate_options": {k: f"选{k}" for k in "ABCD"},
    "answer": {"correct_option": "A", "reason": "依据"},
}


def _mock_run(config_path, out, reply=lambda messages: json.dumps(_MCQ_REPLY, ensure_ascii=False), resume=False):
    """run_pipeline with gen answered by `reply` and eval by a constant answer, through the test mocks."""
    from mocks import ConstantTransport, ScriptedTransport

    return run_pipeline(config_path, out, resume=resume, gen_transport=ScriptedTransport(reply),
                        eval_transport=ConstantTransport("答案：A"))


def _gen_and_eval_run(tmp_path):
    """_full_config run into tmp_path/out, gen and eval answered by the test mocks."""
    return _mock_run(_full_config(tmp_path), tmp_path / "out")


def _artifacts(out):
    """Every file of a run's out dir but the manifest, by name; gen_report.json's count of
    requests is summed over sent and replayed, which a resume splits differently."""
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file() and p.name != "manifest.json"}
    gen = json.loads(files.pop("gen_report.json"))
    gen["requests"] = gen.pop("requests_sent") + gen.pop("replayed")
    return files, gen


class _Cut:
    """Replacements for jsonl._atomic_write and the archive's endpoint._append that count
    their calls together and raise KeyboardInterrupt at the k-th: before it writes anything,
    or, with `half` and when that call is an append, after the first half of its bytes."""

    def __init__(self, k: int, half: bool):
        self.k, self.half = k, half
        self.calls = itertools.count(1)
        self.appending = False  # the k-th call is an append
        self.real_write, self.real_append = renokit.jsonl._atomic_write, renokit.endpoint._append

    @contextlib.contextmanager
    def atomic_write(self, path):
        if next(self.calls) == self.k:
            raise KeyboardInterrupt(f"write {self.k}: {path}")
        with self.real_write(path) as fh:
            yield fh

    def append(self, path, data):
        if next(self.calls) == self.k:
            self.appending = True
            if self.half:
                self.real_append(path, data[:len(data) // 2])
            raise KeyboardInterrupt(f"append {self.k}: {path}")
        return self.real_append(path, data)


def _restore(saved, out):
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(saved, out)


class TestInterruptedRun:
    """A run cut short at any file write leaves nothing that poisons a resume: resumed with
    its own config or with the one before it, it ends with the artifacts of a clean run."""

    @pytest.fixture()
    def configs(self, tmp_path):
        config_a = _full_config(tmp_path)
        config = json.loads(config_a.read_text(encoding="utf-8"))
        config["filters"]["min_effective_chars"] = 160
        config_b = tmp_path / "pipeline_b.json"
        config_b.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        clean = {}
        for config_path in (config_a, config_b):
            _mock_run(config_path, tmp_path / f"clean_{config_path.stem}")
            clean[config_path] = _artifacts(tmp_path / f"clean_{config_path.stem}")
        assert clean[config_a] != clean[config_b]
        return config_a, config_b, clean

    def cut_every_write(self, tmp_path, monkeypatch, configs, start) -> int:
        """From the out dir saved at `start`, cut a resumed run of config B at each of its writes in
        turn, an archive append both before it writes and halfway, then resume with B and with A;
        returns the number of writes of the whole run."""
        config_a, config_b, clean = configs
        out, cut = tmp_path / "out", tmp_path / "cut"
        for k in itertools.count(1):
            for half in (False, True):
                _restore(start, out)
                with monkeypatch.context() as m:
                    writes = _Cut(k, half)
                    m.setattr(renokit.jsonl, "_atomic_write", writes.atomic_write)
                    m.setattr(renokit.endpoint, "_append", writes.append)
                    try:
                        _mock_run(config_b, out, resume=True)
                    except KeyboardInterrupt:
                        pass
                    else:
                        return k - 1
                _restore(out, cut)
                for config_path in (config_b, config_a):
                    _restore(cut, out)
                    _mock_run(config_path, out, resume=True)
                    assert _artifacts(out) == clean[config_path], (k, half, config_path.name)
                if not writes.appending:
                    break  # only an append is also cut halfway

    def test_cut_after_a_finished_run_of_other_config(self, tmp_path, monkeypatch, configs):
        _mock_run(configs[0], tmp_path / "out")
        _restore(tmp_path / "out", tmp_path / "start")
        # filter 4 writes (the unfinished record, two files, the finished record), dedup and mix 5,
        # gen 4 (every request is in the archive); ingest and eval are skipped
        assert self.cut_every_write(tmp_path, monkeypatch, configs, tmp_path / "start") == 18

    def test_cut_in_a_first_run(self, tmp_path, monkeypatch, configs):
        (tmp_path / "start").mkdir()
        # the 18 above, ingest 4, eval 3 and 8 archive appends
        assert self.cut_every_write(tmp_path, monkeypatch, configs, tmp_path / "start") == 33


def _mip_run(tmp_path):
    """The pipeline fixture in MIP mode, with three instruction samples, run into tmp_path/out."""
    config_path = write_pipeline_fixture(tmp_path)
    turns = [{"role": "user", "content": "地板怎么选？"}, {"role": "assistant", "content": "看用途。"}]
    samples = [{"kind": "one_turn", "turns": turns, "knowledge_id": f"k{i}"} for i in range(3)]
    write_jsonl(tmp_path / "sft.jsonl", samples)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["mix"] = {"mode": "mip", "instructions": "sft.jsonl"}
    config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
    return run_pipeline(config_path, tmp_path / "out")


def _documents(total, book, website, general, standard, status):
    """The summary of a document file of the pipeline fixture: (docs, tokens) per source kind."""
    kinds = {"domain_book": book, "domain_website": website, "general": general, "national_standard": standard}
    return "\n".join([f"documents: {total[0]}", *(f"  {k}: {d} docs, {t} tokens" for k, (d, t) in kinds.items()),
                      f"status: {status}={total[0]}", f"total tokens: {total[1]}"])


# What `stats` prints for every artifact of the two fixture runs.
_STATS_COMMON = {
    "docs.jsonl": _documents((20, 3966), (5, 836), (7, 776), (6, 2016), (2, 338), "ingested"),
    "kept.jsonl": _documents((17, 3808), (5, 836), (4, 618), (6, 2016), (2, 338), "ingested"),
    "unique.jsonl": _documents((16, 3620), (4, 668), (4, 598), (6, 2016), (2, 338), "retained"),
    "dup_pairs.jsonl": "duplicate pairs: 1",
    "ingest_stats.json": 'ingest stats: {"tokenizer": "approx-cjk-v1", "documents": {"domain_book": 5, '
                         '"domain_website": 7, "general": 6, "national_standard": 2}, "tokens": {"domain_book": 836, '
                         '"domain_website": 776, "general": 2016, "national_standard": 338}, "failures": {}, '
                         '"total_documents": 20, "total_tokens": 3966}',
    "filter_report.json": "filter report: input=20 retained=17 dropped: sensitive=1, language=1, length=1",
    "dedup_report.json": "dedup report: input=17 retained=16 dropped: exact=0, near=1, sentence=0; tokens 3808 -> "
                         "3620; 1 near-dup pairs of 2 LSH candidates; a pair at the threshold is a candidate with "
                         "probability 0.9470",
    "trainer_config.json": "trainer config: precision=fp16, epochs=4, batch_size=64, learning_rate=0.0001, "
                           "warmup_ratio=0.1, lr_scheduler=cosine, max_length=1024",
}
_STATS_GOLDEN = {
    _gen_and_eval_run: {
        **_STATS_COMMON,
        "train.jsonl": _documents((15, 3284), (4, 668), (4, 598), (5, 1680), (2, 338), "retained"),
        "mix_report.json": "mix report: mode=dapt domain=10 general=5 ratio=1:1 achieved=1.0474 seed=42",
        "sft.jsonl": "\n".join([f"{'category':<20}{'subclasses':>12}{'questions':>12}",
                                f"{'expertise':<20}{1:>12}{10:>12}", f"{'TOTAL':<20}{1:>12}{10:>12}",
                                "question types: single_choice=10"]),
        "gen_report.json": "generation report: accepted=10 rejected: none; sent=10 replayed=0",
        "eval_report.json": "eval report: evalhome shots=0 items=113 micro=27.43 macro=26.62",
        "manifest.json": "manifest: 6 stage records (ingest, filter, dedup, mix, gen, eval)",
    },
    _mip_run: {
        **_STATS_COMMON,
        "train.jsonl": "training records: 13",
        "mix_report.json": "mix report: mode=mip pretrain=10 instructions=3 total_tokens=1634 seed=42",
        "manifest.json": "manifest: 4 stage records (ingest, filter, dedup, mix)",
    },
}


@pytest.mark.parametrize("run", list(_STATS_GOLDEN), ids=["gen-and-eval", "mip"])
def test_stats_golden(tmp_path, run):
    """`stats` on every JSON and JSONL file a fixture run writes: a new artifact
    without a summary, or a summary that moved, fails here."""
    run(tmp_path)
    out = tmp_path / "out"
    summaries = {p.name: summarize_artifact(p) for p in out.iterdir() if p.suffix in (".json", ".jsonl")}
    assert summaries == _STATS_GOLDEN[run]


class TestCliMatchesRun:
    """The stage commands read each input file back; `run` hands the records over in
    memory. Both must write the same bytes."""

    def run_both(self, tmp_path, config_path, *mix_args):
        config = json.loads(config_path.read_text(encoding="utf-8"))
        run_pipeline(config_path, tmp_path / "run")

        cli = tmp_path / "cli"
        cli.mkdir()
        filters = tmp_path / "filters.json"
        filters.write_text(json.dumps({**config["filters"], "sensitive_word_list": str(tmp_path / "lexicon.txt")}),
                           encoding="utf-8")
        dedup = tmp_path / "dedup.json"
        dedup.write_text(json.dumps(config["dedup"]), encoding="utf-8")
        assert run_cli("ingest", "--in", tmp_path / "raw", "--kind", "domain_book", "--out", cli / "docs.jsonl",
                       "--stats", cli / "ingest_stats.json") == 0
        assert run_cli("filter", "--in", cli / "docs.jsonl", "--out", cli / "kept.jsonl",
                       "--report", cli / "filter_report.json", "--config", filters) == 0
        assert run_cli("dedup", "--in", cli / "kept.jsonl", "--out", cli / "unique.jsonl",
                       "--pairs", cli / "dup_pairs.jsonl", "--config", dedup) == 0
        assert run_cli("mix", "--domain", cli / "unique.jsonl", *mix_args,
                       "--out", cli / "train.jsonl", "--report", cli / "mix_report.json") == 0
        for name in ("docs.jsonl", "ingest_stats.json", "kept.jsonl", "filter_report.json", "unique.jsonl",
                     "dup_pairs.jsonl", "train.jsonl", "mix_report.json"):
            assert (cli / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name

    def test_stage_commands_write_what_run_writes(self, tmp_path):
        config_path = _directory_config(tmp_path)
        mix = json.loads(config_path.read_text(encoding="utf-8"))["mix"]
        self.run_both(tmp_path, config_path, "--ratio", mix["ratio"], "--mode", mix["mode"], "--unit", mix["unit"],
                      "--seed", mix["seed"])

    def test_mip_stage_commands_write_what_run_writes(self, tmp_path):
        config_path = _directory_config(tmp_path)
        turns = [{"role": "user", "content": "地板怎么选？"}, {"role": "assistant", "content": "看用途。"}]
        write_jsonl(tmp_path / "sft.jsonl", [{"kind": "one_turn", "turns": turns, "knowledge_id": f"k{i}"}
                                             for i in range(3)])
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["mix"] = {"mode": "mip", "instructions": "sft.jsonl"}
        config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        self.run_both(tmp_path, config_path, "--mode", "mip", "--instructions", tmp_path / "sft.jsonl",
                      "--seed", config["seed"])
        assert "\"origin\": \"instruction\"" in (tmp_path / "run" / "train.jsonl").read_text(encoding="utf-8")


class TestCommandsPrintTheStatsLine:
    """A command that makes a report prints the line that `stats` prints for the report's file."""

    def stdout(self, capsys, *argv) -> str:
        capsys.readouterr()
        assert run_cli(*argv) == 0
        return capsys.readouterr().out

    def test_each_command(self, tmp_path, capsys, monkeypatch):
        from mocks import ScriptedTransport

        config_path = write_pipeline_fixture(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        run, cli = tmp_path / "run", tmp_path / "cli"
        cli.mkdir()
        (tmp_path / "filters.json").write_text(json.dumps(
            {**config["filters"], "sensitive_word_list": str(tmp_path / "lexicon.txt")}), encoding="utf-8")
        write_json(tmp_path / "dedup.json", config["dedup"])
        turns = [{"role": "user", "content": "地板怎么选？"}, {"role": "assistant", "content": "看用途。"}]
        write_jsonl(tmp_path / "sft.jsonl", [{"kind": "one_turn", "turns": turns, "knowledge_id": "k"}])
        write_json(tmp_path / "ep.json", EndpointConfig(base_url="http://mock.invalid", model_name="m").to_dict())
        stats = functools.partial(self.stdout, capsys, "stats")

        assert self.stdout(capsys, "run", "--config", config_path, "--out-dir", run) == stats(run / "manifest.json")
        commands = [
            (("ingest", "--in", tmp_path / "raw", "--kind", "domain_book", "--out", cli / "docs.jsonl",
              "--stats", cli / "ingest_stats.json"), cli / "ingest_stats.json"),
            (("filter", "--in", run / "docs.jsonl", "--out", cli / "kept.jsonl", "--report", cli / "filter.json",
              "--config", tmp_path / "filters.json"), cli / "filter.json"),
            # dedup writes no report: it prints the line of the one `run` wrote from the same input
            (("dedup", "--in", run / "kept.jsonl", "--out", cli / "unique.jsonl", "--pairs", cli / "pairs.jsonl",
              "--config", tmp_path / "dedup.json"), run / "dedup_report.json"),
            (("mix", "--domain", run / "unique.jsonl", "--ratio", "1:1", "--out", cli / "train.jsonl",
              "--report", cli / "mix.json"), cli / "mix.json"),
            (("mix", "--domain", run / "unique.jsonl", "--mode", "mip", "--instructions", tmp_path / "sft.jsonl",
              "--out", cli / "mip.jsonl", "--report", cli / "mip.json"), cli / "mip.json"),
            (("emit-config", "--mode", "sft", "--out", cli / "trainer.json"), cli / "trainer.json"),
        ]
        for argv, report in commands:
            assert self.stdout(capsys, *argv) == stats(report), argv[0]

        gen = ScriptedTransport(lambda messages: json.dumps(_MCQ_REPLY, ensure_ascii=False))
        monkeypatch.setattr(renokit.endpoint, "HttpTransport", lambda cfg: gen)
        assert self.stdout(capsys, "gen", "--kind", "mcq", "--knowledge", run / "unique.jsonl", "--endpoint",
                           tmp_path / "ep.json", "--out", cli / "mcq.jsonl", "--budget", 100,
                           "--report", cli / "gen.json") == stats(cli / "gen.json")
        assert gen.calls > 0

        monkeypatch.setattr(renokit.endpoint, "HttpTransport", lambda cfg: ScriptedTransport(lambda m: "答案：A"))
        printed = self.stdout(capsys, "eval", "--dataset", write_evalhome(tmp_path / "evalhome.jsonl"),
                              "--endpoint", tmp_path / "ep.json", "--shots", "0,5", "--out", cli / "eval.json")
        # one line per shot count, then the saved best: the same answer at both counts ties, and ties go to 0
        *settings, best = printed.splitlines()
        assert [line.split()[3] for line in settings] == ["shots=0", "shots=5"]
        assert best == settings[0]
        assert best + "\n" == stats(cli / "eval.json")


def _spy(monkeypatch, module, name: str, paths: list) -> None:
    """Note the path that each call of `module.name` gets, wherever a renokit module holds the function."""
    original = getattr(module, name)

    def spy(path, *args, **kwargs):
        paths.append(Path(path))
        return original(path, *args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("renokit") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, spy)


class TestStageHandoff:
    """Within one run each stage hands its records to the next in memory: a file the run
    wrote is read back only for a stage skipped on resume, and no file is hashed twice."""

    @pytest.mark.parametrize("make_config", [write_pipeline_fixture, _full_config], ids=["fixture", "gen-and-eval"])
    def test_fresh_run_reads_nothing_back_and_hashes_each_file_once(self, tmp_path, monkeypatch, make_config):
        reads, digests = [], []
        _spy(monkeypatch, renokit.jsonl, "read_jsonl", reads)
        _spy(monkeypatch, renokit.pipeline, "file_digest", digests)
        out = tmp_path / "out"
        manifest = _mock_run(make_config(tmp_path), out)
        assert [p for p in reads if out in p.parents] == []
        assert sorted(digests) == sorted(set(digests))
        recorded = {path for record in manifest.stages for path in {**record.inputs, **record.outputs}}
        assert {str(p) for p in digests} == recorded

    def test_resume_after_a_dedup_change_reads_kept_back(self, tmp_path, monkeypatch):
        config_path = write_pipeline_fixture(tmp_path)
        out = tmp_path / "out"
        run_pipeline(config_path, out)
        unique = (out / "unique.jsonl").read_bytes()
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["dedup"]["sentence_max_repeats"] = 1
        config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        reads = []
        with monkeypatch.context() as m:
            _spy(m, renokit.jsonl, "read_jsonl", reads)
            resumed = run_pipeline(config_path, out, resume=True)
        assert [r.stage for r in resumed.stages][4:] == ["dedup", "mix"]
        assert [p for p in reads if out in p.parents] == [out / "kept.jsonl"]
        assert (out / "unique.jsonl").read_bytes() != unique
        run_pipeline(config_path, tmp_path / "fresh")
        names = sorted(p.name for p in (tmp_path / "fresh").iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name

    def test_resume_with_dedup_skipped_reads_unique_once(self, tmp_path, monkeypatch):
        config_path = _full_config(tmp_path)
        out = tmp_path / "out"
        _mock_run(config_path, out)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["mix"]["ratio"] = "1:0"
        config["gen"]["budget"] = 99
        config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        reads = []
        with monkeypatch.context() as m:
            _spy(m, renokit.jsonl, "read_jsonl", reads)
            resumed = _mock_run(config_path, out, resume=True)
        assert [r.stage for r in resumed.stages][6:] == ["mix", "gen"]
        assert [p.name for p in reads if out in p.parents] == ["unique.jsonl"]

    def test_resume_with_nothing_to_rerun_reads_nothing_back(self, tmp_path, monkeypatch):
        config_path = _full_config(tmp_path)
        out = tmp_path / "out"
        _mock_run(config_path, out)
        reads = []
        with monkeypatch.context() as m:
            _spy(m, renokit.jsonl, "read_jsonl", reads)
            resumed = _mock_run(config_path, out, resume=True)
        assert len(resumed.stages) == 6
        assert [p for p in reads if out in p.parents] == []


def _eval_report(**fields) -> dict:
    """A whole eval report, as `eval` and `run` write it, with `fields` replaced."""
    report = EvalReport(dataset="evalhome", items_total=1, config={"shots": 0, "model": "m"}, overall_micro=100.0,
                        overall_macro=100.0, per_category={}, per_item=[])
    return {**report.to_dict(), **fields}


@pytest.mark.parametrize("config", [{"model": "m"}, {"shots": "0", "model": "m"}], ids=["missing", "string"])
def test_stats_refuses_an_eval_report_without_its_shot_count(tmp_path, capsys, config):
    """best_of_settings breaks ties on the shot count and the stats line prints
    it, so a report must hold it."""
    path = tmp_path / "eval.json"
    write_json(path, _eval_report(config=config))
    assert run_cli("stats", path) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert f"config shots must be an int >= 0, got {config.get('shots')!r}" in err


def _exit_code_inputs(tmp_path):
    write_jsonl(tmp_path / "docs.jsonl", [{
        "doc_id": "k1", "text": "知识内容样例。", "source_kind": "domain_book",
        "token_count": 6, "char_count": 7, "status": "retained", "reason": None,
    }])
    endpoint = EndpointConfig(base_url="http://localhost:9", model_name="m", max_retries=0, backoff=(0.0,))
    write_json(tmp_path / "ep.json", endpoint.to_dict())
    (tmp_path / "ep_typo.json").write_text('{"base_url": "http://localhost:9", "model": "m"}', encoding="utf-8")
    (tmp_path / "ep_no_model.json").write_text('{"base_url": "http://localhost:9"}', encoding="utf-8")
    ep = {"base_url": "http://localhost:9", "model_name": "m"}
    (tmp_path / "ep_backoff_nested.json").write_text(json.dumps({**ep, "backoff": [[1]]}), encoding="utf-8")
    (tmp_path / "ep_retries_negative.json").write_text(json.dumps({**ep, "max_retries": -1}), encoding="utf-8")
    (tmp_path / "dedup_typo.json").write_text('{"ngrams": 5}', encoding="utf-8")
    (tmp_path / "truncated.json").write_text('{"dataset": "e",\n', encoding="utf-8")
    (tmp_path / "dedup_ngram_str.json").write_text('{"ngram": "5"}', encoding="utf-8")
    (tmp_path / "dedup_seed_str.json").write_text('{"seed": "1"}', encoding="utf-8")
    mcq = {"question": "台面高度合适吗？", "question_type": "judgment", "options": {"A": "是", "B": "否"},
           "correct_option": "A"}
    write_jsonl(tmp_path / "evalhome.jsonl", [mcq])
    write_jsonl(tmp_path / "evalhome_bad.jsonl", [mcq, {**mcq, "correct_option": "C"}])
    write_jsonl(tmp_path / "evalhome_dup_id.jsonl", [{**mcq, "split": "dev", "id": "d"}] * 2)
    write_jsonl(tmp_path / "mcq_question_int.jsonl", [mcq, {**mcq, "question": 5}])
    write_jsonl(tmp_path / "mcq_correct_option_list.jsonl", [mcq, {**mcq, "correct_option": ["A"]}])
    (tmp_path / "template_no_slot.txt").write_text("没有知识槽位的模板。", encoding="utf-8")
    (tmp_path / "report_no_dataset.json").write_text('{"overall_micro": 50.0}', encoding="utf-8")
    (tmp_path / "report_labels_list.json").write_text('{"dataset": "e", "overall_micro": 50.0, "labels": ["base"]}',
                                                      encoding="utf-8")
    write_json(tmp_path / "report_whole.json", _eval_report(labels={"ratio": "1:0"}))
    write_json(tmp_path / "report_micro_str.json", _eval_report(overall_micro="50", labels={"ratio": "1:1"}))
    write_json(tmp_path / "report_dataset_list.json", _eval_report(dataset=["x"]))
    write_json(tmp_path / "report_label_list.json", _eval_report(labels={"model": ["a"]}))
    (tmp_path / "raw_surrogate.jsonl").write_text('{"text": "装修知识很重要。\\ud800"}\n{"text": "防水施工要点"}\n',
                                                  encoding="utf-8")
    doc = {"doc_id": "d1", "text": "知识内容样例。", "source_kind": "domain_book", "token_count": 6, "char_count": 7}
    write_jsonl(tmp_path / "doc_no_status.jsonl", [doc])
    write_jsonl(tmp_path / "doc_tokens_null.jsonl", [{**doc, "token_count": None, "status": "retained"}])
    write_jsonl(tmp_path / "sft_turns_str.jsonl", [{"kind": "one_turn", "turns": "地板", "knowledge_id": "k"}])
    write_jsonl(tmp_path / "doc_text_int.jsonl", [doc, {**doc, "text": 5}])
    write_jsonl(tmp_path / "doc_no_text.jsonl", [doc, {k: v for k, v in doc.items() if k != "text"}])
    # a row that passes every filter, but whose text ends in an escaped lone surrogate
    row = json.dumps({**doc, "text": "装修知识很重要，施工前要核对图纸。" * 8, "token_count": 128, "char_count": 137},
                     ensure_ascii=False)
    (tmp_path / "doc_surrogate.jsonl").write_text(
        json.dumps(doc, ensure_ascii=False) + "\n" + row.replace('。"', '。\\ud800"') + "\n", encoding="utf-8")
    write_jsonl(tmp_path / "doc_tokens_null_mix.jsonl", [doc, {**doc, "token_count": None}])
    write_jsonl(tmp_path / "turns_not_objects.jsonl", [doc, {"id": "s1", "turns": ["地板"]}])
    turns = [{"role": "user", "content": "地板怎么选？"}, {"role": "assistant", "content": "看用途。"}]
    write_jsonl(tmp_path / "sft.jsonl", [{"kind": "one_turn", "turns": turns, "knowledge_id": "d1"}])
    write_jsonl(tmp_path / "mip_text_int.jsonl", [{"id": "r1", "text": 5, "origin": 7}])
    write_jsonl(tmp_path / "pair_jaccard_str.jsonl", [{"a": "d1", "b": "d2", "jaccard": 0.9},
                                                      {"a": "d1", "b": "d3", "jaccard": "0.9"}])
    (tmp_path / "row_not_json.jsonl").write_text(json.dumps(doc) + '\n{"doc_id": "d2",\n', encoding="utf-8")
    (tmp_path / "row_not_object.jsonl").write_text('["d1"]\n', encoding="utf-8")
    (tmp_path / "report_array.json").write_text(json.dumps([_eval_report()]), encoding="utf-8")
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("装修笔记", encoding="utf-8")
    write_jsonl(tmp_path / "doc_id_two_texts.jsonl", [{**doc, "doc_id": doc_id, "text": text}
                                                      for doc_id, text in (("e", "乙文"), ("d", "甲文"), ("d", "乙文"))])
    for name, report in _PARTIAL_REPORTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(report), encoding="utf-8")
    for name, manifest in _BAD_MANIFESTS.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    run = {"ingest": {"inputs": [{"path": "missing.txt", "kind": "domain_book"}]}}
    for name, extra in (("run_missing", {}), ("run_mix_typo", {"mix": {"ratoi": "1:3"}}),
                        ("run_tokenizer", {"tokenizer": "other"}), *_RUN_CONFIG_ERRORS.items()):
        (tmp_path / f"{name}.json").write_text(json.dumps({**run, **extra}), encoding="utf-8")


# One shot count the one-item evalhome.jsonl can serve, so that each eval row
# below fails for its own reason, not for a shot shortfall.
_EVAL = {"dataset": "evalhome.jsonl", "endpoint": "ep.json", "shots": [0]}
# Run configs refused before any stage runs. Each also names a missing ingest
# input, so a value checked only when its stage runs would exit 3.
_RUN_CONFIG_ERRORS = {
    "run-seed-str": {"seed": "1"},
    "run-mix-seed-float": {"mix": {"seed": 1.5}},
    "run-allow-short-str": {"mix": {"allow_short": "no"}},
    "run-gen-budget-str": {"gen": {"endpoint": "ep.json", "budget": "many"}},
    "run-gen-no-budget": {"gen": {"endpoint": "ep.json"}},
    # 0 replays a full archive; below that no budget is a count of requests
    "run-gen-budget-negative": {"gen": {"endpoint": "ep.json", "budget": -1}},
    "run-eval-no-dataset": {"eval": {"endpoint": "ep.json"}},
    "run-eval-shots-int": {"eval": {**_EVAL, "shots": 5}},
    "run-eval-shots-negative": {"eval": {**_EVAL, "shots": [0, -5]}},
    "run-eval-shots-str": {"eval": {**_EVAL, "shots": ["5"]}},
    "run-eval-shots-empty": {"eval": {**_EVAL, "shots": []}},
    # evalhome.jsonl has no dev items, so it can serve no exemplar
    "run-eval-shots-shortfall": {"eval": {**_EVAL, "shots": [0, 5]}},
    "run-eval-labels-list": {"eval": {**_EVAL, "labels": ["base"]}},
    # sweep tables label rows with these values
    "run-eval-label-list": {"eval": {**_EVAL, "labels": {"model": ["a"]}}},
    "run-gen-kind": {"gen": {"endpoint": "ep.json", "budget": 1, "kind": "poem"}},
    # `run` takes one spelling per kind; only the CLI's --kind maps one-turn
    "run-gen-kind-dash": {"gen": {"endpoint": "ep.json", "budget": 1, "kind": "one-turn"}},
    "run-gen-endpoint-missing": {"gen": {"endpoint": "missing_ep.json", "budget": 1}},
    "run-eval-endpoint-missing": {"eval": {**_EVAL, "endpoint": "missing_ep.json"}},
    "run-eval-dataset-missing": {"eval": {**_EVAL, "dataset": "missing.jsonl"}},
    "run-mix-mode": {"mix": {"mode": "pretrain"}},
    # modes and units are spelt exactly, in lower case
    "run-mix-mode-upper": {"mix": {"mode": "DAPT"}},
    "run-mix-ratio": {"mix": {"ratio": "1-3"}},
    "run-mix-ratio-domain-part": {"mix": {"ratio": "2:5"}},
    "run-mix-unit": {"mix": {"unit": "chars"}},
    "run-mix-ratio-null": {"mix": {"ratio": None}},
    "run-mix-mip-no-instructions": {"mix": {"mode": "mip"}},
    "run-mix-instructions-int": {"mix": {"mode": "mip", "instructions": 5}},
    "run-gen-template-int": {"gen": {"endpoint": "ep.json", "budget": 1, "template": 5}},
    "run-ingest-path-int": {"ingest": {"inputs": [{"path": 5, "kind": "domain_book"}]}},
    "run-ingest-inputs-int": {"ingest": {"inputs": 5}},
    "run-filters-min-chars-negative": {"filters": {"min_effective_chars": -1}},
    "run-lexicon-missing": {"filters": {"sensitive_word_list": "missing_words.txt"}},
    "run-dedup-num-perm": {"dedup": {"num_perm": 100}},
    "run-mix-instructions-missing": {"mix": {"mode": "mip", "instructions": "missing_sft.jsonl"}},
    # an instruction file that only mip mode would read
    "run-mix-instructions-dapt": {"mix": {"mode": "dapt", "instructions": "sft.jsonl"}},
    "run-gen-endpoint-typo": {"gen": {"endpoint": "ep_typo.json", "budget": 1}},
    "run-gen-template-missing": {"gen": {"endpoint": "ep.json", "budget": 1, "template": "missing.txt"}},
    "run-gen-template-no-slot": {"gen": {"endpoint": "ep.json", "budget": 1, "template": "template_no_slot.txt"}},
    "run-gen-categories-missing": {"gen": {"endpoint": "ep.json", "budget": 1, "categories": "missing.txt"}},
    "run-eval-endpoint-typo": {"eval": {**_EVAL, "endpoint": "ep_typo.json"}},
    "run-eval-dataset-bad-row": {"eval": {**_EVAL, "dataset": "evalhome_bad.jsonl"}},
    "run-gen-endpoint-backoff-nested": {"gen": {"endpoint": "ep_backoff_nested.json", "budget": 1}},
    "run-eval-endpoint-retries-negative": {"eval": {**_EVAL, "endpoint": "ep_retries_negative.json"}},
    "run-mix-seed-null": {"mix": {"seed": None}},
    "run-mix-mode-int": {"mix": {"mode": 5}},
    "run-mix-unit-null": {"mix": {"unit": None}},
    "run-gen-lenient-str": {"gen": {"endpoint": "ep.json", "budget": 1, "lenient": "yes"}},
    "run-gen-kind-int": {"gen": {"endpoint": "ep.json", "budget": 1, "kind": 5}},
    "run-gen-categories-int": {"gen": {"endpoint": "ep.json", "budget": 1, "categories": 5}},
    "run-gen-endpoint-int": {"gen": {"endpoint": 5, "budget": 1}},
    "run-gen-budget-bool": {"gen": {"endpoint": "ep.json", "budget": True}},
    "run-gen-no-endpoint": {"gen": {"budget": 1}},
    "run-gen-typo": {"gen": {"endpoint": "ep.json", "budget": 1, "budgte": 2}},
    "run-eval-no-endpoint": {"eval": {"dataset": "evalhome.jsonl", "shots": [0]}},
    "run-eval-dataset-int": {"eval": {**_EVAL, "dataset": 5}},
    "run-eval-typo": {"eval": {**_EVAL, "extraction": "regex"}},
    "run-ingest-kind": {"ingest": {"inputs": [{"path": "missing.txt", "kind": "blog"}]}},
    "run-ingest-input-typo": {"ingest": {"inputs": [{"path": "missing.txt", "kind": "domain_book", "workers": 4}]}},
    "run-ingest-input-str": {"ingest": {"inputs": ["missing.txt"]}},
    "run-ingest-typo": {"ingest": {"inputs": [{"path": "missing.txt", "kind": "domain_book"}], "workers": 4}},
    "run-ingest-inputs-empty": {"ingest": {"inputs": []}},
    "run-typo": {"sede": 1},
    "run-tokenizer-int": {"tokenizer": 5},
    "run-seed-bool": {"seed": True},
    "run-filters-null": {"filters": None},
    "run-dedup-list": {"dedup": []},
    "run-mix-list": {"mix": ["x"]},
    "run-gen-list": {"gen": ["x"]},
    # an empty path names no file; null is the way to leave an optional file out
    "run-eval-dataset-empty": {"eval": {**_EVAL, "dataset": ""}},
    "run-gen-endpoint-empty": {"gen": {"endpoint": "", "budget": 1}},
    "run-gen-template-empty": {"gen": {"endpoint": "ep.json", "budget": 1, "template": ""}},
    "run-lexicon-empty": {"filters": {"sensitive_word_list": ""}},
}
# Reports that lack a key of their report class, or that have its keys but
# mistype a value.
_PARTIAL_REPORTS = {
    "stats-dedup-partial": {"pairs": 1, "dropped": {}},
    "stats-filter-no-input": {"dropped": {"length": 1}, "retained": 3},
    "stats-manifest-no-stage": {"stages": [{"x": 1}]},
    "stats-gen-rejected-list": {"requests_sent": 1, "accepted": 0, "rejected": []},
    "stats-filter-dropped-list": {"dropped": [], "retained": 1, "input": 1},
    "stats-manifest-stage-partial": {"version": "0.1.0", "stages": [{"stage": "ingest"}]},
}
# Out dirs holding a malformed manifest.json.
_BAD_MANIFESTS = {
    "run-manifest-record-partial": {"stages": [{"stage": "ingest"}]},
    "run-manifest-list": ["x"],
    "run-manifest-stages-int": {"stages": 5},
}
_GEN = ("gen", "--kind", "mcq", "--knowledge", "{tmp}/docs.jsonl", "--out", "{tmp}/sft.jsonl", "--replay-only")
_DEDUP = ("dedup", "--in", "{tmp}/docs.jsonl", "--out", "{tmp}/u.jsonl", "--pairs", "{tmp}/p.jsonl")
_MIX = ("mix", "--out", "{tmp}/t.jsonl", "--domain")
_TERM_FREQ = ("term-freq", "--in", "{tmp}/sft.jsonl", "--out", "{tmp}/terms.csv")


@pytest.mark.parametrize("argv, code", [
    (("emit-config", "--mode", "dapt", "--out", "{tmp}/trainer.json"), 0),
    (_DEDUP + ("--config", "{tmp}/dedup_typo.json"), 2),
    (_DEDUP + ("--config", "{tmp}/dedup_ngram_str.json"), 2),
    (_DEDUP + ("--config", "{tmp}/dedup_seed_str.json"), 2),
    (("dedup", "--in", "{tmp}/missing.jsonl", "--out", "{tmp}/u.jsonl", "--pairs", "{tmp}/p.jsonl"), 2),
    (("ingest", "--in", "{tmp}/missing.txt", "--kind", "domain_book", "--out", "{tmp}/d.jsonl"), 2),
    (("mix", "--domain", "{tmp}/docs.jsonl", "--ratio", "2:5", "--out", "{tmp}/t.jsonl"), 2),
    (_GEN + ("--endpoint", "{tmp}/ep_typo.json", "--budget", "1"), 2),
    (_GEN + ("--endpoint", "{tmp}/ep_no_model.json", "--budget", "1"), 2),
    (("run", "--config", "{tmp}/run_mix_typo.json", "--out-dir", "{tmp}/out"), 2),
    (("run", "--config", "{tmp}/run_tokenizer.json", "--out-dir", "{tmp}/out"), 2),
    *((("run", "--config", f"{{tmp}}/{name}.json", "--out-dir", "{tmp}/out"), 2) for name in _RUN_CONFIG_ERRORS),
    (("run", "--config", "{tmp}/run_missing.json", "--out-dir", "{tmp}/out"), 3),
    # online, without --replay-only: budget 0 stops the first request before it is sent
    (_GEN[:-1] + ("--endpoint", "{tmp}/ep.json", "--budget", "0"), 4),
    (("sweep-report", "--runs", "{tmp}/report_no_dataset.json", "--out", "{tmp}/sweep.csv"), 2),
    (("sweep-report", "--runs", "{tmp}/report_labels_list.json", "--out", "{tmp}/sweep.csv"), 2),
    (("sweep-report", "--runs", "{tmp}/report_whole.json", "{tmp}/report_micro_str.json", "--out", "{tmp}/sweep.csv"),
     2),
    (("sweep-report", "--runs", "{tmp}/report_dataset_list.json", "--out", "{tmp}/sweep.csv"), 2),
    (("sweep-report", "--runs", "{tmp}/report_label_list.json", "--out", "{tmp}/sweep.csv"), 2),
    (("ingest", "--in", "{tmp}/raw_surrogate.jsonl", "--kind", "domain_book", "--out", "{tmp}/d.jsonl"), 0),
    # a document row without a status reads as ingested, as in every stage
    (("stats", "{tmp}/doc_no_status.jsonl"), 0),
    (("stats", "{tmp}/doc_tokens_null.jsonl"), 2),
    (("stats", "{tmp}/sft_turns_str.jsonl"), 2),
    (("term-freq", "--in", "{tmp}/sft_turns_str.jsonl", "--out", "{tmp}/terms.csv"), 2),
    *((("stats", f"{{tmp}}/{name}.json"), 2) for name in _PARTIAL_REPORTS),
    *((("run", "--config", "{tmp}/run_missing.json", "--out-dir", f"{{tmp}}/{name}"), 2) for name in _BAD_MANIFESTS),
    (("run", "--config", "{tmp}/run_missing.json", "--out-dir", "{tmp}/run-manifest-list", "--resume"), 2),
    (("eval", "--dataset", "{tmp}/evalhome.jsonl", "--endpoint", "{tmp}/ep.json", "--shots", "0,5",
      "--out", "{tmp}/report.json"), 2),
    (("eval", "--dataset", "{tmp}/evalhome_dup_id.jsonl", "--endpoint", "{tmp}/ep.json", "--shots", "0,1",
      "--out", "{tmp}/report.json"), 2),
    (("stats", "{tmp}/mcq_question_int.jsonl"), 2),
    (("stats", "{tmp}/pair_jaccard_str.jsonl"), 2),
    (("eval", "--dataset", "{tmp}/mcq_correct_option_list.jsonl", "--endpoint", "{tmp}/ep.json", "--shots", "0",
      "--out", "{tmp}/report.json"), 2),
    (("filter", "--in", "{tmp}/doc_text_int.jsonl", "--out", "{tmp}/kept.jsonl", "--report", "{tmp}/f.json"), 2),
    (("filter", "--in", "{tmp}/doc_surrogate.jsonl", "--out", "{tmp}/kept.jsonl", "--report", "{tmp}/f.json"), 2),
    (("dedup", "--in", "{tmp}/doc_surrogate.jsonl", "--out", "{tmp}/u.jsonl", "--pairs", "{tmp}/p.jsonl"), 2),
    (_GEN + ("--endpoint", "{tmp}/ep_backoff_nested.json", "--budget", "1"), 2),
    (_GEN + ("--endpoint", "{tmp}/ep_retries_negative.json", "--budget", "1"), 2),
    (_MIX + ("{tmp}/doc_no_text.jsonl", "--mode", "mip", "--instructions", "{tmp}/sft.jsonl"), 2),
    (_MIX + ("{tmp}/turns_not_objects.jsonl",), 2),
    (_MIX + ("{tmp}/doc_tokens_null_mix.jsonl",), 2),
    # an instruction file that only mip mode would read, as in `run`
    (_MIX + ("{tmp}/docs.jsonl", "--mode", "dapt", "--instructions", "{tmp}/sft.jsonl"), 2),
    (("stats", "{tmp}/mip_text_int.jsonl"), 2),
    (_TERM_FREQ + ("--top", "-1"), 2),
    (_TERM_FREQ + ("--top", "0"), 2),
    (_TERM_FREQ + ("--top", "1"), 0),
], ids=["ok", "dedup-config-typo", "dedup-config-wrong-type", "dedup-seed-wrong-type", "dedup-missing-input",
        "ingest-missing-input", "mix-domain-part", "endpoint-config-typo", "endpoint-missing-model",
        "run-config-typo", "run-other-tokenizer", *_RUN_CONFIG_ERRORS,
        "run-stage-failure", "gen-budget-exhausted", "sweep-report-no-dataset", "sweep-report-labels-list",
        "sweep-report-micro-str", "sweep-report-dataset-list", "sweep-report-label-list", "ingest-raw-surrogate",
        "stats-doc-no-status",
        "stats-doc-tokens-null", "stats-turns-str", "term-freq-turns-str", *_PARTIAL_REPORTS, *_BAD_MANIFESTS,
        "run-manifest-list-resume", "eval-shots-shortfall", "eval-dev-id-repeated", "stats-mcq-question-int",
        "stats-pair-jaccard-str",
        "eval-mcq-correct-option-list", "filter-doc-text-int", "filter-doc-lone-surrogate",
        "dedup-doc-lone-surrogate", "gen-endpoint-backoff-nested",
        "gen-endpoint-retries-negative", "mix-mip-text-missing", "mix-turns-not-objects", "mix-token-count-null",
        "mix-dapt-instructions", "stats-mip-row-text-int", "term-freq-top-negative", "term-freq-top-zero",
        "term-freq-top-one"])
def test_exit_codes(tmp_path, capsys, argv, code):
    _exit_code_inputs(tmp_path)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == code
    err = capsys.readouterr().err
    assert (err == "") if code == 0 else err.startswith("error: ")


@pytest.mark.parametrize("argv, path", [
    (_GEN + ("--endpoint", "{tmp}/ep_typo.json", "--budget", "1"), "ep_typo.json"),
    (_GEN + ("--endpoint", "{tmp}/ep_backoff_nested.json", "--budget", "1"), "ep_backoff_nested.json"),
    (_DEDUP + ("--config", "{tmp}/dedup_typo.json"), "dedup_typo.json"),
    (("filter", "--in", "{tmp}/docs.jsonl", "--out", "{tmp}/k.jsonl", "--report", "{tmp}/f.json",
      "--config", "{tmp}/dedup_typo.json"), "dedup_typo.json"),
    (("run", "--config", "{tmp}/run-gen-endpoint-typo.json", "--out-dir", "{tmp}/out"), "ep_typo.json"),
], ids=["endpoint-config-typo", "gen-endpoint-backoff-nested", "dedup-config-typo", "filter-config-typo",
        "run-gen-endpoint-typo"])
def test_config_file_error_names_the_file(tmp_path, capsys, argv, path):
    _exit_code_inputs(tmp_path)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    assert str(tmp_path / path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["filter", "dedup"])
def test_lone_surrogate_names_the_line(tmp_path, capsys, command):
    _exit_code_inputs(tmp_path)
    outputs = ("--report", tmp_path / "f.json") if command == "filter" else ("--pairs", tmp_path / "p.jsonl")
    assert run_cli(command, "--in", tmp_path / "doc_surrogate.jsonl", "--out", tmp_path / "o.jsonl", *outputs) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'doc_surrogate.jsonl'}: line 2: text holds a lone surrogate '\\ud800' at position 136\n"
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ("stats", "{tmp}/truncated.json"),
    ("sweep-report", "--runs", "{tmp}/report_whole.json", "{tmp}/truncated.json", "--out", "{tmp}/t.csv"),
    _DEDUP + ("--config", "{tmp}/truncated.json"),
    ("run", "--config", "{tmp}/truncated.json", "--out-dir", "{tmp}/out"),
], ids=["stats", "sweep-report", "dedup-config", "run-config"])
def test_invalid_json_names_the_file(tmp_path, capsys, argv):
    _exit_code_inputs(tmp_path)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    assert f"{tmp_path / 'truncated.json'}: invalid JSON: Expecting" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("stats", "{tmp}/row_not_json.jsonl"), "{tmp}/row_not_json.jsonl: line 2: invalid JSON: Expecting"),
    (("dedup", "--in", "{tmp}/row_not_object.jsonl", "--out", "{tmp}/u.jsonl", "--pairs", "{tmp}/p.jsonl"),
     "{tmp}/row_not_object.jsonl: line 1: expected a JSON object\n"),
    (("sweep-report", "--runs", "{tmp}/report_array.json", "--out", "{tmp}/sweep.csv"),
     "{tmp}/report_array.json: expected a JSON object, got list\n"),
    (("stats", "{tmp}/empty.jsonl"), "{tmp}/empty.jsonl: empty file\n"),
    (("stats", "{tmp}/report_array.json"), "{tmp}/report_array.json: expected a JSON object\n"),
    (("stats", "{tmp}/notes.txt"), "{tmp}/notes.txt: expected .json or .jsonl\n"),
], ids=["row-not-json", "row-not-object", "sweep-report-array", "stats-empty-jsonl", "stats-json-array",
        "stats-txt"])
def test_malformed_file_is_named(tmp_path, capsys, argv, message):
    _exit_code_inputs(tmp_path)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: " + message.replace("{tmp}", str(tmp_path)))


def test_dedup_refuses_a_doc_id_naming_two_texts(tmp_path, capsys):
    _exit_code_inputs(tmp_path)
    assert run_cli("dedup", "--in", tmp_path / "doc_id_two_texts.jsonl", "--out", tmp_path / "u.jsonl",
                   "--pairs", tmp_path / "p.jsonl") == 2
    assert capsys.readouterr().err == "error: doc_id d names two different texts\n"
    assert not (tmp_path / "u.jsonl").exists()


@pytest.mark.parametrize("texts", [("甲  文", "甲\n文"), ("甲\n文", "甲  文")], ids=["spaces-first", "newline-first"])
def test_dedup_refuses_a_doc_id_on_two_spacings(tmp_path, capsys, texts):
    """Texts that differ only in whitespace are two texts; kept, the survivor would follow the input order."""
    doc = {"doc_id": "d", "source_kind": "domain_book", "token_count": 2, "char_count": 4}
    write_jsonl(tmp_path / "twins.jsonl", [{**doc, "text": text} for text in texts])
    assert run_cli("dedup", "--in", tmp_path / "twins.jsonl", "--out", tmp_path / "u.jsonl",
                   "--pairs", tmp_path / "p.jsonl") == 2
    assert capsys.readouterr().err == "error: doc_id d names two different texts\n"
    assert not (tmp_path / "u.jsonl").exists()


def _escaped_jsonl(path, rows) -> None:
    """Write `rows` with every non-ASCII character escaped, so that a lone surrogate
    becomes the escape that JSON allows and UTF-8 cannot hold."""
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def _refusal_inputs(tmp_path):
    """_exit_code_inputs, plus one input for each check that test_refusal_names_its_cause runs."""
    _exit_code_inputs(tmp_path)
    (tmp_path / "dedup_scope.json").write_text('{"sentence_scope": "page"}', encoding="utf-8")
    (tmp_path / "filter_language.json").write_text('{"target_language": "fr"}', encoding="utf-8")
    turns = [{"role": "user", "content": "地板怎么选？"}, {"role": "assistant", "content": "看用途。"}]
    sample = {"kind": "one_turn", "turns": turns, "knowledge_id": "k1"}
    write_jsonl(tmp_path / "sft_kind.jsonl", [{**sample, "kind": "poem"}])
    write_jsonl(tmp_path / "sft_roles.jsonl", [{**sample, "turns": turns[::-1]}])
    _escaped_jsonl(tmp_path / "sft_surrogate.jsonl",
                   [{**sample, "turns": [turns[0], {"role": "assistant", "content": "看用途\ud800。"}]}])
    mcq = {"question": "台面高度合适吗？", "question_type": "judgment", "options": {"A": "是", "B": "否"},
           "correct_option": "A"}
    write_jsonl(tmp_path / "mcq_question_blank.jsonl", [{**mcq, "question": " "}])
    write_jsonl(tmp_path / "mcq_type.jsonl", [{**mcq, "question_type": "essay"}])
    _escaped_jsonl(tmp_path / "mcq_id_surrogate.jsonl", [{**mcq, "id": "q\ud800"}])
    _escaped_jsonl(tmp_path / "sft_category_surrogate.jsonl", [{**sample, "category": "材\ud800"}])
    row = {"id": "d1", "text": "领域语料内容。", "source_kind": "domain_book"}
    _escaped_jsonl(tmp_path / "mix_surrogate.jsonl", [row, {**row, "id": "d2", "text": "领域语料\ud800内容。"}])


@pytest.mark.parametrize("argv, code, message", [
    (_DEDUP + ("--config", "{tmp}/dedup_scope.json"), 2,
     "dedup config {tmp}/dedup_scope.json: unknown sentence_scope 'page'"),
    (("filter", "--in", "{tmp}/docs.jsonl", "--out", "{tmp}/k.jsonl", "--report", "{tmp}/f.json",
      "--config", "{tmp}/filter_language.json"), 2,
     "filter config {tmp}/filter_language.json: unsupported target_language 'fr'"),
    (("eval", "--dataset", "{tmp}/empty.jsonl", "--endpoint", "{tmp}/ep.json", "--shots", "0",
      "--out", "{tmp}/r.json"), 2, "{tmp}/empty.jsonl: dataset has no items"),
    # refused as the dataset is read, before any request is sent
    (("eval", "--dataset", "{tmp}/mcq_id_surrogate.jsonl", "--endpoint", "{tmp}/ep.json", "--shots", "0",
      "--out", "{tmp}/r.json"), 2, "{tmp}/mcq_id_surrogate.jsonl: line 1: id holds a lone surrogate '\\ud800' at position 1"),
    (("stats", "{tmp}/mcq_id_surrogate.jsonl"), 2,
     "{tmp}/mcq_id_surrogate.jsonl: line 1: id holds a lone surrogate '\\ud800' at position 1"),
    (("stats", "{tmp}/sft_category_surrogate.jsonl"), 2,
     "{tmp}/sft_category_surrogate.jsonl: line 1: category holds a lone surrogate '\\ud800' at position 1"),
    (_TERM_FREQ[:2] + ("{tmp}/sft_surrogate.jsonl",) + _TERM_FREQ[3:], 2,
     "{tmp}/sft_surrogate.jsonl: line 1: turns[1].content holds a lone surrogate '\\ud800' at position 3"),
    (("stats", "{tmp}/sft_kind.jsonl"), 2, "{tmp}/sft_kind.jsonl: line 1: bad sample kind 'poem'"),
    (("stats", "{tmp}/sft_roles.jsonl"), 2,
     "{tmp}/sft_roles.jsonl: line 1: turn roles must alternate user/assistant starting with user"),
    (("stats", "{tmp}/mcq_question_blank.jsonl"), 2, "{tmp}/mcq_question_blank.jsonl: line 1: question must be non-empty"),
    (("stats", "{tmp}/mcq_type.jsonl"), 2, "{tmp}/mcq_type.jsonl: line 1: bad question_type 'essay'"),
    # a ratio that asks for general data, and no --general
    (_MIX + ("{tmp}/docs.jsonl", "--ratio", "1:1"), 3, "general pool is empty but ratio requires general data"),
    (_MIX + ("{tmp}/mix_surrogate.jsonl",), 2,
     "{tmp}/mix_surrogate.jsonl: line 2: text holds a lone surrogate '\\ud800' at position 4"),
    (_MIX + ("{tmp}/sft_surrogate.jsonl", "--mode", "sft"), 2,
     "{tmp}/sft_surrogate.jsonl: line 1: turns[1].content holds a lone surrogate '\\ud800' at position 3"),
    (_MIX + ("{tmp}/docs.jsonl", "--mode", "mip", "--instructions", "{tmp}/sft_surrogate.jsonl"), 2,
     "{tmp}/sft_surrogate.jsonl: line 1: turns[1].content holds a lone surrogate '\\ud800' at position 3"),
], ids=["dedup-sentence-scope", "filter-target-language", "eval-empty-dataset", "eval-mcq-id-lone-surrogate",
        "stats-mcq-id-lone-surrogate", "stats-sample-category-lone-surrogate", "term-freq-turn-lone-surrogate",
        "stats-sample-kind",
        "stats-sample-roles", "stats-mcq-question-blank", "stats-mcq-question-type", "mix-general-empty",
        "mix-row-lone-surrogate", "mix-sft-turn-lone-surrogate", "mix-mip-instruction-lone-surrogate"])
def test_refusal_names_its_cause(tmp_path, capsys, argv, code, message):
    _refusal_inputs(tmp_path)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == code
    assert capsys.readouterr().err == f"error: {message.replace('{tmp}', str(tmp_path))}\n"
    assert not (tmp_path / "t.jsonl").exists()


def test_blank_lines_are_skipped(tmp_path, capsys):
    doc = {"doc_id": "d1", "text": "知识内容样例。", "source_kind": "domain_book", "token_count": 6, "char_count": 7}
    rows = [json.dumps({**doc, "doc_id": doc_id}, ensure_ascii=False) for doc_id in ("d1", "d2")]
    (tmp_path / "docs.jsonl").write_text("\n" + rows[0] + "\n \t\n\n" + rows[1] + "\n\n", encoding="utf-8")
    assert run_cli("stats", tmp_path / "docs.jsonl") == 0
    assert capsys.readouterr().out.startswith("documents: 2\n")


def test_python_m_runs_the_cli(tmp_path, monkeypatch):
    """`python -m renokit.cli` is `renokit`; run here, in this process, by runpy."""
    out = tmp_path / "trainer.json"
    monkeypatch.setattr(sys, "argv", ["renokit", "emit-config", "--mode", "sft", "--out", str(out)])
    monkeypatch.delitem(sys.modules, "renokit.cli")  # so that runpy runs it afresh, as -m does
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("renokit.cli", run_name="__main__")
    assert exit_info.value.code == 0
    assert read_json(out)["max_length"] == 1536


def test_mix_mode_error_names_the_modes(tmp_path, capsys):
    _exit_code_inputs(tmp_path)
    assert main(["run", "--config", str(tmp_path / "run-mix-mode-upper.json"), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"mode must be one of {MODES}, got 'DAPT'" in capsys.readouterr().err


class TestEvalAndSweepCommands:
    def _endpoint_file(self, tmp_path):
        path = tmp_path / "ep.json"
        endpoint = EndpointConfig(base_url="http://localhost:9", model_name="m", max_retries=0, backoff=(0.0,))
        write_json(path, endpoint.to_dict())
        return path

    def test_eval_degrades_without_endpoint(self, tmp_path):
        # unreachable endpoint: every item becomes an abstention, exit stays 0
        dataset = write_evalhome(tmp_path / "evalhome.jsonl")
        out = tmp_path / "report.json"
        assert run_cli("eval", "--dataset", dataset, "--endpoint", self._endpoint_file(tmp_path),
                       "--shots", "0", "--out", out) == 0
        report = read_json(out)
        assert report["degraded"] is True
        assert report["overall_micro"] == 0.0

    def test_eval_sends_every_shot_count_over_one_connection(self, tmp_path):
        mcq = {"question_type": "judgment", "options": {"A": "是", "B": "否"}, "correct_option": "A"}
        write_jsonl(tmp_path / "evalhome.jsonl", [{**mcq, "question": f"第{i}题？", "split": split}
                                                  for i, split in enumerate(["dev", "dev", "test"])])
        connections = []
        with _chat_server(lambda prompt: "答案：A", connections) as url:
            write_json(tmp_path / "ep.json", EndpointConfig(base_url=url, model_name="m", concurrency_limit=1).to_dict())
            assert run_cli("eval", "--dataset", tmp_path / "evalhome.jsonl", "--endpoint", tmp_path / "ep.json",
                           "--shots", "0,1", "--out", tmp_path / "report.json") == 0
        assert len(connections) == 1
        assert read_json(tmp_path / "report.json")["overall_micro"] == 100.0

    def test_eval_labels_reach_the_report(self, tmp_path):
        _exit_code_inputs(tmp_path)
        out = tmp_path / "report.json"
        assert run_cli("eval", "--dataset", tmp_path / "evalhome.jsonl", "--endpoint", tmp_path / "ep.json",
                       "--shots", "0", "--out", out, "--label-model", "base", "--label-ratio", "1:5") == 0
        assert read_json(out)["labels"] == {"model": "base", "ratio": "1:5"}

    def test_sweep_report_from_run_files(self, tmp_path):
        runs = []
        for i, (ratio, score) in enumerate([("1:0", 47.79), ("1:1", 50.44), ("1:10", 53.98)]):
            path = tmp_path / f"run{i}.json"
            write_json(path, _eval_report(overall_micro=score, labels={"model": "base", "ratio": ratio}))
            runs.append(path)
        out_csv = tmp_path / "table.csv"
        out_txt = tmp_path / "table.txt"
        assert run_cli("sweep-report", "--runs", *runs, "--out", out_csv, "--text", out_txt) == 0
        assert "*53.98" in out_txt.read_text(encoding="utf-8")
        assert "True" in out_csv.read_text(encoding="utf-8")

    def test_sweep_report_bytes(self, tmp_path, capsys):
        runs = []
        for i, (ratio, score) in enumerate([("1:0", 47.79), ("1:1", 50.44), ("1:10", 53.98)]):
            runs.append(tmp_path / f"run{i}.json")
            write_json(runs[-1], _eval_report(overall_micro=score, labels={"model": "base", "ratio": ratio}))
        csv_bytes = ("model,ratio,evalhome,evalhome_best\r\nbase,1:0,47.79,False\r\nbase,1:1,50.44,False\r\n"
                     "base,1:10,53.98,True\r\n").encode()
        table = ("model  ratio  evalhome\n-----  -----  --------\nbase   1:0    47.79\nbase   1:1    50.44\n"
                 "base   1:10   *53.98\n")
        out = tmp_path / "tables"
        assert run_cli("sweep-report", "--runs", *runs, "--out", out / "table.csv", "--text", out / "table.txt") == 0
        assert (out / "table.csv").read_bytes() == csv_bytes
        assert (out / "table.txt").read_bytes() == table.encode()
        assert capsys.readouterr().out == table
        assert run_cli("sweep-report", "--runs", *runs, "--out", tmp_path / "only.csv") == 0
        assert (tmp_path / "only.csv").read_bytes() == csv_bytes
        assert capsys.readouterr().out == table
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".json") == ["only.csv", "tables"]
        assert sorted(p.name for p in out.iterdir()) == ["table.csv", "table.txt"]


@contextlib.contextmanager
def _chat_server(reply, connections: list | None = None):
    """A loopback chat endpoint that answers each request with `reply(prompt)`,
    sent as JSON with every non-ASCII character escaped; yields its base URL.
    It keeps each connection open for further requests and appends the client
    address of every connection it accepts to `connections`."""
    connections = [] if connections is None else connections

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def handle(self):
            connections.append(self.client_address)
            super().handle()

        def do_POST(self):
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            payload = json.dumps({"choices": [{"message": {"content": reply(request["messages"][0]["content"])}}]})
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload.encode("ascii"))

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestGenCommand:
    def test_reply_with_a_lone_surrogate_rejects_one_job(self, tmp_path):
        """JSON can escape a lone surrogate that no file can hold: that reply is an
        endpoint error, archived and replayed as one, and the other job is kept."""
        doc = {"source_kind": "domain_book", "token_count": 6, "char_count": 7, "status": "retained"}
        write_jsonl(tmp_path / "docs.jsonl", [{**doc, "doc_id": "k1", "text": "知识内容样例。"},
                                              {**doc, "doc_id": "k2", "text": "防水施工要点。"}])
        mcq = json.dumps({"question": "台面高度合适吗？", "question_type": "判断", "candidate_options": {"A": "是", "B": "否"},
                          "answer": {"correct_option": "A"}}, ensure_ascii=False)

        def reply(prompt):
            return "防水\ud800" if "防水施工要点" in prompt else mcq

        gen = ("gen", "--kind", "mcq", "--knowledge", tmp_path / "docs.jsonl", "--endpoint", tmp_path / "ep.json",
               "--out", tmp_path / "sft.jsonl", "--budget", 5, "--report", tmp_path / "report.json")
        with _chat_server(reply) as url:
            write_json(tmp_path / "ep.json", EndpointConfig(base_url=url, model_name="m", max_retries=0).to_dict())
            assert run_cli(*gen) == 0
        report, sft = read_json(tmp_path / "report.json"), (tmp_path / "sft.jsonl").read_bytes()
        assert (report["rejected"], report["accepted"], report["requests_sent"]) == ({"EndpointError": 1}, 1, 2)
        errors = [entry["error"] for entry in archive_entries(tmp_path / "sft.jsonl.archive")]
        assert sorted(errors, key=str) == [None, "completion content holds a lone surrogate '\\ud800' at position 2"]
        assert run_cli(*gen, "--replay-only") == 0
        replayed = read_json(tmp_path / "report.json")
        assert (replayed["rejected"], replayed["requests_sent"], replayed["replayed"]) == ({"EndpointError": 1}, 0, 2)
        assert (tmp_path / "sft.jsonl").read_bytes() == sft

    @pytest.mark.parametrize("budget", [5, 0])  # a missing entry is refused, not sent: it takes no budget
    def test_replay_only_without_archive_classifies_endpoint_errors(self, tmp_path, budget):
        docs = tmp_path / "docs.jsonl"
        write_jsonl(docs, [{
            "doc_id": "k1", "text": "知识内容样例。", "source_kind": "domain_book",
            "token_count": 6, "char_count": 7, "status": "retained", "reason": None,
        }])
        ep = tmp_path / "ep.json"
        write_json(ep, EndpointConfig(base_url="http://mock.invalid", model_name="m").to_dict())
        out = tmp_path / "sft.jsonl"
        report_path = tmp_path / "gen_report.json"
        assert run_cli("gen", "--kind", "mcq", "--knowledge", docs, "--endpoint", ep,
                       "--out", out, "--budget", budget, "--replay-only", "--report", report_path) == 0
        report = read_json(report_path)
        assert report["rejected"] == {"EndpointError": 1}
        assert (report["accepted"], report["requests_sent"], report["budget_exhausted"]) == (0, 0, False)
        assert not (tmp_path / "sft.jsonl.archive").exists()  # a replay writes nothing to the archive

    def test_an_archive_of_one_file_per_request_is_refused(self, tmp_path, capsys):
        """The layout before the archive log: read as empty, it would have every request sent again."""
        doc = {"doc_id": "k1", "text": "知识内容样例。", "source_kind": "domain_book", "token_count": 6, "char_count": 7,
               "status": "retained"}
        write_jsonl(tmp_path / "docs.jsonl", [doc])
        write_json(tmp_path / "ep.json", EndpointConfig(base_url="http://mock.invalid", model_name="m").to_dict())
        archive = tmp_path / "sft.jsonl.archive"
        write_json(archive / "0123456789abcdef0123456789abcdef.json", {"request_id": "0123456789abcdef0123456789abcdef",
                                                                        "response": "旧", "error": None})
        assert run_cli("gen", "--kind", "mcq", "--knowledge", tmp_path / "docs.jsonl", "--endpoint",
                       tmp_path / "ep.json", "--out", tmp_path / "sft.jsonl", "--budget", 5) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {archive}: archive of one .json file per request") and err.count("\n") == 1
        assert sorted(p.name for p in archive.iterdir()) == ["0123456789abcdef0123456789abcdef.json"]
        assert not (tmp_path / "sft.jsonl").exists()
