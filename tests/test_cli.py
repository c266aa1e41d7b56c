from __future__ import annotations

import json

import pytest

from renokit.cli import main
from renokit.endpoint import EndpointConfig
from renokit.jsonl import read_json, read_jsonl, write_jsonl
from renokit.pipeline import PipelineManifest, run_pipeline, summarize_artifact
from renokit.errors import StageFailure, UnknownSchema

from fixture_data import write_evalhome, write_pipeline_fixture


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
        assert "dedup report" in summarize_artifact(tmp_path / "out" / "dedup_report.json")

    def test_unknown_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"foo": 1}', encoding="utf-8")
        with pytest.raises(UnknownSchema):
            summarize_artifact(path)


class TestTermFreqCommand:
    def test_writes_csv(self, tmp_path):
        sft = tmp_path / "sft.jsonl"
        write_jsonl(sft, [{
            "kind": "one_turn",
            "turns": [{"role": "user", "content": "地板 地板 水电"}],
            "knowledge_id": "k",
        }])
        out = tmp_path / "terms.csv"
        assert run_cli("term-freq", "--in", sft, "--out", out) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1] == "地板,2"


class TestPipelineRun:
    def test_manifest_chain_and_counts(self, tmp_path):
        config = write_pipeline_fixture(tmp_path)
        manifest = run_pipeline(config, tmp_path / "out")
        assert [r.stage for r in manifest.records] == ["ingest", "filter", "dedup", "mix"]
        # chained: filter input digest equals ingest docs.jsonl output digest
        by_stage = {r.stage: r for r in manifest.records}
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
        n_records = len(m1.records)
        m2 = run_pipeline(config, tmp_path / "out", resume=True)
        assert len(m2.records) == n_records
        assert m2.output_digests() == m1.output_digests()

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
        n_records = len(m1.records)
        m2 = run_pipeline(config, tmp_path / "out", resume=True)
        assert len(m2.records) == n_records
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
        assert [r.stage for r in resumed.records] == ["ingest", "filter", "dedup", "mix", "filter", "dedup", "mix"]
        run_pipeline(config_path, tmp_path / "fresh")
        for name in ("kept.jsonl", "filter_report.json", "unique.jsonl", "dup_pairs.jsonl",
                     "dedup_report.json", "train.jsonl", "mix_report.json"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name

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
        assert all(r.seed == 42 for r in manifest.records)
        loaded = PipelineManifest.load_or_create(tmp_path / "out" / "manifest.json")
        assert [r.stage for r in loaded.records] == [r.stage for r in manifest.records]

    def _full_config(self, tmp_path):
        config_path = write_pipeline_fixture(tmp_path)
        EndpointConfig(
            base_url="http://mock.invalid", model_name="mock-model",
            max_retries=0, backoff=(0.0,),
        ).to_json(tmp_path / "ep.json")
        write_evalhome(tmp_path / "evalhome.jsonl")
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["gen"] = {"kind": "mcq", "endpoint": "ep.json", "budget": 100}
        config["eval"] = {"dataset": "evalhome.jsonl", "endpoint": "ep.json", "shots": [0]}
        config_path.write_text(json.dumps(config, ensure_ascii=False, indent=2), encoding="utf-8")
        return config_path

    def test_optional_gen_and_eval_stages(self, tmp_path):
        from mocks import ConstantTransport, ScriptedTransport

        config_path = self._full_config(tmp_path)
        mcq = json.dumps({
            "question": "知识点判断？",
            "question_type": "单选",
            "candidate_options": {k: f"选{k}" for k in "ABCD"},
            "answer": {"correct_option": "A", "reason": "依据"},
        }, ensure_ascii=False)
        manifest = run_pipeline(
            config_path, tmp_path / "out",
            gen_transport=ScriptedTransport(lambda m: mcq),
            eval_transport=ConstantTransport("答案：A"),
        )
        assert [r.stage for r in manifest.records] == ["ingest", "filter", "dedup", "mix", "gen", "eval"]
        sft_rows = [obj for _, obj in read_jsonl(tmp_path / "out" / "sft.jsonl")]
        domain_docs = [
            obj for _, obj in read_jsonl(tmp_path / "out" / "unique.jsonl")
            if obj["source_kind"] != "general"
        ]
        assert len(sft_rows) == len(domain_docs)
        report = read_json(tmp_path / "out" / "eval_report.json")
        assert report["items_total"] == 113

    def test_gen_budget_exhaustion_exit_code_4(self, tmp_path):
        config_path = self._full_config(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["gen"]["budget"] = 2
        del config["eval"]
        config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        # unreachable endpoint is irrelevant: budget dies first on fresh requests
        assert run_cli("run", "--config", config_path, "--out-dir", tmp_path / "out") == 4
        assert (tmp_path / "out" / "sft.jsonl").exists()


class TestCliMatchesRun:
    def test_stage_commands_write_what_run_writes(self, tmp_path):
        config_path = _directory_config(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        run_pipeline(config_path, tmp_path / "run")

        cli = tmp_path / "cli"
        cli.mkdir()
        filters = tmp_path / "filters.json"
        filters.write_text(json.dumps({**config["filters"], "sensitive_word_list": str(tmp_path / "lexicon.txt")}),
                           encoding="utf-8")
        dedup = tmp_path / "dedup.json"
        dedup.write_text(json.dumps(config["dedup"]), encoding="utf-8")
        mix = config["mix"]
        assert run_cli("ingest", "--in", tmp_path / "raw", "--kind", "domain_book", "--out", cli / "docs.jsonl",
                       "--stats", cli / "ingest_stats.json") == 0
        assert run_cli("filter", "--in", cli / "docs.jsonl", "--out", cli / "kept.jsonl",
                       "--report", cli / "filter_report.json", "--config", filters) == 0
        assert run_cli("dedup", "--in", cli / "kept.jsonl", "--out", cli / "unique.jsonl",
                       "--pairs", cli / "dup_pairs.jsonl", "--config", dedup) == 0
        assert run_cli("mix", "--domain", cli / "unique.jsonl", "--ratio", mix["ratio"], "--mode", mix["mode"],
                       "--unit", mix["unit"], "--seed", mix["seed"],
                       "--out", cli / "train.jsonl", "--report", cli / "mix_report.json") == 0
        for name in ("docs.jsonl", "ingest_stats.json", "kept.jsonl", "filter_report.json", "unique.jsonl",
                     "dup_pairs.jsonl", "train.jsonl", "mix_report.json"):
            assert (cli / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


def _exit_code_inputs(tmp_path):
    write_jsonl(tmp_path / "docs.jsonl", [{
        "doc_id": "k1", "text": "知识内容样例。", "source_kind": "domain_book",
        "token_count": 6, "char_count": 7, "status": "retained", "reason": None,
    }])
    EndpointConfig(base_url="http://localhost:9", model_name="m", max_retries=0, backoff=(0.0,)).to_json(tmp_path / "ep.json")
    (tmp_path / "ep_typo.json").write_text('{"base_url": "http://localhost:9", "model": "m"}', encoding="utf-8")
    (tmp_path / "ep_no_model.json").write_text('{"base_url": "http://localhost:9"}', encoding="utf-8")
    (tmp_path / "dedup_typo.json").write_text('{"ngrams": 5}', encoding="utf-8")
    (tmp_path / "dedup_ngram_str.json").write_text('{"ngram": "5"}', encoding="utf-8")
    (tmp_path / "dedup_seed_str.json").write_text('{"seed": "1"}', encoding="utf-8")
    run = {"ingest": {"inputs": [{"path": "missing.txt", "kind": "domain_book"}]}}
    for name, extra in (("run_missing", {}), ("run_mix_typo", {"mix": {"ratoi": "1:3"}}),
                        ("run_tokenizer", {"tokenizer": "other"})):
        (tmp_path / f"{name}.json").write_text(json.dumps({**run, **extra}), encoding="utf-8")


_GEN = ("gen", "--kind", "mcq", "--knowledge", "{tmp}/docs.jsonl", "--out", "{tmp}/sft.jsonl", "--replay-only")
_DEDUP = ("dedup", "--in", "{tmp}/docs.jsonl", "--out", "{tmp}/u.jsonl", "--pairs", "{tmp}/p.jsonl")


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
    (("run", "--config", "{tmp}/run_missing.json", "--out-dir", "{tmp}/out"), 3),
    (_GEN + ("--endpoint", "{tmp}/ep.json", "--budget", "0"), 4),
], ids=["ok", "dedup-config-typo", "dedup-config-wrong-type", "dedup-seed-wrong-type", "dedup-missing-input",
        "ingest-missing-input", "mix-domain-part", "endpoint-config-typo", "endpoint-missing-model",
        "run-config-typo", "run-other-tokenizer", "run-stage-failure", "gen-budget-exhausted"])
def test_exit_codes(tmp_path, capsys, argv, code):
    _exit_code_inputs(tmp_path)
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == code
    err = capsys.readouterr().err
    assert (err == "") if code == 0 else err.startswith("error: ")


class TestEvalAndSweepCommands:
    def _endpoint_file(self, tmp_path):
        path = tmp_path / "ep.json"
        EndpointConfig(base_url="http://localhost:9", model_name="m", max_retries=0, backoff=(0.0,)).to_json(path)
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

    def test_sweep_report_from_run_files(self, tmp_path):
        runs = []
        for i, (ratio, score) in enumerate([("1:0", 47.79), ("1:1", 50.44), ("1:10", 53.98)]):
            path = tmp_path / f"run{i}.json"
            path.write_text(json.dumps({
                "dataset": "evalhome",
                "overall_micro": score,
                "labels": {"model": "base", "ratio": ratio},
                "config": {"model": "m"},
            }), encoding="utf-8")
            runs.append(path)
        out_csv = tmp_path / "table.csv"
        out_txt = tmp_path / "table.txt"
        assert run_cli("sweep-report", "--runs", *runs, "--out", out_csv, "--text", out_txt) == 0
        assert "*53.98" in out_txt.read_text(encoding="utf-8")
        assert "True" in out_csv.read_text(encoding="utf-8")


class TestGenCommand:
    def test_replay_only_without_archive_classifies_endpoint_errors(self, tmp_path):
        docs = tmp_path / "docs.jsonl"
        write_jsonl(docs, [{
            "doc_id": "k1", "text": "知识内容样例。", "source_kind": "domain_book",
            "token_count": 6, "char_count": 7, "status": "retained", "reason": None,
        }])
        ep = tmp_path / "ep.json"
        EndpointConfig(base_url="http://mock.invalid", model_name="m").to_json(ep)
        out = tmp_path / "sft.jsonl"
        report_path = tmp_path / "gen_report.json"
        assert run_cli("gen", "--kind", "mcq", "--knowledge", docs, "--endpoint", ep,
                       "--out", out, "--budget", 5, "--replay-only", "--report", report_path) == 0
        report = read_json(report_path)
        assert report["rejected"] == {"EndpointError": 1}
        assert report["accepted"] == 0
