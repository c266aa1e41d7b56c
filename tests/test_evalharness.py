from __future__ import annotations

import json
import random
import string

import pytest

import renokit.endpoint
from renokit.cli import main
from renokit.endpoint import EndpointConfig
from renokit.errors import (
    ConfigError,
    DatasetMismatch,
    SchemaError,
)
from renokit.evalharness import (
    SPLIT_DEV,
    EvalReport,
    EvalRunConfig,
    MCQDataset,
    best_of_settings,
    build_prompt,
    check_shots,
    extract_answer,
    load_dataset,
    round_pct,
    run_eval,
    sweep_report,
)
from renokit.jsonl import write_json, write_jsonl
from renokit.pipeline import run_eval_stage

from fixture_data import build_evalhome_rows
from mocks import ConstantTransport, FailingTransport, GoldAnswerTransport, InterruptingTransport, ScriptedTransport
from oracles import extract_answer_by_scan, select_exemplars


def endpoint_cfg(concurrency: int = 4) -> EndpointConfig:
    return EndpointConfig(base_url="http://mock.invalid", model_name="mock-model", concurrency_limit=concurrency)


def eval_cfg(shots: int = 0, **kwargs) -> EvalRunConfig:
    return EvalRunConfig(shots=shots, endpoint=endpoint_cfg(), **kwargs)


def write_repeated(path):
    """Four dev items, the third repeating the first's question and options under
    its own id, then four test items."""
    rows = build_evalhome_rows()[:8]
    for i, row in enumerate(rows):
        row["split"] = "dev" if i < 4 else "test"
    rows[2].update({key: rows[0][key] for key in ("question", "question_type", "options", "correct_option")})
    write_jsonl(path, rows)
    return path


class TestLoadDataset:
    def test_evalhome_shape(self, evalhome):
        stats = evalhome.stats()
        assert stats["total"] == 113
        assert stats["per_difficulty"]["fundamentals"] == {"subclasses": 6, "questions": 22}
        assert stats["per_difficulty"]["expertise"] == {"subclasses": 17, "questions": 87}
        assert stats["per_difficulty"]["innovative_design"] == {"subclasses": 2, "questions": 4}
        assert stats["subclasses"] == 25

    def test_single_item_file(self, tmp_path):
        row = build_evalhome_rows()[0]
        path = tmp_path / "one.jsonl"
        write_jsonl(path, [row])
        assert len(load_dataset(path).entries) == 1

    def test_missing_gold_is_schema_error_with_line(self, tmp_path):
        rows = build_evalhome_rows()[:3]
        del rows[1]["correct_option"]
        path = tmp_path / "broken.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(SchemaError) as err:
            load_dataset(path)
        assert err.value.line == 2

    def test_bad_split_rejected(self, tmp_path):
        row = build_evalhome_rows()[0]
        row["split"] = "train"
        path = tmp_path / "split.jsonl"
        write_jsonl(path, [row])
        with pytest.raises(SchemaError):
            load_dataset(path)


class TestBuildPrompt:
    def test_zero_shot_single_block(self, evalhome):
        entry = evalhome.entries[10]
        (msg,) = build_prompt(entry.item, [])
        assert msg["content"].count("答案：") == 1
        assert msg["content"].rstrip().endswith("答案：")

    def test_five_shot_blocks(self, evalhome):
        entry = evalhome.entries[10]
        exemplars = select_exemplars(evalhome, entry, 5)
        (msg,) = build_prompt(entry.item, exemplars)
        # 5 worked exemplars with answers, one open target
        assert msg["content"].count("答案：") == 6
        for ex in exemplars:
            assert f"答案：{ex.correct_option}" in msg["content"]

    def test_select_exemplars_skips_a_repeated_item(self, tmp_path):
        # dev items 0 and 2 share question and options under different ids
        dataset = load_dataset(write_repeated(tmp_path / "repeated.jsonl"))
        first, _, repeat, other = dataset.entries[:4]
        for entry in (first, repeat):
            assert select_exemplars(dataset, entry, 2) == [dataset.entries[1].item, other.item]
        assert select_exemplars(dataset, dataset.entries[1], 2) == [first.item, repeat.item]

    def test_shortfall(self, evalhome):
        # evalhome has 6 dev items and entry 0 is one of them
        entry = evalhome.entries[0]
        assert len(select_exemplars(evalhome, entry, 5)) == 5
        transport = ScriptedTransport(lambda messages: "答案：A")
        with pytest.raises(ConfigError, match="can give every item 5 exemplars, not 6"):
            run_eval(evalhome, eval_cfg(shots=6), transport=transport)
        assert transport.calls == 0

    def test_exemplars_match_the_item_id_rule_without_repeats(self, evalhome):
        dev = evalhome.split_entries(SPLIT_DEV)
        for entry in evalhome.entries:
            by_id = [e.item for e in dev if e.item_id != entry.item_id][:5]
            assert select_exemplars(evalhome, entry, 5) == by_id, entry.item_id

    def test_select_exemplars_skips_scored_item(self, evalhome):
        dev_entry = evalhome.entries[0]
        assert dev_entry.split == "dev"
        exemplars = select_exemplars(evalhome, dev_entry, 5)
        assert len(exemplars) == 5
        assert all(ex.question != dev_entry.item.question for ex in exemplars)


class TestExtractAnswer:
    OPTS = {"A": "1", "B": "2", "C": "3", "D": "4"}

    def test_plain_letter(self):
        assert extract_answer("答案是B。", self.OPTS) == "B"

    def test_first_match_wins(self):
        assert extract_answer("A和B都有道理", self.OPTS) == "A"

    def test_abstain(self):
        assert extract_answer("无法判断", self.OPTS) is None

    def test_embedded_ascii_ignored(self):
        assert extract_answer("BANANA CACHE 里没有答案", self.OPTS) is None

    def test_letter_after_english_word(self):
        assert extract_answer("the answer: C", self.OPTS) == "C"

    def test_restricted_key_set(self):
        assert extract_answer("C还是A？", {"A": "对", "B": "错"}) == "A"

    def test_agrees_with_the_scanner_on_fuzzed_replies(self):
        rng = random.Random(11)
        alphabet = string.ascii_letters + string.digits + "_ \t\n" + "答案选项是的" + "ＡＢＣａｂ" + "Àéß"
        for _ in range(20000):
            raw = "".join(rng.choices(alphabet, k=rng.randrange(12)))
            for options in (self.OPTS, {"A": "对", "B": "错"}):
                assert extract_answer(raw, options) == extract_answer_by_scan(raw, options), (raw, sorted(options))


class TestRunEval:
    def test_all_gold_is_100(self, evalhome):
        transport = GoldAnswerTransport(evalhome, {e.item_id for e in evalhome.entries})
        report = run_eval(evalhome, eval_cfg(), transport=transport)
        assert report.overall_micro == 100.0
        assert report.overall_macro == 100.0

    def test_an_interrupt_stops_the_run(self, evalhome):
        transport = InterruptingTransport()
        with pytest.raises(KeyboardInterrupt):
            run_eval(evalhome, EvalRunConfig(shots=0, endpoint=endpoint_cfg(concurrency=1)), transport=transport)
        assert transport.calls == 1

    def test_always_wrong_letter_is_0(self, evalhome):
        report = run_eval(evalhome, eval_cfg(), transport=ConstantTransport("E选项"))
        assert report.overall_micro == 0.0
        assert all(r["extracted"] == "abstain" for r in report.per_item)

    def test_78_of_113_micro(self, evalhome):
        correct = {e.item_id for e in evalhome.entries[:78]}
        report = run_eval(evalhome, eval_cfg(), transport=GoldAnswerTransport(evalhome, correct))
        assert report.overall_micro == 69.03

    def test_category_counts_sum_to_overall(self, evalhome):
        correct = {e.item_id for e in evalhome.entries[::3]}
        report = run_eval(evalhome, eval_cfg(), transport=GoldAnswerTransport(evalhome, correct))
        assert sum(v["correct"] for v in report.per_category.values()) == len(correct)
        assert sum(v["total"] for v in report.per_category.values()) == 113
        weighted = sum(v["correct"] for v in report.per_category.values()) / 113
        assert report.overall_micro == round(10000 * weighted) / 100

    def test_five_shot_no_leakage_and_deterministic(self, evalhome):
        transport = GoldAnswerTransport(evalhome, {e.item_id for e in evalhome.entries[:50]})
        cfg = eval_cfg(shots=5)
        r1 = run_eval(evalhome, cfg, transport=transport)
        r2 = run_eval(evalhome, cfg, transport=transport)
        assert r1.to_dict() == r2.to_dict()

    def test_dev_list_is_built_once_per_run(self, evalhome, monkeypatch):
        calls = []
        split_entries = MCQDataset.split_entries

        def counting(dataset, split):
            calls.append(split)
            return split_entries(dataset, split)

        monkeypatch.setattr(MCQDataset, "split_entries", counting)
        run_eval(evalhome, eval_cfg(shots=5), transport=ConstantTransport("A"))
        assert calls == [SPLIT_DEV]

    def test_endpoint_failure_degrades_not_aborts(self, evalhome):
        report = run_eval(evalhome, eval_cfg(), transport=FailingTransport("down"))
        assert report.degraded
        assert report.overall_micro == 0.0
        assert all(r["extracted"] == "abstain" for r in report.per_item)

    def test_abstain_counts_in_denominator(self, evalhome):
        transport = GoldAnswerTransport(evalhome, {e.item_id for e in evalhome.entries[:78]}, abstain_wrong=True)
        report = run_eval(evalhome, eval_cfg(), transport=transport)
        assert report.overall_micro == 69.03

    def test_report_notes_flag_conventions(self, evalhome):
        report = run_eval(evalhome, eval_cfg(), transport=ConstantTransport("A"))
        assert any("convention" in note for note in report.notes)

    def test_rounding_rule(self):
        assert round_pct(78, 113) == 69.03
        assert round_pct(61, 113) == 53.98
        assert round_pct(1, 3) == 33.33
        assert round_pct(0, 113) == 0.0
        assert round_pct(113, 113) == 100.0


class TestBestOfSettings:
    def fake_report(self, evalhome, micro: float, shots: int):
        transport = ConstantTransport("A")
        report = run_eval(evalhome, eval_cfg(shots=shots), transport=transport)
        report.overall_micro = micro
        return report

    def test_max_wins(self, evalhome):
        r0 = self.fake_report(evalhome, 40.0, 0)
        r5 = self.fake_report(evalhome, 46.0, 5)
        assert best_of_settings([r0, r5]) is r5

    def test_single_report(self, evalhome):
        r0 = self.fake_report(evalhome, 40.0, 0)
        assert best_of_settings([r0]) is r0

    def test_tie_prefers_fewer_shots(self, evalhome):
        r0 = self.fake_report(evalhome, 40.0, 0)
        r5 = self.fake_report(evalhome, 40.0, 5)
        assert best_of_settings([r5, r0]) is r0

    def test_dataset_mismatch(self, evalhome, tmp_path):
        r0 = self.fake_report(evalhome, 40.0, 0)
        rows = build_evalhome_rows()[:5]
        path = tmp_path / "tiny.jsonl"
        write_jsonl(path, rows)
        tiny = load_dataset(path)
        other = run_eval(tiny, eval_cfg(), transport=ConstantTransport("A"))
        with pytest.raises(DatasetMismatch):
            best_of_settings([r0, other])


def sweep_entry(model: str, ratio: str, scores: dict[str, float]) -> list[EvalReport]:
    """One whole eval report per dataset, labelled like a run of the ratio sweep."""
    return [EvalReport(dataset=ds, items_total=1, config={"shots": 0, "model": "m"},
                       labels={"model": model, "ratio": ratio}, overall_micro=score, overall_macro=score,
                       per_category={}, per_item=[]) for ds, score in scores.items()]


class TestSweepReport:
    ROWS = [
        *sweep_entry("base", "1:0", {"evalhome": 47.79}),
        *sweep_entry("base", "1:1", {"evalhome": 50.44}),
        *sweep_entry("base", "1:2", {"evalhome": 44.24}),
        *sweep_entry("base", "1:5", {"evalhome": 36.28}),
        *sweep_entry("base", "1:10", {"evalhome": 53.98}),
    ]

    def test_max_flag_on_best_row(self):
        out_rows, text = sweep_report(self.ROWS)
        flagged = [r["ratio"] for r in out_rows if r["evalhome_best"]]
        assert flagged == ["1:10"]
        assert "*53.98" in text

    def test_single_row_trivially_flagged(self):
        out_rows, _ = sweep_report(self.ROWS[:1])
        assert out_rows[0]["evalhome_best"]

    def test_ties_all_flagged(self):
        rows = [
            *sweep_entry("m", "1:0", {"ds": 50.0}),
            *sweep_entry("m", "1:5", {"ds": 50.0}),
        ]
        out_rows, _ = sweep_report(rows)
        assert all(r["ds_best"] for r in out_rows)

    def test_groups_scoped_per_model(self):
        rows = self.ROWS + sweep_entry("chat", "1:5", {"evalhome": 60.17})
        out_rows, _ = sweep_report(rows)
        base_best = [r for r in out_rows if r["model"] == "base" and r["evalhome_best"]]
        chat_best = [r for r in out_rows if r["model"] == "chat" and r["evalhome_best"]]
        assert [r["ratio"] for r in base_best] == ["1:10"]
        assert [r["ratio"] for r in chat_best] == ["1:5"]

    def test_reports_with_the_same_labels_share_a_row(self):
        reports = sweep_entry("base", "1:0", {"a": 40.0, "b": 30.0}) + sweep_entry("base", "1:1", {"a": 45.0})
        out_rows, text = sweep_report(reports)
        assert out_rows == [
            {"model": "base", "ratio": "1:0", "a": 40.0, "a_best": False, "b": 30.0, "b_best": True},
            {"model": "base", "ratio": "1:1", "a": 45.0, "a_best": True, "b": None, "b_best": False},
        ]
        assert text.splitlines()[-1].split() == ["base", "1:1", "*45.00", "-"]

    def test_label_fallbacks(self):
        (unlabelled,) = sweep_entry("x", "y", {"ds": 50.0})
        unlabelled.labels = {}
        out_rows, _ = sweep_report([unlabelled])
        assert (out_rows[0]["model"], out_rows[0]["ratio"]) == ("m", "-")
        unlabelled.config = {"shots": 0, "model": None}
        out_rows, _ = sweep_report([unlabelled])
        assert out_rows[0]["model"] == "model"

    def test_read_back_refuses_labels_that_are_not_strings(self):
        report = json.loads(json.dumps(sweep_entry("base", "1:0", {"ds": 50.0})[0].to_dict()))
        with pytest.raises(SchemaError, match="label values must be strings"):
            EvalReport.from_dict({**report, "labels": {"model": ["a"]}})
        with pytest.raises(SchemaError, match="config model must be a string or null"):
            EvalReport.from_dict({**report, "config": {"model": 5}})


def test_report_json_roundtrip(evalhome, tmp_path):
    transport = GoldAnswerTransport(evalhome, {e.item_id for e in evalhome.entries[:61]})
    report = run_eval(evalhome, eval_cfg(), transport=transport, labels={"model": "m", "ratio": "1:10"})
    assert report.overall_micro == 53.98
    path = tmp_path / "report.json"
    report.save(path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["overall_micro"] == 53.98
    assert loaded["labels"] == {"model": "m", "ratio": "1:10"}
    assert len(loaded["per_item"]) == 113


# evalhome has 6 dev items: a dev item is scored too and has 5 others to draw on.
@pytest.mark.parametrize("shots", [[0, -5], [0, 6], [], [0, "5"]], ids=["negative", "shortfall", "empty", "str"])
def test_eval_stage_checks_shots_before_first_request(evalhome, tmp_path, shots):
    transport = ScriptedTransport(lambda messages: "答案：A")
    with pytest.raises(ConfigError):
        run_eval_stage(evalhome, endpoint_cfg(), shots, 0, tmp_path / "report.json", transport=transport)
    assert transport.calls == 0
    assert not (tmp_path / "report.json").exists()


def test_check_shots_limit_is_dev_items_minus_one(evalhome, tmp_path):
    check_shots([0, 5], evalhome)
    path = tmp_path / "one_dev.jsonl"
    write_jsonl(path, [{**build_evalhome_rows()[0], "split": "dev"}])
    check_shots([0], load_dataset(path))
    with pytest.raises(ConfigError):
        check_shots([1], load_dataset(path))


# The repeated dev question leaves every item 2 exemplars, one less than
# max(dev - 1, 0): 2 shots evaluate every item at each count, 3 send nothing.
@pytest.mark.parametrize("shots, code, requests", [("0,2", 0, 8 * 2), ("0,3", 2, 0)], ids=["at-limit", "over-limit"])
def test_cli_eval_with_a_repeated_dev_question(tmp_path, monkeypatch, shots, code, requests):
    transport = ScriptedTransport(lambda messages: "答案：A")
    monkeypatch.setattr(renokit.endpoint, "HttpTransport", lambda cfg: transport)
    write_json(tmp_path / "ep.json", endpoint_cfg(concurrency=1).to_dict())
    out = tmp_path / "report.json"
    assert main(["eval", "--dataset", str(write_repeated(tmp_path / "repeated.jsonl")), "--endpoint",
                 str(tmp_path / "ep.json"), "--shots", shots, "--out", str(out)]) == code
    assert transport.calls == requests
    assert out.exists() == (code == 0)


def test_load_dataset_rejects_repeated_id(tmp_path):
    # per-item report rows and the category map are keyed by id
    row = {**build_evalhome_rows()[0], "split": "dev", "id": "dup"}
    path = tmp_path / "dup.jsonl"
    write_jsonl(path, [row, {**row, "question": "另一道题？"}])
    with pytest.raises(SchemaError) as err:
        load_dataset(path)
    assert err.value.line == 2
