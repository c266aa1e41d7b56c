from __future__ import annotations

import json
import logging
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from renokit.endpoint import ChatClient, EndpointConfig, OfflineTransport, ResponseArchive, request_id
from renokit.errors import (
    ArityError,
    CategoryOutOfSet,
    CountOutOfRange,
    EndpointError,
    MalformedResponse,
    OptionMismatch,
    RoleOrderViolation,
    SchemaError,
)
from renokit.sftgen import (
    ArchivedCompleter,
    InstructionSample,
    MCQItem,
    PromptTemplate,
    batch_generate,
    extract_json_value,
    gen_mcq,
    gen_multi_turn,
    gen_one_turn,
    load_categories,
    load_template,
    parse_mcq_response,
    parse_multi_turn_response,
    parse_one_turn_response,
    term_frequency_report,
)

from fixture_data import build_gen_docs, gen_script, make_doc, packaged_templates
from mocks import FailingTransport, ScriptedTransport, archive_ids


def make_client(script, concurrency: int = 4) -> ChatClient:
    cfg = EndpointConfig(
        base_url="http://mock.invalid",
        model_name="mock-model",
        temperature=0.0,
        concurrency_limit=concurrency,
    )
    return ChatClient(cfg, ScriptedTransport(script))


CATEGORIES = load_categories()


class TestTemplates:
    def test_defaults_load_with_single_knowledge_slot(self):
        for kind in ("one_turn", "multi_turn", "mcq"):
            template = load_template(kind)
            assert template.body.count("(相关知识)") == 1

    def test_forty_categories_shipped(self):
        assert len(CATEGORIES) == 40
        assert CATEGORIES[:5] == ("行业标准", "安装工程", "工程验收", "油漆工程", "门窗工程")

    def test_render_substitutes_knowledge_and_categories(self):
        template = load_template("one_turn")
        rendered = template.render("墙面基层处理知识")
        assert "墙面基层处理知识" in rendered
        assert "(相关知识)" not in rendered
        assert "行业标准、安装工程" in rendered

    def test_body_requires_exactly_one_slot(self):
        with pytest.raises(ValueError):
            PromptTemplate(kind="mcq", body="无槽位模板")

    def test_short_category_list_warns_once(self, tmp_path, caplog):
        categories = tmp_path / "categories.txt"
        categories.write_text("行业标准\n安装工程\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="renokit.sftgen"):
            template = load_template("one_turn", categories_path=categories)
        assert template.category_list == ("行业标准", "安装工程")
        assert [r.getMessage() for r in caplog.records] == ["one-turn template has 2 categories, expected 40"]


class TestJsonExtraction:
    def test_prose_wrapped(self):
        assert extract_json_value('前言 {"a": 1} 后记') == {"a": 1}

    def test_array(self):
        assert extract_json_value("x [1, 2] y") == [1, 2]

    def test_first_balanced_wins(self):
        assert extract_json_value('{"first": true} {"second": true}') == {"first": True}

    def test_skips_unbalanced_prefix(self):
        assert extract_json_value('开头 { 不闭合 ["ok"] 结尾') == ["ok"]

    def test_none_raises(self):
        with pytest.raises(MalformedResponse):
            extract_json_value("没有结构化内容")


class TestOneTurnParsing:
    def payload(self, n: int, category: str = "行业标准") -> str:
        return json.dumps(
            [{"question": f"问{i}？", "answer": f"答{i}", "category": category} for i in range(n)],
            ensure_ascii=False,
        )

    def test_valid_six(self):
        items = parse_one_turn_response(self.payload(6), CATEGORIES)
        assert len(items) == 6

    def test_category_out_of_set(self):
        with pytest.raises(CategoryOutOfSet):
            parse_one_turn_response(self.payload(6, category="烹饪"), CATEGORIES)

    def test_count_out_of_range(self):
        with pytest.raises(CountOutOfRange):
            parse_one_turn_response(self.payload(3), CATEGORIES)
        with pytest.raises(CountOutOfRange):
            parse_one_turn_response(self.payload(21), CATEGORIES)

    def test_lenient_salvages_valid_items(self):
        items = parse_one_turn_response(self.payload(3), CATEGORIES, lenient=True)
        assert len(items) == 3

    def test_malformed(self):
        with pytest.raises(MalformedResponse):
            parse_one_turn_response('{"not": "an array"}', CATEGORIES)


class TestMultiTurnParsing:
    def test_well_formed_six_turns(self):
        raw = "user: 一？\nassistant: 答一。\nuser: 二？\nassistant: 答二。\nuser: 三？\nassistant: 答三。"
        turns = parse_multi_turn_response(raw)
        assert [t["role"] for t in turns] == ["user", "assistant"] * 3

    def test_chinese_markers(self):
        raw = "用户：好吗？\n助手：很好。\n用户：继续？\n助手：可以。"
        assert len(parse_multi_turn_response(raw)) == 4

    def test_starts_with_assistant(self):
        with pytest.raises(RoleOrderViolation):
            parse_multi_turn_response("assistant: 我先说。\nuser: 嗯。\nassistant: 好。\nuser: 哦。")

    def test_consecutive_user_turns(self):
        with pytest.raises(RoleOrderViolation):
            parse_multi_turn_response("user: 一？\nuser: 二？\nassistant: 答。\nuser: 三？\nassistant: 答。")

    def test_too_short(self):
        with pytest.raises(MalformedResponse):
            parse_multi_turn_response("user: 一？\nassistant: 答一。")

    def test_no_markers(self):
        with pytest.raises(MalformedResponse):
            parse_multi_turn_response("一整段没有角色的文本。")

    def test_multiline_content_kept(self):
        raw = "user: 问？\nassistant: 第一行。\n第二行。\nuser: 再问？\nassistant: 收尾。"
        turns = parse_multi_turn_response(raw)
        assert turns[1]["content"] == "第一行。\n第二行。"


class TestMcqParsing:
    def payload(self, qtype="单选", options=None, correct="C") -> str:
        options = options if options is not None else {k: f"选项{k}" for k in "ABCD"}
        return json.dumps(
            {
                "question": "下列说法正确的是？",
                "question_type": qtype,
                "candidate_options": options,
                "answer": {"correct_option": correct, "reason": "依据规范。"},
            },
            ensure_ascii=False,
        )

    def test_single_choice_accepted(self):
        item = parse_mcq_response(self.payload())
        assert item.question_type == "single_choice"
        assert item.correct_option == "C"

    def test_judgment_with_four_options_is_arity_error(self):
        with pytest.raises(ArityError):
            parse_mcq_response(self.payload(qtype="判断", correct="A"))

    def test_judgment_two_options_ok(self):
        item = parse_mcq_response(self.payload(qtype="判断", options={"A": "对", "B": "错"}, correct="A"))
        assert item.question_type == "judgment"

    def test_correct_option_not_in_options(self):
        with pytest.raises(OptionMismatch):
            parse_mcq_response(self.payload(correct="E"))

    def test_missing_field_malformed(self):
        with pytest.raises(MalformedResponse):
            parse_mcq_response('{"question": "缺字段"}')

    def test_defaults_applied(self):
        item = parse_mcq_response(self.payload())
        assert item.difficulty == "expertise"
        assert item.category == "未分类"


class TestSchemas:
    def test_instruction_sample_reload_fixpoint(self):
        sample = InstructionSample(
            kind="one_turn",
            turns=[{"role": "user", "content": "问？"}, {"role": "assistant", "content": "答。"}],
            knowledge_id="k1",
            category="行业标准",
            gen_meta={"model_name": "m", "timestamp": "t", "raw_response_hash": "abc123"},
        )
        again = InstructionSample.from_dict(json.loads(json.dumps(sample.to_dict(), ensure_ascii=False)))
        assert again.to_dict() == sample.to_dict()

    def test_one_turn_needs_two_turns(self):
        with pytest.raises(SchemaError):
            InstructionSample(kind="one_turn", turns=[{"role": "user", "content": "只有问"}], knowledge_id="k")

    def test_multi_turn_minimum_four(self):
        with pytest.raises(SchemaError):
            InstructionSample(
                kind="multi_turn",
                turns=[{"role": "user", "content": "a"}, {"role": "assistant", "content": "b"}],
                knowledge_id="k",
            )

    def test_mcq_reload_fixpoint(self):
        item = MCQItem(
            question="题干？",
            question_type="single_choice",
            options={k: f"o{k}" for k in "ABCD"},
            correct_option="B",
            reason="理由",
            category="fundamentals",
            subclass="子类",
            difficulty="fundamentals",
        )
        assert MCQItem.from_dict(item.to_dict()).to_dict() == item.to_dict()


class TestGeneratorOps:
    def one_turn_script(self, messages):
        content = messages[0]["content"]
        if "出5至20道题" in content:
            return json.dumps(
                [{"question": f"[K1] 问题{i}？", "answer": f"短答{i}", "category": "行业标准"} for i in range(6)],
                ensure_ascii=False,
            )
        return f"针对“{content}”的详细回答。"

    def test_one_turn_two_step(self):
        doc = make_doc("[K1] 知识文本内容。")
        client = make_client(self.one_turn_script)
        template = load_template("one_turn")
        samples = gen_one_turn(doc, client.complete, template, "mock-model")
        assert len(samples) == 6
        for s in samples:
            assert len(s.turns) == 2
            assert "详细回答" in s.turns[1]["content"]  # step-2 replaced the short answer
            assert s.knowledge_id == doc.doc_id
            assert s.gen_meta["model_name"] == "mock-model"

    def test_multi_turn_op(self):
        doc = make_doc("多轮知识。")
        script = lambda m: "user: 一？\nassistant: 答一。\nuser: 二？\nassistant: 答二。"
        sample = gen_multi_turn(doc, make_client(script).complete, load_template("multi_turn"), "mock-model")
        assert sample.kind == "multi_turn"
        assert len(sample.turns) == 4

    def test_mcq_op(self):
        doc = make_doc("单选知识。")
        payload = TestMcqParsing().payload()
        item = gen_mcq(doc, make_client(lambda m: payload).complete, load_template("mcq"), "mock-model")
        assert item.correct_option == "C"


class TestBatchGenerate:
    def run_batch(self, archive_dir, transport=None, budget=1000):
        docs = build_gen_docs()
        script = gen_script(CATEGORIES)
        cfg = EndpointConfig(base_url="http://mock.invalid", model_name="mock-model", concurrency_limit=4)
        client = ChatClient(cfg, transport or ScriptedTransport(script))
        archive = ResponseArchive(archive_dir)
        mcq_docs, multi_docs, one_docs = docs[:50], docs[50:97], docs[97:]
        all_items, reports = [], []
        for subset, kind in ((mcq_docs, "mcq"), (multi_docs, "multi_turn"), (one_docs, "one_turn")):
            items, report = batch_generate(subset, [kind], client, budget=budget, archive=archive,
                                           templates=packaged_templates(kind))
            all_items.extend(items)
            reports.append(report)
        return all_items, reports, archive

    def test_accept_reject_arithmetic(self, tmp_path):
        items, reports, archive = self.run_batch(tmp_path / "arch")
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
        }

    def test_supplied_templates_are_not_reloaded(self, tmp_path, monkeypatch):
        def refuse(kind, *args, **kwargs):
            raise AssertionError(f"default {kind} template loaded")

        templates = {kind: load_template(kind) for kind in ("mcq", "multi_turn")}
        monkeypatch.setattr("renokit.sftgen.load_template", refuse)
        client = make_client(gen_script(CATEGORIES))
        _, report = batch_generate(build_gen_docs()[:2], ["mcq", "multi_turn"], client, budget=100,
                                   archive=ResponseArchive(tmp_path / "arch"), templates=templates)
        assert report.jobs_total == 4

    @pytest.mark.parametrize("kinds", [["poem"], ["mcq", "multi_turn"]])
    def test_kind_without_a_template_is_refused(self, tmp_path, kinds):
        client = make_client(gen_script(CATEGORIES))
        with pytest.raises(ValueError):
            batch_generate(build_gen_docs()[:2], kinds, client, budget=100, archive=ResponseArchive(tmp_path / "arch"),
                           templates=packaged_templates("mcq"))
        assert client.transport.calls == 0

    def test_archive_completeness(self, tmp_path):
        _, reports, archive = self.run_batch(tmp_path / "arch")
        assert len(archive_ids(archive)) == sum(r.requests_sent for r in reports) == 100

    def test_job_conservation(self, tmp_path):
        _, reports, _ = self.run_batch(tmp_path / "arch")
        for report in reports:
            assert report.jobs_accepted + report.rejected_total == report.jobs_total
            assert report.jobs_skipped == 0
        assert sum(r.jobs_total for r in reports) == 100

    def test_offline_replay_reproduces_dataset(self, tmp_path):
        items1, _, _ = self.run_batch(tmp_path / "arch")
        items2, reports2, _ = self.run_batch(tmp_path / "arch", transport=OfflineTransport())
        assert [i.to_dict() for i in items1] == [i.to_dict() for i in items2]
        assert sum(r.requests_sent for r in reports2) == 0
        assert sum(r.replayed for r in reports2) == 100

    def test_unreadable_archive_entries_count_as_missing(self, tmp_path, caplog):
        items1, _, archive = self.run_batch(tmp_path / "arch")
        first, second = archive_ids(archive)[:2]

        def corrupt():
            (archive.root / f"{first}.json").write_text('{"response": "cut sho', encoding="utf-8")
            (archive.root / f"{second}.json").write_text('{"request_id": "neither"}', encoding="utf-8")

        corrupt()
        with caplog.at_level(logging.WARNING, logger="renokit.sftgen"):
            items2, reports2, _ = self.run_batch(tmp_path / "arch")
        assert [i.to_dict() for i in items2] == [i.to_dict() for i in items1]
        assert sum(r.requests_sent for r in reports2) == 2
        assert sum("treating it as missing" in r.getMessage() for r in caplog.records) == 2
        assert any(f"{archive.root / first}.json: invalid JSON" in r.getMessage() for r in caplog.records)
        # offline, the two are sent, fail and are rejected; replay does not crash
        corrupt()
        items3, reports3, _ = self.run_batch(tmp_path / "arch", transport=OfflineTransport())
        assert sum(r.replayed for r in reports3) == 98
        assert sum(r.rejected.get("EndpointError", 0) for r in reports3) == 2
        assert len(items3) == len(items1) - 2

    def test_budget_exhaustion_flushes_partial(self, tmp_path):
        docs = build_gen_docs()[:20]
        script = gen_script(CATEGORIES)
        cfg = EndpointConfig(base_url="http://mock.invalid", model_name="mock-model", concurrency_limit=1)
        client = ChatClient(cfg, ScriptedTransport(script))
        archive = ResponseArchive(tmp_path / "arch")
        items, report = batch_generate(docs, ["mcq"], client, budget=7, archive=archive,
                                       templates=packaged_templates("mcq"))
        assert report.budget_exhausted
        assert len(items) == 7
        # resume with a bigger budget; archived responses are free
        items2, report2 = batch_generate(docs, ["mcq"], client, budget=1000, archive=archive,
                                         templates=packaged_templates("mcq"))
        assert len(items2) == 20
        assert report2.replayed == 7
        assert report2.requests_sent == 13

    def test_output_order_sorted_by_knowledge_id(self, tmp_path):
        items, _, _ = self.run_batch(tmp_path / "arch")
        doc_id_by_marker = {d.text[1:5]: d.doc_id for d in build_gen_docs()}
        mcq_ids = [doc_id_by_marker[i.question[1:5]] for i in items if hasattr(i, "question")]
        assert mcq_ids == sorted(mcq_ids)

    def test_double_fresh_run_byte_identical(self, tmp_path):
        items1, _, _ = self.run_batch(tmp_path / "a")
        items2, _, _ = self.run_batch(tmp_path / "b")
        assert [i.to_dict() for i in items1] == [i.to_dict() for i in items2]


class TestSchemaFailureIsRejection:
    """A reply whose sample or item fails its schema rejects its job as MalformedResponse; the batch goes on."""

    @staticmethod
    def script(messages):
        content = messages[0]["content"]
        marker = re.search(r"G\d{3}", content).group(0)
        if "单选题或判断题" in content:
            return json.dumps({
                "question": f"[{marker}] 正确的说法是？",
                "question_type": "单选",
                "candidate_options": {k: f"{marker}选项{k}" for k in "ABCD"},
                "answer": {"correct_option": "A", "reason": "依据"},
                "difficulty": "easy" if marker == "G001" else "fundamentals",
            }, ensure_ascii=False)
        if "出5至20道题" in content:
            return json.dumps([{"question": f"[{marker}] 问题{j}？", "answer": "短答", "category": CATEGORIES[0]}
                               for j in range(5)], ensure_ascii=False)
        return "  " if content == "[G002] 问题3？" else "详细答案。"  # a blank step-2 answer for G002

    def run(self, archive_dir, transport=None):
        cfg = EndpointConfig(base_url="http://mock.invalid", model_name="mock-model")
        client = ChatClient(cfg, transport or ScriptedTransport(self.script))
        return batch_generate(build_gen_docs()[:3], ["mcq", "one_turn"], client, budget=100,
                              archive=ResponseArchive(archive_dir), templates=packaged_templates("mcq", "one_turn"))

    def test_rejected_as_malformed(self, tmp_path):
        items, report = self.run(tmp_path / "arch")
        assert report.rejected == {"MalformedResponse": 2}
        assert report.jobs_accepted == 4
        assert report.jobs_accepted + report.rejected_total == report.jobs_total == 6
        assert report.accepted_per_kind == {"mcq": 2, "one_turn": 10}
        assert "[G001]" not in "".join(getattr(i, "question", "") for i in items)
        assert not any(i.knowledge_id == build_gen_docs()[1].doc_id for i in items if hasattr(i, "turns"))

    def test_replay_rejects_the_same(self, tmp_path):
        items1, report1 = self.run(tmp_path / "arch")
        items2, report2 = self.run(tmp_path / "arch", transport=OfflineTransport())
        assert [i.to_dict() for i in items2] == [i.to_dict() for i in items1]
        assert (report2.requests_sent, report2.replayed) == (0, report1.requests_sent)
        assert report2.rejected == report1.rejected


class TestArchivedCompleter:
    def test_identical_concurrent_requests_spend_budget_once(self, tmp_path):
        def held_reply(messages):
            # hold the first request until the identical second one has arrived
            deadline = time.monotonic() + 5
            while completer.replayed == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            return "答复"

        transport = ScriptedTransport(held_reply)
        client = ChatClient(EndpointConfig(base_url="http://mock.invalid", model_name="mock-model"), transport)
        completer = ArchivedCompleter(client, ResponseArchive(tmp_path / "arch"), budget=1)
        messages = [{"role": "user", "content": "同一个问题"}]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(completer, messages) for _ in range(2)]
            replies = [f.result(timeout=10) for f in futures]
        assert [r.text for r in replies] == ["答复", "答复"]
        assert transport.calls == 1
        assert (completer.sent, completer.replayed) == (1, 1)

    def test_entry_stores_the_request_sent(self, tmp_path):
        """The archived "request" is the dict the transport received, filed under its request_id."""
        received = []

        class Recording(ScriptedTransport):
            def complete(self, request):
                received.append(request)
                return super().complete(request)

        cfg = EndpointConfig(base_url="http://mock.invalid", model_name="mock-model", temperature=0.2)
        archive = ResponseArchive(tmp_path / "arch")
        completer = ArchivedCompleter(ChatClient(cfg, Recording(lambda messages: "答复")), archive, budget=1)
        assert completer([{"role": "user", "content": "问"}]).text == "答复"
        [request] = received
        assert request == {"model": "mock-model", "messages": [{"role": "user", "content": "问"}], "temperature": 0.2}
        assert archive_ids(archive) == [request_id(request)]
        assert archive.load(request_id(request))["request"] == request

    def test_offline_refusal_is_not_archived(self, tmp_path):
        """Offline, a request missing from the archive is rejected as EndpointError and nothing is
        stored, so a later online run sends it."""
        docs = build_gen_docs()[:3]
        archive = ResponseArchive(tmp_path / "arch")
        client = ChatClient(EndpointConfig(base_url="http://mock.invalid", model_name="mock-model"), OfflineTransport())
        items, report = batch_generate(docs, ["mcq"], client, budget=100, archive=archive,
                                       templates=packaged_templates("mcq"))
        assert (items, report.rejected) == ([], {"EndpointError": 3})
        assert len(archive_ids(archive)) == 0
        items, report = batch_generate(docs, ["mcq"], make_client(gen_script(CATEGORIES)), budget=100, archive=archive,
                                       templates=packaged_templates("mcq"))
        assert (report.requests_sent, report.accepted, report.rejected_total) == (3, 3, 0)

    def test_waiter_gets_the_senders_refusal(self, tmp_path):
        class HeldFailing(FailingTransport):
            def complete(self, request):
                # hold the refusal until the identical second request waits on it
                deadline = time.monotonic() + 5
                while completer.replayed == 0 and time.monotonic() < deadline:
                    time.sleep(0.01)
                return super().complete(request)

        client = ChatClient(EndpointConfig(base_url="http://mock.invalid", model_name="mock-model"), HeldFailing())
        archive = ResponseArchive(tmp_path / "arch")
        completer = ArchivedCompleter(client, archive, budget=1)
        messages = [{"role": "user", "content": "同一个问题"}]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(completer, messages) for _ in range(2)]
            errors = [f.exception(timeout=10) for f in futures]
        assert [(type(e), str(e)) for e in errors] == [(EndpointError, "boom")] * 2
        assert (completer.sent, completer.replayed, len(archive_ids(archive))) == (1, 1, 1)

    def test_offline_misses_take_no_budget(self, tmp_path):
        """Offline, a request missing from the archive is refused without being sent: it takes no
        budget, so a budget of 0 rejects every job as EndpointError and skips none."""
        client = ChatClient(EndpointConfig(base_url="http://mock.invalid", model_name="mock-model"), OfflineTransport())
        items, report = batch_generate(build_gen_docs()[:3], ["mcq"], client, budget=0,
                                       archive=ResponseArchive(tmp_path / "arch"), templates=packaged_templates("mcq"))
        assert items == []
        assert (report.requests_sent, report.budget_exhausted, report.jobs_skipped) == (0, False, 0)
        assert report.rejected == {"EndpointError": 3}

    def test_many_threads_send_each_request_once(self, tmp_path):
        def slow_echo(messages):
            time.sleep(0.02)
            return messages[0]["content"]

        transport = ScriptedTransport(slow_echo)
        client = ChatClient(EndpointConfig(base_url="http://mock.invalid", model_name="mock-model"), transport)
        completer = ArchivedCompleter(client, ResponseArchive(tmp_path / "arch"), budget=4)
        questions = [f"问题{i % 4}" for i in range(64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = [pool.submit(completer, [{"role": "user", "content": q}]) for q in questions]
                replies = [f.result(timeout=30).text for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert replies == questions
        assert transport.calls == completer.sent == 4
        assert completer.replayed == 60


class TestTermFrequency:
    def sample_with(self, content: str) -> dict:
        return {"kind": "one_turn", "turns": [{"role": "user", "content": content}]}

    def test_counts_by_hand(self):
        ranked = term_frequency_report([self.sample_with("地板 地板 水电")])
        assert ranked == [("地板", 2), ("水电", 1)]

    def test_stopwords_removed(self):
        ranked = term_frequency_report([self.sample_with("地板 地板 水电")], stopwords=("地板",))
        assert ranked == [("水电", 1)]

    def test_k_larger_than_vocabulary(self):
        ranked = term_frequency_report([self.sample_with("地板 水电")], top_k=100)
        assert len(ranked) == 2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            term_frequency_report([])
