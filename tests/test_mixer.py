from __future__ import annotations

import random

import pytest

from renokit.errors import EmptyDomain, EmptyInput, InsufficientGeneralData
from renokit.jsonl import config_from_json, write_jsonl
from renokit.tokenizers import count_tokens
from renokit.mixer import (
    ASSISTANT_MARKER,
    USER_MARKER,
    MipRecord,
    MixPlan,
    TrainerConfig,
    build_mip,
    emit_trainer_config,
    mix,
    record_id,
    records_tokens,
    render_instruction_text,
    trainer_config_for_mode,
)

from oracles import build_mip_held


def parse_rendered_text(text: str) -> list[dict]:
    """Recover (role, content) turns from rendered training text."""
    markers = {USER_MARKER: "user", ASSISTANT_MARKER: "assistant"}
    turns: list[dict] = []
    content: list[str] | None = None
    for line in text.split("\n"):
        if line in markers:
            if turns and content is not None:
                turns[-1]["content"] = "\n".join(content)
            turns.append({"role": markers[line], "content": ""})
            content = []
        elif content is not None:
            content.append(line)
    if turns and content is not None:
        turns[-1]["content"] = "\n".join(content)
    return turns


def doc_rec(i: int, tokens: int, kind: str = "domain_book") -> dict:
    return {
        "doc_id": f"{kind[:3]}-{i:05d}",
        "text": "字" * tokens,
        "source_kind": kind,
        "token_count": tokens,
    }


def make_pools(domain_tokens: int = 10_000, general_items: int = 1200):
    domain = [doc_rec(i, 100) for i in range(domain_tokens // 100)]
    general = [doc_rec(i, 80 + (i % 41), "general") for i in range(general_items)]
    return domain, general


class TestMixPlan:
    def test_parse_ratio(self):
        assert MixPlan(seed=0, ratio="1:5").ratio_general == 5
        assert MixPlan(seed=0, ratio=" 1 : 10 ").ratio_general == 10
        with pytest.raises(ValueError):
            MixPlan(seed=0, ratio="2-5")
        with pytest.raises(ValueError, match="domain part 1"):
            MixPlan(seed=0, ratio="2:5")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            MixPlan(seed=0, ratio="1:1", mode="pretrain")

    def test_mode_and_unit_spelt_exactly(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            MixPlan(seed=0, mode="DAPT")
        with pytest.raises(ValueError, match="unit must be one of"):
            MixPlan(seed=0, unit="Tokens")

    def test_instructions_only_in_mip(self):
        assert MixPlan(seed=0, mode="mip", instructions="sft.jsonl").instructions == "sft.jsonl"
        with pytest.raises(ValueError, match="mip mode requires instructions"):
            MixPlan(seed=0, mode="mip")
        with pytest.raises(ValueError, match="read only in mip mode, not in 'dapt' mode"):
            MixPlan(seed=0, mode="dapt", instructions="sft.jsonl")


class TestMix:
    def test_general_pool_counted_over_many_blocks(self):
        general = [{"id": f"g{i}", "text": "字" * (i % 7 + 1) + " word" * (i % 3)} for i in range(5000)]
        # the draw stops at the first record that brings the general tokens to 5 x 2000
        mixed, report = mix([{"id": "d", "token_count": 2000}], general, MixPlan(seed=3, ratio="1:5"))
        tokens = [count_tokens(r["text"]) for r in mixed if r["id"] != "d"]
        assert len(tokens) > 1024  # past the first block
        assert report.general_tokens == sum(tokens)
        assert sum(tokens) - max(tokens) < 10_000 <= sum(tokens)
        domain = [{"id": f"d{i}", "token_count": 1} for i in range(400)]
        mixed, report = mix(domain, general, MixPlan(seed=3, ratio="1:5", unit="examples"))
        tokens = [count_tokens(r["text"]) for r in mixed if r["id"].startswith("g")]
        assert (len(tokens), report.general_tokens) == (2000, sum(tokens))

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 10])
    def test_token_ratio_within_one_item(self, k):
        domain, general = make_pools()
        mixed, report = mix(domain, general, MixPlan(seed=42, ratio=f"1:{k}", mode="dapt"))
        max_item = max(records_tokens(general))
        assert abs(report.achieved_ratio - k) <= max_item / report.domain_tokens
        if k == 0:
            assert report.general_count == 0
            assert len(mixed) == len(domain)

    def test_domain_completeness(self):
        domain, general = make_pools()
        mixed, _ = mix(domain, general, MixPlan(seed=1, ratio="1:2", mode="dapt"))
        mixed_ids = [record_id(r) for r in mixed]
        for rec in domain:
            assert mixed_ids.count(record_id(rec)) == 1

    def test_general_sampled_without_replacement(self):
        domain, general = make_pools()
        mixed, _ = mix(domain, general, MixPlan(seed=3, ratio="1:5", mode="dapt"))
        general_ids = [record_id(r) for r in mixed if r["source_kind"] == "general"]
        assert len(general_ids) == len(set(general_ids))

    def test_seed_determinism(self):
        domain, general = make_pools()
        plan = MixPlan(seed=99, ratio="1:2", mode="dapt")
        m1, r1 = mix(domain, general, plan)
        m2, r2 = mix(domain, general, MixPlan(seed=99, ratio="1:2", mode="dapt"))
        assert m1 == m2
        assert r1.to_dict() == r2.to_dict()

    def test_different_seed_different_shuffle_same_multiset_when_pool_consumed(self):
        domain = [doc_rec(i, 100) for i in range(5)]
        general = [doc_rec(i, 50, "general") for i in range(10)]  # exactly 500 = 1x500
        plan_a = MixPlan(seed=1, ratio="1:1", mode="dapt")
        plan_b = MixPlan(seed=2, ratio="1:1", mode="dapt")
        ma, _ = mix(domain, general, plan_a)
        mb, _ = mix(domain, general, plan_b)
        assert ma != mb
        assert sorted(record_id(r) for r in ma) == sorted(record_id(r) for r in mb)

    def test_insufficient_pool_raises_with_shortfall(self):
        domain = [doc_rec(0, 1000)]
        general = [doc_rec(0, 100, "general")]
        with pytest.raises(InsufficientGeneralData) as err:
            mix(domain, general, MixPlan(seed=0, ratio="1:2", mode="dapt"))
        assert err.value.shortfall == 1900

    def test_allow_short_proceeds(self):
        domain = [doc_rec(0, 1000)]
        general = [doc_rec(0, 100, "general")]
        mixed, report = mix(domain, general, MixPlan(seed=0, ratio="1:2", mode="dapt", allow_short=True))
        assert report.shortfall == 1900
        assert len(mixed) == 2

    def test_empty_domain(self):
        with pytest.raises(EmptyDomain):
            mix([], [doc_rec(0, 10, "general")], MixPlan(seed=0, ratio="1:1", mode="dapt"))

    def test_examples_unit_exact_count(self):
        domain = [doc_rec(i, 100) for i in range(10)]
        general = [doc_rec(i, 7, "general") for i in range(100)]
        plan = MixPlan(seed=5, ratio="1:2", mode="sft", unit="examples")
        mixed, report = mix(domain, general, plan)
        assert report.general_count == 20
        assert report.achieved_ratio == 2.0
        assert len(mixed) == 30


class TestMip:
    def sample(self, i: int = 0) -> dict:
        return {
            "kind": "one_turn",
            "turns": [
                {"role": "user", "content": f"第{i}个问题？"},
                {"role": "assistant", "content": f"第{i}个答案，分两行。\n第二行。"},
            ],
            "category": "水电改造",
            "knowledge_id": f"k{i}",
        }

    def test_union_count(self):
        docs = [doc_rec(i, 50) for i in range(100)]
        samples = [self.sample(i) for i in range(50)]
        rows, report = build_mip(docs, samples, seed=9)
        records = list(rows)
        assert len(records) == 150
        assert sum(1 for r in records if r["origin"] == "instruction") == 50
        assert (report.pretrain_count, report.instruction_count) == (100, 50)
        assert report.total_tokens == 100 * 50 + sum(count_tokens(r["text"]) for r in records
                                                     if r["origin"] == "instruction")
        assert [MipRecord.from_dict(r).to_dict() for r in records] == records

    def test_requires_both_parts(self):
        with pytest.raises(EmptyInput):
            build_mip([doc_rec(0, 10)], [], seed=0)
        with pytest.raises(EmptyInput):
            build_mip([], [self.sample()], seed=0)

    def test_render_parse_roundtrip(self):
        turns = self.sample(3)["turns"]
        assert parse_rendered_text(render_instruction_text(turns)) == turns

    def test_no_general_leakage(self):
        docs = [doc_rec(i, 50) for i in range(10)]
        general = [doc_rec(i, 50, "general") for i in range(10)]
        general_ids = {record_id(r) for r in general}
        rows, _ = build_mip(docs, [self.sample(i) for i in range(5)], seed=1)
        records = list(rows)
        assert not ({r["id"] for r in records} & general_ids)

    def test_shuffle_deterministic(self):
        docs = [doc_rec(i, 50) for i in range(20)]
        samples = [self.sample(i) for i in range(10)]
        (rows_a, report_a), (rows_b, report_b) = build_mip(docs, samples, seed=4), build_mip(docs, samples, seed=4)
        assert (list(rows_a), report_a) == (list(rows_b), report_b)

    def test_rows_and_report_match_the_held_oracle(self):
        rng = random.Random(29)
        for trial in range(200):
            docs = [doc_rec(i, rng.randint(0, 60)) for i in range(rng.randint(1, 30))]
            for rec in rng.sample(docs, len(docs) // 3):  # ids from other keys, or from the content
                del rec["doc_id"]
                rec.update(rng.choice([{"id": f"x{rng.randrange(99)}"}, {"sample_id": "s"}, {}]))
            samples = [self.sample(rng.randrange(1000)) for _ in range(rng.randint(1, 30))]
            for sample in rng.sample(samples, len(samples) // 4):
                sample["turns"] = sample["turns"] * rng.randint(0, 2)
            seed = rng.randrange(2**32)
            rows, report = build_mip(docs, samples, seed=seed)
            want_rows, want_report = build_mip_held(docs, samples, seed=seed)
            # items, not dicts, so that the key order train.jsonl is written in counts too
            assert ([list(row.items()) for row in rows], report) == (
                [list(row.items()) for row in want_rows], want_report), trial


class TestTrainerConfig:
    def test_dapt_values(self):
        cfg = trainer_config_for_mode("dapt")
        assert cfg.to_dict() == {
            "precision": "fp16",
            "epochs": 4,
            "batch_size": 64,
            "learning_rate": 1e-4,
            "warmup_ratio": 0.1,
            "lr_scheduler": "cosine",
            "max_length": 1024,
        }

    def test_sft_max_length(self):
        assert trainer_config_for_mode("sft").max_length == 1536

    def test_mip_uses_pretrain_length(self):
        assert trainer_config_for_mode("mip").max_length == 1024

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trainer.json"
        emitted = emit_trainer_config("sft", path)
        assert config_from_json(TrainerConfig, path, "trainer config") == emitted


class TestRecordHelpers:
    def test_token_count_priority(self):
        assert records_tokens([{"token_count": 7, "text": "字字"}]) == [7]

    def test_turn_tokens(self):
        rec = {"turns": [{"role": "user", "content": "厨房"}, {"role": "assistant", "content": "design"}]}
        assert records_tokens([rec]) == [3]

    def test_batch_counts_each_record_alone(self):
        recs = [{"token_count": 7, "text": "字字"},
                {"turns": [{"role": "user", "content": "厨房ab"}, {"role": "assistant", "content": "cd"}]},
                {"text": "ab cd"}, {"id": "x"}, {"turns": []}, {"text": ""}, {"turns": [{"role": "user"}]}]
        assert records_tokens(recs) == [7, 4, 2, 0, 0, 0, 0] == [records_tokens([r])[0] for r in recs]
        assert records_tokens([]) == []

    def test_record_id_stable_without_explicit_id(self):
        rec = {"text": "无显式id的记录", "x": 1}
        assert record_id(rec) == record_id(dict(reversed(list(rec.items()))))

    def test_record_id_hashes_as_before(self):
        """A row without an id hashes its canonical JSON: sorted keys, non-ASCII kept as is."""
        rec = {"text": "无显式id的记录", "x": 1, "turns": [{"role": "user", "content": "é"}]}
        assert record_id(rec) == "a73edd4b7d9aba2a3895555a0d7fb8ec"


def test_mix_output_serializes_identically(tmp_path):
    domain, general = make_pools(domain_tokens=2000, general_items=100)
    plan = MixPlan(seed=8, ratio="1:1", mode="dapt")
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(out1, mix(domain, general, plan)[0])
    write_jsonl(out2, mix(domain, general, plan)[0])
    assert out1.read_bytes() == out2.read_bytes()


def test_shuffle_actually_interleaves():
    domain, general = make_pools(domain_tokens=3000, general_items=200)
    mixed, _ = mix(domain, general, MixPlan(seed=2, ratio="1:1", mode="dapt"))
    kinds = [r["source_kind"] for r in mixed]
    assert kinds != sorted(kinds)
