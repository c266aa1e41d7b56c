from __future__ import annotations

import pytest

from renokit.errors import EmptyDomain, EmptyInput, InsufficientGeneralData
from renokit.jsonl import write_jsonl
from renokit.mixer import (
    MixPlan,
    TrainerConfig,
    build_mip,
    emit_trainer_config,
    load_trainer_config,
    mix,
    parse_rendered_text,
    record_id,
    record_tokens,
    render_instruction_text,
    trainer_config_for_mode,
)


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
        assert MixPlan.parse_ratio("1:5") == (1, 5)
        assert MixPlan.parse_ratio(" 1 : 10 ") == (1, 10)
        with pytest.raises(ValueError):
            MixPlan.parse_ratio("2-5")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            MixPlan(ratio_general=1, mode="pretrain", seed=0)


class TestMix:
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 10])
    def test_token_ratio_within_one_item(self, k):
        domain, general = make_pools()
        mixed, report = mix(domain, general, MixPlan(ratio_general=k, mode="dapt", seed=42))
        max_item = max(record_tokens(r) for r in general)
        assert abs(report.achieved_ratio - k) <= max_item / report.domain_tokens
        if k == 0:
            assert report.general_count == 0
            assert len(mixed) == len(domain)

    def test_domain_completeness(self):
        domain, general = make_pools()
        mixed, _ = mix(domain, general, MixPlan(ratio_general=2, mode="dapt", seed=1))
        mixed_ids = [record_id(r) for r in mixed]
        for rec in domain:
            assert mixed_ids.count(record_id(rec)) == 1

    def test_general_sampled_without_replacement(self):
        domain, general = make_pools()
        mixed, _ = mix(domain, general, MixPlan(ratio_general=5, mode="dapt", seed=3))
        general_ids = [record_id(r) for r in mixed if r["source_kind"] == "general"]
        assert len(general_ids) == len(set(general_ids))

    def test_seed_determinism(self):
        domain, general = make_pools()
        plan = MixPlan(ratio_general=2, mode="dapt", seed=99)
        m1, r1 = mix(domain, general, plan)
        m2, r2 = mix(domain, general, MixPlan(ratio_general=2, mode="dapt", seed=99))
        assert m1 == m2
        assert r1.to_dict() == r2.to_dict()

    def test_different_seed_different_shuffle_same_multiset_when_pool_consumed(self):
        domain = [doc_rec(i, 100) for i in range(5)]
        general = [doc_rec(i, 50, "general") for i in range(10)]  # exactly 500 = 1x500
        plan_a = MixPlan(ratio_general=1, mode="dapt", seed=1)
        plan_b = MixPlan(ratio_general=1, mode="dapt", seed=2)
        ma, _ = mix(domain, general, plan_a)
        mb, _ = mix(domain, general, plan_b)
        assert ma != mb
        assert sorted(record_id(r) for r in ma) == sorted(record_id(r) for r in mb)

    def test_insufficient_pool_raises_with_shortfall(self):
        domain = [doc_rec(0, 1000)]
        general = [doc_rec(0, 100, "general")]
        with pytest.raises(InsufficientGeneralData) as err:
            mix(domain, general, MixPlan(ratio_general=2, mode="dapt", seed=0))
        assert err.value.shortfall == 1900

    def test_allow_short_proceeds(self):
        domain = [doc_rec(0, 1000)]
        general = [doc_rec(0, 100, "general")]
        mixed, report = mix(domain, general, MixPlan(ratio_general=2, mode="dapt", seed=0), allow_short=True)
        assert report.shortfall == 1900
        assert len(mixed) == 2

    def test_empty_domain(self):
        with pytest.raises(EmptyDomain):
            mix([], [doc_rec(0, 10, "general")], MixPlan(ratio_general=1, mode="dapt", seed=0))

    def test_examples_unit_exact_count(self):
        domain = [doc_rec(i, 100) for i in range(10)]
        general = [doc_rec(i, 7, "general") for i in range(100)]
        plan = MixPlan(ratio_general=2, mode="sft", seed=5, unit="examples")
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
        records = build_mip(docs, samples, seed=9)
        assert len(records) == 150
        assert sum(1 for r in records if r["origin"] == "instruction") == 50

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
        records = build_mip(docs, [self.sample(i) for i in range(5)], seed=1)
        assert not ({r["id"] for r in records} & general_ids)

    def test_shuffle_deterministic(self):
        docs = [doc_rec(i, 50) for i in range(20)]
        samples = [self.sample(i) for i in range(10)]
        assert build_mip(docs, samples, seed=4) == build_mip(docs, samples, seed=4)


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
        assert load_trainer_config(path) == emitted

    def test_accepts_mix_plan(self, tmp_path):
        plan = MixPlan(ratio_general=5, mode="sft", seed=0)
        assert emit_trainer_config(plan, tmp_path / "t.json").max_length == 1536


class TestRecordHelpers:
    def test_token_count_priority(self):
        assert record_tokens({"token_count": 7, "text": "字字"}) == 7

    def test_turn_tokens(self):
        rec = {"turns": [{"role": "user", "content": "厨房"}, {"role": "assistant", "content": "design"}]}
        assert record_tokens(rec) == 3

    def test_record_id_stable_without_explicit_id(self):
        rec = {"text": "无显式id的记录", "x": 1}
        assert record_id(rec) == record_id(dict(reversed(list(rec.items()))))


def test_mix_output_serializes_identically(tmp_path):
    domain, general = make_pools(domain_tokens=2000, general_items=100)
    plan = MixPlan(ratio_general=1, mode="dapt", seed=8)
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(out1, mix(domain, general, plan)[0])
    write_jsonl(out2, mix(domain, general, plan)[0])
    assert out1.read_bytes() == out2.read_bytes()


def test_shuffle_actually_interleaves():
    domain, general = make_pools(domain_tokens=3000, general_items=200)
    mixed, _ = mix(domain, general, MixPlan(ratio_general=1, mode="dapt", seed=2))
    kinds = [r["source_kind"] for r in mixed]
    assert kinds != sorted(kinds)
