from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from renokit import dedup
from renokit.dedup import (
    DedupConfig,
    _lsh_candidates,
    exact_dedup,
    jaccard,
    near_dedup,
    normalize_for_dedup,
    run_dedup,
    sentence_dedup,
    shingle,
    split_sentences,
)
from renokit.errors import EmptyShingleSet, SchemaError
from renokit.ingest import Document, doc_id_for
from renokit.tokenizers import BATCH_CODE_POINTS

from fixture_data import build_dedup_docs, cjk_text, make_doc
from oracles import brute_force_pairs, sign_rows


def estimate_recall(found, oracle) -> float:
    truth = {(p.a, p.b) for p in oracle}
    if not truth:
        return 1.0
    hits = sum(1 for p in found if (p.a, p.b) in truth)
    return hits / len(truth)


class TestConfig:
    def test_band_rows_must_factor(self):
        with pytest.raises(ValueError):
            DedupConfig(num_perm=128, lsh_bands=10, lsh_rows=10)

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            DedupConfig(jaccard_threshold=0.0)

    def test_candidate_prob_is_the_s_curve(self):
        assert DedupConfig().candidate_prob(0.8) == pytest.approx(1 - (1 - 0.8**8) ** 32)
        assert DedupConfig().candidate_prob(0.8) > 0.99
        # 16 bands of 8 rows miss one pair in twenty at the threshold
        assert DedupConfig(num_perm=128, lsh_bands=16, lsh_rows=8).candidate_prob(0.8) < 0.95


class TestExact:
    def test_byte_identical_collapse(self):
        a = make_doc("完全一样的内容")
        b = make_doc("完全一样的内容")
        survivors = exact_dedup([a, b])
        assert len(survivors) == 1
        dropped = b if survivors[0] is a else a
        assert dropped.status == "deduped_out"
        assert dropped.reason == "exact"

    def test_whitespace_runs_treated_identical(self):
        a = make_doc("内容 有 空格")
        b = make_doc("内容   有\t空格")
        assert len(exact_dedup([a, b])) == 1

    def test_distinct_corpus_unchanged(self):
        docs = [make_doc(f"各不相同的第{i}篇文章内容") for i in range(5)]
        assert len(exact_dedup(docs)) == 5

    def test_survivor_is_smallest_doc_id(self):
        a = make_doc("同文", kind="domain_book")
        b = make_doc("同文", kind="general")  # same text, different id
        survivors = exact_dedup([b, a])
        assert survivors[0].doc_id == min(a.doc_id, b.doc_id)

    def test_permutation_invariant(self):
        docs = [make_doc("重复内容甲"), make_doc("重复内容甲"), make_doc("另一篇内容")]
        ids1 = [d.doc_id for d in exact_dedup(list(docs))]
        ids2 = [d.doc_id for d in exact_dedup(list(reversed(docs)))]
        assert ids1 == ids2


def shingles(*values: int) -> np.ndarray:
    return np.array(sorted(values), dtype=np.uint64)


M64 = (1 << 64) - 1


def reference_mix64(x: int) -> int:
    """splitmix64 with Python ints."""
    z = (x + 0x9E3779B97F4A7C15) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def reference_gram_hash(gram: str) -> int:
    """The polynomial in the gram's code points, started from its width."""
    h = len(gram)
    for ch in gram:
        h = (h * 0x9E3779B97F4A7C15 + ord(ch)) & M64
    return reference_mix64(h)


def reference_shingles(text: str, ngram: int) -> set[int]:
    """Reference: the gram hashes collected into a Python set by a plain loop."""
    norm = " ".join(text.split())
    if not norm:
        return set()
    if len(norm) < ngram:
        return {reference_gram_hash(norm)}
    return {reference_gram_hash(norm[i : i + ngram]) for i in range(len(norm) - ngram + 1)}


def reference_signature(shingle_values: list[int], num_perm: int, seed: int) -> list[int]:
    """Reference: one-permutation MinHash and rotation densification with Python ints."""
    key = reference_mix64(seed)
    bins: list[int | None] = [None] * num_perm
    for x in shingle_values:
        h = reference_mix64(x ^ key)
        b, v = ((h >> 32) * num_perm) >> 32, h & 0xFFFFFFFF
        if bins[b] is None or v < bins[b]:
            bins[b] = v
    row = []
    for j in range(num_perm):
        distance = next(d for d in range(num_perm) if bins[(j + d) % num_perm] is not None)
        row.append(bins[(j + distance) % num_perm] + (distance << 32))
    return row


def edited(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randrange(0, 4)):
        pos = rng.randrange(0, len(chars) + 1)
        chars[pos:pos + rng.randrange(0, 2)] = rng.choice(["", " ", "\t\n", cjk_text(rng, 1)])
    return "".join(chars)


class TestJaccard:
    def test_identical(self):
        s = shingles(1, 2, 3)
        assert jaccard(s, s.copy()) == 1.0

    def test_disjoint(self):
        assert jaccard(shingles(1), shingles(2)) == 0.0

    def test_three_of_five(self):
        assert jaccard(shingles(1, 2, 3, 4), shingles(1, 2, 3, 5)) == 0.6

    def test_empty_raises(self):
        with pytest.raises(EmptyShingleSet):
            jaccard(shingles(), shingles(1))

    def test_short_text_still_shingles(self):
        doc = make_doc("短文")
        assert len(shingle(doc, ngram=5)) == 1

    def test_arrays_match_python_sets(self):
        # random CJK texts and near copies, many shorter than the n-gram width
        rng = random.Random(23)
        for _ in range(300):
            ngram = rng.choice((1, 3, 5))
            text_a = cjk_text(rng, rng.randrange(0, 12))
            text_b = edited(rng, text_a)
            set_a, set_b = reference_shingles(text_a, ngram), reference_shingles(text_b, ngram)
            arr_a, arr_b = shingle(make_doc(text_a), ngram), shingle(make_doc(text_b), ngram)
            assert arr_a.dtype == np.uint64
            assert arr_a.tolist() == sorted(set_a)
            assert arr_b.tolist() == sorted(set_b)
            if set_a and set_b:
                assert jaccard(arr_a, arr_b) == len(set_a & set_b) / len(set_a | set_b)


class TestSignatures:
    def test_deterministic_given_seed(self):
        docs = [make_doc(cjk_text(random.Random(1), 100)) for _ in range(3)]
        cfg = DedupConfig(seed=5)
        sets = [shingle(d) for d in docs]
        sigs = sign_rows(sets, cfg)
        assert sigs.shape == (3, cfg.num_perm)
        assert sigs.dtype == np.uint64
        assert np.array_equal(sigs, sign_rows(sets, cfg))

    def test_matches_python_reference(self):
        # short texts leave most of the 256 bins empty, the long one few
        cfg = DedupConfig(seed=9)
        sets = [shingle(make_doc(cjk_text(random.Random(i), n))) for i, n in enumerate((3, 40, 40, 2000))]
        want = [reference_signature(s.tolist(), cfg.num_perm, cfg.seed) for s in sets]
        assert sign_rows(sets, cfg).tolist() == want

    def test_one_shingle_fills_every_bin(self):
        # 100 bins, not a power of two: multiply-shift still spreads the bins
        cfg = DedupConfig(num_perm=100, lsh_bands=10, lsh_rows=10, seed=4)
        one = shingle(make_doc("短文"))
        sig = sign_rows([one], cfg)
        assert len(one) == 1
        assert sig.tolist() == [reference_signature(one.tolist(), cfg.num_perm, cfg.seed)]
        assert len(set(sig[0].tolist())) == cfg.num_perm  # each bin borrows from its own distance
        assert np.array_equal(sig, sign_rows([one.copy()], cfg))

    def test_independent_of_shingle_order(self):
        cfg = DedupConfig(seed=2)
        s = shingle(make_doc(cjk_text(random.Random(5), 300)))
        shuffled = np.random.default_rng(0).permutation(s)
        assert not np.array_equal(s, shuffled)
        assert np.array_equal(sign_rows([s], cfg), sign_rows([shuffled], cfg))

    def test_agreement_approximates_jaccard(self):
        # overlapping shingle sets at several target similarities
        rng = random.Random(17)
        cfg = DedupConfig(num_perm=128, lsh_bands=16, seed=3)
        for shared in (50, 150, 300, 360):
            total = 400
            common = {rng.randrange(1 << 62) for _ in range(shared)}
            a = shingles(*common, *(rng.randrange(1 << 62) for _ in range(total - shared)))
            b = shingles(*common, *(rng.randrange(1 << 62) for _ in range(total - shared)))
            sig_a, sig_b = sign_rows([a, b], cfg)
            agreement = np.count_nonzero(sig_a == sig_b) / cfg.num_perm
            assert abs(agreement - jaccard(a, b)) <= 0.1


class TestInPlaceKernels:
    def test_mix64_matches_python_splitmix64(self):
        edges = [0, 1, 1 << 63, M64]
        assert dedup._mix64(np.array(edges, dtype=np.uint64)).tolist() == [reference_mix64(x) for x in edges]
        values = np.random.default_rng(7).integers(0, M64, size=10_000, dtype=np.uint64, endpoint=True)
        want = [reference_mix64(x) for x in values.tolist()]
        kept = values.copy()
        assert dedup._mix64(values).tolist() == want
        # the first column of every band of (1250, 8 bands x 2 rows) signatures, as _band_keys reads it
        signatures = np.zeros((1250, 16), dtype=np.uint64)
        band_view = signatures.reshape(1250, 8, 2)[:, :, 0]
        band_view[...] = values.reshape(1250, 8)
        assert not band_view.flags.c_contiguous
        mixed = dedup._mix64(band_view)
        assert mixed.shape == (1250, 8) and mixed.ravel().tolist() == want
        # the input is read, never written
        assert np.array_equal(values, kept) and np.array_equal(band_view, kept.reshape(1250, 8))
        assert not signatures[:, 1::2].any()

    def test_gram_hashes_hold_three_arrays_at_most(self):
        # The code points are freed before splitmix64, whose input, output
        # and scratch are then the only full-size arrays.
        n = 200_000
        for texts in ([cjk_text(random.Random(3), n)], [cjk_text(random.Random(4), n // 2)] * 2):
            tracemalloc.start()
            try:
                hashes, counts = dedup.gram_hashes_batch(texts, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(counts) == n - 4 * len(texts) and peak < 3 * 8 * n + 100_000, peak

    def test_sentence_pass_holds_one_more_int64_array_at_most(self):
        # The pass keeps 17 bytes per sentence (hash, non-empty flag, length).
        # Joining a column, and _over_cap's sorted copy or lookup index, each
        # add one int64 array at a time, with a bool mask or two beside it.
        rng = random.Random(5)
        n = 200_000
        repeated = [cjk_text(rng, 4) + "。" for _ in range(50)]
        docs = [make_doc("".join(rng.choice(repeated) if rng.random() < 0.5 else cjk_text(rng, 4) + "。"
                                 for _ in range(20))) for _ in range(n // 20)]
        tracemalloc.start()
        try:
            hashes, filled, lengths, counts = dedup._sentences(docs)
            over = dedup._over_cap(hashes, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hashes.size == n and 0 < over.sum() < n
        assert peak < (17 + 8 + 2) * n + 300_000, peak

    def test_over_cap_counts_each_value(self):
        rng = random.Random(61)
        for _ in range(3000):
            keys = np.array([rng.randint(-3, 3) for _ in range(rng.randint(0, 12))], dtype=np.int64)
            cap = rng.randint(1, 5)
            want = [keys.tolist().count(key) > cap for key in keys.tolist()]
            assert dedup._over_cap(keys, cap).tolist() == want, (keys, cap)

    def test_signing_in_batches_matches_signing_each_document_alone(self):
        rng = random.Random(53)
        cfg = DedupConfig(num_perm=64, lsh_bands=8, lsh_rows=8, seed=6)
        docs = [make_doc(cjk_text(rng, rng.randint(2000, 6000))) for _ in range(12)]
        docs.insert(6, make_doc(" \n\t　 "))  # normalizes to nothing, so it has no gram hashes
        batches = [batch for batch, _, _ in dedup._hashed_batches(docs, cfg.ngram)]
        assert len(batches) >= 3
        assert docs[6] not in batches[0] + batches[-1]
        usable, signatures = dedup._sign_in_batches(docs, cfg)
        assert usable == docs[:6] + docs[7:]
        alone = np.concatenate([sign_rows([shingle(doc, cfg.ngram)], cfg) for doc in usable])
        assert signatures.shape == (12, 64) and np.array_equal(signatures, alone)


class TestNearDedup:
    def test_appended_sentence_detected(self):
        rng = random.Random(2)
        base = cjk_text(rng, 200)
        near = base + "末尾追加的一句。"
        others = [make_doc(cjk_text(rng, 200)) for _ in range(10)]
        docs = [make_doc(base), make_doc(near), *others]
        survivors, pairs, _ = near_dedup(docs, DedupConfig())
        assert len(pairs) == 1
        assert pairs[0].jaccard >= 0.9
        assert len(survivors) == len(docs) - 1

    def test_disjoint_corpus_no_pairs(self):
        rng = random.Random(6)
        docs = [make_doc(cjk_text(rng, 150)) for _ in range(30)]
        survivors, pairs, _ = near_dedup(docs, DedupConfig())
        assert pairs == []
        assert len(survivors) == 30

    def test_reported_pairs_meet_threshold(self):
        docs, _ = build_dedup_docs(n_docs=120, n_pairs=12)
        cfg = DedupConfig()
        _, pairs, _ = near_dedup(docs, cfg)
        assert pairs
        assert all(p.jaccard >= cfg.jaccard_threshold for p in pairs)

    def test_recall_against_oracle_small(self):
        docs, planted = build_dedup_docs(n_docs=200, n_pairs=20)
        cfg = DedupConfig()
        _, pairs, _ = near_dedup(docs, cfg)
        oracle = brute_force_pairs(docs, cfg)
        found = {(p.a, p.b) for p in pairs}
        truth = {(p.a, p.b) for p in oracle}
        assert found <= truth  # precision 1.0 after verification
        assert estimate_recall(pairs, oracle) >= 0.95
        assert set(planted) <= truth

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_candidate_recall_at_the_threshold(self, seed):
        # 300 planted pairs of shingle arrays with J in [0.80, 0.82), where
        # the banding is least likely to propose a true duplicate. Arrays of
        # 900-2,000 shingles leave few bins empty; borrowed bins agree more
        # often than their own, so small arrays would be easier to catch.
        rng = np.random.default_rng(seed)
        cfg = DedupConfig()
        arrays, planted = {}, []
        for i in range(300):
            own = int(rng.integers(100, 200))
            shared = 8 * own + int(rng.integers(0, own + 1))  # J = shared / (shared + 2 own) in [0.8, 9/11]
            values = rng.integers(0, 1 << 63, size=shared + 2 * own, dtype=np.uint64)
            a, b = f"p{i:03d}a", f"p{i:03d}b"
            arrays[a] = np.unique(values[: shared + own])
            arrays[b] = np.unique(np.concatenate([values[:shared], values[shared + own :]]))
            assert 0.80 <= jaccard(arrays[a], arrays[b]) < 0.82
            planted.append((a, b))
        ids = sorted(arrays)
        candidates = _lsh_candidates(ids, sign_rows([arrays[i] for i in ids], cfg), cfg)
        recall = len(candidates & set(planted)) / len(planted)
        assert recall >= 0.95

    def test_component_collapse_keeps_smallest(self):
        rng = random.Random(8)
        base = cjk_text(rng, 200)
        variants = [base, base + "尾巴一。", base + "尾巴二。"]
        docs = sorted((make_doc(t) for t in variants), key=lambda d: d.doc_id)
        survivors, _, _ = near_dedup(docs, DedupConfig())
        assert [d.doc_id for d in survivors] == [docs[0].doc_id]

    def test_exact_sets_only_for_candidates(self, monkeypatch):
        # Candidate sets are hashed by gram_hashes_batch after _lsh_candidates
        # has returned; signing calls it only before.
        docs, _ = build_dedup_docs(n_docs=120, n_pairs=12)
        by_text = {normalize_for_dedup(d.text): d.doc_id for d in docs}
        hashed: list[str] = []
        found: list[set] = []
        hash_fn, candidates_fn = dedup.gram_hashes_batch, dedup._lsh_candidates

        def recorded_hashing(texts, ngram=5):
            if found:
                hashed.extend(by_text[text] for text in texts)
            return hash_fn(texts, ngram)

        def recorded_candidates(*args):
            found.append(candidates_fn(*args))
            return found[-1]

        monkeypatch.setattr(dedup, "gram_hashes_batch", recorded_hashing)
        monkeypatch.setattr(dedup, "_lsh_candidates", recorded_candidates)
        _, pairs, n_candidates = near_dedup(docs, DedupConfig())
        members = {doc_id for pair in found[0] for doc_id in pair}
        assert len(pairs) == 12 and n_candidates == len(found[0])
        assert sorted(hashed) == sorted(members)  # each candidate once, nothing else
        assert len(hashed) < len(docs) / 4

    def test_batched_sets_split_at_every_document(self):
        # The first four texts have one distinct gram each, the same one, so
        # each set starts with the hash the set before it ends with.
        texts = ["甲甲甲甲甲", "甲甲甲甲甲甲", "甲甲甲甲甲甲甲", "甲甲甲甲甲甲甲甲", "甲乙", "乙甲乙甲乙甲", "甲", "乙甲乙甲乙甲乙"]
        docs = [make_doc(t) for t in texts]
        sets = dedup._shingle_sets(docs, 5)
        assert list(sets) == [d.doc_id for d in docs]
        for doc in docs:
            assert np.array_equal(sets[doc.doc_id], shingle(doc)), doc.text
        assert [len(sets[d.doc_id]) for d in docs] == [1, 1, 1, 1, 1, 2, 1, 2]

    def test_batched_sets_equal_shingle_across_a_batch_edge(self, monkeypatch):
        # Planted pairs of about 1,900 code points fill several batches; a
        # short text and one longer than a batch sit among them.
        rng = random.Random(41)
        texts = []
        for _ in range(12):
            base = cjk_text(rng, 1900)
            texts += [base, base[:950] + "改" + base[951:]]
        short, long_text = cjk_text(rng, 40), cjk_text(rng, BATCH_CODE_POINTS + 500)
        texts += [short, short + "尾", long_text, long_text[:-1] + "末"]
        docs = sorted((make_doc(t) for t in texts), key=lambda d: d.doc_id)
        found: list[set] = []
        verified: list[tuple[np.ndarray, np.ndarray]] = []
        candidates_fn, jaccard_fn = dedup._lsh_candidates, dedup.jaccard

        def recorded_candidates(*args):
            found.append(candidates_fn(*args))
            return found[-1]

        def recorded_jaccard(a, b):
            verified.append((a, b))
            return jaccard_fn(a, b)

        monkeypatch.setattr(dedup, "_lsh_candidates", recorded_candidates)
        monkeypatch.setattr(dedup, "jaccard", recorded_jaccard)
        near_dedup(docs, DedupConfig())
        by_id = {d.doc_id: d for d in docs}
        members = sorted({doc_id for pair in found[0] for doc_id in pair})
        batches = [[doc.doc_id for doc in batch] for batch, _, _ in dedup._hashed_batches([by_id[i] for i in members], 5)]
        assert len(batches) >= 3 and [long_text] in [[by_id[i].text for i in b] for b in batches]
        edge_pairs = [(a, b) for a, b in found[0] if not any(a in batch and b in batch for batch in batches)]
        assert edge_pairs, "some candidate pair is hashed in two batches"
        assert len(verified) == len(found[0])
        for (a, b), (set_a, set_b) in zip(sorted(found[0]), verified):
            assert np.array_equal(set_a, shingle(by_id[a])) and np.array_equal(set_b, shingle(by_id[b]))

    def test_permutation_invariant(self):
        docs, _ = build_dedup_docs(n_docs=60, n_pairs=6)
        s1, p1, _ = near_dedup(list(docs), DedupConfig())
        s2, p2, _ = near_dedup(list(reversed(docs)), DedupConfig())
        assert [d.doc_id for d in s1] == [d.doc_id for d in s2]
        assert [(p.a, p.b) for p in p1] == [(p.a, p.b) for p in p2]


def colliding_rewrites() -> tuple[list, str]:
    """Documents a = p q x and b = q p y, which come first, and c = p s and
    d = q s, which lose their first sentence to a cap of two and are left
    as s; and s."""
    p, q, s, x, y = "第一句关于防水。", "第二句关于地板。", "第五句关于瓷砖。", "第三句关于吊顶。", "第四句关于水电。"
    docs = [make_doc(t) for t in (p + q + x, q + p + y, p + s, q + s)]
    a, b, c, d = docs
    assert max(a.doc_id, b.doc_id) < min(c.doc_id, d.doc_id)
    return docs, s


class TestSentenceDedup:
    def boiler_docs(self, n: int = 10) -> list:
        rng = random.Random(12)
        docs = [make_doc("公共的样板句子内容。" + cjk_text(rng, 30) + "。") for _ in range(n)]
        return sorted(docs, key=lambda d: d.doc_id)

    def test_cap_keeps_first_two_by_doc_id(self):
        docs = self.boiler_docs(10)
        sentence_dedup(docs, DedupConfig(sentence_max_repeats=2))
        kept = [d for d in docs if "公共的样板句子内容。" in d.text]
        assert [d.doc_id for d in kept] == [d.doc_id for d in docs[:2]]

    def test_unique_sentences_unchanged(self):
        rng = random.Random(13)
        docs = [make_doc(cjk_text(rng, 40) + "。") for _ in range(5)]
        before = {d.doc_id: d.text for d in docs}
        sentence_dedup(docs, DedupConfig(sentence_max_repeats=2))
        assert {d.doc_id: d.text for d in docs} == before

    def test_no_cap_is_noop(self):
        docs = self.boiler_docs(6)
        before = {d.doc_id: d.text for d in docs}
        sentence_dedup(docs, DedupConfig(sentence_max_repeats=None))
        assert {d.doc_id: d.text for d in docs} == before

    def test_document_scope_only_caps_within_doc(self):
        text = "重复句子在文内出现。重复句子在文内出现。重复句子在文内出现。独特收尾。"
        doc = make_doc(text)
        other = make_doc("重复句子在文内出现。另一篇的内容。")
        docs = sorted([doc, other], key=lambda d: d.doc_id)
        sentence_dedup(docs, DedupConfig(sentence_max_repeats=2, sentence_scope="document"))
        assert doc.text.count("重复句子在文内出现。") == 2
        assert other.text.count("重复句子在文内出现。") == 1

    def test_rewrite_collision_is_dropped_without_the_exact_pass(self, monkeypatch):
        # a traced exact_dedup must time only the exact pass
        def exact_dedup(docs):
            raise AssertionError("the sentence pass called exact_dedup")

        monkeypatch.setattr(dedup, "exact_dedup", exact_dedup)
        docs, s = colliding_rewrites()
        a, b, c, d = docs
        kept, dropped = sorted((c, d), key=lambda doc: doc.doc_id)
        assert sentence_dedup(docs, DedupConfig(sentence_max_repeats=2)) == sorted((a, b, kept), key=lambda doc: doc.doc_id)
        assert (dropped.status, dropped.reason) == ("deduped_out", "sentence")
        assert dropped.text == kept.text == s

    def test_emptied_doc_marked(self):
        a = make_doc("只有一句话。")
        b = make_doc("只有一句话。 ")
        # exact dedup would normally collapse these; force the sentence path
        c = make_doc("只有一句话。但还有别的。")
        docs = sorted([a, b, c], key=lambda d: d.doc_id)
        sentence_dedup(docs, DedupConfig(sentence_max_repeats=2))
        emptied = [d for d in docs if d.status == "deduped_out" and d.reason == "sentence"]
        assert len(emptied) == 1
        assert emptied[0].text == ""

    def test_counts_recomputed(self):
        docs = self.boiler_docs(4)
        sentence_dedup(docs, DedupConfig(sentence_max_repeats=1))
        for d in docs:
            assert d.char_count == len(d.text)

    def test_split_is_lossless(self):
        text = "第一句。第二句！第三句？English sentence. 换行\n后续"
        assert "".join(split_sentences(text)) == text


def named_doc(doc_id: str, text: str) -> Document:
    """A document under a doc_id that doc_id_for did not make."""
    return Document(doc_id=doc_id, text=text, source_kind="domain_book", token_count=len(text), char_count=len(text))


class TestRunDedup:
    def test_rewrites_that_collide_keep_the_smallest_doc_id(self):
        docs, s = colliding_rewrites()
        a, b, c, d = docs
        ingest_ids = {doc_id_for(doc.text, "domain_book") for doc in (c, d)}
        survivors, _, report = run_dedup(docs, DedupConfig())
        kept, dropped = sorted((c, d), key=lambda doc: doc.doc_id)
        assert survivors == sorted((a, b, kept), key=lambda doc: doc.doc_id)
        # the rewritten survivor keeps its ingest doc_id
        assert (kept.text, kept.doc_id) == (s, min(ingest_ids))
        assert (dropped.status, dropped.reason, dropped.text) == ("deduped_out", "sentence", s)
        assert report.dropped == {"exact": 0, "near": 0, "sentence": 1}

    def test_a_doc_id_naming_two_texts_is_refused(self):
        # sorted by doc_id alone, d/甲文 and d/乙文 would survive in input order
        docs = [named_doc(doc_id, text) for doc_id, text in (("e", "乙文"), ("d", "甲文"), ("d", "乙文"))]
        with pytest.raises(SchemaError, match="^doc_id d names two different texts$"):
            run_dedup(docs, DedupConfig())

    def test_a_doc_id_repeated_with_its_text_is_kept_once(self):
        docs = [named_doc("e", "乙文"), named_doc("d", "甲文"), named_doc("d", "甲文")]
        survivors, _, report = run_dedup(docs, DedupConfig())
        assert [(d.doc_id, d.text) for d in survivors] == [("d", "甲文"), ("e", "乙文")]
        assert report.dropped == {"exact": 1, "near": 0, "sentence": 0}

    @pytest.mark.parametrize("scope", ["corpus", "document"])
    def test_retained_texts_distinct_and_drops_partition(self, scope):
        rng = random.Random(31)
        for trial in range(150):
            pool = ["句子" + cjk_text(rng, rng.randint(1, 3)) + rng.choice("。！？\n") for _ in range(rng.randint(2, 6))]
            texts = ["".join(rng.choice(pool) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(2, 14))]
            docs = [make_doc(t, kind=rng.choice(("domain_book", "general"))) for t in texts]
            cfg = DedupConfig(sentence_max_repeats=rng.choice((1, 2)), sentence_scope=scope)
            survivors, _, report = run_dedup(docs, cfg)
            keys = [normalize_for_dedup(d.text) for d in survivors]
            assert len(set(keys)) == len(keys), trial
            assert all(keys)
            assert report.retained == len(survivors) == sum(d.status == "retained" for d in docs)
            for reason, count in report.dropped.items():
                assert count == sum(d.status == "deduped_out" and d.reason == reason for d in docs), (trial, reason)
            assert report.retained + sum(report.dropped.values()) == report.input == len(docs)

    def test_monotone_token_shrinkage_and_statuses(self):
        docs, _ = build_dedup_docs(n_docs=80, n_pairs=8)
        docs.append(make_doc(docs[0].text))  # exact dup
        tokens_in = sum(d.token_count for d in docs)
        survivors, pairs, report = run_dedup(docs, DedupConfig())
        assert report.tokens_out <= tokens_in
        assert report.input == len(docs)
        assert report.retained + sum(report.dropped.values()) == report.input
        assert all(d.status == "retained" for d in survivors)
        assert report.dropped["exact"] >= 1
        assert report.dropped["near"] >= 1
        assert len(pairs) == report.pairs <= report.lsh_candidates
        assert report.candidate_prob_at_threshold == DedupConfig().candidate_prob(0.8)
