"""The text passes of `dedup` against the regex bodies they replaced, the
batched hashing, signing and LSH bucketing against the per-document and
per-row bodies they replaced, kept here as oracles, signing raw gram
hashes against signing shingle sets, and the hashed sentence pass against
the string-counting one, and the survivor walk against grouping by text."""

from __future__ import annotations

import copy
import random
import re
from itertools import combinations

import numpy as np
import pytest

from renokit import dedup
from renokit.dedup import (REASON_EXACT, DedupConfig, _densify, _lsh_candidates, _mix64, _sets, _sign_in_batches,
                           compute_signatures, exact_dedup, gram_hashes_batch, normalize_for_dedup, sentence_dedup,
                           shingle, split_sentences)
from renokit.tokenizers import BATCH_CODE_POINTS

from fixture_data import cjk_text, make_doc
from oracles import keep_first_by_groups, sentence_dedup_by_strings, sign_rows

# --- oracles: the regex bodies the one-call passes replaced -------------------------

_WS_RE = re.compile(r"\s+")
_SENTENCE_BOUNDARY = re.compile(r"(?<=[。！？!?.])|(?<=\n)")


def oracle_normalize(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


def oracle_split(text: str) -> list[str]:
    return [part for part in _SENTENCE_BOUNDARY.split(text) if part]


# --- oracles: the per-document and per-row bodies the batch kernels replaced --------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def oracle_gram_hashes(text: str, ngram: int) -> np.ndarray:
    codes = np.frombuffer(normalize_for_dedup(text).encode("utf-32-le"), np.uint32).astype(np.uint64)
    width = min(ngram, len(codes))
    grams = len(codes) - width + 1 if width else 0
    hashes = np.full(grams, width, dtype=np.uint64)
    for k in range(width):
        hashes *= _GAMMA
        hashes += codes[k : k + grams]
    return _mix64(hashes)


def oracle_signatures(shingle_sets: list[np.ndarray], cfg: DedupConfig) -> np.ndarray:
    key = _mix64(np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
    signatures = np.full((len(shingle_sets), cfg.num_perm), np.uint64((1 << 64) - 1), dtype=np.uint64)
    for row, xs in zip(signatures, shingle_sets):
        hashes = _mix64(xs ^ key)
        np.minimum.at(row, ((hashes >> 32) * cfg.num_perm) >> 32, hashes & 0xFFFFFFFF)
    return _densify(signatures)


def oracle_lsh_candidates(doc_ids: list[str], signatures: np.ndarray, cfg: DedupConfig) -> set[tuple[str, str]]:
    candidates: set[tuple[str, str]] = set()
    for band in np.hsplit(signatures, cfg.lsh_bands):
        buckets: dict[bytes, list[str]] = {}
        for doc_id, row in zip(doc_ids, band):
            buckets.setdefault(row.tobytes(), []).append(doc_id)
        for members in buckets.values():
            candidates.update(combinations(members, 2))
    return candidates


# --- tests ----------------------------------------------------------------------


def test_whitespace_classes_agree_on_every_code_point():
    # `\s` and str.isspace name the same code points, so splitting on runs of
    # one is collapsing runs of the other
    everything = "".join(map(chr, range(0x110000)))
    assert "".join(_WS_RE.findall(everything)) == "".join(ch for ch in everything if ch.isspace())


def test_normalize_matches_regex_over_every_code_point():
    for start in range(0, 0x110000, 0x1000):
        chunk = [chr(cp) for cp in range(start, min(start + 0x1000, 0x110000))]
        for text in ("".join(f"{ch}a{ch}{ch}" for ch in chunk), " ".join(chunk), "\t".join(chunk) + "\n"):
            assert normalize_for_dedup(text) == oracle_normalize(text), hex(start)
    for text in ("", " ", "　\xa0\x1c\x85", "  a  ", "\na\r\nb c ", "家 装　　修"):
        assert normalize_for_dedup(text) == oracle_normalize(text), ascii(text)


def test_split_matches_lookbehind_split():
    rng = random.Random(20231)
    alphabet = list("。！？!?.") + ["\n", "\r", "\r\n", " ", "　", "\t"] + list("ab家装修，、") + ["\U00020000"]
    texts = ["", "。", "\n\n", "abc", "一句。", "问？答！", "a.b.c", "尾巴没有句号", "\r\n。\r\n"]
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))) for _ in range(20000)]
    for text in texts:
        assert split_sentences(text) == oracle_split(text), ascii(text)


def test_raw_gram_hashes_sign_as_their_shingle_set():
    rng = random.Random(29)
    alphabet = [cjk_text(rng, 1) for _ in range(6)] + list("ab \t\n　")
    texts = ["", " ", "\n\t　 ", "短", "短文", "a b", "重复重复重复重复重复重复"]
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30))) for _ in range(400)]
    texts += [cjk_text(rng, n) for n in (200, 2000)]
    for ngram in (1, 3, 5):
        docs = [make_doc(t) for t in texts]
        raw = [gram_hashes_batch([normalize_for_dedup(d.text)], ngram)[0] for d in docs]
        sets = [shingle(d, ngram) for d in docs]
        for text, r, s in zip(texts, raw, sets):
            assert s.dtype == np.uint64 and np.array_equal(np.unique(r), s), ascii(text)
            assert (s.size == 0) == (r.size == 0) == (not text.split()), ascii(text)
        cfg = DedupConfig(ngram=ngram, seed=ngram)
        signable = [i for i, r in enumerate(raw) if r.size]
        assert any(len(raw[i]) > len(sets[i]) for i in signable), "some texts repeat a gram"
        assert np.array_equal(sign_rows([raw[i] for i in signable], cfg), sign_rows([sets[i] for i in signable], cfg))


def batch_edge_texts(rng: random.Random, ngram: int) -> list[str]:
    """Texts for the batch kernels: empty, whitespace-only, shorter than the
    n-gram width, astral, exactly at the batch limit and one past it, and
    enough short texts to straddle many batch edges."""
    limit = BATCH_CODE_POINTS
    alphabet = [cjk_text(rng, 1) for _ in range(6)] + list("ab \t\n　") + ["\U00020000", "\U0001F600", "\x00"]
    texts = ["", " ", "\n\t　 ", "\U00020000", "\x00a", "a\U0001F600b"]
    texts += [cjk_text(rng, n) for n in range(1, ngram)]
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3 * ngram))) for _ in range(60)]
    texts += [cjk_text(rng, limit), "短文", cjk_text(rng, limit + 1), cjk_text(rng, limit - 3), "\U00020000" * 4]
    texts += [cjk_text(rng, rng.randint(0, 900)) for _ in range(150)]
    rng.shuffle(texts)
    return texts


def test_batch_kernel_matches_per_document_hashing():
    rng = random.Random(31)
    for ngram in (1, 3, 5):
        texts = batch_edge_texts(rng, ngram)
        want = [oracle_gram_hashes(t, ngram) for t in texts]
        hashes, counts = gram_hashes_batch([normalize_for_dedup(t) for t in texts], ngram)
        assert counts == [len(w) for w in want]
        assert np.array_equal(hashes, np.concatenate(want))
        for text, w in zip(texts, want):
            assert np.array_equal(gram_hashes_batch([normalize_for_dedup(text)], ngram)[0], w), ascii(text[:20])
    # a width no text reaches: every text is one whole-text hash
    texts = ["ab", "", "\U00020000", cjk_text(rng, 3000)]
    hashes, counts = gram_hashes_batch(texts, 10**9)
    assert counts == [1, 0, 1, 1]
    assert np.array_equal(hashes, np.concatenate([oracle_gram_hashes(t, 10**9) for t in texts]))


def test_batched_signing_matches_per_row_oracle():
    rng = random.Random(37)
    limit = BATCH_CODE_POINTS
    for ngram, num_perm, bands in ((1, 64, 8), (3, 128, 16), (5, 256, 32)):
        cfg = DedupConfig(ngram=ngram, num_perm=num_perm, lsh_bands=bands, lsh_rows=num_perm // bands, seed=ngram)
        docs = [make_doc(t) for t in batch_edge_texts(rng, ngram)]
        raw = [oracle_gram_hashes(d.text, ngram) for d in docs]
        batches = list(dedup._hashed_batches(docs, ngram))
        assert [doc for batch, _, _ in batches for doc in batch] == docs
        sizes = [[len(normalize_for_dedup(d.text)) for d in batch] for batch, _, _ in batches]
        assert all(sum(run) <= limit or len(run) == 1 for run in sizes)
        assert [limit] in sizes and [limit + 1] in sizes and len(sizes) > 8
        assert np.array_equal(np.concatenate([hashes for _, hashes, _ in batches]), np.concatenate(raw))
        assert [count for _, _, counts in batches for count in counts] == [len(r) for r in raw]
        usable, signatures = _sign_in_batches(docs, cfg)
        assert usable == [d for d, r in zip(docs, raw) if r.size]
        assert np.array_equal(signatures, oracle_signatures([r for r in raw if r.size], cfg))


def test_flat_signing_matches_the_per_row_oracle():
    cfg = DedupConfig(num_perm=64, lsh_bands=8, lsh_rows=8, seed=5)
    rows = [np.random.default_rng(i).integers(0, 1 << 63, size=n, dtype=np.uint64) for i, n in enumerate((1, 7, 300))]
    assert np.array_equal(compute_signatures(np.concatenate(rows), cfg, counts=[1, 7, 300]), oracle_signatures(rows, cfg))
    assert compute_signatures(np.empty(0, dtype=np.uint64), cfg, counts=[]).shape == (0, 64)


def test_sets_match_per_text_unique():
    # Texts with no hashes lead, trail, sit between others and make up whole
    # batches; repeated grams, and texts that begin with the hash the one
    # before ends with, test the split between texts.
    rng = random.Random(47)
    alphabet = list("甲乙丙") + [" ", "\U00020000"]
    base = ["甲甲甲甲甲甲", "甲甲甲甲甲", "乙甲乙甲乙甲乙", "丙"]
    batches = [[], [""], ["", "", ""], base]
    batches += [base[:i] + [""] * k + base[i:] for i in range(len(base) + 1) for k in (1, 2)]
    for _ in range(300):
        texts = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))) for _ in range(rng.randint(0, 8))]
        for _ in range(rng.randint(0, 3)):
            texts.insert(rng.randint(0, len(texts)), rng.choice(["", " ", "\n　"]))
        batches.append([normalize_for_dedup(t) for t in texts])
    for ngram in (1, 3, 5):
        for texts in batches:
            hashes, counts = gram_hashes_batch(texts, ngram)
            sets = _sets(hashes.copy(), counts)
            assert len(sets) == len(texts)
            starts = np.cumsum([0, *counts])
            for got, start, end in zip(sets, starts, starts[1:]):
                assert got.dtype == np.uint64 and np.array_equal(got, np.unique(hashes[start:end])), (ngram, texts)


def signature_cases(rng: np.random.Generator):
    """(doc_ids, signatures, cfg): random rows over a small alphabet, so whole
    bands often agree, and planted rows that copy some bands of another."""
    for bands, rows, n in ((4, 2, 60), (16, 8, 200), (8, 1, 30), (1, 4, 40), (4, 2, 1), (4, 2, 0)):
        cfg = DedupConfig(num_perm=bands * rows, lsh_bands=bands, lsh_rows=rows)
        sigs = rng.integers(0, 3, size=(n, bands * rows), dtype=np.uint64)
        yield [f"d{i:04d}" for i in range(n)], sigs, cfg
        planted = rng.integers(0, 1 << 63, size=(n, bands * rows), dtype=np.uint64)
        for i in range(1, n):
            if rng.random() < 0.5:
                source = int(rng.integers(0, i))
                cols = np.repeat(rng.random(bands) < 0.3, rows)
                planted[i, cols] = planted[source, cols]
        yield [f"d{i:04d}" for i in range(n)], planted, cfg


def test_lsh_candidates_match_bucket_oracle(monkeypatch):
    rng = np.random.default_rng(41)
    cases = list(signature_cases(rng))
    for ids, sigs, cfg in cases:
        assert _lsh_candidates(ids, sigs, cfg) == oracle_lsh_candidates(ids, sigs, cfg)
    # every key collides: only the whole-band compare tells rows apart
    monkeypatch.setattr(dedup, "_band_keys", lambda sigs, cfg: np.zeros((len(sigs), cfg.lsh_bands), dtype=np.uint64))
    found = 0
    for ids, sigs, cfg in cases:
        want = oracle_lsh_candidates(ids, sigs, cfg)
        assert _lsh_candidates(ids, sigs, cfg) == want
        found += len(want)
    assert found > 100


def test_batches_fill_up_to_the_limit():
    limit = BATCH_CODE_POINTS
    rng = random.Random(43)
    sizes = [limit // 2, limit - limit // 2, 1, limit, 0, limit + 1, 3, limit - 3, 2, 2]
    docs = [make_doc(cjk_text(rng, n)) for n in sizes]
    batches = [[len(d.text) for d in batch] for batch, _, _ in dedup._hashed_batches(docs, 5)]
    assert batches == [[limit // 2, limit - limit // 2], [1], [limit, 0], [limit + 1], [3, limit - 3], [2, 2]]


# --- the sentence pass against the string-counting oracle ----------------------------

# Sentences whose keys repeat: the same key with other whitespace, parts that
# are whitespace only, and pieces without a terminator that run into the next.
_SENTENCE_POOL = ["甲乙丙。", "甲乙丙。", "甲 乙丙。", " 甲乙丙 。", "甲\t乙丙。", "甲乙丙", "丁戊！", "丁戊!", "丁戊?",
                  "\n", " \n", "\u3000\n", "  ", "ab cd.", "ab  cd.", "ab\u00a0cd.", "己。\n", "己。 \n", "庚辛？", "\n\n"]


def sentence_corpus(rng: random.Random) -> list[str]:
    """Distinct texts of 0-12 pieces of a small pool, so keys repeat within
    and across texts, with a unique sentence in some; and now and then a text
    longer than a batch, so that its sentences span several runs' worth."""
    texts = {"".join(rng.choice(_SENTENCE_POOL) for _ in range(rng.randint(0, 12)))
             + (cjk_text(rng, 3) + "。" if rng.random() < 0.3 else "") for _ in range(rng.randint(1, 25))}
    if rng.random() < 0.02:
        texts.add("甲乙丙。" * (BATCH_CODE_POINTS // 4 + 2))
    return sorted(texts)


def assert_sentence_pass_matches_oracle(texts: list[str], cfg: DedupConfig) -> None:
    docs = [make_doc(t) for t in texts]
    rng = random.Random(len(texts))
    rng.shuffle(docs)
    want_docs, got_docs = copy.deepcopy(docs), copy.deepcopy(docs)
    want = sentence_dedup_by_strings(want_docs, cfg)
    got = sentence_dedup(got_docs, cfg)
    assert [d.doc_id for d in got] == [d.doc_id for d in want], (texts, cfg)
    # every input document: text, status, reason, token_count and char_count
    assert [d.to_dict() for d in got_docs] == [d.to_dict() for d in want_docs], (texts, cfg)


@pytest.mark.parametrize("scope", ["corpus", "document"])
def test_sentence_pass_matches_the_string_oracle(scope):
    rng = random.Random(53)
    for trial in range(400):
        cap = (1, 2, 3, None)[trial % 4]
        cfg = DedupConfig(sentence_max_repeats=cap, sentence_scope=scope)
        assert_sentence_pass_matches_oracle(sentence_corpus(rng), cfg)


@pytest.mark.parametrize("scope", ["corpus", "document"])
def test_sentence_pass_is_exact_when_every_hash_collides(monkeypatch, scope):
    # Module globals shadow builtins: every key of the pass now hashes alike.
    monkeypatch.setattr(dedup, "hash", lambda key: 7, raising=False)
    rng = random.Random(59)
    for trial in range(150):
        cap = (1, 2, 3)[trial % 3]
        cfg = DedupConfig(sentence_max_repeats=cap, sentence_scope=scope)
        assert_sentence_pass_matches_oracle(sentence_corpus(rng), cfg)


# --- the survivor walk against grouping by text --------------------------------------

_SPACING = [" ", "  ", "\n", " \n ", "\t", "\n\n", "\u3000"]


def spacing_variant(rng: random.Random, sentences: list[str]) -> str:
    """The sentences joined, and wrapped, by random runs of whitespace and newlines."""
    return "".join(rng.choice(_SPACING + [""]) + part for part in sentences) + rng.choice(_SPACING + [""])


def survivor_corpus(rng: random.Random) -> list:
    """Texts of a few sentences from a small pool, so that sentence cuts can
    leave two texts equal, each under several spacings; some documents twice
    under their doc_id, once with another spacing (a doc_id names one text up
    to whitespace, as doc_id_for makes it); shuffled or reversed."""
    pool = ["甲乙。", "丙丁！", "戊己？", "庚辛。", "ab cd.", "壬癸"]
    docs = []
    for _ in range(rng.randint(1, 8)):
        sentences = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        docs += [make_doc(spacing_variant(rng, sentences)) for _ in range(rng.randint(1, 3))]
    for doc in rng.sample(docs, rng.randint(0, len(docs))):
        twin = copy.deepcopy(doc)
        if rng.random() < 0.5:
            twin.text = " \n".join(twin.text.split())
        docs.append(twin)
    if rng.random() < 0.5:
        rng.shuffle(docs)
    else:
        docs.sort(key=lambda d: d.doc_id, reverse=True)
    return docs


def assert_same_survivors(docs: list, got_pass, want_pass) -> list:
    """Run both passes on copies of `docs`; the survivors, as input positions
    in order, and every document's fields must match. Returns the oracle's copies."""
    got_docs, want_docs = copy.deepcopy(docs), copy.deepcopy(docs)
    got, want = got_pass(got_docs), want_pass(want_docs)
    position = {id(doc): i for copies in (got_docs, want_docs) for i, doc in enumerate(copies)}
    assert [position[id(d)] for d in got] == [position[id(d)] for d in want], [d.text for d in docs]
    assert [d.to_dict() for d in got_docs] == [d.to_dict() for d in want_docs], [d.text for d in docs]
    return want_docs


def test_survivor_walk_matches_grouping_by_text():
    rng = random.Random(61)
    made_equal = 0
    for trial in range(600):
        docs = survivor_corpus(rng)
        assert_same_survivors(docs, exact_dedup, lambda d: keep_first_by_groups(d, REASON_EXACT))
        cfg = DedupConfig(sentence_max_repeats=(1, 2)[trial % 2], sentence_scope=("corpus", "document")[trial // 2 % 2])
        want_docs = assert_same_survivors(docs, lambda d: sentence_dedup(d, cfg),
                                          lambda d: sentence_dedup_by_strings(d, cfg))
        made_equal += sum(d.reason == "sentence" and bool(d.text) for d in want_docs)
    assert made_equal > 100
