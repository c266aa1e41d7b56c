"""The text passes of `dedup` against the regex bodies they replaced, kept
here as oracles, and signing raw gram hashes against signing shingle sets."""

from __future__ import annotations

import random
import re

import numpy as np

from renokit.dedup import DedupConfig, compute_signatures, gram_hashes, normalize_for_dedup, shingle, split_sentences

from fixture_data import cjk_text, make_doc

# --- oracles: the regex bodies the one-call passes replaced -------------------------

_WS_RE = re.compile(r"\s+")
_SENTENCE_BOUNDARY = re.compile(r"(?<=[。！？!?.])|(?<=\n)")


def oracle_normalize(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


def oracle_split(text: str) -> list[str]:
    return [part for part in _SENTENCE_BOUNDARY.split(text) if part]


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
        raw = [gram_hashes(d, ngram) for d in docs]
        sets = [shingle(d, ngram) for d in docs]
        for text, r, s in zip(texts, raw, sets):
            assert np.array_equal(np.unique(r), s), ascii(text)
            assert (r.size == 0) == (not text.split()), ascii(text)
        cfg = DedupConfig(ngram=ngram, seed=ngram)
        signable = [i for i, r in enumerate(raw) if r.size]
        assert any(len(raw[i]) > len(sets[i]) for i in signable), "some texts repeat a gram"
        assert np.array_equal(compute_signatures([raw[i] for i in signable], cfg),
                              compute_signatures([sets[i] for i in signable], cfg))
