"""The class table of `tokenizers` and its batch kernel against the
per-character loops they replaced, kept here as oracles."""

from __future__ import annotations

import random
import re
import unicodedata

import pytest

from renokit import filters, tokenizers
from renokit.filters import FilterConfig, Lexicon, filter_language, filter_sensitive, run_filters
from renokit.tokenizers import BATCH_CODE_POINTS, char_counts, count_tokens, count_tokens_batch

from fixture_data import make_doc

# --- oracles: the per-character bodies the table replaced ----------------------------

# The ideograph ranges of tokenizer approx-cjk-v1, restated so that the oracle
# does not read them from the code it checks.
CJK_RANGES = ((0x3400, 0x4DBF), (0x4E00, 0x9FFF), (0xF900, 0xFAFF), (0x20000, 0x2FA1F))
WORD_RE = re.compile(r"[A-Za-z0-9_]+")


def is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in CJK_RANGES)


def is_countable(ch: str) -> bool:
    return not ch.isspace() and not unicodedata.category(ch).startswith("P")


def oracle_count_tokens(text: str) -> int:
    cjk = 0
    rest: list[str] = []
    for ch in text:
        if is_cjk(ch):
            cjk += 1
            rest.append(" ")
        else:
            rest.append(ch)
    return cjk + len(WORD_RE.findall("".join(rest)))


def oracle_language_ratio(text: str, target_language: str) -> float | None:
    """The ratio filter_language compares with its floor; None when nothing counts."""
    countable = [ch for ch in text if is_countable(ch)]
    if not countable:
        return None
    if target_language == "zh":
        hits = sum(1 for ch in countable if is_cjk(ch))
    else:
        hits = sum(1 for ch in countable if ch.isascii() and ch.isalpha())
    return hits / len(countable)


def noncount_ranges_from_unicodedata() -> list[tuple[int, int]]:
    ranges: list[tuple[int, int]] = []
    start = None
    for cp in range(0x110000):
        if not is_countable(chr(cp)):
            if start is None:
                start = cp
        elif start is not None:
            ranges.append((start, cp - 1))
            start = None
    if start is not None:
        ranges.append((start, 0x10FFFF))
    return ranges


# The oracle reads the running interpreter's Unicode tables; the committed ranges
# are those of NONCOUNT_UNICODE_VERSION. They can agree only on that version.
same_unicode = pytest.mark.skipif(
    unicodedata.unidata_version != tokenizers.NONCOUNT_UNICODE_VERSION,
    reason=f"committed table is Unicode {tokenizers.NONCOUNT_UNICODE_VERSION}, "
           f"this interpreter has {unicodedata.unidata_version}",
)


def edge_chars(ranges) -> list[str]:
    cps = {cp for lo, hi in ranges for cp in (lo - 1, lo, hi, hi + 1) if 0 <= cp <= 0x10FFFF}
    return [chr(cp) for cp in sorted(cps)]


ASTRAL = ["\U00020000", "\U0002A6DF", "\U0002FA1F", "\U0002FA20", "\U0001F600", "\U0001F3E0", "\U00010100",
          "\U0001E95F", "\U000E0020"]
# Lone, as a JSON escape can make them. make_doc cannot hash them, so only the
# kernel's own tests use them.
SURROGATES = ["\ud800", "\udbff", "\udc00", "\udfff"]


def assert_language_matches(text: str) -> None:
    for target in ("zh", "en"):
        ratio = oracle_language_ratio(text, target)
        if ratio is None:
            assert not filter_language(make_doc(text), FilterConfig(target_language=target, min_language_ratio=0.0))
            continue
        # passing at the oracle's ratio and failing just above it pins the ratio exactly
        at = FilterConfig(target_language=target, min_language_ratio=ratio)
        assert filter_language(make_doc(text), at), (text, target, ratio)
        if ratio < 1.0:
            above = FilterConfig(target_language=target, min_language_ratio=min(1.0, ratio * (1 + 1e-12) + 1e-15))
            assert not filter_language(make_doc(text), above), (text, target, ratio)


def assert_batch_matches(texts: list[str]) -> None:
    """Every count of one kernel call over `texts` equals the oracles' for each text alone."""
    counts = char_counts(texts)
    assert count_tokens_batch(texts) == [oracle_count_tokens(t) for t in texts]
    for i, text in enumerate(texts):
        countable = int(counts.countable[i])
        assert countable == sum(map(is_countable, text)), ascii(text[:80])
        for target, hits in (("zh", counts.cjk[i]), ("en", counts.ascii_alpha[i])):
            ratio = int(hits) / countable if countable else None
            assert ratio == oracle_language_ratio(text, target), (ascii(text[:80]), target)


# --- tests ----------------------------------------------------------------------


@same_unicode
def test_committed_noncount_table_matches_unicodedata():
    rebuilt = noncount_ranges_from_unicodedata()
    assert len(rebuilt) == 193
    assert list(tokenizers._NONCOUNT_RANGES) == rebuilt


def test_cjk_range_edges():
    for ch in edge_chars(CJK_RANGES) + ASTRAL:
        assert char_counts([ch]).cjk.tolist() == [int(is_cjk(ch))], hex(ord(ch))
        for text in (ch, f"ab{ch}cd", f"{ch}{ch} x1_{ch}", f"word{ch}"):
            assert count_tokens(text) == oracle_count_tokens(text), ascii(text)


@same_unicode
def test_noncount_range_edges():
    table = tokenizers._class_table()
    chars = edge_chars(tokenizers._NONCOUNT_RANGES) + edge_chars(CJK_RANGES) + ASTRAL
    for ch in chars + SURROGATES:
        assert (table[ord(ch)] & tokenizers._NONCOUNT == 0) == is_countable(ch), hex(ord(ch))
    for ch in chars:
        assert_language_matches(f"家装{ch}")
        assert_language_matches(f"abc{ch}{ch}")
    assert_language_matches("".join(chars))


def _random_text(rng: random.Random, alphabet: list[str], longest: int = 60) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))


def _alphabet(rng: random.Random) -> list[str]:
    return (
        [chr(rng.randint(0x4E00, 0x9FFF)) for _ in range(20)]
        + [chr(rng.randint(0x3400, 0x4DBF)) for _ in range(3)]
        + list("abcXYZ019_")
        + list("，。！？、；：“”（）《》…—,.!?;:'\"()-[]{}#%&*@/\\")
        + [" ", "\t", "\n", "\r", "　", "\xa0", "\x1c", "\x85", " "]
        + list("ぁアｶ한€$+=<>|~^`") + ASTRAL
        + edge_chars(tokenizers._NONCOUNT_RANGES)[:40]
    )


@same_unicode
def test_random_mixed_texts():
    rng = random.Random(20231)
    alphabet = _alphabet(rng)
    for _ in range(2000):
        text = _random_text(rng, alphabet)
        assert count_tokens(text) == oracle_count_tokens(text), ascii(text)
        assert char_counts([text]).cjk.tolist() == [sum(map(is_cjk, text))]
        assert_language_matches(text)


@same_unicode
def test_random_batches():
    rng = random.Random(419)
    alphabet = _alphabet(rng) + SURROGATES
    for _ in range(200):
        texts = [_random_text(rng, alphabet, longest=rng.choice((1, 8, 400))) for _ in range(rng.randint(1, 40))]
        assert_batch_matches(texts)


@same_unicode
def test_batch_edges():
    assert char_counts([]).tokens.tolist() == []
    assert_batch_matches([""])
    assert_batch_matches(["", "", ""])
    assert_batch_matches(["a", "家", "。", " ", "_", "\ud800", "\U00020000", "\U00010100", "9"])
    assert count_tokens_batch(["ab", "cd"]) == [1, 1]  # a word never runs across two texts
    assert_batch_matches(["ab", "cd", "", "ef", "g", "h家i"])
    assert_batch_matches(["a\ud800b", "\udfffc", "d\U00020000e", "\U00010100f\U00010100"])


@same_unicode
def test_texts_longer_than_a_chunk():
    rng = random.Random(5)
    limit = BATCH_CODE_POINTS
    alphabet = _alphabet(rng) + SURROGATES
    # words run across multiples of BATCH_CODE_POINTS, and a text may end on one
    assert count_tokens("a" * (2 * limit + 3)) == 1
    assert count_tokens_batch(["x" * (limit - 1), "y" * 2, "z" * limit, "w"]) == [1, 1, 1, 1]
    cut = "家" * (limit - 2) + "ab" + "cd" + "家"
    assert count_tokens(cut) == limit - 2 + 1 + 1
    long = _random_text(rng, alphabet, longest=10) + "".join(rng.choice(alphabet) for _ in range(limit + 77))
    assert_batch_matches(["ab", long, "cd", "", long[: limit - 1], "x" * limit, "y", long + "z" * 3])
    texts = ["w" * (limit - 3), "q" * 5, "v" * (limit + 1)] + [_random_text(rng, alphabet, 3000) for _ in range(60)]
    assert_batch_matches(texts)


def test_runs_pack_in_order_greedily_and_lazily():
    assert list(tokenizers.runs([], len, 5)) == []
    rng = random.Random(17)
    for _ in range(500):
        limit = rng.randint(1, 20)
        sizes = [rng.choice((0, rng.randint(1, limit), rng.randint(limit + 1, 3 * limit)))
                 for _ in range(rng.randint(0, 30))]
        items = list(enumerate(sizes))
        pulled = []

        def source():
            for item in items:
                pulled.append(item)
                yield item

        out = []
        for run in tokenizers.runs(source(), lambda item: item[1], limit):
            out.append(run)
            assert len(pulled) <= sum(map(len, out)) + 1, "pulled more than one item past the run"
        assert [item for run in out for item in run] == items
        totals = [sum(size for _, size in run) for run in out]
        assert all(run and (total <= limit or len(run) == 1) for run, total in zip(out, totals))
        assert all(total + after[0][1] > limit for total, after in zip(totals, out[1:])), "a run closed early"


def test_run_filters_gives_each_document_its_own_language_verdict():
    rng = random.Random(3)
    alphabet = _alphabet(rng)
    docs = [make_doc(_random_text(rng, alphabet, 200)) for _ in range(300)] + [make_doc(""), make_doc("abc")]
    for target in ("zh", "en"):
        cfg = FilterConfig(target_language=target, min_language_ratio=0.3, min_effective_chars=0)
        alone = [filter_language(d, cfg) for d in docs]
        retained, report = run_filters(docs, cfg, lexicon=())
        assert [d for d, v in zip(docs, alone) if v] == retained
        assert report.dropped["language"] == alone.count(filters.Verdict(False, "language"))


def test_lexicon_index_matches_plain_scan():
    rng = random.Random(7)
    han = [chr(cp) for cp in range(0x4E00, 0x4E40)]
    words = {"装", "修", "a", "\U00020001"}  # one-character words are always scanned
    words |= {"水电", "水电改造", "水电费", "水泥"}  # shared prefixes
    words |= {"aba", "bab", "abab"}  # overlapping matches
    words |= {"\U00020000\U00020001", "\U0001F600装修", "房\U0002A6DF"}  # astral words
    while len(words) < filters.INDEX_MIN_WORDS + 50:
        words.add("".join(rng.choice(han) for _ in range(rng.randint(2, 4))))
    lexicon = Lexicon(words)
    assert len(lexicon._codes), "the lexicon is large enough to be indexed"
    alphabet = han + list("水电改造费泥装修房ab \n") + ["\U00020000", "\U00020001", "\U0002A6DF", "\U0001F600"]
    texts = ["", "a", "ababab", "整段结尾是水电改造", "末尾\U00020000\U00020001", "\U0001F600装修"]
    texts += [_random_text(rng, alphabet) for _ in range(500)]
    for text in texts:
        plain = tuple(sorted(w for w in words if w in text))
        assert lexicon.find(text) == plain, ascii(text)
        assert filter_sensitive(make_doc(text), lexicon).matched_words == plain
    assert lexicon.find("末尾是水电改造") == ("水电", "水电改造")
    # a lone surrogate (a JSON escape can make one) is a code point like any other
    assert lexicon.find("\ud800水电\udfff") == ("水电",)


def test_lexicon_of_short_words_only():
    words = {chr(cp) for cp in range(0x4E00, 0x4E00 + filters.INDEX_MIN_WORDS)}
    text = "".join(sorted(words)[::7])
    assert Lexicon(words).find(text) == tuple(sorted(w for w in words if w in text))
