from __future__ import annotations

import random

import numpy as np
import pytest

from renokit.errors import LexiconMissing
from renokit.filters import (
    INDEX_MIN_WORDS,
    FilterConfig,
    Lexicon,
    filter_language,
    filter_length,
    filter_sensitive,
    load_lexicon,
    run_filters,
)

from fixture_data import SENSITIVE_WORDS, build_filter_docs, make_doc


class TestSensitive:
    def test_no_match_passes(self):
        assert filter_sensitive(make_doc("普通装修流程"), Lexicon({"赌博"}))

    def test_match_fails_with_words(self):
        verdict = filter_sensitive(make_doc("含赌博内容"), Lexicon({"赌博"}))
        assert not verdict
        assert verdict.matched_words == ("赌博",)

    def test_empty_lexicon_always_passes(self):
        assert filter_sensitive(make_doc("任何内容"), Lexicon(()))

    def test_substring_not_word_boundary(self):
        assert not filter_sensitive(make_doc("xx赌博xx"), Lexicon({"赌博"}))


class TestLanguage:
    def test_all_cjk_passes(self):
        cfg = FilterConfig(min_language_ratio=0.7)
        assert filter_language(make_doc("全中文内容示例"), cfg)

    def test_ascii_heavy_fails(self):
        cfg = FilterConfig(min_language_ratio=0.7)
        assert not filter_language(make_doc("abcdef家"), cfg)  # 1/7 cjk

    def test_empty_text_fails(self):
        doc = make_doc("placeholder")
        doc.text = ""
        doc.char_count = 0
        assert not filter_language(doc, FilterConfig())

    def test_whitespace_and_punct_excluded_from_denominator(self):
        # 6 ascii letters + 6 cjk = ratio 0.5 after excluding space and 。
        cfg = FilterConfig(min_language_ratio=0.5)
        assert filter_language(make_doc("abc def 家装水电改造。"), cfg)

    def test_english_target(self):
        cfg = FilterConfig(target_language="en", min_language_ratio=0.7)
        assert filter_language(make_doc("mostly english words here"), cfg)
        assert not filter_language(make_doc("全是中文的内容没有英文"), cfg)


class TestLength:
    def test_long_passes(self):
        assert filter_length(make_doc("字" * 200), FilterConfig(min_effective_chars=50))

    def test_short_fails(self):
        assert not filter_length(make_doc("字" * 10), FilterConfig(min_effective_chars=50))

    def test_zero_threshold_vacuous(self):
        assert filter_length(make_doc(""), FilterConfig(min_effective_chars=0))


class TestRunFilters:
    def test_partition(self):
        docs = build_filter_docs()
        _, report = run_filters(docs, FilterConfig(), lexicon=frozenset(SENSITIVE_WORDS))
        assert report.input == 1000
        assert report.retained + sum(report.dropped.values()) == 1000

    def test_first_failure_wins(self):
        # sensitive word and also too short: charged to the sensitive filter
        doc = make_doc(SENSITIVE_WORDS[0])
        _, report = run_filters([doc], FilterConfig(min_effective_chars=50), lexicon=frozenset(SENSITIVE_WORDS))
        assert report.dropped["sensitive"] == 1
        assert report.dropped["length"] == 0
        assert doc.status == "filtered_out"
        assert doc.reason == "sensitive"

    def test_retained_keep_ingested_status(self):
        doc = make_doc("长度足够的正常中文内容，通过全部过滤。" * 3, status="ingested")
        kept, _ = run_filters([doc], FilterConfig(), lexicon=frozenset())
        assert kept == [doc]
        assert doc.status == "ingested"

    def test_order_independent_retained_set(self):
        docs = build_filter_docs(n=300)
        kept_a, _ = run_filters(docs, FilterConfig(), lexicon=frozenset(SENSITIVE_WORDS))
        rng = random.Random(4)
        shuffled = docs[:]
        rng.shuffle(shuffled)
        kept_b, _ = run_filters(shuffled, FilterConfig(), lexicon=frozenset(SENSITIVE_WORDS))
        assert {d.doc_id for d in kept_a} == {d.doc_id for d in kept_b}

    @pytest.mark.parametrize(
        "make_cfgs,lexicons",
        [
            (lambda: [FilterConfig(min_effective_chars=c) for c in (100, 50, 10)], None),
            (lambda: [FilterConfig(min_language_ratio=r) for r in (0.9, 0.7, 0.3)], None),
            (
                lambda: [FilterConfig()] * 3,
                [frozenset(SENSITIVE_WORDS), frozenset(SENSITIVE_WORDS[:2]), frozenset(SENSITIVE_WORDS[:1])],
            ),
        ],
        ids=["length", "language", "sensitive"],
    )
    def test_loosening_grows_retained_set(self, make_cfgs, lexicons):
        cfgs = make_cfgs()
        previous: set[str] | None = None
        sizes = []
        for i, cfg in enumerate(cfgs):
            docs = build_filter_docs()  # fresh copies; run_filters mutates status
            lexicon = lexicons[i] if lexicons else frozenset(SENSITIVE_WORDS)
            kept, _ = run_filters(docs, cfg, lexicon=lexicon)
            ids = {d.doc_id for d in kept}
            if previous is not None:
                assert previous <= ids
            previous = ids
            sizes.append(len(ids))
        assert sizes[0] < sizes[-1]


class TestLexicon:
    def test_missing_file(self, tmp_path):
        with pytest.raises(LexiconMissing):
            load_lexicon(tmp_path / "nope.txt")

    def test_loads_words(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("赌博\n\n 诈骗 \n", encoding="utf-8")
        assert load_lexicon(path) == frozenset({"赌博", "诈骗"})

    def test_none_is_empty(self):
        assert load_lexicon(None) == frozenset()


def word_by_word(words, text: str) -> tuple[str, ...]:
    """The lookup before the regex pre-check: every word tested as a substring."""
    return tuple(sorted(w for w in words if w in text))


class TestLexiconPreCheck:
    """A lexicon below INDEX_MIN_WORDS is sought by one regex alternation
    first; the words are tested one by one only when it finds one of them."""

    METACHARS = [".", "*", "+", "?", "^", "$", "|", "\\", "(", ")", "[", "]", "{", "}", "-", "#", " ", "\n"]

    def test_overlapping_words(self):
        lexicon = Lexicon({"aba", "bab", "abab"})
        assert lexicon.find("xababx") == ("aba", "abab", "bab")
        assert lexicon.find("xabax") == ("aba",)
        assert lexicon.find("xbabx") == ("bab",)

    def test_word_that_prefixes_another(self):
        lexicon = Lexicon({"水电", "水电改造", "电改"})
        assert lexicon.find("做水电改造") == ("水电", "水电改造", "电改")
        assert lexicon.find("交水电费") == ("水电",)
        assert lexicon.find("水 电改造") == ("电改",)

    def test_regex_metacharacters_are_literal(self):
        words = {"a.b", "(x)", "*", "[", "\\d", "^$", "x|y", "a+?", "{2}", "\n"}
        lexicon = Lexicon(words)
        assert lexicon.find("axb (y) d x y a b ab") == ()
        assert lexicon.find("a.b") == ("a.b",)
        assert lexicon.find("x|y and *") == ("*", "x|y")
        assert lexicon.find("\\d{2}\n") == ("\n", "\\d", "{2}")
        assert lexicon.find("^$(x)[a+?") == ("(x)", "[", "^$", "a+?")

    def test_one_character_words(self):
        lexicon = Lexicon({"装", "a", "\U00020001", "."})
        assert lexicon.find("装修") == ("装",)
        assert lexicon.find("末尾\U00020001") == ("\U00020001",)
        assert lexicon.find("bcd") == ()
        assert lexicon.find("x.y") == (".",)

    def test_empty_lexicon(self):
        lexicon = Lexicon(())
        assert lexicon.find("") == () and lexicon.find("任何内容") == ()

    def test_filter_sensitive_given_a_scanned_lexicon(self):
        lexicon = Lexicon({"赌博", "a.b", "诈"})
        verdict = filter_sensitive(make_doc("含赌博与诈骗内容 a.b"), lexicon)
        assert not verdict and verdict.reason == "sensitive"
        assert verdict.matched_words == ("a.b", "诈", "赌博")
        assert filter_sensitive(make_doc("含赌 博内容 axb"), lexicon)

    def test_no_word_is_tested_unless_the_alternation_hits(self, monkeypatch):
        lexicon = Lexicon({"赌博", "诈骗"})
        tested: list[str] = []

        class Spy(list):
            def __iter__(self):
                tested.append("scan")
                return super().__iter__()

        monkeypatch.setattr(lexicon, "_scanned", Spy(lexicon._scanned))
        assert lexicon.find("普通装修流程" * 50) == ()
        assert tested == []
        assert lexicon.find("含赌博内容") == ("赌博",)
        assert tested == ["scan"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_word_by_word_scan_on_generated_corpora(self, seed):
        rng = random.Random(seed)
        alphabet = [chr(cp) for cp in range(0x4E00, 0x4E10)] + list("ab") + self.METACHARS + ["\U00020001"]
        for _ in range(60):
            size = rng.randint(0, INDEX_MIN_WORDS - 1)
            words = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4))) for _ in range(size)}
            lexicon = Lexicon(words)
            assert not len(lexicon._codes), "below INDEX_MIN_WORDS every word is scanned"
            hits = 0
            for _ in range(30):
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
                want = word_by_word(words, text)
                assert lexicon.find(text) == want, (sorted(words), text)
                assert filter_sensitive(make_doc(text or "空"), lexicon).matched_words == word_by_word(words, text or "空")
                hits += bool(want)
            assert hits or len(words) < 5

    def test_matches_the_word_by_word_scan_on_filter_docs(self):
        docs = build_filter_docs(n=300)
        rng = random.Random(4)
        texts = [d.text for d in docs]
        # words cut from the texts themselves, so that many of them hit
        words = {t[i : i + rng.randint(1, 3)] for t in rng.sample(texts, 20) for i in [rng.randrange(len(t))]}
        words |= set(SENSITIVE_WORDS)
        lexicon = Lexicon(words)
        assert len(words) < INDEX_MIN_WORDS
        assert sum(bool(lexicon.find(t)) for t in texts) > 20
        for text in texts:
            assert lexicon.find(text) == word_by_word(words, text)


class TestLexiconStartTable:
    """An indexed lexicon forms bigrams only where a code point starts an
    indexed word, found through a table over the span of those code points;
    `find` must give what the word-by-word scan gives."""

    FILLER = ["a", "。", " ", "\n", "\x00", "￿", "\U0010ffff"] + [chr(cp) for cp in range(0x4E00, 0x4E08)]

    def lexicon(self, rng, firsts, seconds, one_char=()):
        words = set(one_char)
        while len(words) < INDEX_MIN_WORDS + len(one_char):
            words.add(rng.choice(firsts) + "".join(rng.choice(seconds) for _ in range(rng.randint(1, 4))))
        lexicon = Lexicon(words)
        assert len(lexicon._codes), "the lexicon is indexed"
        return words, lexicon

    def check(self, words, lexicon, texts):
        for text in texts:
            assert lexicon.find(text) == word_by_word(words, text), ascii(text)

    @pytest.mark.parametrize("firsts", [
        ["龠", "龥", "\U00020001"],
        ["\U00010000", "\U0010fffe", "\U00020001"],
        ["\ud800", "\udbff", "\udfff"],
        ["\U00020001"],
    ], ids=["bmp-and-astral", "astral", "lone-surrogates", "one-code-point"])
    def test_matches_the_word_by_word_scan(self, firsts):
        rng = random.Random(7)
        seconds = ["b", "龠", "\udc00", "\U00020002"]
        words, lexicon = self.lexicon(rng, firsts, seconds)
        if len(firsts) == 1:
            assert len(lexicon._starts) == 2, "one code point plus the entry outside the span"

        def filler(n):
            return "".join(rng.choice(self.FILLER) for _ in range(n))

        texts = ["", firsts[0], firsts[0] + seconds[0]]
        for _ in range(300):
            start, second = rng.choice(firsts), rng.choice(seconds)
            texts += [
                filler(rng.randint(0, 40)) + start,  # a start code point only at the last position
                filler(rng.randint(0, 20)) + start + filler(rng.randint(1, 20)),  # without its second
                "".join(rng.choice(self.FILLER + firsts + seconds) for _ in range(rng.randint(0, 60))),
                filler(rng.randint(0, 20)) + start + second + filler(rng.randint(0, 20)),
            ]
        self.check(words, lexicon, texts)
        assert sum(bool(lexicon.find(t)) for t in texts) > 100

    def test_one_character_words_mixed_with_indexed_ones(self):
        rng = random.Random(8)
        firsts, seconds = ["龠", "龣"], ["b", "c", "龠"]
        words, lexicon = self.lexicon(rng, firsts, seconds, one_char=["a", "龠", "\U00020001", "\ud800"])
        assert {"a", "龠", "\U00020001", "\ud800"} <= set(lexicon._scanned)
        alphabet = self.FILLER + firsts + seconds + ["\U00020001", "\ud800"]
        texts = ["a", "龠", "x龠", "龠b"]
        texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))) for _ in range(1000)]
        self.check(words, lexicon, texts)

    def test_lexicons_of_every_size_match_the_plain_scan(self):
        # Few first and second code points, so that many words share one
        # two-code-point prefix, and lexicons of every size across the cutoff.
        rng = random.Random(10)
        alphabet = ["龠", "b", "\ud800", "\U00020001", "。", "龣"]
        for size in [*range(INDEX_MIN_WORDS - 2, INDEX_MIN_WORDS + 3), 100, 300]:
            words = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6))) for _ in range(3 * size)}
            words = set(rng.sample(sorted(words), min(size, len(words))))
            lexicon = Lexicon(words)
            assert bool(len(lexicon._codes)) == (len(words) >= INDEX_MIN_WORDS)
            texts = ["".join(rng.choice(alphabet + self.FILLER) for _ in range(rng.randint(0, 50))) for _ in range(200)]
            texts += [rng.choice(self.FILLER) + word + rng.choice(self.FILLER) for word in words]  # every word occurs
            self.check(words, lexicon, texts)
            assert sum(len(lexicon.find(t)) > 1 for t in texts) > 20

    def test_text_without_a_start_code_point_is_not_looked_up(self, monkeypatch):
        rng = random.Random(9)
        words, lexicon = self.lexicon(rng, ["龠"], ["b", "c", "d", "e"], one_char=["a"])
        looked_up = []
        searchsorted = np.searchsorted
        monkeypatch.setattr(np, "searchsorted", lambda *a, **k: looked_up.append(1) or searchsorted(*a, **k))
        assert lexicon.find("普通装修流程 a" * 50 + "龠") == ("a",)
        assert looked_up == []
        assert lexicon.find("龠bcde") == word_by_word(words, "龠bcde")
        assert looked_up == [1]
