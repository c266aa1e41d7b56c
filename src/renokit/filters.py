"""Quality filters: sensitive words, language ratio, effective length.

Filters run per document in a fixed order (sensitive, language, length) and a
document is only charged to the first filter it fails, so drop counts always
partition the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from .errors import LexiconMissing
from .ingest import Document, STATUS_FILTERED_OUT
from .jsonl import Record
from .tokenizers import char_counts

REASON_SENSITIVE = "sensitive"
REASON_LANGUAGE = "language"
REASON_LENGTH = "length"

FILTER_ORDER = (REASON_SENSITIVE, REASON_LANGUAGE, REASON_LENGTH)


@dataclass
class FilterConfig:
    sensitive_word_list: str | None = None
    min_effective_chars: int = 50
    target_language: str = "zh"
    min_language_ratio: float = 0.7

    def __post_init__(self):
        if self.min_effective_chars < 0:
            raise ValueError("min_effective_chars must be >= 0")
        if not 0.0 <= self.min_language_ratio <= 1.0:
            raise ValueError("min_language_ratio must be in [0, 1]")
        if self.target_language not in ("zh", "en"):
            raise ValueError(f"unsupported target_language {self.target_language!r}")


@dataclass(frozen=True)
class Verdict:
    passed: bool
    reason: str | None = None
    matched_words: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


_PASS = Verdict(True)
_LANGUAGE_FAIL = Verdict(False, REASON_LANGUAGE)


def load_lexicon(path: str | Path | None) -> frozenset[str]:
    if path is None:
        return frozenset()
    path = Path(path)
    if not path.exists():
        raise LexiconMissing(str(path))
    words = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return frozenset(w for w in words if w)


# A lexicon this large is looked up through its two-character prefixes; a
# smaller one is scanned word by word, which then costs less than encoding
# each document (measured crossover table: CHANGES.md, the entry "The README
# states each mechanism and contract once").
INDEX_MIN_WORDS = 40

class Lexicon:
    """Sensitive words and the lookup that suits their number.

    `find(text)` gives the sorted words that occur in `text` as substrings.
    Below INDEX_MIN_WORDS words every word is scanned for. From there on,
    words are indexed by their first two code points and only those whose
    prefix occurs among the text's bigrams are tested; words shorter than two
    code points are always scanned for. Bigrams are formed only at the
    positions whose code point starts an indexed word, found through a boolean
    table over the span of those first code points, and a text without such a
    position is not looked up at all. The scanned words are first sought
    together, by one regex alternation that skips in C every position no word
    starts at, and tested one by one only when it finds any of them.
    """

    def __init__(self, words: Collection[str]):
        self.words = frozenset(words)
        indexed = len(self.words) >= INDEX_MIN_WORDS
        self._scanned = sorted(w for w in self.words if not indexed or len(w) < 2)
        self._any_scanned = re.compile("|".join(map(re.escape, self._scanned))).search if self._scanned else None
        # The indexed words sorted by the code of their first two code points,
        # encoded together; the words of the i-th distinct code `_codes[i]`
        # are `_indexed[_bounds[i] : _bounds[i + 1]]`.
        indexed_words = [w for w in self.words if indexed and len(w) >= 2]
        heads = "".join(w[:2] for w in indexed_words).encode("utf-32-le", "surrogatepass")
        pairs = np.frombuffer(heads, np.uint32).reshape(-1, 2)
        codes = pairs[:, 0].astype(np.uint64) << np.uint64(21) | pairs[:, 1]
        order = np.argsort(codes)
        codes = codes[order]
        first = np.ones(codes.size, dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        first = np.flatnonzero(first)
        self._codes = codes[first]
        self._indexed = [indexed_words[i] for i in order.tolist()]
        self._bounds = [*first.tolist(), len(indexed_words)]
        # Whether each code point from the lowest first code point of an
        # indexed word up to the highest starts one; the last entry, False,
        # stands for every code point outside that span.
        firsts = (self._codes >> np.uint64(21)).astype(np.uint32)
        lo, hi = (int(firsts[0]), int(firsts[-1])) if len(firsts) else (0, -1)
        self._first_lo = np.uint32(lo)
        self._starts = np.zeros(hi - lo + 2, dtype=bool)
        self._starts[firsts - self._first_lo] = True

    def find(self, text: str) -> tuple[str, ...]:
        found = [w for w in self._scanned if w in text] if self._any_scanned and self._any_scanned(text) else []
        if len(self._codes):
            # surrogatepass: a lone surrogate from a JSON escape is a code point too
            cps = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
            # Below the span the difference wraps round to a large index, so
            # "clip" sends both sides of the span to the last, False entry.
            at = np.flatnonzero(self._starts.take(cps[:-1] - self._first_lo, mode="clip"))
            if len(at):
                bigrams = cps[at].astype(np.uint64) << np.uint64(21) | cps[at + 1]
                pos = np.minimum(np.searchsorted(self._codes, bigrams), len(self._codes) - 1)
                # the distinct hit prefixes, without np.unique (which imports numpy.ma)
                for i in np.flatnonzero(np.bincount(pos[self._codes[pos] == bigrams])).tolist():
                    found.extend(w for w in self._indexed[self._bounds[i] : self._bounds[i + 1]] if w in text)
        return tuple(sorted(found))


def filter_sensitive(doc: Document, lexicon: Lexicon) -> Verdict:
    # Plain substring match; word boundaries do not exist in Chinese.
    matched = lexicon.find(doc.text)
    if matched:
        return Verdict(False, REASON_SENSITIVE, matched)
    return _PASS


def _language_verdicts(texts: Sequence[str], cfg: FilterConfig) -> list[Verdict]:
    """Pass each text whose target-script share of countable characters meets
    the floor.

    Countable characters exclude whitespace and punctuation; an empty set
    counts as ratio 0 and fails. Target-script characters (CJK ideographs or
    ASCII letters) are never whitespace or punctuation, so they are counted
    over the whole text.
    """
    counts = char_counts(texts)
    hits = counts.cjk if cfg.target_language == "zh" else counts.ascii_alpha
    return [_PASS if countable and h / countable >= cfg.min_language_ratio else _LANGUAGE_FAIL
            for countable, h in zip(counts.countable.tolist(), hits.tolist())]


def filter_language(doc: Document, cfg: FilterConfig) -> Verdict:
    """The language verdict of one document; see `_language_verdicts`."""
    return _language_verdicts([doc.text], cfg)[0]


def filter_length(doc: Document, cfg: FilterConfig) -> Verdict:
    if doc.char_count >= cfg.min_effective_chars:
        return _PASS
    return Verdict(False, REASON_LENGTH)


@dataclass
class FilterReport(Record):
    input: int = 0
    retained: int = 0
    dropped: dict[str, int] = field(default_factory=lambda: {r: 0 for r in FILTER_ORDER})


def run_filters(
    docs: Iterable[Document],
    cfg: FilterConfig,
    lexicon: Collection[str] | None = None,
) -> tuple[list[Document], FilterReport]:
    """Apply the three filters in order; dropped docs are marked in place."""
    lexicon = Lexicon(load_lexicon(cfg.sensitive_word_list) if lexicon is None else lexicon)
    docs = list(docs)
    report = FilterReport(input=len(docs))
    retained: list[Document] = []
    for doc, language in zip(docs, _language_verdicts([d.text for d in docs], cfg)):
        verdict = filter_sensitive(doc, lexicon)
        if verdict:
            verdict = language
        if verdict:
            verdict = filter_length(doc, cfg)
        if verdict:
            retained.append(doc)
            report.retained += 1
        else:
            doc.mark(STATUS_FILTERED_OUT, verdict.reason)
            report.dropped[verdict.reason] += 1
    return retained, report
