"""Quality filters: sensitive words, language ratio, effective length.

Filters run per document in a fixed order (sensitive, language, length) and a
document is only charged to the first filter it fails, so drop counts always
partition the input.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable

import numpy as np

from .errors import LexiconMissing
from .ingest import Document, STATUS_FILTERED_OUT
from .jsonl import Record
from .tokenizers import count_cjk

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
# each document (measured crossover: README, "Sensitive-word lookup").
INDEX_MIN_WORDS = 80


class Lexicon:
    """Sensitive words and the lookup that suits their number.

    `find(text)` gives the sorted words that occur in `text` as substrings.
    Below INDEX_MIN_WORDS words every word is tested. From there on, words
    are indexed by their first two code points and only those whose prefix
    occurs among the text's bigrams are tested; words shorter than two code
    points are always tested.
    """

    def __init__(self, words: Collection[str]):
        self.words = frozenset(words)
        indexed = len(self.words) >= INDEX_MIN_WORDS
        self._scanned = [w for w in self.words if not indexed or len(w) < 2]
        by_code: dict[int, list[str]] = {}
        for w in self.words:
            if indexed and len(w) >= 2:
                by_code.setdefault(ord(w[0]) << 21 | ord(w[1]), []).append(w)
        codes = sorted(by_code)
        self._codes = np.array(codes, dtype=np.uint64)
        self._by_code = [by_code[c] for c in codes]

    def find(self, text: str) -> tuple[str, ...]:
        found = [w for w in self._scanned if w in text]
        if len(self._codes):
            # surrogatepass: a lone surrogate from a JSON escape is a code point too
            cps = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32).astype(np.uint64)
            bigrams = cps[:-1] << np.uint64(21) | cps[1:]
            pos = np.minimum(np.searchsorted(self._codes, bigrams), len(self._codes) - 1)
            for i in np.unique(pos[self._codes[pos] == bigrams]).tolist():
                found.extend(w for w in self._by_code[i] if w in text)
        return tuple(sorted(found))


def filter_sensitive(doc: Document, lexicon: Lexicon | Collection[str]) -> Verdict:
    # Plain substring match; word boundaries do not exist in Chinese.
    if not isinstance(lexicon, Lexicon):
        lexicon = Lexicon(lexicon)
    matched = lexicon.find(doc.text)
    if matched:
        return Verdict(False, REASON_SENSITIVE, matched)
    return _PASS


# Whitespace (str.isspace) and punctuation (Unicode category P*) do not count
# toward the language ratio. Their ranges are committed, not derived from
# unicodedata at import (that walk takes most of a second): the table of
# Unicode NONCOUNT_UNICODE_VERSION, which a test rebuilds from the running
# interpreter's unicodedata. BMP and astral ranges are kept apart because re
# makes a bitmap of a class only when it lies within the BMP and otherwise
# tests its ranges one by one; astral ranges are tested only once a
# character is known to be astral.
NONCOUNT_UNICODE_VERSION = "14.0.0"
_NONCOUNT_BMP = (
    r"\u0009-\u000d\u001c-\u0023\u0025-\u002a\u002c-\u002f\u003a-\u003b\u003f-\u0040\u005b-\u005d\u005f-\u005f"
    r"\u007b-\u007b\u007d-\u007d\u0085-\u0085\u00a0-\u00a1\u00a7-\u00a7\u00ab-\u00ab\u00b6-\u00b7\u00bb-\u00bb"
    r"\u00bf-\u00bf\u037e-\u037e\u0387-\u0387\u055a-\u055f\u0589-\u058a\u05be-\u05be\u05c0-\u05c0\u05c3-\u05c3"
    r"\u05c6-\u05c6\u05f3-\u05f4\u0609-\u060a\u060c-\u060d\u061b-\u061b\u061d-\u061f\u066a-\u066d\u06d4-\u06d4"
    r"\u0700-\u070d\u07f7-\u07f9\u0830-\u083e\u085e-\u085e\u0964-\u0965\u0970-\u0970\u09fd-\u09fd\u0a76-\u0a76"
    r"\u0af0-\u0af0\u0c77-\u0c77\u0c84-\u0c84\u0df4-\u0df4\u0e4f-\u0e4f\u0e5a-\u0e5b\u0f04-\u0f12\u0f14-\u0f14"
    r"\u0f3a-\u0f3d\u0f85-\u0f85\u0fd0-\u0fd4\u0fd9-\u0fda\u104a-\u104f\u10fb-\u10fb\u1360-\u1368\u1400-\u1400"
    r"\u166e-\u166e\u1680-\u1680\u169b-\u169c\u16eb-\u16ed\u1735-\u1736\u17d4-\u17d6\u17d8-\u17da\u1800-\u180a"
    r"\u1944-\u1945\u1a1e-\u1a1f\u1aa0-\u1aa6\u1aa8-\u1aad\u1b5a-\u1b60\u1b7d-\u1b7e\u1bfc-\u1bff\u1c3b-\u1c3f"
    r"\u1c7e-\u1c7f\u1cc0-\u1cc7\u1cd3-\u1cd3\u2000-\u200a\u2010-\u2029\u202f-\u2043\u2045-\u2051\u2053-\u205f"
    r"\u207d-\u207e\u208d-\u208e\u2308-\u230b\u2329-\u232a\u2768-\u2775\u27c5-\u27c6\u27e6-\u27ef\u2983-\u2998"
    r"\u29d8-\u29db\u29fc-\u29fd\u2cf9-\u2cfc\u2cfe-\u2cff\u2d70-\u2d70\u2e00-\u2e2e\u2e30-\u2e4f\u2e52-\u2e5d"
    r"\u3000-\u3003\u3008-\u3011\u3014-\u301f\u3030-\u3030\u303d-\u303d\u30a0-\u30a0\u30fb-\u30fb\ua4fe-\ua4ff"
    r"\ua60d-\ua60f\ua673-\ua673\ua67e-\ua67e\ua6f2-\ua6f7\ua874-\ua877\ua8ce-\ua8cf\ua8f8-\ua8fa\ua8fc-\ua8fc"
    r"\ua92e-\ua92f\ua95f-\ua95f\ua9c1-\ua9cd\ua9de-\ua9df\uaa5c-\uaa5f\uaade-\uaadf\uaaf0-\uaaf1\uabeb-\uabeb"
    r"\ufd3e-\ufd3f\ufe10-\ufe19\ufe30-\ufe52\ufe54-\ufe61\ufe63-\ufe63\ufe68-\ufe68\ufe6a-\ufe6b\uff01-\uff03"
    r"\uff05-\uff0a\uff0c-\uff0f\uff1a-\uff1b\uff1f-\uff20\uff3b-\uff3d\uff3f-\uff3f\uff5b-\uff5b\uff5d-\uff5d"
    r"\uff5f-\uff65"
)
_NONCOUNT_ASTRAL = (
    r"\U00010100-\U00010102\U0001039f-\U0001039f\U000103d0-\U000103d0\U0001056f-\U0001056f\U00010857-\U00010857"
    r"\U0001091f-\U0001091f\U0001093f-\U0001093f\U00010a50-\U00010a58\U00010a7f-\U00010a7f\U00010af0-\U00010af6"
    r"\U00010b39-\U00010b3f\U00010b99-\U00010b9c\U00010ead-\U00010ead\U00010f55-\U00010f59\U00010f86-\U00010f89"
    r"\U00011047-\U0001104d\U000110bb-\U000110bc\U000110be-\U000110c1\U00011140-\U00011143\U00011174-\U00011175"
    r"\U000111c5-\U000111c8\U000111cd-\U000111cd\U000111db-\U000111db\U000111dd-\U000111df\U00011238-\U0001123d"
    r"\U000112a9-\U000112a9\U0001144b-\U0001144f\U0001145a-\U0001145b\U0001145d-\U0001145d\U000114c6-\U000114c6"
    r"\U000115c1-\U000115d7\U00011641-\U00011643\U00011660-\U0001166c\U000116b9-\U000116b9\U0001173c-\U0001173e"
    r"\U0001183b-\U0001183b\U00011944-\U00011946\U000119e2-\U000119e2\U00011a3f-\U00011a46\U00011a9a-\U00011a9c"
    r"\U00011a9e-\U00011aa2\U00011c41-\U00011c45\U00011c70-\U00011c71\U00011ef7-\U00011ef8\U00011fff-\U00011fff"
    r"\U00012470-\U00012474\U00012ff1-\U00012ff2\U00016a6e-\U00016a6f\U00016af5-\U00016af5\U00016b37-\U00016b3b"
    r"\U00016b44-\U00016b44\U00016e97-\U00016e9a\U00016fe2-\U00016fe2\U0001bc9f-\U0001bc9f\U0001da87-\U0001da8b"
    r"\U0001e95e-\U0001e95f"
)
_ASCII_ALPHA_RUN_RE = re.compile(r"[A-Za-z]+")


@functools.cache
def _noncount_re() -> re.Pattern[str]:
    # Compiled on first use: it takes milliseconds, which every import would pay.
    return re.compile(f"[{_NONCOUNT_BMP}]|[\\U00010000-\\U0010ffff](?<=[{_NONCOUNT_ASTRAL}])")


def filter_language(doc: Document, cfg: FilterConfig) -> Verdict:
    """Pass when the target-script share of countable characters meets the floor.

    Countable characters exclude whitespace and punctuation; an empty set
    counts as ratio 0 and fails. Target-script characters (CJK ideographs or
    ASCII letters) are never whitespace or punctuation, so they are counted
    over the whole text.
    """
    text = doc.text
    countable = len(text) - len(_noncount_re().findall(text))
    if not countable:
        return Verdict(False, REASON_LANGUAGE)
    if cfg.target_language == "zh":
        hits = count_cjk(text)
    else:
        hits = sum(map(len, _ASCII_ALPHA_RUN_RE.findall(text)))
    if hits / countable >= cfg.min_language_ratio:
        return _PASS
    return Verdict(False, REASON_LANGUAGE)


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
    report = FilterReport()
    retained: list[Document] = []
    for doc in docs:
        report.input += 1
        verdict = filter_sensitive(doc, lexicon)
        if verdict:
            verdict = filter_language(doc, cfg)
        if verdict:
            verdict = filter_length(doc, cfg)
        if verdict:
            retained.append(doc)
            report.retained += 1
        else:
            doc.mark(STATUS_FILTERED_OUT, verdict.reason)
            report.dropped[verdict.reason] += 1
    return retained, report
