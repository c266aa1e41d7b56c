"""Quality filters: sensitive words, language ratio, effective length.

Filters run per document in a fixed order (sensitive, language, length) and a
document is only charged to the first filter it fails, so drop counts always
partition the input.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import LexiconMissing
from .ingest import Document, STATUS_FILTERED_OUT
from .jsonl import config_from_dict
from .tokenizers import is_cjk

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

    @classmethod
    def from_dict(cls, obj: dict) -> "FilterConfig":
        return config_from_dict(cls, obj, "filter config")


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


def filter_sensitive(doc: Document, lexicon: frozenset[str] | set[str]) -> Verdict:
    # Plain substring match; word boundaries do not exist in Chinese.
    matched = tuple(sorted(w for w in lexicon if w in doc.text))
    if matched:
        return Verdict(False, REASON_SENSITIVE, matched)
    return _PASS


def _is_countable(ch: str) -> bool:
    return not ch.isspace() and not unicodedata.category(ch).startswith("P")


def filter_language(doc: Document, cfg: FilterConfig) -> Verdict:
    """Pass when the target-script share of countable characters meets the floor.

    Countable characters exclude whitespace and punctuation; an empty set
    counts as ratio 0 and fails.
    """
    countable = [ch for ch in doc.text if _is_countable(ch)]
    if not countable:
        return Verdict(False, REASON_LANGUAGE)
    if cfg.target_language == "zh":
        hits = sum(1 for ch in countable if is_cjk(ch))
    else:
        hits = sum(1 for ch in countable if ch.isascii() and ch.isalpha())
    if hits / len(countable) >= cfg.min_language_ratio:
        return _PASS
    return Verdict(False, REASON_LANGUAGE)


def filter_length(doc: Document, cfg: FilterConfig) -> Verdict:
    if doc.char_count >= cfg.min_effective_chars:
        return _PASS
    return Verdict(False, REASON_LENGTH)


@dataclass
class FilterReport:
    input: int = 0
    retained: int = 0
    dropped: dict[str, int] = field(default_factory=lambda: {r: 0 for r in FILTER_ORDER})

    def to_dict(self) -> dict:
        return {"input": self.input, "retained": self.retained, "dropped": dict(self.dropped)}


def run_filters(
    docs: Iterable[Document],
    cfg: FilterConfig,
    lexicon: frozenset[str] | None = None,
) -> tuple[list[Document], FilterReport]:
    """Apply the three filters in order; dropped docs are marked in place."""
    if lexicon is None:
        lexicon = load_lexicon(cfg.sensitive_word_list)
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
