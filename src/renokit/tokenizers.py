"""Approximate token counting.

Counts are heuristic and only comparable between outputs produced under the
same tokenizer, so every report that carries token totals also carries the
label TOKENIZER.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable

TOKENIZER = "approx-cjk-v1"

# CJK unified ideographs (base, extension A, compatibility, extension B+).
# Kana, hangul, and CJK punctuation are intentionally not included.
_CJK_RANGES = (
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xF900, 0xFAFF),
    (0x20000, 0x2FA1F),
)


def _escape(cp: int) -> str:
    return f"\\u{cp:04x}" if cp <= 0xFFFF else f"\\U{cp:08x}"


def char_class(ranges: Iterable[tuple[int, int]]) -> str:
    """A regex character class matching every code point in the inclusive ranges."""
    return "[" + "".join(f"{_escape(lo)}-{_escape(hi)}" for lo, hi in ranges) + "]"


_WORD_RE = re.compile(r"[A-Za-z0-9_]+")


@functools.cache
def _cjk_run_re() -> re.Pattern[str]:
    # Compiled on first use: compiling a class with astral ranges takes
    # milliseconds, which every import would pay. Runs, not single
    # characters: one match per run of ideographs is several times cheaper.
    return re.compile(char_class(_CJK_RANGES) + "+")


def count_cjk(text: str) -> int:
    """The number of CJK ideographs in `text`."""
    return sum(map(len, _cjk_run_re().findall(text)))


def count_tokens(text: str) -> int:
    """One token per CJK ideograph, one per contiguous ASCII word.

    An ideograph is not a word character, so it ends a word as a space would.
    """
    return count_cjk(text) + len(_WORD_RE.findall(text))
