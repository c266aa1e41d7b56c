"""Approximate token counting.

Counts are heuristic and only comparable between outputs produced under the
same tokenizer, so every report that carries token totals also carries the
label TOKENIZER.
"""

from __future__ import annotations

import re

TOKENIZER = "approx-cjk-v1"

# CJK unified ideographs (base, extension A, compatibility, extension B+).
# Kana, hangul, and CJK punctuation are intentionally not included.
_CJK_RANGES = (
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xF900, 0xFAFF),
    (0x20000, 0x2FA1F),
)

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")


def is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def count_tokens(text: str) -> int:
    """One token per CJK ideograph, one per contiguous ASCII word."""
    cjk = 0
    rest: list[str] = []
    for ch in text:
        if is_cjk(ch):
            cjk += 1
            rest.append(" ")
        else:
            rest.append(ch)
    return cjk + len(_WORD_RE.findall("".join(rest)))
