"""Approximate token counting and the character classes it shares with the
language filter.

Counts are heuristic and only comparable between outputs produced under the
same tokenizer, so every report that carries token totals also carries the
label TOKENIZER.

Every class is a set of code point ranges, looked up through one table of
class bits (`_class_table`); `char_counts` counts whole batches of texts with
it, and `count_tokens` is that count on one text. numpy is imported, and the
table built, on first use, so importing this module costs neither. `runs`
packs every batch walk: `char_counts`' batches and dedup's, both of whole
texts and at most BATCH_CODE_POINTS code points unless one text is longer,
and mixer's blocks.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

TOKENIZER = "approx-cjk-v1"

# CJK unified ideographs (base, extension A, compatibility, extension B+).
# Kana, hangul, and CJK punctuation are intentionally not included.
_CJK_RANGES = (
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xF900, 0xFAFF),
    (0x20000, 0x2FA1F),
)

# Whitespace (str.isspace) and punctuation (Unicode category P*) do not count
# toward the language ratio. Their ranges are committed, not derived from
# unicodedata at import (that walk takes most of a second): the table of
# Unicode NONCOUNT_UNICODE_VERSION, which a test rebuilds from the running
# interpreter's unicodedata.
NONCOUNT_UNICODE_VERSION = "14.0.0"
_NONCOUNT_RANGES = (
    (0x0009, 0x000D), (0x001C, 0x0023), (0x0025, 0x002A), (0x002C, 0x002F), (0x003A, 0x003B), (0x003F, 0x0040),
    (0x005B, 0x005D), (0x005F, 0x005F), (0x007B, 0x007B), (0x007D, 0x007D), (0x0085, 0x0085), (0x00A0, 0x00A1),
    (0x00A7, 0x00A7), (0x00AB, 0x00AB), (0x00B6, 0x00B7), (0x00BB, 0x00BB), (0x00BF, 0x00BF), (0x037E, 0x037E),
    (0x0387, 0x0387), (0x055A, 0x055F), (0x0589, 0x058A), (0x05BE, 0x05BE), (0x05C0, 0x05C0), (0x05C3, 0x05C3),
    (0x05C6, 0x05C6), (0x05F3, 0x05F4), (0x0609, 0x060A), (0x060C, 0x060D), (0x061B, 0x061B), (0x061D, 0x061F),
    (0x066A, 0x066D), (0x06D4, 0x06D4), (0x0700, 0x070D), (0x07F7, 0x07F9), (0x0830, 0x083E), (0x085E, 0x085E),
    (0x0964, 0x0965), (0x0970, 0x0970), (0x09FD, 0x09FD), (0x0A76, 0x0A76), (0x0AF0, 0x0AF0), (0x0C77, 0x0C77),
    (0x0C84, 0x0C84), (0x0DF4, 0x0DF4), (0x0E4F, 0x0E4F), (0x0E5A, 0x0E5B), (0x0F04, 0x0F12), (0x0F14, 0x0F14),
    (0x0F3A, 0x0F3D), (0x0F85, 0x0F85), (0x0FD0, 0x0FD4), (0x0FD9, 0x0FDA), (0x104A, 0x104F), (0x10FB, 0x10FB),
    (0x1360, 0x1368), (0x1400, 0x1400), (0x166E, 0x166E), (0x1680, 0x1680), (0x169B, 0x169C), (0x16EB, 0x16ED),
    (0x1735, 0x1736), (0x17D4, 0x17D6), (0x17D8, 0x17DA), (0x1800, 0x180A), (0x1944, 0x1945), (0x1A1E, 0x1A1F),
    (0x1AA0, 0x1AA6), (0x1AA8, 0x1AAD), (0x1B5A, 0x1B60), (0x1B7D, 0x1B7E), (0x1BFC, 0x1BFF), (0x1C3B, 0x1C3F),
    (0x1C7E, 0x1C7F), (0x1CC0, 0x1CC7), (0x1CD3, 0x1CD3), (0x2000, 0x200A), (0x2010, 0x2029), (0x202F, 0x2043),
    (0x2045, 0x2051), (0x2053, 0x205F), (0x207D, 0x207E), (0x208D, 0x208E), (0x2308, 0x230B), (0x2329, 0x232A),
    (0x2768, 0x2775), (0x27C5, 0x27C6), (0x27E6, 0x27EF), (0x2983, 0x2998), (0x29D8, 0x29DB), (0x29FC, 0x29FD),
    (0x2CF9, 0x2CFC), (0x2CFE, 0x2CFF), (0x2D70, 0x2D70), (0x2E00, 0x2E2E), (0x2E30, 0x2E4F), (0x2E52, 0x2E5D),
    (0x3000, 0x3003), (0x3008, 0x3011), (0x3014, 0x301F), (0x3030, 0x3030), (0x303D, 0x303D), (0x30A0, 0x30A0),
    (0x30FB, 0x30FB), (0xA4FE, 0xA4FF), (0xA60D, 0xA60F), (0xA673, 0xA673), (0xA67E, 0xA67E), (0xA6F2, 0xA6F7),
    (0xA874, 0xA877), (0xA8CE, 0xA8CF), (0xA8F8, 0xA8FA), (0xA8FC, 0xA8FC), (0xA92E, 0xA92F), (0xA95F, 0xA95F),
    (0xA9C1, 0xA9CD), (0xA9DE, 0xA9DF), (0xAA5C, 0xAA5F), (0xAADE, 0xAADF), (0xAAF0, 0xAAF1), (0xABEB, 0xABEB),
    (0xFD3E, 0xFD3F), (0xFE10, 0xFE19), (0xFE30, 0xFE52), (0xFE54, 0xFE61), (0xFE63, 0xFE63), (0xFE68, 0xFE68),
    (0xFE6A, 0xFE6B), (0xFF01, 0xFF03), (0xFF05, 0xFF0A), (0xFF0C, 0xFF0F), (0xFF1A, 0xFF1B), (0xFF1F, 0xFF20),
    (0xFF3B, 0xFF3D), (0xFF3F, 0xFF3F), (0xFF5B, 0xFF5B), (0xFF5D, 0xFF5D), (0xFF5F, 0xFF65),
    (0x10100, 0x10102), (0x1039F, 0x1039F), (0x103D0, 0x103D0), (0x1056F, 0x1056F), (0x10857, 0x10857),
    (0x1091F, 0x1091F), (0x1093F, 0x1093F), (0x10A50, 0x10A58), (0x10A7F, 0x10A7F), (0x10AF0, 0x10AF6),
    (0x10B39, 0x10B3F), (0x10B99, 0x10B9C), (0x10EAD, 0x10EAD), (0x10F55, 0x10F59), (0x10F86, 0x10F89),
    (0x11047, 0x1104D), (0x110BB, 0x110BC), (0x110BE, 0x110C1), (0x11140, 0x11143), (0x11174, 0x11175),
    (0x111C5, 0x111C8), (0x111CD, 0x111CD), (0x111DB, 0x111DB), (0x111DD, 0x111DF), (0x11238, 0x1123D),
    (0x112A9, 0x112A9), (0x1144B, 0x1144F), (0x1145A, 0x1145B), (0x1145D, 0x1145D), (0x114C6, 0x114C6),
    (0x115C1, 0x115D7), (0x11641, 0x11643), (0x11660, 0x1166C), (0x116B9, 0x116B9), (0x1173C, 0x1173E),
    (0x1183B, 0x1183B), (0x11944, 0x11946), (0x119E2, 0x119E2), (0x11A3F, 0x11A46), (0x11A9A, 0x11A9C),
    (0x11A9E, 0x11AA2), (0x11C41, 0x11C45), (0x11C70, 0x11C71), (0x11EF7, 0x11EF8), (0x11FFF, 0x11FFF),
    (0x12470, 0x12474), (0x12FF1, 0x12FF2), (0x16A6E, 0x16A6F), (0x16AF5, 0x16AF5), (0x16B37, 0x16B3B),
    (0x16B44, 0x16B44), (0x16E97, 0x16E9A), (0x16FE2, 0x16FE2), (0x1BC9F, 0x1BC9F), (0x1DA87, 0x1DA8B),
    (0x1E95E, 0x1E95F),
)

_ASCII_WORD_RANGES = ((0x30, 0x39), (0x5F, 0x5F))  # digits and "_"; letters are words too
_ASCII_ALPHA_RANGES = ((0x41, 0x5A), (0x61, 0x7A))

# Class bits of a code point.
_NONCOUNT, _CJK, _ALPHA, _WORD = 1, 2, 4, 8

# Code points classified here, or hashed and signed by dedup, at once: few enough
# that the allocator reuses a batch's temporaries instead of mapping them afresh.
# A longer text is a batch of its own in both; signing it takes more memory
# than counting it, so signing sets the peak.
BATCH_CODE_POINTS = 1 << 14


@functools.cache
def _class_table() -> np.ndarray:
    """The class bits of every code point, one byte each (1.1 MB)."""
    import numpy as np

    table = np.zeros(0x110000, dtype=np.uint8)
    for ranges, bits in ((_NONCOUNT_RANGES, _NONCOUNT), (_CJK_RANGES, _CJK),
                         (_ASCII_WORD_RANGES, _WORD), (_ASCII_ALPHA_RANGES, _ALPHA | _WORD)):
        for lo, hi in ranges:
            table[lo : hi + 1] |= bits
    return table


class CharCounts(NamedTuple):
    """The counts of each text of a batch, as int64 arrays in batch order."""

    tokens: np.ndarray  # CJK ideographs plus runs of ASCII word characters
    cjk: np.ndarray  # CJK ideographs
    ascii_alpha: np.ndarray  # ASCII letters
    countable: np.ndarray  # code points that are neither whitespace nor punctuation


def runs(items: Iterable, size: Callable[..., int], limit: int) -> Iterator[list]:
    """The items in order, in runs whose sizes sum to at most `limit`; an item
    larger than `limit` is a run of its own. A run closes when its next item
    would overflow it, so at most one item past the run yielded is pulled."""
    run = []
    total = 0
    for item in items:
        n = size(item)
        if run and total + n > limit:
            yield run
            run, total = [], 0
        run.append(item)
        total += n
    if run:
        yield run


def char_counts(texts: Sequence[str]) -> CharCounts:
    """Count the classes of every text of `texts` with one table lookup per
    code point, a batch at a time: the non-empty texts in `runs` of at most
    BATCH_CODE_POINTS code points, a longer text a batch of its own.

    A word run starts at an ASCII word character that does not follow another
    in the same text, so an ideograph ends a word as a space would, and two
    texts never share one. A lone surrogate (a JSON escape can make one) is a
    countable code point of no other class.
    """
    import numpy as np

    table = _class_table()
    sums = np.zeros((4, len(texts)), dtype=np.int64)  # non-countable, CJK, ASCII letters, word runs
    # an empty text stays out: np.add.reduceat gives an empty segment the value at its start
    pairs = ((i, text) for i, text in enumerate(texts) if text)
    for run in runs(pairs, lambda pair: len(pair[1]), BATCH_CODE_POINTS):
        owners, batch = zip(*run)
        codes = np.frombuffer("".join(batch).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        classes = table.take(codes)
        starts = np.array(list(accumulate(map(len, batch[:-1]), initial=0)))
        word = (classes & _WORD).astype(bool)
        follows_word = np.empty_like(word)
        follows_word[1:] = word[:-1]
        follows_word[starts] = False
        masks = ((classes & _NONCOUNT).astype(bool), (classes & _CJK).astype(bool),
                 (classes & _ALPHA).astype(bool), word & ~follows_word)
        sums[:, list(owners)] = [np.add.reduceat(mask, starts, dtype=np.int64) for mask in masks]
    noncount, cjk, alpha, words = sums
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    return CharCounts(tokens=cjk + words, cjk=cjk, ascii_alpha=alpha, countable=lengths - noncount)


def count_tokens_batch(texts: Sequence[str]) -> list[int]:
    """`count_tokens` of every text of `texts`, counted as one batch."""
    return char_counts(texts).tokens.tolist()


def count_tokens(text: str) -> int:
    """One token per CJK ideograph, one per contiguous run of ASCII word
    characters ([A-Za-z0-9_]); an ideograph ends a word as a space would."""
    return count_tokens_batch([text])[0]
