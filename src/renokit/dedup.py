"""Article- and sentence-level deduplication.

Article level runs in two passes: exact duplicates on whitespace-normalized
text, then near-duplicates found by MinHash + LSH banding. Every LSH candidate
pair is verified with the exact Jaccard similarity of the full shingle sets
before anything is collapsed, so reported pairs are never false positives.
Survivors are always the lexicographically smallest doc_id of a duplicate
group, which makes the output independent of input order.

`brute_force_pairs` is the O(n^2) oracle used to measure the recall of the
LSH path on small corpora.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyShingleSet
from .ingest import Document, STATUS_DEDUPED_OUT, STATUS_RETAINED, normalize_whitespace
from .jsonl import config_from_dict
from .tokenizers import count_tokens

REASON_EXACT = "exact"
REASON_NEAR = "near"
REASON_SENTENCE = "sentence"

_MERSENNE61 = (1 << 61) - 1
_WS_RE = re.compile(r"\s+")


def normalize_for_dedup(text: str) -> str:
    """Collapse all whitespace runs so spacing variants compare equal."""
    return _WS_RE.sub(" ", text).strip()


@dataclass
class DedupConfig:
    ngram: int = 5
    num_perm: int = 128
    jaccard_threshold: float = 0.8
    lsh_bands: int = 16
    lsh_rows: int = 8
    sentence_max_repeats: int | None = 2
    sentence_scope: str = "corpus"  # or "document"
    seed: int = 1

    def __post_init__(self):
        if self.lsh_bands * self.lsh_rows != self.num_perm:
            raise ValueError(
                f"lsh_bands * lsh_rows must equal num_perm "
                f"({self.lsh_bands} * {self.lsh_rows} != {self.num_perm})"
            )
        if not 0.0 < self.jaccard_threshold <= 1.0:
            raise ValueError("jaccard_threshold must be in (0, 1]")
        if self.ngram < 1:
            raise ValueError("ngram must be >= 1")
        if self.sentence_scope not in ("corpus", "document"):
            raise ValueError(f"unknown sentence_scope {self.sentence_scope!r}")
        if self.sentence_max_repeats is not None and self.sentence_max_repeats < 1:
            raise ValueError("sentence_max_repeats must be >= 1 or null")

    @classmethod
    def from_dict(cls, obj: dict) -> "DedupConfig":
        return config_from_dict(cls, obj, "dedup config")


@dataclass(frozen=True)
class ShingleSet:
    doc_id: str
    shingles: frozenset[int]


@dataclass(frozen=True)
class MinHashSignature:
    doc_id: str
    sig: tuple[int, ...]


@dataclass(frozen=True)
class DupPair:
    a: str
    b: str
    jaccard: float

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "jaccard": self.jaccard}


def _hash64(gram: str) -> int:
    return int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big")


def shingle(doc: Document, ngram: int = 5) -> ShingleSet:
    """Character n-gram shingles of the whitespace-normalized text.

    Texts shorter than the n-gram width contribute a single whole-text
    shingle so any non-empty document always has a non-empty set.
    """
    norm = normalize_for_dedup(doc.text)
    if not norm:
        return ShingleSet(doc.doc_id, frozenset())
    if len(norm) < ngram:
        grams: Iterable[str] = (norm,)
    else:
        grams = (norm[i : i + ngram] for i in range(len(norm) - ngram + 1))
    return ShingleSet(doc.doc_id, frozenset(_hash64(g) for g in grams))


def jaccard(a: ShingleSet, b: ShingleSet) -> float:
    if not a.shingles or not b.shingles:
        raise EmptyShingleSet(f"{a.doc_id if not a.shingles else b.doc_id}")
    inter = len(a.shingles & b.shingles)
    union = len(a.shingles | b.shingles)
    return inter / union


# --- exact pass ---------------------------------------------------------------


def exact_dedup(docs: Sequence[Document]) -> list[Document]:
    """Collapse byte-equal (after whitespace normalization) duplicates.

    Dropped docs are marked deduped_out(exact) in place; survivors are
    returned sorted by doc_id.
    """
    groups: dict[str, list[Document]] = {}
    for doc in docs:
        groups.setdefault(normalize_for_dedup(doc.text), []).append(doc)
    survivors: list[Document] = []
    for members in groups.values():
        members.sort(key=lambda d: d.doc_id)
        survivors.append(members[0])
        for doc in members[1:]:
            doc.mark(STATUS_DEDUPED_OUT, REASON_EXACT)
    survivors.sort(key=lambda d: d.doc_id)
    return survivors


# --- MinHash / LSH pass --------------------------------------------------------


def _perm_coeffs(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    # a < 2^31 and folded shingles < 2^32 keep a*x + b < 2^64 (no wraparound).
    a = rng.integers(1, 1 << 31, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE61, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(shingles: ShingleSet, coeffs: tuple[np.ndarray, np.ndarray]) -> MinHashSignature:
    if not shingles.shingles:
        raise EmptyShingleSet(shingles.doc_id)
    a, b = coeffs
    xs = np.fromiter(shingles.shingles, dtype=np.uint64, count=len(shingles.shingles))
    xs &= np.uint64(0xFFFFFFFF)
    vals = (a[:, None] * xs[None, :] + b[:, None]) % np.uint64(_MERSENNE61)
    return MinHashSignature(shingles.doc_id, tuple(int(v) for v in vals.min(axis=1)))


def compute_signatures(shingle_sets: Sequence[ShingleSet], cfg: DedupConfig) -> list[MinHashSignature]:
    coeffs = _perm_coeffs(cfg.num_perm, cfg.seed)
    return [minhash_signature(s, coeffs) for s in shingle_sets]


def _lsh_candidates(signatures: Sequence[MinHashSignature], cfg: DedupConfig) -> set[tuple[str, str]]:
    candidates: set[tuple[str, str]] = set()
    for band in range(cfg.lsh_bands):
        lo = band * cfg.lsh_rows
        hi = lo + cfg.lsh_rows
        buckets: dict[tuple[int, ...], list[str]] = {}
        for sig in signatures:
            buckets.setdefault(sig.sig[lo:hi], []).append(sig.doc_id)
        for members in buckets.values():
            if len(members) < 2:
                continue
            members.sort()
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    candidates.add((members[i], members[j]))
    return candidates


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller id becomes the root, which is also the survivor
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def near_dedup(docs: Sequence[Document], cfg: DedupConfig) -> tuple[list[Document], list[DupPair]]:
    """Collapse near-duplicate articles; returns survivors and verified pairs.

    Expects exact_dedup to have run already. Candidate pairs come from LSH
    banding and are kept only when their exact Jaccard reaches the
    threshold; duplicate groups are the connected components of kept pairs.
    """
    docs = sorted(docs, key=lambda d: d.doc_id)
    shingle_sets = {d.doc_id: shingle(d, cfg.ngram) for d in docs}
    usable = [s for s in shingle_sets.values() if s.shingles]
    signatures = compute_signatures(usable, cfg)
    pairs: list[DupPair] = []
    uf = _UnionFind()
    for a, b in sorted(_lsh_candidates(signatures, cfg)):
        j = jaccard(shingle_sets[a], shingle_sets[b])
        if j >= cfg.jaccard_threshold:
            pairs.append(DupPair(a, b, j))
            uf.union(a, b)
    survivors: list[Document] = []
    for doc in docs:
        root = uf.find(doc.doc_id)
        if root != doc.doc_id:
            doc.mark(STATUS_DEDUPED_OUT, REASON_NEAR)
        else:
            survivors.append(doc)
    return survivors, pairs


def brute_force_pairs(docs: Sequence[Document], cfg: DedupConfig) -> list[DupPair]:
    """All-pairs exact-Jaccard oracle; quadratic, for verification only."""
    docs = sorted(docs, key=lambda d: d.doc_id)
    shingle_sets = [shingle(d, cfg.ngram) for d in docs]
    pairs: list[DupPair] = []
    for i in range(len(docs)):
        if not shingle_sets[i].shingles:
            continue
        for k in range(i + 1, len(docs)):
            if not shingle_sets[k].shingles:
                continue
            j = jaccard(shingle_sets[i], shingle_sets[k])
            if j >= cfg.jaccard_threshold:
                pairs.append(DupPair(shingle_sets[i].doc_id, shingle_sets[k].doc_id, j))
    return pairs


# --- sentence pass -------------------------------------------------------------

_SENTENCE_BOUNDARY = re.compile(r"(?<=[。！？!?.])|(?<=\n)")


def split_sentences(text: str) -> list[str]:
    """Split after terminal punctuation or newlines, losslessly."""
    return [part for part in _SENTENCE_BOUNDARY.split(text) if part]


def sentence_dedup(docs: Sequence[Document], cfg: DedupConfig) -> list[Document]:
    """Cap repeats of a normalized sentence across (or within) documents.

    Documents are walked in doc_id order; occurrences of a sentence beyond
    sentence_max_repeats are deleted. Rewritten docs are re-counted; docs
    emptied by deletion are marked deduped_out(sentence).
    """
    if cfg.sentence_max_repeats is None:
        return sorted(docs, key=lambda d: d.doc_id)
    cap = cfg.sentence_max_repeats
    seen: dict[str, int] = {}
    survivors: list[Document] = []
    for doc in sorted(docs, key=lambda d: d.doc_id):
        if cfg.sentence_scope == "document":
            seen = {}
        kept_parts: list[str] = []
        changed = False
        for part in split_sentences(doc.text):
            key = normalize_for_dedup(part)
            if not key:
                kept_parts.append(part)
                continue
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > cap:
                changed = True
            else:
                kept_parts.append(part)
        if changed:
            doc.text = normalize_whitespace("".join(kept_parts))
            doc.char_count = len(doc.text)
            doc.token_count = count_tokens(doc.text)
        if not doc.text:
            doc.mark(STATUS_DEDUPED_OUT, REASON_SENTENCE)
        else:
            survivors.append(doc)
    return survivors


# --- full stage ----------------------------------------------------------------


@dataclass
class DedupReport:
    input: int = 0
    retained: int = 0
    dropped: dict[str, int] = field(default_factory=lambda: {REASON_EXACT: 0, REASON_NEAR: 0, REASON_SENTENCE: 0})
    tokens_in: int = 0
    tokens_out: int = 0
    pairs: int = 0

    def to_dict(self) -> dict:
        return {
            "input": self.input,
            "retained": self.retained,
            "dropped": dict(self.dropped),
            "tokens_in": self.tokens_in,
            "tokens_out": self.tokens_out,
            "pairs": self.pairs,
        }


def run_dedup(docs: Sequence[Document], cfg: DedupConfig) -> tuple[list[Document], list[DupPair], DedupReport]:
    """Exact, near, then sentence dedup; survivors become status=retained."""
    report = DedupReport(input=len(docs), tokens_in=sum(d.token_count for d in docs))
    stage1 = exact_dedup(docs)
    report.dropped[REASON_EXACT] = len(docs) - len(stage1)
    stage2, pairs = near_dedup(stage1, cfg)
    report.dropped[REASON_NEAR] = len(stage1) - len(stage2)
    report.pairs = len(pairs)
    stage3 = sentence_dedup(stage2, cfg)
    report.dropped[REASON_SENTENCE] = len(stage2) - len(stage3)
    for doc in stage3:
        doc.mark(STATUS_RETAINED)
    report.retained = len(stage3)
    report.tokens_out = sum(d.token_count for d in stage3)
    return stage3, pairs, report


def estimate_recall(found: Iterable[DupPair], oracle: Iterable[DupPair]) -> float:
    truth = {(p.a, p.b) for p in oracle}
    if not truth:
        return 1.0
    hits = sum(1 for p in found if (p.a, p.b) in truth)
    return hits / len(truth)
