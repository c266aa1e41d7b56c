"""Article- and sentence-level deduplication.

Article level runs in two passes: exact duplicates on whitespace-normalized
text, then near-duplicates found by MinHash + LSH banding. Every LSH candidate
pair is verified with the exact Jaccard similarity of the full shingle sets
before anything is collapsed, so reported pairs are never false positives.
Survivors are always the lexicographically smallest doc_id of a duplicate
group, which makes the output independent of input order.

Each step has one implementation. `_hashed_batches` hashes documents in
doc_id order, in `tokenizers.runs` of at most `tokenizers.BATCH_CODE_POINTS`
code points, as one UTF-32 array (`gram_hashes_batch`): sized in code points,
not documents, a batch of long chapters keeps its temporaries in cache as one
of short pages does. Each batch is signed from every gram hash, repeats
included, by one `compute_signatures` call, whose rows go into one block
allocated once per pass. LSH bucketing sorts each band's rows by a 64-bit
key folded from the band and compares whole bands only within runs of equal
keys. `_sets` builds a batch's sorted, unique shingle sets, for the documents
of candidate pairs and for `shingle`. `_keep_first` walks the documents once in
doc_id order and keeps the first of each text, in the exact pass and after
sentence rewrites; in the exact pass it refuses a doc_id that names two texts.

The sentence pass holds numbers per sentence, never strings: `_sentences`
splits the documents, in doc_id order and in the same `runs`, and keeps the
`hash` of each sentence's whitespace-normalized key, whether the key is
empty, and the sentence's length. A key whose hash occurs at most
sentence_max_repeats times is kept unread; only the occurrences of the other
hashes are sliced out of their texts and counted exactly by their strings
(CCNet, Wenzek et al., 2020, likewise keeps hashes of normalized lines).
Python salts `str` hashes per process, but a hash only picks what is read,
so the output is the same in every process, even if all hashes collide.

The tests measure the recall of the LSH path against an O(n^2) all-pairs
oracle on small corpora.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptyShingleSet, SchemaError
from .ingest import Document, STATUS_DEDUPED_OUT, STATUS_RETAINED, normalize_whitespace
from .jsonl import Record
from .tokenizers import BATCH_CODE_POINTS, count_tokens_batch, runs

REASON_EXACT = "exact"
REASON_NEAR = "near"
REASON_SENTENCE = "sentence"

# splitmix64's increment; also the (odd) base of the shingle polynomial
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_EMPTY_BIN = np.uint64((1 << 64) - 1)


def normalize_for_dedup(text: str) -> str:
    """Collapse all whitespace runs so spacing variants compare equal."""
    return " ".join(text.split())


@dataclass
class DedupConfig:
    ngram: int = 5
    num_perm: int = 256
    jaccard_threshold: float = 0.8
    lsh_bands: int = 32
    lsh_rows: int = 8
    sentence_max_repeats: int | None = 2
    sentence_scope: str = "corpus"  # or "document"
    seed: int = 1

    def __post_init__(self):
        for name in ("num_perm", "lsh_bands", "lsh_rows"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
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

    def candidate_prob(self, j: float) -> float:
        """Chance that a pair of Jaccard similarity `j` shares at least one
        whole band: the banding's S-curve 1 - (1 - j^rows)^bands."""
        return 1.0 - (1.0 - j**self.lsh_rows) ** self.lsh_bands


@dataclass(frozen=True)
class DupPair(Record):
    a: str
    b: str
    jaccard: float


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 of each value, in wrapping uint64 arithmetic: a bijection
    whose every output bit depends on every input bit; the shifts share one scratch array."""
    z = x + _GAMMA
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, 30, out=shifted)
    z *= 0xBF58476D1CE4E5B9
    z ^= np.right_shift(z, 27, out=shifted)
    z *= 0x94D049BB133111EB
    z ^= np.right_shift(z, 31, out=shifted)
    return z


def gram_hashes_batch(texts: Sequence[str], ngram: int = 5) -> tuple[np.ndarray, list[int]]:
    """uint64 hashes of the character n-grams of texts already passed through
    `normalize_for_dedup`, one per position, repeats kept, text after text;
    and how many each text has.

    The texts are encoded as one UTF-32 array, and each gram, a polynomial in
    its code points, is evaluated at every position at once, then finished
    with splitmix64; a gram that runs past the end of its own text is dropped.
    The polynomial starts from the gram width, so a leading U+0000 still
    changes the hash. A text shorter than the n-gram width gives a single
    whole-text hash, so only an empty text has none.
    """
    lengths = [len(text) for text in texts]
    total = sum(lengths)
    # When no text is as long as a gram, no position keeps one, so nothing is
    # padded or looped over. That also bounds the work by the batch: a valid
    # but huge `ngram` (10**9) would otherwise pad and loop `ngram` times.
    width = ngram if ngram <= max(lengths, default=0) else 0
    # width - 1 padding code points let every position start a whole gram
    codes = np.frombuffer(("".join(texts) + "\0" * (width - 1)).encode("utf-32-le"), np.uint32)
    sums = np.full(total, width, dtype=np.uint64)
    for k in range(width):
        sums *= _GAMMA
        sums += codes[k : k + total]
    del codes  # freed before splitmix64, whose input, output and scratch are then the only full-size arrays
    starts = list(accumulate(lengths, initial=0))
    for text, start in zip(texts, starts):
        if 0 < len(text) < ngram:
            sums[start] = _polynomial(text)
    counts = [max(n - ngram + 1, int(n > 0)) for n in lengths]
    hashes = _mix64(sums)
    return np.concatenate([hashes[:0], *(hashes[s : s + c] for s, c in zip(starts, counts))]), counts


def _polynomial(gram: str) -> int:
    """A gram's polynomial in its code points, started from its width, in uint64 arithmetic."""
    value = len(gram)
    for ch in gram:
        value = (value * int(_GAMMA) + ord(ch)) & 0xFFFFFFFFFFFFFFFF
    return value


def _sets(hashes: np.ndarray, counts: Sequence[int]) -> list[np.ndarray]:
    """The shingle set of each text from the flat output of
    `gram_hashes_batch`: each text's slice is sorted in place, one pass over
    the whole array drops the repeats within each text, and every set is a
    view of one array; a text with no hashes has an empty set."""
    starts = list(accumulate(counts, initial=0))
    for start, end in zip(starts, starts[1:]):
        hashes[start:end].sort()
    # Repeats are neighbours once sorted (not np.unique, whose first call
    # imports numpy.ma). first[i]: hashes[i] is kept; the extra last entry
    # stands for the end, so that texts with no hashes at the end have a start.
    first = np.empty(hashes.size + 1, dtype=bool)
    np.not_equal(hashes[1:], hashes[:-1], out=first[1:-1])
    first[starts] = True  # a text's smallest hash is kept even if the text before ends with it
    kept, bounds = hashes[first[:-1]], (np.cumsum(first)[starts] - 1).tolist()
    return [kept[start:end] for start, end in zip(bounds, bounds[1:])]


def shingle(doc: Document, ngram: int = 5) -> np.ndarray:
    """The shingle set: the sorted, unique gram hashes of one document."""
    return _sets(*gram_hashes_batch([normalize_for_dedup(doc.text)], ngram))[0]


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard similarity of two shingle arrays from `shingle`."""
    if not a.size or not b.size:
        raise EmptyShingleSet("jaccard of an empty shingle array")
    inter = len(np.intersect1d(a, b, assume_unique=True))
    return inter / (len(a) + len(b) - inter)


# --- exact pass ---------------------------------------------------------------


def _keep_first(docs: Sequence[Document], reason: str) -> list[Document]:
    """Walk `docs` in doc_id order and keep the first of each text, compared
    after whitespace normalization; the others are marked deduped_out(`reason`)
    in place. Survivors are returned sorted by doc_id.

    In the exact pass a doc_id must name one text, byte for byte, as
    `doc_id_for` hashes it. The sort is stable, so the documents that share a
    doc_id are adjacent, and two of them with different texts, even texts that
    differ only in whitespace, would survive in input order: that raises
    SchemaError. A sentence rewrite keeps the doc_id of the text before it, so
    that pass is not checked."""
    seen: set[str] = set()
    survivors: list[Document] = []
    last_id = last_text = None
    for doc in sorted(docs, key=lambda d: d.doc_id):
        if reason == REASON_EXACT and doc.doc_id == last_id and doc.text != last_text:
            raise SchemaError(f"doc_id {doc.doc_id} names two different texts")
        last_id, last_text = doc.doc_id, doc.text
        text = normalize_for_dedup(doc.text)
        if text in seen:
            doc.mark(STATUS_DEDUPED_OUT, reason)
        else:
            seen.add(text)
            survivors.append(doc)
    return survivors


def exact_dedup(docs: Sequence[Document]) -> list[Document]:
    """Collapse byte-equal (after whitespace normalization) duplicates.

    Dropped docs are marked deduped_out(exact) in place; survivors are
    returned sorted by doc_id.
    """
    return _keep_first(docs, REASON_EXACT)


# --- MinHash / LSH pass --------------------------------------------------------


def compute_signatures(hashes: np.ndarray, cfg: DedupConfig, counts: Sequence[int]) -> np.ndarray:
    """MinHash signatures: one row of cfg.num_perm values per row of `hashes`,
    a flat array that holds the first row's `counts[0]` values, then the next
    row's, and so on.

    One-permutation hashing (Li, Owen & Zhang, 2012): each shingle is hashed
    once with the seed; the high 32 bits pick its bin by multiply-shift and
    the low 32 bits are its value, and each bin keeps its minimum. All rows
    are signed by one `np.minimum.at` into the flat signature block. Empty
    bins are then filled by rotation (Shrivastava & Li, 2014; see `_densify`).
    A bin keeps a minimum, so neither order nor repeats change a row, and a
    text's raw gram hashes sign as its `shingle` set does.
    """
    counts = np.asarray(counts, dtype=np.intp)
    if not counts.all():
        raise EmptyShingleSet("cannot sign an empty shingle array")
    key = _mix64(np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
    mixed = _mix64(hashes ^ key)
    slots = mixed >> 32
    slots *= cfg.num_perm
    slots >>= 32
    slots += np.repeat(np.arange(counts.size, dtype=np.uint64) * np.uint64(cfg.num_perm), counts)
    mixed &= 0xFFFFFFFF
    signatures = np.full(counts.size * cfg.num_perm, _EMPTY_BIN, dtype=np.uint64)
    np.minimum.at(signatures, slots, mixed)
    return _densify(signatures.reshape(counts.size, cfg.num_perm))


def _densify(signatures: np.ndarray) -> np.ndarray:
    """Each empty bin takes the value of the nearest non-empty bin to its
    right, wrapping round the row, plus its distance << 32, so borrowed
    values never equal values of their own."""
    empty = signatures == _EMPTY_BIN
    num_bins = signatures.shape[1]
    bins = np.arange(num_bins)
    # An empty bin points past the row end to the row's first non-empty bin;
    # a running minimum from the right then finds the nearest one.
    source = np.where(empty, (empty.argmin(axis=1) + num_bins)[:, None], bins)
    source = np.minimum.accumulate(source[:, ::-1], axis=1)[:, ::-1]
    distance = (source - bins).astype(np.uint64)
    return np.take_along_axis(signatures, source % num_bins, axis=1) + (distance << 32)


def _hashed_batches(docs: Sequence[Document], ngram: int) -> Iterator[tuple[list[Document], np.ndarray, list[int]]]:
    """The documents in `runs` of at most BATCH_CODE_POINTS code points of
    `normalize_for_dedup` text, each run with the `gram_hashes_batch` hashes
    and counts of its texts. `map` keeps no run once hashed, so one run of
    normalized text is alive at a time."""

    def hashed(run):
        return [doc for doc, _ in run], *gram_hashes_batch([text for _, text in run], ngram)

    pairs = ((doc, normalize_for_dedup(doc.text)) for doc in docs)
    return map(hashed, runs(pairs, lambda pair: len(pair[1]), BATCH_CODE_POINTS))


def _sign_in_batches(docs: Sequence[Document], cfg: DedupConfig) -> tuple[list[Document], np.ndarray]:
    """The documents that have gram hashes, in the given order, and their
    signature rows, one `compute_signatures` call per batch, written into one
    block that has a row for every document."""
    usable: list[Document] = []
    signatures = np.empty((len(docs), cfg.num_perm), dtype=np.uint64)
    for batch, hashes, counts in _hashed_batches(docs, cfg.ngram):
        start = len(usable)
        usable.extend(doc for doc, count in zip(batch, counts) if count)
        signatures[start : len(usable)] = compute_signatures(hashes, cfg, counts=[count for count in counts if count])
    return usable, signatures[: len(usable)]


def _shingle_sets(docs: Sequence[Document], ngram: int) -> dict[str, np.ndarray]:
    """The `shingle` set of each document by doc_id, built in batches."""
    return {doc.doc_id: shingles for batch, hashes, counts in _hashed_batches(docs, ngram)
            for doc, shingles in zip(batch, _sets(hashes, counts))}


def _band_keys(signatures: np.ndarray, cfg: DedupConfig) -> np.ndarray:
    """One uint64 key per row and band, shape (rows, lsh_bands): the band's
    columns folded by splitmix64, so equal band rows have equal keys."""
    bands = signatures.reshape(len(signatures), cfg.lsh_bands, cfg.lsh_rows)
    keys = _mix64(bands[:, :, 0])
    for col in range(1, cfg.lsh_rows):
        keys = _mix64(keys ^ bands[:, :, col])
    return keys


def _lsh_candidates(doc_ids: Sequence[str], signatures: np.ndarray, cfg: DedupConfig) -> set[tuple[str, str]]:
    """Pairs of the sorted `doc_ids`, which name the signature rows, that share a whole band.

    Each band's rows are sorted by their `_band_keys`, so rows with equal
    bands lie in runs of equal keys. Pairs within a run, found as equal keys
    `gap` places apart for growing gaps, are compared on the whole band, so
    keys that collide never make a candidate.
    """
    bands = signatures.reshape(len(signatures), cfg.lsh_bands, cfg.lsh_rows)
    keys = _band_keys(signatures, cfg)
    order = np.argsort(keys, axis=0)
    keys = np.take_along_axis(keys, order, axis=0)
    pairs: set[tuple[int, int]] = set()
    for gap in range(1, len(keys)):
        at, band = np.nonzero(keys[gap:] == keys[:-gap])
        if not at.size:
            break  # no run is longer than gap
        a, b = order[at, band], order[at + gap, band]
        same = (bands[a, band] == bands[b, band]).all(axis=1)
        pairs.update(zip(np.minimum(a, b)[same].tolist(), np.maximum(a, b)[same].tolist()))
    return {(doc_ids[a], doc_ids[b]) for a, b in pairs}


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


def near_dedup(docs: Sequence[Document], cfg: DedupConfig) -> tuple[list[Document], list[DupPair], int]:
    """Collapse near-duplicate articles; returns survivors, verified pairs
    and the number of LSH candidate pairs.

    Expects exact_dedup to have run already. Candidate pairs come from LSH
    banding and are kept only when their exact Jaccard reaches the
    threshold; duplicate groups are the connected components of kept pairs.
    """
    docs = sorted(docs, key=lambda d: d.doc_id)
    usable, signatures = _sign_in_batches(docs, cfg)
    candidates = _lsh_candidates([d.doc_id for d in usable], signatures, cfg)
    del signatures  # freed first, so that the shingle sets can take its memory
    members = {doc_id for pair in candidates for doc_id in pair}
    shingle_sets = _shingle_sets([d for d in usable if d.doc_id in members], cfg.ngram)
    pairs: list[DupPair] = []
    uf = _UnionFind()
    for a, b in sorted(candidates):
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
    return survivors, pairs, len(candidates)


# --- sentence pass -------------------------------------------------------------

_SENTENCE_RE = re.compile(r"[^。！？!?.\n]*[。！？!?.\n]|[^。！？!?.\n]+")


def split_sentences(text: str) -> list[str]:
    """Split after terminal punctuation or newlines, losslessly."""
    return _SENTENCE_RE.findall(text)


def _sentences(docs: Sequence[Document]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sentences of `docs`, text after text, as numbers: the `hash` of
    each one's key (its `normalize_for_dedup` text) as int64, whether the key
    is non-empty, the part's length; and how many parts each document has.
    Texts are split in `runs` of at most BATCH_CODE_POINTS code points, and
    no part or key outlives its run."""
    hashes, filled, lengths = [np.empty(0, np.int64)], [np.empty(0, bool)], [np.empty(0, np.int64)]
    counts: list[int] = []
    for run in runs(docs, lambda doc: len(doc.text), BATCH_CODE_POINTS):
        split = [split_sentences(doc.text) for doc in run]
        parts = list(chain.from_iterable(split))
        # Each key is normalize_for_dedup of its part, without a Python call per sentence.
        keys = list(map(" ".join, map(str.split, parts)))
        counts.extend(map(len, split))
        hashes.append(np.fromiter(map(hash, keys), np.int64, len(keys)))
        filled.append(np.fromiter(map(bool, keys), bool, len(keys)))
        lengths.append(np.fromiter(map(len, parts), np.int64, len(parts)))
    return _joined(hashes), _joined(filled), _joined(lengths), np.array(counts, dtype=np.int64)


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays concatenated; the list is emptied, so that its arrays are
    freed as soon as they are copied and one column at a time is held twice."""
    whole = np.concatenate(arrays)
    arrays.clear()
    return whole


def _over_cap(keys: np.ndarray, cap: int) -> np.ndarray:
    """Whether each value of `keys` occurs more than `cap` times in it: once
    sorted, such a value equals the value `cap` places on. Besides `keys`, at
    most one int64 array of its size is alive at a time."""
    ranked = np.sort(keys)
    # Each such value once, at the start of its run of equals.
    over = ranked[:-cap] == ranked[cap:]
    over[1:] &= ranked[1:-cap] != ranked[: -cap - 1]
    common = ranked[:-cap][over]
    del ranked, over  # freed before the lookup below makes its index array
    if not common.size:
        return np.zeros(keys.size, dtype=bool)
    # The looked-up values overwrite their own index array: in clip mode,
    # take reads each index before it writes that index's slot.
    at = np.searchsorted(common, keys)
    return common.take(at, out=at, mode="clip") == keys


def _without(text: str, spans: Sequence[tuple[int, int]]) -> str:
    """`text` with the sorted, disjoint `(start, end)` spans cut out."""
    kept: list[str] = []
    end = 0
    for start, stop in spans:
        kept.append(text[end:start])
        end = stop
    kept.append(text[end:])
    return "".join(kept)


def sentence_dedup(docs: Sequence[Document], cfg: DedupConfig) -> list[Document]:
    """Cap repeats of a normalized sentence across (or within) documents.

    Documents are walked in doc_id order; occurrences of a sentence beyond
    sentence_max_repeats are deleted. Rewritten docs are re-counted and keep
    their doc_id; docs emptied by deletion, and docs whose text a rewrite made
    equal (after whitespace normalization) to that of a smaller doc_id, are
    marked deduped_out(sentence).

    Sentences are held as numbers (`_sentences`), never as strings. A key
    whose hash occurs at most sentence_max_repeats times (per document, with
    sentence_scope "document") occurs no more often itself, so it is kept
    unread. Only the occurrences of the other hashes are sliced out of their
    texts again, in order, and counted exactly by their key strings; the hash
    decides what is read, the strings what is cut, so colliding or
    per-process salted hashes cannot change the output.
    """
    docs = sorted(docs, key=lambda d: d.doc_id)
    if cfg.sentence_max_repeats is None:
        return docs
    cap = cfg.sentence_max_repeats
    hashes, filled, lengths, counts = _sentences(docs)
    by_document = cfg.sentence_scope == "document"
    if by_document:
        # Each document's keys apart; a collision across documents only adds reads.
        hashes ^= _mix64(np.repeat(np.arange(len(docs), dtype=np.uint64), counts)).view(np.int64)
    visit = np.flatnonzero(_over_cap(hashes, cap) & filled)
    del hashes
    owners = np.searchsorted(np.cumsum(counts), visit, side="right")
    # Where each visited part lies in its text: its end among the texts laid
    # end to end, less the end of the texts before its own.
    text_lengths = np.fromiter((len(doc.text) for doc in docs), np.int64, len(docs))
    ends = np.cumsum(lengths)[visit] - (np.cumsum(text_lengths) - text_lengths)[owners]
    starts = ends - lengths[visit]
    cuts: dict[int, list[tuple[int, int]]] = {}
    seen: dict[str, int] = {}
    last = -1
    for owner, start, end in zip(owners.tolist(), starts.tolist(), ends.tolist()):
        if by_document and owner != last:
            seen, last = {}, owner
        key = " ".join(docs[owner].text[start:end].split())
        count = seen[key] = seen.get(key, 0) + 1
        if count > cap:
            cuts.setdefault(owner, []).append((start, end))
    survivors: list[Document] = []
    rewritten: list[Document] = []
    for i, doc in enumerate(docs):
        if i in cuts:
            rewritten.append(doc)
            doc.text = normalize_whitespace(_without(doc.text, cuts[i]))
            doc.char_count = len(doc.text)
        if not doc.text:
            doc.mark(STATUS_DEDUPED_OUT, REASON_SENTENCE)
        else:
            survivors.append(doc)
    if not rewritten:
        return survivors
    for doc, tokens in zip(rewritten, count_tokens_batch([d.text for d in rewritten])):
        doc.token_count = tokens
    # The exact pass left no two equal texts, but a rewrite can make one.
    return _keep_first(survivors, REASON_SENTENCE)


# --- full stage ----------------------------------------------------------------


@dataclass
class DedupReport(Record):
    input: int = 0
    retained: int = 0
    dropped: dict[str, int] = field(default_factory=lambda: {REASON_EXACT: 0, REASON_NEAR: 0, REASON_SENTENCE: 0})
    tokens_in: int = 0
    tokens_out: int = 0
    pairs: int = 0
    lsh_candidates: int = 0
    candidate_prob_at_threshold: float = 0.0


def run_dedup(docs: Sequence[Document], cfg: DedupConfig) -> tuple[list[Document], list[DupPair], DedupReport]:
    """Exact, near, then sentence dedup; survivors become status=retained."""
    report = DedupReport(input=len(docs), tokens_in=sum(d.token_count for d in docs),
                         candidate_prob_at_threshold=cfg.candidate_prob(cfg.jaccard_threshold))
    stage1 = exact_dedup(docs)
    report.dropped[REASON_EXACT] = len(docs) - len(stage1)
    stage2, pairs, report.lsh_candidates = near_dedup(stage1, cfg)
    report.dropped[REASON_NEAR] = len(stage1) - len(stage2)
    report.pairs = len(pairs)
    stage3 = sentence_dedup(stage2, cfg)
    report.dropped[REASON_SENTENCE] = len(stage2) - len(stage3)
    for doc in stage3:
        doc.mark(STATUS_RETAINED)
    report.retained = len(stage3)
    report.tokens_out = sum(d.token_count for d in stage3)
    return stage3, pairs, report

