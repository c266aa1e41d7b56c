"""Reference implementations the tests check the program against, and the
one-item forms of batch calls that only the tests use. None of them is called
by renokit itself."""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from renokit.dedup import DedupConfig, DupPair, compute_signatures, jaccard, shingle
from renokit.evalharness import SPLIT_DEV, DatasetEntry, MCQDataset, MCQItem, _exemplars
from renokit.ingest import Document, RawRecord, _document, clean_record
from renokit.tokenizers import count_tokens


def brute_force_pairs(docs: Sequence[Document], cfg: DedupConfig) -> list[DupPair]:
    """All-pairs exact-Jaccard oracle of the near-dup pass; quadratic."""
    shingle_sets = [(d.doc_id, shingle(d, cfg.ngram)) for d in sorted(docs, key=lambda d: d.doc_id)]
    pairs: list[DupPair] = []
    for (id_a, a), (id_b, b) in combinations([(i, s) for i, s in shingle_sets if s.size], 2):
        j = jaccard(a, b)
        if j >= cfg.jaccard_threshold:
            pairs.append(DupPair(id_a, id_b, j))
    return pairs


def select_exemplars(dataset: MCQDataset, entry: DatasetEntry, k: int) -> list[MCQItem]:
    """First k dev-split items in dataset order whose question and options differ from the scored item's."""
    return _exemplars(dataset.split_entries(SPLIT_DEV), entry.item, k)


def sign_rows(rows: Sequence[np.ndarray], cfg: DedupConfig) -> np.ndarray:
    """`compute_signatures` of one hash array per row."""
    return compute_signatures(np.concatenate([np.empty(0, dtype=np.uint64), *rows]), cfg, [len(r) for r in rows])


def extract_text(record: RawRecord) -> Document:
    """The document of one raw record, as `ingest_stream` makes it; raises as `clean_record` does."""
    text = clean_record(record)
    return _document(text, record.source_kind, count_tokens(text))
