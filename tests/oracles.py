"""Reference implementations the tests check the program against. None of
them is called by renokit itself."""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from renokit.dedup import DedupConfig, DupPair, jaccard, shingle
from renokit.evalharness import SPLIT_DEV, DatasetEntry, MCQDataset, MCQItem, _exemplars
from renokit.ingest import Document


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
