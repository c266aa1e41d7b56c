"""Reference implementations the tests check the program against, and the
one-item forms of batch calls that only the tests use. None of them is called
by renokit itself."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Sequence

import numpy as np

from renokit.dedup import (REASON_SENTENCE, DedupConfig, DupPair, compute_signatures, jaccard, normalize_for_dedup,
                           shingle, split_sentences)
from renokit.evalharness import SPLIT_DEV, DatasetEntry, MCQDataset, MCQItem, _exemplars
from renokit.errors import EmptyInput
from renokit.ingest import STATUS_DEDUPED_OUT, Document, RawRecord, _document, clean_record, normalize_whitespace
from renokit.mixer import MODE_MIP, MipRecord, MipReport, record_id, records_tokens, render_instruction_text
from renokit.tokenizers import count_tokens, count_tokens_batch


def brute_force_pairs(docs: Sequence[Document], cfg: DedupConfig) -> list[DupPair]:
    """All-pairs exact-Jaccard oracle of the near-dup pass; quadratic."""
    shingle_sets = [(d.doc_id, shingle(d, cfg.ngram)) for d in sorted(docs, key=lambda d: d.doc_id)]
    pairs: list[DupPair] = []
    for (id_a, a), (id_b, b) in combinations([(i, s) for i, s in shingle_sets if s.size], 2):
        j = jaccard(a, b)
        if j >= cfg.jaccard_threshold:
            pairs.append(DupPair(id_a, id_b, j))
    return pairs


def sentence_dedup_by_strings(docs: Sequence[Document], cfg: DedupConfig) -> list[Document]:
    """`sentence_dedup` as a count of every normalized sentence string in one
    dict, walked in doc_id order: the body the hashed pass replaced."""
    if cfg.sentence_max_repeats is None:
        return sorted(docs, key=lambda d: d.doc_id)
    cap = cfg.sentence_max_repeats
    seen: dict[str, int] = {}
    survivors: list[Document] = []
    rewritten: list[Document] = []
    for doc in sorted(docs, key=lambda d: d.doc_id):
        if cfg.sentence_scope == "document":
            seen = {}
        parts = split_sentences(doc.text)
        kept_parts: list[str] = []
        for part, key in zip(parts, map(" ".join, map(str.split, parts))):
            if key:
                count = seen[key] = seen.get(key, 0) + 1
                if count > cap:
                    continue
            kept_parts.append(part)
        if len(kept_parts) < len(parts):
            rewritten.append(doc)
            doc.text = normalize_whitespace("".join(kept_parts))
            doc.char_count = len(doc.text)
        if not doc.text:
            doc.mark(STATUS_DEDUPED_OUT, REASON_SENTENCE)
        else:
            survivors.append(doc)
    if not rewritten:
        return survivors
    for doc, tokens in zip(rewritten, count_tokens_batch([d.text for d in rewritten])):
        doc.token_count = tokens
    return keep_first_by_groups(survivors, REASON_SENTENCE)


def keep_first_by_groups(docs: Sequence[Document], reason: str) -> list[Document]:
    """`dedup._keep_first` as one list of documents per normalized text, each
    sorted by doc_id, whose first survives: the body the single walk replaced."""
    groups: dict[str, list[Document]] = {}
    for doc in docs:
        groups.setdefault(normalize_for_dedup(doc.text), []).append(doc)
    survivors: list[Document] = []
    for members in groups.values():
        members.sort(key=lambda d: d.doc_id)
        survivors.append(members[0])
        for doc in members[1:]:
            doc.mark(STATUS_DEDUPED_OUT, reason)
    survivors.sort(key=lambda d: d.doc_id)
    return survivors


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


def build_mip_held(
    domain_pretrain: Sequence[dict],
    domain_instructions: Sequence[dict],
    seed: int,
) -> tuple[list[dict], MipReport]:
    """`build_mip` with every row built up front, as a `MipRecord` and its dict, then shuffled."""
    if not domain_pretrain or not domain_instructions:
        raise EmptyInput("instruction pretraining needs both pretrain docs and instruction samples")
    pretrain = [MipRecord(record_id(rec), rec["text"], "pretrain") for rec in domain_pretrain]
    instructions = [MipRecord(record_id(rec), render_instruction_text(rec["turns"]), "instruction")
                    for rec in domain_instructions]
    total_tokens = sum(records_tokens(domain_pretrain)) + sum(count_tokens_batch([r.text for r in instructions]))
    records = [r.to_dict() for r in pretrain + instructions]
    random.Random(seed).shuffle(records)
    report = MipReport(mode=MODE_MIP, seed=seed, pretrain_count=len(pretrain), instruction_count=len(instructions),
                       total_tokens=total_tokens)
    return records, report
