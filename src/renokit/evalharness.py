"""Multi-choice evaluation: prompt building, answer extraction, accuracy reports.

Items are prompted exactly once, zero- or few-shot, with exemplars drawn from
the dev split in dataset order and never from the scored item itself.
Abstentions (no option letter found) score as incorrect so denominators stay
equal to the dataset counts. Reported percentages are always
round(10000 * correct / total) / 100.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .endpoint import ChatClient, EndpointConfig, Transport
from .errors import (
    DatasetMismatch,
    EndpointError,
    ExemplarLeakage,
    ExemplarShortfall,
    SchemaError,
)
from .jsonl import read_jsonl, write_json
from .sftgen import MCQItem

EXTRACT_LETTER = "letter_regex"

SPLIT_DEV = "dev"
SPLIT_TEST = "test"

ABSTAIN = "abstain"

HEADER = "以下是选择题，请从给定选项中选出唯一正确的答案。"

_CONVENTION_NOTES = (
    "answer extraction: first standalone option letter (convention, not prescribed)",
    "few-shot exemplars: first k dev-split items in dataset order (convention, not prescribed)",
)


def round_pct(correct: int, total: int) -> float:
    """Percentage with the documented rounding rule: round(10000*c/t)/100."""
    if total == 0:
        return 0.0
    return round(10000 * correct / total) / 100


@dataclass(frozen=True)
class DatasetEntry:
    item_id: str
    item: MCQItem
    split: str | None = None


@dataclass
class MCQDataset:
    name: str
    entries: list[DatasetEntry]

    def __post_init__(self):
        if not self.entries:
            raise SchemaError(f"dataset {self.name!r} has no items")

    def __len__(self) -> int:
        return len(self.entries)

    def split_entries(self, split: str) -> list[DatasetEntry]:
        return [e for e in self.entries if e.split == split]

    def stats(self) -> dict:
        per_difficulty: dict[str, dict] = {}
        for entry in self.entries:
            bucket = per_difficulty.setdefault(entry.item.difficulty, {"questions": 0, "subclasses": set()})
            bucket["questions"] += 1
            bucket["subclasses"].add(entry.item.subclass)
        table = {
            d: {"subclasses": len(v["subclasses"]), "questions": v["questions"]}
            for d, v in per_difficulty.items()
        }
        return {
            "per_difficulty": table,
            "subclasses": sum(v["subclasses"] for v in table.values()),
            "total": len(self.entries),
        }


def load_dataset(path: str | Path, name: str | None = None) -> MCQDataset:
    """Load and validate an MCQ JSONL file; schema errors carry line numbers."""
    path = Path(path)
    entries: list[DatasetEntry] = []
    for lineno, obj in read_jsonl(path):
        try:
            item = MCQItem.from_dict(obj)
        except SchemaError as exc:
            raise SchemaError(f"{path}: line {lineno}: {exc}", line=lineno) from None
        split = obj.get("split")
        if split not in (None, SPLIT_DEV, SPLIT_TEST):
            raise SchemaError(f"{path}: line {lineno}: bad split {split!r}", line=lineno)
        item_id = str(obj.get("id") or f"{path.stem}-{lineno:04d}")
        entries.append(DatasetEntry(item_id=item_id, item=item, split=split))
    return MCQDataset(name=name or path.stem, entries=entries)


# --- prompt construction -------------------------------------------------------


def format_item_block(item: MCQItem, answer: str | None = None) -> str:
    lines = [item.question]
    for letter in sorted(item.options):
        lines.append(f"{letter}. {item.options[letter]}")
    lines.append(f"答案：{answer}" if answer is not None else "答案：")
    return "\n".join(lines)


def build_prompt(item: MCQItem, exemplars: Sequence[MCQItem], k: int) -> list[dict]:
    """Instruction header, k worked exemplar blocks, then the target block."""
    if k < 0:
        raise ValueError("shot count must be >= 0")
    if len(exemplars) < k:
        raise ExemplarShortfall(f"need {k} exemplars, have {len(exemplars)}")
    chosen = list(exemplars[:k])
    for ex in chosen:
        if ex.question == item.question and ex.options == item.options:
            raise ExemplarLeakage(f"scored item appears among exemplars: {item.question[:40]!r}")
    blocks = [HEADER]
    blocks.extend(format_item_block(ex, ex.correct_option) for ex in chosen)
    blocks.append(format_item_block(item))
    return [{"role": "user", "content": "\n\n".join(blocks)}]


def select_exemplars(dataset: MCQDataset, entry: DatasetEntry, k: int) -> list[MCQItem]:
    """First k dev-split items in dataset order, skipping the scored item."""
    pool = [e.item for e in dataset.split_entries(SPLIT_DEV) if e.item_id != entry.item_id]
    if len(pool) < k:
        raise ExemplarShortfall(f"dev pool has {len(pool)} items, need {k}")
    return pool[:k]


# --- answer extraction -----------------------------------------------------------


def _standalone_at(raw: str, i: int) -> bool:
    prev = raw[i - 1] if i > 0 else ""
    nxt = raw[i + 1] if i + 1 < len(raw) else ""
    embedded = (prev.isascii() and prev.isalnum()) or (nxt.isascii() and nxt.isalnum())
    return not embedded


def extract_answer(raw: str, options: dict[str, str]) -> str | None:
    """Option letter or None (abstain): the first option-key letter scanning
    left to right that is not embedded in a longer ASCII word."""
    keys = set(options)
    for i, ch in enumerate(raw):
        if ch in keys and _standalone_at(raw, i):
            return ch
    return None


# --- evaluation run ----------------------------------------------------------------


@dataclass
class EvalRunConfig:
    shots: int = 5
    seed: int = 0
    endpoint: EndpointConfig | None = None

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError("shots must be >= 0")

    def echo(self) -> dict:
        return {
            "shots": self.shots,
            "exemplar_source": SPLIT_DEV,
            "extraction": EXTRACT_LETTER,
            "seed": self.seed,
            "model": self.endpoint.model_name if self.endpoint else None,
        }


@dataclass
class EvalReport:
    dataset: str
    items_total: int
    config: dict
    per_item: list[dict]
    per_category: dict[str, dict]
    overall_micro: float
    overall_macro: float
    degraded: bool = False
    labels: dict = field(default_factory=dict)
    notes: tuple[str, ...] = _CONVENTION_NOTES

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "items_total": self.items_total,
            "config": self.config,
            "labels": dict(self.labels),
            "notes": list(self.notes),
            "overall_micro": self.overall_micro,
            "overall_macro": self.overall_macro,
            "degraded": self.degraded,
            "per_category": self.per_category,
            "per_item": self.per_item,
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def _assemble_report(dataset: MCQDataset, cfg: EvalRunConfig, rows: list[dict], degraded: bool, labels: dict) -> EvalReport:
    rows = sorted(rows, key=lambda r: r["item_id"])
    category_of = {e.item_id: e.item.category for e in dataset.entries}
    by_category: dict[str, list[bool]] = {}
    for row in rows:
        by_category.setdefault(category_of[row["item_id"]], []).append(row["correct"])
    per_category = {
        cat: {
            "correct": sum(flags),
            "total": len(flags),
            "accuracy": round_pct(sum(flags), len(flags)),
        }
        for cat, flags in sorted(by_category.items())
    }
    correct_total = sum(1 for r in rows if r["correct"])
    macro_mean = sum(v["correct"] / v["total"] for v in per_category.values()) / len(per_category)
    return EvalReport(
        dataset=dataset.name,
        items_total=len(rows),
        config=cfg.echo(),
        per_item=rows,
        per_category=per_category,
        overall_micro=round_pct(correct_total, len(rows)),
        overall_macro=round(10000 * macro_mean) / 100,
        degraded=degraded,
        labels=labels,
    )


def run_eval(
    dataset: MCQDataset,
    cfg: EvalRunConfig,
    transport: Transport | None = None,
    labels: dict | None = None,
) -> EvalReport:
    """Prompt every item once and aggregate micro/macro accuracies.

    Endpoint failures that survive retries mark the item as an abstention and
    flag the report as degraded instead of aborting the run.
    """
    if cfg.endpoint is None:
        raise ValueError("run_eval needs cfg.endpoint")

    def score(entry: DatasetEntry) -> dict:
        exemplars = select_exemplars(dataset, entry, cfg.shots) if cfg.shots else []
        messages = build_prompt(entry.item, exemplars, cfg.shots)
        error = None
        extracted = None
        try:
            raw = client.complete(messages).text
            extracted = extract_answer(raw, entry.item.options)
        except EndpointError as exc:
            error = str(exc)
            raw = f"<endpoint error: {error}>"
        return {
            "item_id": entry.item_id,
            "raw_response": raw,
            "extracted": extracted if extracted is not None else ABSTAIN,
            "correct": extracted == entry.item.correct_option,
            "error": error,
        }

    with closing(ChatClient(cfg.endpoint, transport)) as client, \
            ThreadPoolExecutor(max_workers=cfg.endpoint.concurrency_limit) as pool:
        rows = list(pool.map(score, dataset.entries))
    degraded = any(r["error"] is not None for r in rows)
    for row in rows:
        row.pop("error")
    return _assemble_report(dataset, cfg, rows, degraded, labels or {})


def best_of_settings(reports: Sequence[EvalReport]) -> EvalReport:
    """Report with the highest overall micro accuracy; ties go to fewer shots."""
    if not reports:
        raise ValueError("need at least one report")
    first = reports[0]
    for rep in reports[1:]:
        if rep.dataset != first.dataset or rep.items_total != first.items_total:
            raise DatasetMismatch(
                f"{rep.dataset}({rep.items_total}) vs {first.dataset}({first.items_total})"
            )
    return max(reports, key=lambda r: (r.overall_micro, -r.config.get("shots", 0)))


# --- sweep tables ------------------------------------------------------------------


def sweep_report(rows: Sequence[dict]) -> tuple[list[dict], str]:
    """Render ratio-sweep rows into CSV-ready dicts and an aligned text table.

    Each row: {"model_label", "ratio_label", "scores": {dataset: value}}.
    Within a model group the per-dataset maximum is flagged; ties flag all.
    """
    if not rows:
        raise ValueError("sweep needs at least one row")
    datasets: list[str] = []
    for row in rows:
        for ds in row["scores"]:
            if ds not in datasets:
                datasets.append(ds)
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row["model_label"], []).append(row)

    out_rows: list[dict] = []
    for model, members in groups.items():
        maxima = {
            ds: max((m["scores"][ds] for m in members if ds in m["scores"]), default=None)
            for ds in datasets
        }
        for m in members:
            rec: dict = {"model": model, "ratio": m["ratio_label"]}
            for ds in datasets:
                value = m["scores"].get(ds)
                rec[ds] = value
                rec[f"{ds}_best"] = value is not None and value == maxima[ds]
            out_rows.append(rec)

    headers = ["model", "ratio", *datasets]
    table_rows = [headers]
    for rec in out_rows:
        cells = [rec["model"], rec["ratio"]]
        for ds in datasets:
            if rec[ds] is None:
                cells.append("-")
            else:
                mark = "*" if rec[f"{ds}_best"] else ""
                cells.append(f"{mark}{rec[ds]:.2f}")
        table_rows.append(cells)
    widths = [max(len(str(row[i])) for row in table_rows) for i in range(len(headers))]
    lines = ["  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table_rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return out_rows, "\n".join(lines) + "\n"
