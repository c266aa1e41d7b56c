"""Multi-choice evaluation: prompt building, answer extraction, accuracy reports.

Items are prompted exactly once, zero- or few-shot, with exemplars drawn from
the dev split in dataset order, skipping every dev item whose question and
options are the scored item's.
Abstentions (no option letter found) score as incorrect so denominators stay
equal to the dataset counts. Reported percentages are always
round(10000 * correct / total) / 100.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

from .endpoint import ChatClient, EndpointConfig, Transport
from .errors import (
    ArityError,
    ConfigError,
    DatasetMismatch,
    EndpointError,
    ExemplarShortfall,
    OptionMismatch,
    SchemaError,
)
from .jsonl import Record, line_error, read_jsonl, write_json
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


def load_dataset(path: str | Path, rows: Iterable[tuple[int, dict]] | None = None) -> MCQDataset:
    """Load and validate an MCQ JSONL file; a bad row raises SchemaError with its line number.
    `rows`, the file's rows as read_jsonl yields them, saves parsing the file again."""
    path = Path(path)
    entries: list[DatasetEntry] = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path) if rows is None else rows:
        try:
            item = MCQItem.from_dict(obj)
        except (SchemaError, ArityError, OptionMismatch) as exc:
            raise line_error(path, lineno, exc) from None
        split = obj.get("split")
        if split not in (None, SPLIT_DEV, SPLIT_TEST):
            raise line_error(path, lineno, f"bad split {split!r}")
        item_id = str(obj.get("id") or f"{path.stem}-{lineno:04d}")
        if item_id in seen:
            # per-item report rows and the category map are keyed by id
            raise line_error(path, lineno, f"duplicate id {item_id!r}")
        seen.add(item_id)
        entries.append(DatasetEntry(item_id=item_id, item=item, split=split))
    return MCQDataset(name=path.stem, entries=entries)


# --- prompt construction -------------------------------------------------------


def format_item_block(item: MCQItem, answer: str | None = None) -> str:
    lines = [item.question]
    for letter in sorted(item.options):
        lines.append(f"{letter}. {item.options[letter]}")
    lines.append(f"答案：{answer}" if answer is not None else "答案：")
    return "\n".join(lines)


def build_prompt(item: MCQItem, exemplars: Sequence[MCQItem]) -> list[dict]:
    """Instruction header, one worked block per exemplar, then the target block."""
    blocks = [HEADER]
    blocks.extend(format_item_block(ex, ex.correct_option) for ex in exemplars)
    blocks.append(format_item_block(item))
    return [{"role": "user", "content": "\n\n".join(blocks)}]


def _content_key(item: MCQItem) -> tuple:
    """What makes two items the same question: an exemplar never shares it with the scored item."""
    return item.question, tuple(sorted(item.options.items()))


def check_shots(shots: Sequence[int], dataset: MCQDataset) -> None:
    """Raise ConfigError unless `shots` is a non-empty list of ints >= 0 that every
    item can be served: an item draws on every dev item but those with its content
    key (itself included), so the limit is the dev count less the largest such group."""
    if not shots or not all(type(k) is int and k >= 0 for k in shots):
        raise ConfigError(f"shots must be a non-empty list of ints >= 0, got {shots!r}")
    dev = Counter(_content_key(e.item) for e in dataset.split_entries(SPLIT_DEV))
    limit = dev.total() - max(dev[_content_key(e.item)] for e in dataset.entries)
    if max(shots) > limit:
        raise ConfigError(f"dataset {dataset.name!r} can give every item {limit} exemplars, not {max(shots)}")


def _exemplars(dev: Sequence[DatasetEntry], item: MCQItem, k: int) -> list[MCQItem]:
    """The first k of the `dev` items, in order, whose question and options differ from `item`'s."""
    key = _content_key(item)
    chosen = list(islice((e.item for e in dev if _content_key(e.item) != key), k))
    if len(chosen) < k:
        raise ExemplarShortfall(f"{len(chosen)} dev items differ from the scored item, need {k}")
    return chosen


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


@dataclass(kw_only=True)
class EvalRunConfig:
    endpoint: EndpointConfig
    shots: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError("shots must be >= 0")

    def echo(self) -> dict:
        return {
            "shots": self.shots,
            "exemplar_source": SPLIT_DEV,
            "extraction": EXTRACT_LETTER,
            "seed": self.seed,
            "model": self.endpoint.model_name,
        }


@dataclass(kw_only=True)
class EvalReport(Record):
    dataset: str
    items_total: int
    config: dict
    labels: dict = field(default_factory=dict)
    notes: tuple[str, ...] = _CONVENTION_NOTES
    overall_micro: float
    overall_macro: float
    degraded: bool = False
    per_category: dict[str, dict]
    per_item: list[dict]

    def __post_init__(self):
        # sweep tables label rows with these values
        if not all(type(v) is str for v in self.labels.values()):
            raise SchemaError(f"label values must be strings, got {self.labels!r}")
        if type(self.config.get("model", "")) not in (str, type(None)):
            raise SchemaError(f"config model must be a string or null, got {self.config['model']!r}")

    def save(self, path: str | Path) -> None:
        write_json(path, self)


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

    Every prompt is built before the first request, so an exemplar shortfall
    sends none. Endpoint failures that survive retries mark the item as an
    abstention and flag the report as degraded instead of aborting the run.
    """
    dev = dataset.split_entries(SPLIT_DEV)
    prompts = [build_prompt(e.item, _exemplars(dev, e.item, cfg.shots)) for e in dataset.entries]

    def score(entry: DatasetEntry, messages: list[dict]) -> dict:
        error = extracted = None
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
        rows = list(pool.map(score, dataset.entries, prompts))
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


def sweep_report(reports: Sequence[EvalReport]) -> tuple[list[dict], str]:
    """Tabulate eval reports into CSV-ready dicts and an aligned text table.

    A report's row is labelled by labels.model (else config.model, else
    "model") and labels.ratio (else "-"); reports with the same labels share a
    row, and a later score of a dataset replaces an earlier one. Within a model
    group the per-dataset maximum is flagged; ties flag all.
    """
    if not reports:
        raise ValueError("sweep needs at least one report")
    rows: dict[tuple[str, str], dict[str, float]] = {}
    for rep in reports:
        key = (rep.labels.get("model") or rep.config.get("model") or "model", rep.labels.get("ratio") or "-")
        rows.setdefault(key, {})[rep.dataset] = rep.overall_micro
    datasets = list(dict.fromkeys(ds for scores in rows.values() for ds in scores))

    out_rows: list[dict] = []
    for model in dict.fromkeys(model for model, _ in rows):
        members = [(ratio, scores) for (m, ratio), scores in rows.items() if m == model]
        maxima = {ds: max((scores[ds] for _, scores in members if ds in scores), default=None) for ds in datasets}
        for ratio, scores in members:
            rec: dict = {"model": model, "ratio": ratio}
            for ds in datasets:
                value = scores.get(ds)
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
