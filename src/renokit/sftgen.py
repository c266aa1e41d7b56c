"""Instruction-data generation driven by a chat endpoint, with strict validation.

Three generators share one shape of work: render a prompt template around a
knowledge document, send it, and validate the response against a schema.
One-turn generation is two-step: the first response proposes question/answer
pairs, then each question is re-asked standalone and the short answer is
replaced by the detailed one.

Every request is archived keyed by a deterministic request id, so a run can
be replayed offline and reproduces the identical dataset.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from threading import Lock
from typing import Callable, Sequence

from .endpoint import ChatClient, Completion, ResponseArchive, request_id
from .errors import (
    ArityError,
    BudgetExhausted,
    CategoryOutOfSet,
    CountOutOfRange,
    EndpointError,
    GenerationError,
    MalformedResponse,
    OptionMismatch,
    RoleOrderViolation,
    SchemaError,
)
from .ingest import Document
from .jsonl import read_jsonl

log = logging.getLogger(__name__)

KIND_ONE_TURN = "one_turn"
KIND_MULTI_TURN = "multi_turn"
KIND_MCQ = "mcq"
GEN_KINDS = (KIND_ONE_TURN, KIND_MULTI_TURN, KIND_MCQ)

QUESTION_SINGLE = "single_choice"
QUESTION_JUDGMENT = "judgment"

DIFFICULTIES = ("fundamentals", "expertise", "innovative_design")

KNOWLEDGE_SLOT = "(相关知识)"
CATEGORY_SLOT = "(类别列表)"

ONE_TURN_MIN = 5
ONE_TURN_MAX = 20

_TEMPLATE_FILES = {
    KIND_ONE_TURN: "prompt_one_turn.txt",
    KIND_MULTI_TURN: "prompt_multi_turn.txt",
    KIND_MCQ: "prompt_mcq.txt",
}


def _read_data_file(name: str) -> str:
    return resources.files("renokit.data").joinpath(name).read_text(encoding="utf-8")


def load_categories(path: str | Path | None = None) -> tuple[str, ...]:
    """Category list, one per line; '#' lines are comments. Warns when != 40."""
    if path is None:
        text = _read_data_file("categories.txt")
    else:
        text = Path(path).read_text(encoding="utf-8")
    cats = tuple(line.strip() for line in text.splitlines() if line.strip() and not line.startswith("#"))
    if len(cats) != 40:
        log.warning("category list has %d entries, expected 40", len(cats))
    return cats


@dataclass(frozen=True)
class PromptTemplate:
    kind: str
    body: str
    category_list: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in GEN_KINDS:
            raise ValueError(f"kind must be one of {GEN_KINDS}")
        if self.body.count(KNOWLEDGE_SLOT) != 1:
            raise ValueError(f"template body must contain exactly one {KNOWLEDGE_SLOT} slot")
        if self.kind == KIND_ONE_TURN and len(self.category_list) != 40:
            log.warning("one-turn template has %d categories, expected 40", len(self.category_list))

    def render(self, knowledge_text: str) -> str:
        body = self.body
        if self.kind == KIND_ONE_TURN:
            body = body.replace(CATEGORY_SLOT, "、".join(self.category_list))
        return body.replace(KNOWLEDGE_SLOT, knowledge_text)


def load_template(
    kind: str,
    body_path: str | Path | None = None,
    categories_path: str | Path | None = None,
) -> PromptTemplate:
    if kind not in GEN_KINDS:
        raise ValueError(f"kind must be one of {GEN_KINDS}")
    body = Path(body_path).read_text(encoding="utf-8") if body_path else _read_data_file(_TEMPLATE_FILES[kind])
    cats = load_categories(categories_path) if kind == KIND_ONE_TURN else ()
    return PromptTemplate(kind=kind, body=body, category_list=cats)


# --- sample schemas -----------------------------------------------------------


@dataclass
class InstructionSample:
    kind: str
    turns: list[dict]
    knowledge_id: str
    category: str | None = None
    gen_meta: dict = field(default_factory=dict)

    def validate(self) -> "InstructionSample":
        if self.kind not in (KIND_ONE_TURN, KIND_MULTI_TURN):
            raise SchemaError(f"bad sample kind {self.kind!r}")
        roles = [t.get("role") for t in self.turns]
        contents = [t.get("content") for t in self.turns]
        if any(not isinstance(c, str) or not c.strip() for c in contents):
            raise SchemaError("every turn needs non-empty content")
        expected = ["user" if i % 2 == 0 else "assistant" for i in range(len(roles))]
        if roles != expected:
            raise SchemaError("turn roles must alternate user/assistant starting with user")
        if self.kind == KIND_ONE_TURN and len(self.turns) != 2:
            raise SchemaError("one-turn samples have exactly 2 turns")
        if self.kind == KIND_MULTI_TURN and len(self.turns) < 4:
            raise SchemaError("multi-turn samples have at least 4 turns")
        return self

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "turns": self.turns,
            "category": self.category,
            "knowledge_id": self.knowledge_id,
            "gen_meta": self.gen_meta,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "InstructionSample":
        try:
            sample = cls(
                kind=obj["kind"],
                turns=list(obj["turns"]),
                knowledge_id=obj["knowledge_id"],
                category=obj.get("category"),
                gen_meta=dict(obj.get("gen_meta", {})),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"instruction sample missing field: {exc}") from None
        return sample.validate()


@dataclass
class MCQItem:
    question: str
    question_type: str
    options: dict[str, str]
    correct_option: str
    reason: str
    category: str
    subclass: str
    difficulty: str

    def validate(self) -> "MCQItem":
        if not self.question or not self.question.strip():
            raise SchemaError("question must be non-empty")
        if self.question_type == QUESTION_SINGLE:
            expected_keys = ("A", "B", "C", "D")
        elif self.question_type == QUESTION_JUDGMENT:
            expected_keys = ("A", "B")
        else:
            raise SchemaError(f"bad question_type {self.question_type!r}")
        if tuple(sorted(self.options)) != expected_keys:
            raise ArityError(
                f"{self.question_type} needs options {expected_keys}, got {sorted(self.options)}"
            )
        if self.correct_option not in self.options:
            raise OptionMismatch(f"correct option {self.correct_option!r} not in {sorted(self.options)}")
        if self.difficulty not in DIFFICULTIES:
            raise SchemaError(f"difficulty must be one of {DIFFICULTIES}")
        return self

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "question_type": self.question_type,
            "options": self.options,
            "correct_option": self.correct_option,
            "reason": self.reason,
            "category": self.category,
            "subclass": self.subclass,
            "difficulty": self.difficulty,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MCQItem":
        try:
            item = cls(
                question=obj["question"],
                question_type=obj["question_type"],
                options={str(k): str(v) for k, v in obj["options"].items()},
                correct_option=obj["correct_option"],
                reason=obj.get("reason", ""),
                category=obj.get("category", "未分类"),
                subclass=obj.get("subclass", "未分类"),
                difficulty=obj.get("difficulty", "expertise"),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise SchemaError(f"mcq record missing field: {exc}") from None
        return item.validate()


def read_instruction_samples(path: str | Path) -> list[InstructionSample]:
    samples = []
    for lineno, obj in read_jsonl(path):
        try:
            samples.append(InstructionSample.from_dict(obj))
        except SchemaError as exc:
            raise SchemaError(f"{path}: line {lineno}: {exc}", line=lineno) from None
    return samples


# --- response parsing -----------------------------------------------------------

_JSON_DECODER = json.JSONDecoder()


def extract_json_value(text: str):
    """First balanced JSON value in the text; chat models wrap JSON in prose."""
    for i, ch in enumerate(text):
        if ch in "[{":
            try:
                value, _ = _JSON_DECODER.raw_decode(text[i:])
            except ValueError:
                continue
            return value
    raise MalformedResponse("no parseable JSON value in response")


def parse_one_turn_response(
    raw: str,
    categories: Sequence[str],
    lenient: bool = False,
) -> list[dict]:
    """Validate the step-1 question list: 5..20 items, categories in the list."""
    value = extract_json_value(raw)
    if not isinstance(value, list):
        raise MalformedResponse("expected a JSON array of question objects")
    items: list[dict] = []
    bad_category: list[str] = []
    for entry in value:
        if not isinstance(entry, dict):
            raise MalformedResponse("array entries must be objects")
        question = entry.get("question")
        answer = entry.get("answer")
        category = entry.get("category")
        if not all(isinstance(x, str) and x.strip() for x in (question, answer, category)):
            raise MalformedResponse("entries need non-empty question/answer/category strings")
        if category not in categories:
            bad_category.append(category)
            continue
        items.append({"question": question, "answer": answer, "category": category})
    if bad_category and not lenient:
        raise CategoryOutOfSet(f"categories outside the configured list: {bad_category}")
    count = len(value)
    if not ONE_TURN_MIN <= count <= ONE_TURN_MAX:
        if not lenient:
            raise CountOutOfRange(f"got {count} items, expected {ONE_TURN_MIN}..{ONE_TURN_MAX}")
        log.warning("keeping %d salvageable items from out-of-range batch of %d", len(items), count)
    if not items:
        raise MalformedResponse("no valid items in response")
    return items


_ROLE_LINE = re.compile(r"^\s*(user|assistant|用户|助手)\s*[:：]\s*(.*)$", re.IGNORECASE)
_ROLE_MAP = {"user": "user", "用户": "user", "assistant": "assistant", "助手": "assistant"}


def parse_multi_turn_response(raw: str) -> list[dict]:
    """Parse a role-marked dialogue; enforce alternation and >= 2 user turns."""
    turns: list[dict] = []
    content: list[str] = []
    for line in raw.splitlines():
        m = _ROLE_LINE.match(line)
        if m:
            role = _ROLE_MAP[m.group(1).lower()]
            if turns:
                turns[-1]["content"] = "\n".join(content).strip()
            turns.append({"role": role, "content": ""})
            content = [m.group(2)]
        elif turns:
            content.append(line)
    if turns:
        turns[-1]["content"] = "\n".join(content).strip()
    if not turns:
        raise MalformedResponse("no role-marked dialogue lines found")
    if turns[0]["role"] != "user":
        raise RoleOrderViolation("dialogue must start with the user")
    for prev, cur in zip(turns, turns[1:]):
        if prev["role"] == cur["role"]:
            raise RoleOrderViolation(f"two consecutive {cur['role']} turns")
    if turns[-1]["role"] == "user":  # trailing unanswered question carries no training signal
        turns = turns[:-1]
    if sum(1 for t in turns if t["role"] == "user") < 2 or len(turns) < 4:
        raise MalformedResponse("dialogue too short: need at least 2 answered user turns")
    if any(not t["content"] for t in turns):
        raise MalformedResponse("dialogue contains an empty turn")
    return turns


_QUESTION_TYPE_MAP = {
    "单选": QUESTION_SINGLE,
    "单选题": QUESTION_SINGLE,
    "single_choice": QUESTION_SINGLE,
    "判断": QUESTION_JUDGMENT,
    "判断题": QUESTION_JUDGMENT,
    "judgment": QUESTION_JUDGMENT,
}


def parse_mcq_response(raw: str) -> MCQItem:
    value = extract_json_value(raw)
    if not isinstance(value, dict):
        raise MalformedResponse("expected a JSON object")
    try:
        question = value["question"]
        qtype_raw = value["question_type"]
        options_raw = value["candidate_options"]
        answer = value["answer"]
        correct = answer["correct_option"]
        reason = answer.get("reason", "")
    except (KeyError, TypeError) as exc:
        raise MalformedResponse(f"missing field: {exc}") from None
    qtype = _QUESTION_TYPE_MAP.get(str(qtype_raw).strip())
    if qtype is None:
        raise MalformedResponse(f"unknown question_type {qtype_raw!r}")
    if not isinstance(options_raw, dict):
        raise MalformedResponse("candidate_options must be an object")
    options = {str(k).strip().upper(): str(v) for k, v in options_raw.items()}
    item = MCQItem(
        question=str(question),
        question_type=qtype,
        options=options,
        correct_option=str(correct).strip().upper(),
        reason=str(reason),
        category=str(value.get("category", "未分类")),
        subclass=str(value.get("subclass", "未分类")),
        difficulty=str(value.get("difficulty", "expertise")),
    )
    return item.validate()


# --- generation ops --------------------------------------------------------------

Completer = Callable[[Sequence[dict]], Completion]


def _meta(model_name: str, timestamp: str, *raws: str) -> dict:
    digest = hashlib.md5("\x1e".join(raws).encode("utf-8")).hexdigest()
    return {"model_name": model_name, "timestamp": timestamp, "raw_response_hash": digest}


def gen_one_turn(
    knowledge: Document,
    complete: Completer,
    template: PromptTemplate,
    model_name: str,
    lenient: bool = False,
) -> list[InstructionSample]:
    """Two-step QA generation: propose questions, then re-ask each standalone."""
    step1 = complete([{"role": "user", "content": template.render(knowledge.text)}])
    items = parse_one_turn_response(step1.text, template.category_list, lenient=lenient)
    samples: list[InstructionSample] = []
    for entry in items:
        step2 = complete([{"role": "user", "content": entry["question"]}])
        sample = InstructionSample(
            kind=KIND_ONE_TURN,
            turns=[
                {"role": "user", "content": entry["question"]},
                {"role": "assistant", "content": step2.text},
            ],
            category=entry["category"],
            knowledge_id=knowledge.doc_id,
            gen_meta=_meta(model_name, step2.timestamp, step1.text, step2.text),
        )
        samples.append(sample.validate())
    return samples


def gen_multi_turn(
    knowledge: Document,
    complete: Completer,
    template: PromptTemplate,
    model_name: str,
) -> InstructionSample:
    resp = complete([{"role": "user", "content": template.render(knowledge.text)}])
    turns = parse_multi_turn_response(resp.text)
    sample = InstructionSample(
        kind=KIND_MULTI_TURN,
        turns=turns,
        knowledge_id=knowledge.doc_id,
        gen_meta=_meta(model_name, resp.timestamp, resp.text),
    )
    return sample.validate()


def gen_mcq(knowledge: Document, complete: Completer, template: PromptTemplate, model_name: str) -> MCQItem:
    resp = complete([{"role": "user", "content": template.render(knowledge.text)}])
    return parse_mcq_response(resp.text)


# --- batched generation ------------------------------------------------------------


class RequestBudget:
    def __init__(self, limit: int):
        self.limit = limit
        self.sent = 0
        self._lock = Lock()

    def take(self) -> None:
        with self._lock:
            if self.sent >= self.limit:
                raise BudgetExhausted(f"request budget of {self.limit} exhausted")
            self.sent += 1


class ArchivedCompleter:
    """Completer that consults the archive first and records every outcome.

    Archived entries are replayed without consuming budget; fresh requests
    take budget, hit the client, and are written back as either a response
    or a classified endpoint error. Replayed errors re-raise, so a replayed
    run reproduces the original accept/reject decisions exactly.
    """

    def __init__(self, client: ChatClient, archive: ResponseArchive, budget: RequestBudget):
        self.client = client
        self.archive = archive
        self.budget = budget
        self.replayed = 0
        self._lock = Lock()

    def __call__(self, messages: Sequence[dict]) -> Completion:
        rid = request_id(self.client.cfg.model_name, messages, self.client.cfg.temperature)
        if self.archive.has(rid):
            with self._lock:
                self.replayed += 1
            entry = self.archive.load(rid)
        else:
            self.budget.take()
            entry = {
                "request_id": rid,
                "request": {
                    "model": self.client.cfg.model_name,
                    "messages": list(messages),
                    "temperature": self.client.cfg.temperature,
                },
            }
            try:
                completion = self.client.complete(messages)
                entry["response"] = completion.text
                entry["timestamp"] = completion.timestamp
                entry["error"] = None
            except EndpointError as exc:
                entry["response"] = None
                entry["timestamp"] = None
                entry["error"] = str(exc)
            self.archive.store(rid, entry)
        if entry.get("error") is not None:
            raise EndpointError(entry["error"])
        return Completion(text=entry["response"], timestamp=entry.get("timestamp") or "")


@dataclass
class GenReport:
    requests_sent: int = 0
    replayed: int = 0
    accepted: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    accepted_per_kind: dict[str, int] = field(default_factory=dict)
    jobs_total: int = 0
    jobs_accepted: int = 0
    budget_exhausted: bool = False

    def reject(self, error_class: str) -> None:
        self.rejected[error_class] = self.rejected.get(error_class, 0) + 1

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    @property
    def jobs_skipped(self) -> int:
        # jobs curtailed by budget exhaustion, neither accepted nor classified
        return self.jobs_total - self.jobs_accepted - self.rejected_total

    def to_dict(self) -> dict:
        return {
            "requests_sent": self.requests_sent,
            "replayed": self.replayed,
            "accepted": self.accepted,
            "rejected": dict(sorted(self.rejected.items())),
            "rejected_total": self.rejected_total,
            "accepted_per_kind": dict(sorted(self.accepted_per_kind.items())),
            "jobs_total": self.jobs_total,
            "jobs_accepted": self.jobs_accepted,
            "jobs_skipped": self.jobs_skipped,
            "budget_exhausted": self.budget_exhausted,
        }


def batch_generate(
    docs: Sequence[Document],
    kinds: Sequence[str],
    client: ChatClient,
    budget: int,
    archive: ResponseArchive,
    templates: dict[str, PromptTemplate] | None = None,
    lenient: bool = False,
) -> tuple[list, GenReport]:
    """Generate for every (doc, kind) job under the endpoint's concurrency limit.

    Returns samples/items sorted by (knowledge_id, kind, index) regardless of
    completion order, plus a report of accepted and per-class rejected counts.
    On budget exhaustion the partial result is returned with the report
    flagged; the archive makes the run resumable.
    """
    for kind in kinds:
        if kind not in GEN_KINDS:
            raise ValueError(f"unknown generation kind {kind!r}")
    templates = dict(templates or {})
    for kind in kinds:
        templates.setdefault(kind, load_template(kind))

    completer = ArchivedCompleter(client, archive, RequestBudget(budget))
    report = GenReport()
    usable = [d for d in sorted(docs, key=lambda d: d.doc_id) if d.status in ("ingested", "retained")]
    jobs = [(doc, kind) for doc in usable for kind in kinds]

    def run_job(job):
        doc, kind = job
        if kind == KIND_ONE_TURN:
            return gen_one_turn(doc, completer, templates[kind], client.cfg.model_name, lenient=lenient)
        if kind == KIND_MULTI_TURN:
            return [gen_multi_turn(doc, completer, templates[kind], client.cfg.model_name)]
        return [gen_mcq(doc, completer, templates[kind], client.cfg.model_name)]

    results: dict[tuple[str, str], list] = {}
    report.jobs_total = len(jobs)
    with ThreadPoolExecutor(max_workers=client.cfg.concurrency_limit) as pool:
        futures = {pool.submit(run_job, job): job for job in jobs}
        for future, job in futures.items():
            doc, kind = job
            try:
                results[(doc.doc_id, kind)] = future.result()
                report.jobs_accepted += 1
                report.accepted += len(results[(doc.doc_id, kind)])
                report.accepted_per_kind[kind] = report.accepted_per_kind.get(kind, 0) + len(
                    results[(doc.doc_id, kind)]
                )
            except BudgetExhausted:
                report.budget_exhausted = True
            except GenerationError as exc:
                report.reject(type(exc).__name__)

    report.requests_sent = completer.budget.sent
    report.replayed = completer.replayed
    ordered: list = []
    for doc in usable:
        for kind in kinds:
            ordered.extend(results.get((doc.doc_id, kind), ()))
    return ordered, report


# --- term frequency ----------------------------------------------------------------

_TERM_RE = re.compile(r"[A-Za-z0-9_]+|[㐀-䶿一-鿿豈-﫿]+")


def term_frequency_report(
    samples: Sequence[InstructionSample | dict],
    stopwords: Sequence[str] = (),
    top_k: int = 50,
) -> list[tuple[str, int]]:
    """Top-k terms over instruction turn contents, after stop-word removal."""
    if not samples:
        raise ValueError("term frequency needs a non-empty dataset")
    stop = set(stopwords)
    counts: dict[str, int] = {}
    for sample in samples:
        turns = sample.turns if isinstance(sample, InstructionSample) else sample.get("turns", [])
        for turn in turns:
            for term in _TERM_RE.findall(turn.get("content", "")):
                if term in stop:
                    continue
                counts[term] = counts.get(term, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k]
