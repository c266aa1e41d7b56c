"""Instruction-data generation driven by a chat endpoint, with strict validation.

Three generators share one shape of work: render a prompt template around a
knowledge document, send it, and validate the response against a schema.
One-turn generation is two-step: the first response proposes question/answer
pairs, then each question is re-asked standalone and the short answer is
replaced by the detailed one.

Every request is archived, as the dict that was sent, under its hash, so a
run can be replayed offline and reproduces the identical dataset.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from threading import Lock
from typing import Callable, Collection, Sequence

from .endpoint import ChatClient, Completion, JobPool, OfflineTransport, ResponseArchive, request_id
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
from .ingest import STATUS_INGESTED, STATUS_RETAINED, Document
from .jsonl import Record, word_list
from .mixer import text_turns

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
    """The category list of a word list file (`jsonl.word_list`), in file order."""
    if path is None:
        text = _read_data_file("categories.txt")
    else:
        text = Path(path).read_text(encoding="utf-8")
    return tuple(word_list(text))


@dataclass(frozen=True)
class PromptTemplate:
    kind: str
    body: str
    category_list: tuple[str, ...] = ()

    def __post_init__(self):
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
        raise ValueError(f"kind must be one of {GEN_KINDS}, got {kind!r}")
    body = Path(body_path).read_text(encoding="utf-8") if body_path else _read_data_file(_TEMPLATE_FILES[kind])
    cats = load_categories(categories_path) if kind == KIND_ONE_TURN else ()
    return PromptTemplate(kind=kind, body=body, category_list=cats)


# --- sample schemas -----------------------------------------------------------


@dataclass(kw_only=True)
class InstructionSample(Record):
    kind: str
    turns: list[dict]
    category: str | None = None
    knowledge_id: str
    gen_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (KIND_ONE_TURN, KIND_MULTI_TURN):
            raise SchemaError(f"bad sample kind {self.kind!r}")
        if not all(isinstance(t, dict) for t in self.turns):
            raise SchemaError("every turn must be a JSON object")
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


@dataclass
class MCQItem(Record):
    question: str
    question_type: str
    options: dict[str, str]
    correct_option: str
    reason: str = ""
    category: str = "未分类"
    subclass: str = "未分类"
    difficulty: str = "expertise"

    def __post_init__(self):
        if not self.question.strip():
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
        if not all(type(text) is str for text in self.options.values()):
            raise SchemaError("every option text must be a string")
        if self.correct_option not in self.options:
            raise OptionMismatch(f"correct option {self.correct_option!r} not in {sorted(self.options)}")
        if self.difficulty not in DIFFICULTIES:
            raise SchemaError(f"difficulty must be one of {DIFFICULTIES}")


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
    return MCQItem(
        question=str(question),
        question_type=qtype,
        options=options,
        correct_option=str(correct).strip().upper(),
        reason=str(reason),
        category=str(value.get("category", "未分类")),
        subclass=str(value.get("subclass", "未分类")),
        difficulty=str(value.get("difficulty", "expertise")),
    )


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
        samples.append(InstructionSample(
            kind=KIND_ONE_TURN,
            turns=[
                {"role": "user", "content": entry["question"]},
                {"role": "assistant", "content": step2.text},
            ],
            category=entry["category"],
            knowledge_id=knowledge.doc_id,
            gen_meta=_meta(model_name, step2.timestamp, step1.text, step2.text),
        ))
    return samples


def gen_multi_turn(
    knowledge: Document,
    complete: Completer,
    template: PromptTemplate,
    model_name: str,
) -> InstructionSample:
    resp = complete([{"role": "user", "content": template.render(knowledge.text)}])
    turns = parse_multi_turn_response(resp.text)
    return InstructionSample(
        kind=KIND_MULTI_TURN,
        turns=turns,
        knowledge_id=knowledge.doc_id,
        gen_meta=_meta(model_name, resp.timestamp, resp.text),
    )


def gen_mcq(knowledge: Document, complete: Completer, template: PromptTemplate, model_name: str) -> MCQItem:
    resp = complete([{"role": "user", "content": template.render(knowledge.text)}])
    return parse_mcq_response(resp.text)


# --- batched generation ------------------------------------------------------------


class ArchivedCompleter:
    """Completer that consults the archive first and records every outcome.

    Archived entries are replayed without consuming budget; fresh requests
    take one of `budget` requests, go to the client's transport, and are
    written back as either a response or a classified endpoint error. Over
    an OfflineTransport a missing entry is refused as an endpoint error without
    being sent: it takes no budget, is not counted as sent, and is not
    written back, since the refusal is no answer of the endpoint and a later
    online run sends the request. A request whose id is already in flight on
    another thread gets that request's entry, or its exception, from the
    sender and counts as replayed, so identical concurrent requests are sent
    and paid for once. Replayed errors re-raise, so a replayed run
    reproduces the original accept/reject decisions exactly. An entry that
    does not parse, or holds neither a response nor an error, counts as
    missing: a warning is logged, the request is sent again and its new
    entry replaces the old one. A call builds its request once
    (`ChatClient.request`), files it under its `request_id` and sends it.
    """

    def __init__(self, client: ChatClient, archive: ResponseArchive, budget: int):
        self.client = client
        self.archive = archive
        self.budget = budget
        self.offline = isinstance(client.transport, OfflineTransport)
        self.sent = 0
        self.replayed = 0
        self._lock = Lock()
        self._in_flight: dict[str, Future] = {}

    def __call__(self, messages: Sequence[dict]) -> Completion:
        request = self.client.request(messages)
        rid = request_id(request)
        with self._lock:
            pending = self._in_flight.get(rid)
            entry = self._archived(rid) if pending is None else None
            missing = pending is None and entry is None
            fresh = missing and not self.offline  # offline, nothing is sent, so nothing is charged
            if not missing:
                self.replayed += 1
            elif fresh:
                if self.sent >= self.budget:
                    raise BudgetExhausted(f"request budget of {self.budget} exhausted")
                self.sent += 1
                self._in_flight[rid] = sending = Future()
        if fresh:
            try:
                entry = self._send(rid, request)
                self.archive.store(rid, entry)
                sending.set_result(entry)
            except BaseException as exc:
                sending.set_exception(exc)
                raise
            finally:
                with self._lock:
                    del self._in_flight[rid]
        elif pending is not None:
            entry = pending.result()
        elif missing:
            entry = self._send(rid, request)  # the transport's refusal
        if entry.get("error") is not None:
            raise EndpointError(entry["error"])
        return Completion(text=entry["response"], timestamp=entry.get("timestamp") or "")

    def _archived(self, rid: str) -> dict | None:
        """The usable archive entry for `rid`, or None."""
        if not self.archive.has(rid):
            return None
        try:
            entry = self.archive.load(rid)
        except (OSError, ValueError) as exc:
            log.warning("archive entry %s is unreadable, treating it as missing: %s", rid, exc)
            return None
        if not isinstance(entry, dict) or not (isinstance(entry.get("response"), str)
                                               or isinstance(entry.get("error"), str)):
            log.warning("archive entry %s holds neither a response nor an error, treating it as missing", rid)
            return None
        return entry

    def _send(self, rid: str, request: dict) -> dict:
        entry = {"request_id": rid, "request": request}
        try:
            completion = self.client.transport.complete(request)
            entry.update(response=completion.text, timestamp=completion.timestamp, error=None)
        except EndpointError as exc:
            entry.update(response=None, timestamp=None, error=str(exc))
        return entry


@dataclass
class GenReport(Record):
    requests_sent: int = 0
    replayed: int = 0
    accepted: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    rejected_total: int = 0
    accepted_per_kind: dict[str, int] = field(default_factory=dict)
    jobs_total: int = 0
    jobs_accepted: int = 0
    jobs_skipped: int = 0  # jobs curtailed by budget exhaustion, neither accepted nor classified
    budget_exhausted: bool = False


def batch_generate(
    docs: Sequence[Document],
    kinds: Sequence[str],
    client: ChatClient,
    budget: int,
    archive: ResponseArchive,
    templates: dict[str, PromptTemplate],
    lenient: bool = False,
) -> tuple[list, GenReport]:
    """Generate for every (doc, kind) job under the endpoint's concurrency limit,
    with the prompt template `templates` maps each kind to.

    Returns samples/items sorted by (knowledge_id, kind, index) regardless of
    completion order, plus a report of accepted and per-class rejected counts.
    On budget exhaustion the partial result is returned with the report
    flagged; the archive makes the run resumable.
    """
    for kind in kinds:
        if kind not in GEN_KINDS:
            raise ValueError(f"unknown generation kind {kind!r}")
        if kind not in templates:
            raise ValueError(f"no template for generation kind {kind!r}")

    completer = ArchivedCompleter(client, archive, budget)
    usable = [d for d in sorted(docs, key=lambda d: d.doc_id) if d.status in (STATUS_INGESTED, STATUS_RETAINED)]
    jobs = [(doc, kind) for doc in usable for kind in kinds]

    def run_job(job):
        """The job's samples or item; one that fails its schema rejects the whole job as malformed."""
        doc, kind = job
        try:
            if kind == KIND_ONE_TURN:
                return gen_one_turn(doc, completer, templates[kind], client.cfg.model_name, lenient=lenient)
            if kind == KIND_MULTI_TURN:
                return [gen_multi_turn(doc, completer, templates[kind], client.cfg.model_name)]
            return [gen_mcq(doc, completer, templates[kind], client.cfg.model_name)]
        except SchemaError as exc:
            raise MalformedResponse(str(exc)) from None

    # Futures are read in job order, so the output is in (doc_id, kind) order
    # whatever order the jobs finish in.
    ordered: list = []
    rejected: Counter[str] = Counter()
    accepted_per_kind: Counter[str] = Counter()
    jobs_accepted = 0
    budget_exhausted = False
    with JobPool(max_workers=client.cfg.concurrency_limit) as pool:
        futures = [(pool.submit(run_job, job), job[1]) for job in jobs]
        for future, kind in futures:
            try:
                produced = future.result()
            except BudgetExhausted:
                budget_exhausted = True
            except GenerationError as exc:
                rejected[type(exc).__name__] += 1
            else:
                ordered.extend(produced)
                jobs_accepted += 1
                accepted_per_kind[kind] += len(produced)

    rejected_total = sum(rejected.values())
    return ordered, GenReport(
        requests_sent=completer.sent, replayed=completer.replayed, accepted=len(ordered),
        rejected=dict(sorted(rejected.items())), rejected_total=rejected_total,
        accepted_per_kind=dict(sorted(accepted_per_kind.items())), jobs_total=len(jobs), jobs_accepted=jobs_accepted,
        jobs_skipped=len(jobs) - jobs_accepted - rejected_total, budget_exhausted=budget_exhausted)


# --- term frequency ----------------------------------------------------------------

_TERM_RE = re.compile(r"[A-Za-z0-9_]+|[㐀-䶿一-鿿豈-﫿]+")


def term_frequency_report(
    samples: Sequence[dict],
    stopwords: Collection[str] = (),
    top_k: int = 50,
) -> list[tuple[str, int]]:
    """Top-k terms over the turn contents of instruction rows, after stop-word removal."""
    if not samples:
        raise ValueError("term frequency needs a non-empty dataset")
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    stop = set(stopwords)
    counts: Counter[str] = Counter()
    for sample in samples:
        turns = sample.get("turns", [])
        if not text_turns(turns):
            raise SchemaError(f"turns must be a list of objects with string content, got {turns!r}")
        for turn in turns:
            counts.update(term for term in _TERM_RE.findall(turn.get("content", "")) if term not in stop)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k]
