"""Seeded inputs and scripted endpoint behaviour for the sft-endpoint workload.

The mock server and the checks both build a `Plan` from the same seed: the
server answers from it, the checks compare renokit's reports against it.
Which document gets which malformed reply, and which eval item the mock
answers correctly, follow fixed schedules shuffled by the seed, so every
seed sends the same number of requests.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

from corpus import PROSE, jsonl_bytes, sentences

DOCS = 16
EVAL_SCALE = 1  # multiplies every subclass of the EvalHome shape (113 items)
LATENCY_MS = 20.0
CONCURRENCY = 2  # client connections and server handler threads, one per core of a 2-core host
TRANSIENT_PCT = 5  # share of first attempts answered with 429 or 503
SHOTS = (0, 5)

TAGS = {"one_turn": "[gen:one_turn]", "multi_turn": "[gen:multi_turn]", "mcq": "[gen:mcq]"}
TEMPLATES = {
    "one_turn": (
        "[gen:one_turn] 你是一位资深家装领域从业者，请根据下面的文本出5至20道题并给出答案，"
        "每道题的类别取自以下列表：<<(类别列表)>>。\n文本：(相关知识)\n请输出JSON数组。"
    ),
    "multi_turn": "[gen:multi_turn] 请基于以下背景信息生成一段用户与你的多轮对话。\n背景信息：(相关知识)\n",
    "mcq": "[gen:mcq] 请根据给定的知识设计一道单选题或判断题，并以JSON输出。\n知识：(相关知识)\n",
}

# Rejection classes planted per generation kind; every other document gets a valid reply.
PLANTED = {
    "one_turn": ("CategoryOutOfSet", "CountOutOfRange", "MalformedResponse"),
    "multi_turn": ("RoleOrderViolation", "MalformedResponse"),
    "mcq": ("OptionMismatch", "ArityError", "MalformedResponse", "EndpointError"),
}
REJECT_CLASSES = ("ArityError", "CategoryOutOfSet", "CountOutOfRange", "EndpointError",
                  "MalformedResponse", "OptionMismatch", "RoleOrderViolation")

# EvalHome: 22/87/4 questions across 6/17/2 subclasses.
EVAL_SHAPE = {
    "fundamentals": [4, 4, 4, 4, 3, 3],
    "expertise": [6, 6] + [5] * 15,
    "innovative_design": [2, 2],
}
EVAL_DEV = 8
EVAL_CORRECT = 0.62
EVAL_ABSTAIN = 0.08

DOC_RE = re.compile(r"\[K(\d{4})\]")
QUESTION_RE = re.compile(r"\[K(\d{4})-Q(\d+)\]")
ITEM_RE = re.compile(r"\[E(\d{4})\]")
CATEGORIES_RE = re.compile(r"<<(.*?)>>", re.S)


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


class Plan:
    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.doc_classes = {
            kind: _shuffled(rng, list(bad) + ["ok"] * (DOCS - len(bad))) for kind, bad in PLANTED.items()
        }
        ok_one_turn = DOCS - len(PLANTED["one_turn"])
        counts = _shuffled(rng, [5 + i % 5 for i in range(ok_one_turn)])
        self.questions = {}
        it = iter(counts)
        for i, cls in enumerate(self.doc_classes["one_turn"]):
            self.questions[i + 1] = next(it) if cls == "ok" else 0
        self.doc_lengths = _shuffled(rng, [200 + 50 * (i % 5) for i in range(DOCS)])
        self.eval_rows = self._eval_rows(rng)
        n = len(self.eval_rows)
        n_correct, n_abstain = round(EVAL_CORRECT * n), round(EVAL_ABSTAIN * n)
        answers = _shuffled(rng, ["correct"] * n_correct + ["abstain"] * n_abstain
                            + ["wrong"] * (n - n_correct - n_abstain))
        self.eval_answer = {row["id"]: a for row, a in zip(self.eval_rows, answers)}
        self.eval_by_marker = {int(row["id"][1:]): row for row in self.eval_rows}

    def _eval_rows(self, rng: random.Random) -> list[dict]:
        rows = []
        idx = 0
        for difficulty, sizes in EVAL_SHAPE.items():
            for sub_no, size in enumerate(sizes, start=1):
                for _ in range(size * EVAL_SCALE):
                    idx += 1
                    if idx % 9 == 0:
                        qtype, options = "judgment", {"A": "对", "B": "错"}
                    else:
                        qtype = "single_choice"
                        options = {k: "".join(rng.choices(PROSE, k=8)) for k in "ABCD"}
                    rows.append({
                        "id": f"E{idx:04d}",
                        "question": f"[E{idx:04d}] " + "".join(rng.choices(PROSE, k=24)) + "？",
                        "question_type": qtype,
                        "options": options,
                        "correct_option": rng.choice(sorted(options)),
                        "reason": "".join(rng.choices(PROSE, k=12)) + "。",
                        "category": difficulty,
                        "subclass": f"{difficulty[:4]}-子类{sub_no:02d}",
                        "difficulty": difficulty,
                        "split": "dev" if idx <= EVAL_DEV else "test",
                    })
        return rows

    # --- expected outcomes -------------------------------------------------

    def expected_gen(self) -> dict:
        """Requests, accepted items and rejections one fresh generation run must report."""
        rejected = {c: 0 for c in REJECT_CLASSES}
        for classes in self.doc_classes.values():
            for cls in classes:
                if cls != "ok":
                    rejected[cls] += 1
        ok = {kind: classes.count("ok") for kind, classes in self.doc_classes.items()}
        questions = sum(self.questions.values())
        return {
            "requests": 3 * DOCS + questions,
            "accepted": questions + ok["multi_turn"] + ok["mcq"],
            "rejected": {c: n for c, n in rejected.items() if n},
            "bad_requests": rejected["EndpointError"],
        }

    def expected_correct(self) -> int:
        return sum(1 for a in self.eval_answer.values() if a == "correct")

    # --- scripted replies --------------------------------------------------

    def _rng(self, key: str) -> random.Random:
        return random.Random(f"{self.seed}:{key}")

    def transient(self, content: str) -> int | None:
        """429 or 503 for a seeded share of requests, on their first attempt only."""
        h = int(hashlib.md5(f"{self.seed}:{content}".encode("utf-8")).hexdigest()[:8], 16)
        if h % 100 < TRANSIENT_PCT:
            return 429 if h % 2 else 503
        return None

    def reply(self, content: str) -> tuple[int, str]:
        """(HTTP status, completion text) for one chat request."""
        items = ITEM_RE.findall(content)
        if items:  # eval: the target block is the last one in the prompt
            return 200, self._eval_reply(int(items[-1]))
        m = QUESTION_RE.search(content)
        if m and not any(tag in content for tag in TAGS.values()):
            rng = self._rng(m.group(0))
            return 200, f"{m.group(0)}的详细解答：" + "".join(sentences(rng, 120))
        m = DOC_RE.search(content)
        kind = next((k for k, tag in TAGS.items() if tag in content), None)
        if not m or kind is None:
            return 400, "unscripted request"
        serial = int(m.group(1))
        cls = self.doc_classes[kind][serial - 1]
        if cls == "EndpointError":
            return 400, "planted bad request"
        rng = self._rng(f"{kind}:{serial}")
        if kind == "one_turn":
            return 200, self._one_turn(rng, serial, cls, content)
        if kind == "multi_turn":
            return 200, self._multi_turn(rng, serial, cls)
        return 200, self._mcq(rng, serial, cls)

    def _eval_reply(self, n: int) -> str:
        row = self.eval_by_marker[n]
        answer = self.eval_answer[row["id"]]
        if answer == "abstain":
            return "无法判断。"
        gold = row["correct_option"]
        letter = gold if answer == "correct" else sorted(k for k in row["options"] if k != gold)[0]
        return f"答案：{letter}"

    def _one_turn(self, rng: random.Random, serial: int, cls: str, content: str) -> str:
        if cls == "MalformedResponse":
            return "抱歉，这段文本无法出题。"
        m = CATEGORIES_RE.search(content)
        categories = m.group(1).split("、") if m else ["未分类"]
        count = {"ok": self.questions[serial], "CategoryOutOfSet": 6, "CountOutOfRange": 3}[cls]
        items = [
            {
                "question": f"[K{serial:04d}-Q{j}] " + "".join(rng.choices(PROSE, k=16)) + "？",
                "answer": "".join(sentences(rng, 40)),
                "category": rng.choice(categories),
            }
            for j in range(1, count + 1)
        ]
        if cls == "CategoryOutOfSet":
            items[-1]["category"] = "烹饪技法"
        return "以下是题目：" + json.dumps(items, ensure_ascii=False)

    def _multi_turn(self, rng: random.Random, serial: int, cls: str) -> str:
        if cls == "MalformedResponse":
            return f"[K{serial:04d}] " + "".join(sentences(rng, 80))
        roles = ["user", "assistant"] * 2
        if cls == "RoleOrderViolation":
            roles = roles[1:] + ["user"]
        lines = [f"{role}: [K{serial:04d}] " + "".join(sentences(rng, 30 if role == "user" else 90))
                 for role in roles]
        return "\n".join(lines)

    def _mcq(self, rng: random.Random, serial: int, cls: str) -> str:
        if cls == "MalformedResponse":
            return "这道题我给不出JSON。"
        gold = rng.choice("ABCD")
        payload = {
            "question": f"[K{serial:04d}] " + "".join(rng.choices(PROSE, k=20)) + "？",
            "question_type": "单选",
            "candidate_options": {k: "".join(rng.choices(PROSE, k=10)) for k in "ABCD"},
            "answer": {"correct_option": gold, "reason": "".join(sentences(rng, 30))},
        }
        if cls == "OptionMismatch":
            payload["answer"]["correct_option"] = "E"
        elif cls == "ArityError":
            payload["question_type"] = "判断"
        return "答复如下：" + json.dumps(payload, ensure_ascii=False)


def build_sft(root: Path, seed: int) -> dict:
    """Write knowledge documents, eval set and templates; returns the planted truth."""
    plan = Plan(seed)
    rng = random.Random(seed + 7919)
    root.mkdir(parents=True, exist_ok=True)
    docs = []
    for i, length in enumerate(plan.doc_lengths, start=1):
        text = f"[K{i:04d}] " + "".join(sentences(rng, length))
        docs.append({
            "doc_id": f"kdoc-{i:04d}", "text": text, "source_kind": "domain_book",
            "token_count": length, "char_count": len(text), "status": "retained", "reason": None,
        })
    input_bytes = 0
    for name, rows in (("knowledge.jsonl", docs), ("evalset.jsonl", plan.eval_rows)):
        data = jsonl_bytes(rows)
        (root / name).write_bytes(data)
        input_bytes += len(data)
    for kind, body in TEMPLATES.items():
        (root / f"template_{kind}.txt").write_text(body, encoding="utf-8")
    gen = plan.expected_gen()
    return {
        "gen": gen,
        "eval_items": len(plan.eval_rows),
        "eval_correct": plan.expected_correct(),
        "fresh_requests": gen["requests"] + len(SHOTS) * len(plan.eval_rows),
        "input_bytes": input_bytes,
        "latency_ms": LATENCY_MS,
    }
