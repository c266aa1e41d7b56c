"""Correctness checks on one iteration's artifacts, against the planted truth.

Each check returns (digests, failed, problems): sha256 of the artifacts that
must repeat across iterations of one seed, the number of operations (raw
records or chat requests) whose outcome differs from the plan, and one line
per gate that does not hold. Any outcome that differs from the plan is a
gate that does not hold, and such a gate fails every operation of the
iteration.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

from corpus import MARKER_RE
from sftplan import SHOTS

from renokit.dedup import DedupConfig, jaccard, shingle
from renokit.ingest import Document

CORPUS_ARTIFACTS = ("docs.jsonl", "ingest_stats.json", "kept.jsonl", "filter_report.json", "unique.jsonl",
                    "dup_pairs.jsonl", "dedup_report.json", "train.jsonl", "mix_report.json",
                    "trainer_config.json")
RECALL_FLOOR = 0.95
_SENTENCE_END = re.compile(r"(?<=[。！？!?.])|(?<=\n)")
_WS = re.compile(r"\s+")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _marker(text: str) -> str | None:
    m = MARKER_RE.search(text)
    return m.group(0) if m else None


def round_pct(correct: int, total: int) -> float:
    """The README's rounding rule, restated here so the check does not use renokit's."""
    return round(10000 * correct / total) / 100


class _Components:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        while self.parent.get(x, x) != x:
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        self.parent[self.find(a)] = self.find(b)


def check_corpus(out: Path, truth: dict) -> tuple[dict, int, list[str]]:
    problems: list[str] = []
    failed = 0
    groups = truth["groups"]
    digests = {name: sha256((out / name).read_bytes()) for name in CORPUS_ARTIFACTS}

    stats = _json(out / "ingest_stats.json")
    for reason in set(stats["failures"]) | set(truth["ingest_failures"]):
        failed += abs(stats["failures"].get(reason, 0) - truth["ingest_failures"].get(reason, 0))
    if stats["failures"] != truth["ingest_failures"]:
        problems.append(f"ingest failures {stats['failures']} != planted {truth['ingest_failures']}")
    docs = _rows(out / "docs.jsonl")
    kept = _rows(out / "kept.jsonl")
    unique = _rows(out / "unique.jsonl")
    by_marker = {name: Counter(_marker(d["text"]) for d in rows)
                 for name, rows in (("docs", docs), ("kept", kept), ("unique", unique))}
    # Each planted group reaches docs, kept and unique exactly as planted.
    mismatched = []
    for mk, g in groups.items():
        want_kept = g["members"] if g["fate"] == "keep" else 0
        want = {"docs": g["members"], "kept": want_kept, "unique": 1 if want_kept else 0}
        for name, n in want.items():
            if by_marker[name][mk] != n:
                failed += abs(by_marker[name][mk] - n)
                mismatched.append(f"{mk} in {name}: {by_marker[name][mk]}, planted {n}")
    if mismatched:
        problems.append(f"{len(mismatched)} planted group counts differ, e.g. {mismatched[:3]}")
    for name, counts in by_marker.items():
        stray = sum(n for mk, n in counts.items() if mk not in groups)
        if stray:
            problems.append(f"{stray} documents in {name} carry no planted marker")

    # Filters: drops partition the input and equal the planted counts.
    report = _json(out / "filter_report.json")
    if report["input"] != len(docs) or report["retained"] + sum(report["dropped"].values()) != report["input"]:
        problems.append(f"filter drops do not partition the input: {report}")
    if report["dropped"] != truth["filter_drops"]:
        problems.append(f"filter drops {report['dropped']} != planted {truth['filter_drops']}")

    # Dedup: every reported pair is a true duplicate, planted pairs are found,
    # and each group keeps its smallest doc_id.
    cfg = DedupConfig(**truth["dedup"])
    kept_by_id = {d["doc_id"]: d for d in kept}
    components = _Components()
    for pair in _rows(out / "dup_pairs.jsonl"):
        a, b = kept_by_id[pair["a"]], kept_by_id[pair["b"]]
        j = jaccard(shingle(Document.from_dict(a), cfg.ngram), shingle(Document.from_dict(b), cfg.ngram))
        if j < cfg.jaccard_threshold or abs(j - pair["jaccard"]) > 1e-12:
            problems.append(f"pair {pair['a']}/{pair['b']}: reported {pair['jaccard']}, recomputed {j}")
        if _marker(a["text"]) != _marker(b["text"]):
            problems.append(f"pair {pair['a']}/{pair['b']} joins two planted groups")
        components.union(pair["a"], pair["b"])
    near = [mk for mk, g in groups.items() if g["near"] and g["fate"] == "keep"]
    found = 0
    for mk in near:
        ids = [d["doc_id"] for d in kept if _marker(d["text"]) == mk]
        found += len(ids) == 2 and components.find(ids[0]) == components.find(ids[1])
    recall = found / len(near) if near else 1.0
    if recall < RECALL_FLOOR:
        problems.append(f"near-duplicate recall {recall:.3f} < {RECALL_FLOOR}")
    survivors = {_marker(d["text"]): d["doc_id"] for d in unique}
    smallest: dict[str, str] = {}
    for d in kept:
        mk = _marker(d["text"])
        smallest[mk] = min(smallest.get(mk, d["doc_id"]), d["doc_id"])
    for mk, doc_id in survivors.items():
        if mk in smallest and doc_id != smallest[mk]:
            failed += 1
            problems.append(f"group {mk} kept {doc_id}, not its smallest doc_id {smallest[mk]}")
    dd = _json(out / "dedup_report.json")
    if dd["dropped"]["exact"] != truth["exact_drops"] or dd["dropped"]["sentence"] != 0:
        problems.append(f"dedup drops {dd['dropped']} != planted exact {truth['exact_drops']}, sentence 0")

    # Sentence pass: no normalised sentence exceeds the cap; boilerplate sits exactly at it.
    counts: Counter = Counter()
    for d in unique:
        for part in _SENTENCE_END.split(d["text"]):
            key = _WS.sub(" ", part).strip()
            if key:
                counts[key] += 1
    cap = truth["sentence_cap"]
    over = [s for s, n in counts.items() if n > cap]
    if over:
        problems.append(f"{len(over)} sentences exceed the cap of {cap}, e.g. {over[0]!r}")
    for sentence in truth["boilerplate"]:
        if counts[sentence] != cap:
            problems.append(f"boilerplate {sentence!r} kept {counts[sentence]} times, cap is {cap}")

    # Mix: every domain survivor goes in; DAPT meets its ratio, MIP adds every instruction.
    mix = _json(out / "mix_report.json")
    domain = sum(1 for d in unique if d["source_kind"] != "general")
    train = len(_rows(out / "train.jsonl"))
    if truth["mode"] == "dapt":
        ok = (mix["domain_count"] == domain and mix["shortfall"] == 0
              and mix["achieved_ratio"] >= truth["ratio_general"]
              and train == mix["domain_count"] + mix["general_count"])
    else:
        ok = (mix["pretrain_count"] == domain and mix["instruction_count"] == truth["instructions"]
              and train == domain + truth["instructions"])
    if not ok:
        problems.append(f"mix report {mix} does not match {domain} domain survivors / {train} train rows")

    return digests, (truth["records"] if problems else min(failed, truth["records"])), problems


def check_sft(out: Path, truth: dict, server: dict) -> tuple[dict, int, list[str]]:
    problems: list[str] = []
    failed = 0
    attempted = truth["fresh_requests"]

    fresh = (out / "sft.jsonl").read_bytes()
    if fresh != (out / "sft_replay.jsonl").read_bytes():
        problems.append("replayed sft.jsonl differs from the fresh one")
    gen = _json(out / "gen_report.json")
    replay = _json(out / "replay_report.json")
    want = truth["gen"]
    if replay["requests_sent"] != 0 or replay["replayed"] != gen["requests_sent"]:
        problems.append(f"replay sent {replay['requests_sent']} requests and replayed {replay['replayed']}")
    failed += abs(gen["requests_sent"] - want["requests"]) + abs(gen["accepted"] - want["accepted"])
    if gen["requests_sent"] != want["requests"] or gen["accepted"] != want["accepted"]:
        problems.append(f"sent {gen['requests_sent']} requests and accepted {gen['accepted']}, "
                        f"planted {want['requests']} and {want['accepted']}")
    for cls in set(want["rejected"]) | set(gen["rejected"]):
        failed += abs(gen["rejected"].get(cls, 0) - want["rejected"].get(cls, 0))
    if gen["rejected"] != want["rejected"] or gen["budget_exhausted"]:
        problems.append(f"rejections {gen['rejected']} != planted {want['rejected']}")

    expected = round_pct(truth["eval_correct"], truth["eval_items"])
    eval_digests = {}
    for path in sorted(out.glob("eval_*shot.json")):
        rep = _json(path)
        eval_digests[path.name] = sha256(path.read_bytes())
        correct = sum(1 for row in rep["per_item"] if row["correct"])
        failed += abs(correct - truth["eval_correct"])
        if (correct != truth["eval_correct"] or rep["overall_micro"] != expected or rep["degraded"]
                or rep["items_total"] != truth["eval_items"]):
            problems.append(f"{path.name}: {correct} correct, micro {rep['overall_micro']}; "
                            f"planted {truth['eval_correct']}, {expected}")
    if len(eval_digests) != len(SHOTS):
        problems.append(f"{len(eval_digests)} eval reports, expected one per shot count {SHOTS}")
    if _json(out / "eval_best.json")["config"]["shots"] != 0:
        problems.append("best_of_settings did not break the tie towards fewer shots")

    if server["ok"] + server["bad"] != attempted or server["bad"] != want["bad_requests"]:
        problems.append(f"server saw {server}, expected {attempted} answered requests")

    rows = [json.loads(line) for line in fresh.decode("utf-8").splitlines()]
    for row in rows:
        row.get("gen_meta", {}).pop("timestamp", None)  # wall-clock time of the reply
    digests = {
        "sft.jsonl without timestamps": sha256(json.dumps(rows, ensure_ascii=False).encode("utf-8")),
        "gen_report.json": sha256((out / "gen_report.json").read_bytes()),
        **eval_digests,
    }
    return digests, (attempted if problems else min(failed, attempted)), problems
