"""Deterministic synthetic fixtures: corpora, MCQ datasets, scripted responses.

Everything here is a pure function of fixed seeds so tests and acceptance
checks are reproducible byte for byte.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from renokit.ingest import Document, doc_id_for
from renokit.jsonl import write_jsonl
from renokit.sftgen import PromptTemplate, load_template

# --- small text helpers -------------------------------------------------------


def cjk_text(rng: random.Random, length: int) -> str:
    return "".join(chr(rng.randrange(0x4E00, 0x9FFF)) for _ in range(length))


def make_doc(text: str, kind: str = "domain_book", status: str = "retained") -> Document:
    doc = Document(
        doc_id=doc_id_for(text, kind),
        text=text,
        source_kind=kind,
        token_count=sum(1 for ch in text if "一" <= ch <= "鿿"),
        char_count=len(text),
    )
    doc.status = status
    return doc


# --- EvalHome-shaped MCQ fixture ------------------------------------------------

# 22/87/4 questions across 6/17/2 subclasses, 113 in total.
EVALHOME_SHAPE = {
    "fundamentals": [4, 4, 4, 4, 3, 3],
    "expertise": [6, 6] + [5] * 15,
    "innovative_design": [2, 2],
}

_SINGLE_OPTIONS = ("A", "B", "C", "D")
_JUDGMENT_OPTIONS = ("A", "B")


def build_evalhome_rows() -> list[dict]:
    rows: list[dict] = []
    idx = 0
    for difficulty, subclass_sizes in EVALHOME_SHAPE.items():
        for sub_no, size in enumerate(subclass_sizes, start=1):
            subclass = f"{difficulty[:4]}-子类{sub_no:02d}"
            for q_no in range(size):
                idx += 1
                code = f"Q{idx:03d}"
                judgment = idx % 9 == 0
                if judgment:
                    options = {"A": "对", "B": "错"}
                    gold = _JUDGMENT_OPTIONS[idx % 2]
                    qtype = "judgment"
                else:
                    options = {k: f"{code}选项{k}的内容" for k in _SINGLE_OPTIONS}
                    gold = _SINGLE_OPTIONS[idx % 4]
                    qtype = "single_choice"
                rows.append(
                    {
                        "id": f"eh-{idx:04d}",
                        "question": f"[{code}] 家装考题第{idx}号，正确说法是哪一项？",
                        "question_type": qtype,
                        "options": options,
                        "correct_option": gold,
                        "reason": f"{code}的依据。",
                        "category": difficulty,
                        "subclass": subclass,
                        "difficulty": difficulty,
                        "split": "dev" if idx <= 6 else "test",
                    }
                )
    assert len(rows) == 113
    return rows


def write_evalhome(path: Path) -> Path:
    write_jsonl(path, build_evalhome_rows())
    return path


# --- filter corpus ---------------------------------------------------------------

SENSITIVE_WORDS = ("违禁甲", "违禁乙", "违禁丙")


def build_filter_docs(n: int = 1000, seed: int = 11) -> list[Document]:
    rng = random.Random(seed)
    docs: list[Document] = []
    for i in range(n):
        if i < 100:  # sensitive content, otherwise clean
            word = SENSITIVE_WORDS[i % len(SENSITIVE_WORDS)]
            text = cjk_text(rng, 60) + word + cjk_text(rng, 60)
        elif i < 250:  # varying ascii share
            ascii_len = 20 + (i % 80)
            cjk_len = 5 + (i % 40)
            text = "x" * ascii_len + cjk_text(rng, cjk_len)
        elif i < 400:  # varying short lengths
            text = cjk_text(rng, 10 + (i % 85))
        else:  # clean, long
            text = cjk_text(rng, 120 + (i % 130))
        docs.append(make_doc(text, status="ingested"))
    return docs


# --- dedup corpus ----------------------------------------------------------------


def build_dedup_docs(
    n_docs: int = 500,
    n_pairs: int = 50,
    seed: int = 23,
    length: int = 160,
) -> tuple[list[Document], list[tuple[str, str]]]:
    """Corpus with planted near-duplicate pairs (two-character edits)."""
    rng = random.Random(seed)
    bases = [cjk_text(rng, length) for _ in range(n_docs - n_pairs)]
    docs = [make_doc(t) for t in bases]
    planted: list[tuple[str, str]] = []
    for i in range(n_pairs):
        base = bases[i]
        pos1 = 10 + i % (length - 90)
        pos2 = pos1 + 70
        mutated = list(base)
        mutated[pos1] = chr(ord(base[pos1]) + 1)
        mutated[pos2] = chr(ord(base[pos2]) + 1)
        twin = make_doc("".join(mutated))
        docs.append(twin)
        a, b = sorted((docs[i].doc_id, twin.doc_id))
        planted.append((a, b))
    return docs, planted


# --- pipeline fixture --------------------------------------------------------------

_BOILERPLATE = "施工前请仔细阅读产品说明书并做好成品保护。"


def _sentences(rng: random.Random, n: int, width: int = 24) -> str:
    return "".join(cjk_text(rng, width) + "。" for _ in range(n))


def write_pipeline_fixture(root: Path, seed: int = 42) -> Path:
    """Twenty raw records across txt/html/jsonl plus a pipeline config."""
    rng = random.Random(seed)
    raw = root / "raw"
    raw.mkdir(parents=True, exist_ok=True)

    std1 = _sentences(rng, 7)
    std2 = _sentences(rng, 7) + " 详见 http://standards.example.com/gb123 。"
    (raw / "std1.txt").write_text(std1, encoding="utf-8")
    (raw / "std2.txt").write_text(std2, encoding="utf-8")

    book1 = _sentences(rng, 7)
    book2 = _sentences(rng, 7)
    book3 = _BOILERPLATE + _sentences(rng, 6)
    (raw / "book1.txt").write_text(book1, encoding="utf-8")
    (raw / "book1_copy.txt").write_text(book1.replace("。", "。  "), encoding="utf-8")
    (raw / "book2.txt").write_text(book2, encoding="utf-8")
    (raw / "book2_near.txt").write_text("改" + book2[1:], encoding="utf-8")
    (raw / "book3.txt").write_text(book3, encoding="utf-8")

    body1 = _sentences(rng, 6)
    body2 = _sentences(rng, 6)
    (raw / "web1.html").write_text(
        f"<html><body><h1>指南</h1><p>{body1}</p><img src='x.png'/>"
        f"<table><tr><td>规格</td><td>数值</td></tr></table></body></html>",
        encoding="utf-8",
    )
    (raw / "web2.html").write_text(
        f"<div><p>{body2}</p><script>var x=1;</script></div>", encoding="utf-8"
    )
    (raw / "web_sensitive.txt").write_text(_sentences(rng, 5) + SENSITIVE_WORDS[0] + "。", encoding="utf-8")
    (raw / "web_short.txt").write_text("太短。", encoding="utf-8")
    (raw / "web_ascii.txt").write_text("mostly ascii content here " * 8 + "家", encoding="utf-8")

    (raw / "boiler1.txt").write_text(_BOILERPLATE + _sentences(rng, 6), encoding="utf-8")
    (raw / "boiler2.txt").write_text(_BOILERPLATE + _sentences(rng, 6), encoding="utf-8")

    general_rows = [
        {"id": f"gen-{i}", "text": _sentences(rng, 14), "kind": "general"} for i in range(6)
    ]
    write_jsonl(raw / "general.jsonl", general_rows)

    (root / "lexicon.txt").write_text("\n".join(SENSITIVE_WORDS) + "\n", encoding="utf-8")

    config = {
        "seed": seed,
        "tokenizer": "approx-cjk-v1",
        "ingest": {
            "inputs": [
                {"path": "raw/std1.txt", "kind": "national_standard"},
                {"path": "raw/std2.txt", "kind": "national_standard"},
                {"path": "raw/book1.txt", "kind": "domain_book"},
                {"path": "raw/book1_copy.txt", "kind": "domain_book"},
                {"path": "raw/book2.txt", "kind": "domain_book"},
                {"path": "raw/book2_near.txt", "kind": "domain_book"},
                {"path": "raw/book3.txt", "kind": "domain_book"},
                {"path": "raw/web1.html", "kind": "domain_website"},
                {"path": "raw/web2.html", "kind": "domain_website"},
                {"path": "raw/web_sensitive.txt", "kind": "domain_website"},
                {"path": "raw/web_short.txt", "kind": "domain_website"},
                {"path": "raw/web_ascii.txt", "kind": "domain_website"},
                {"path": "raw/boiler1.txt", "kind": "domain_website"},
                {"path": "raw/boiler2.txt", "kind": "domain_website"},
                {"path": "raw/general.jsonl", "kind": "general"},
            ]
        },
        "filters": {
            "sensitive_word_list": "lexicon.txt",
            "min_effective_chars": 30,
            "min_language_ratio": 0.6,
        },
        "dedup": {"ngram": 5, "num_perm": 128, "jaccard_threshold": 0.8, "lsh_bands": 16, "lsh_rows": 8},
        "mix": {"ratio": "1:1", "mode": "dapt", "unit": "tokens", "seed": seed},
    }
    config_path = root / "pipeline.json"
    config_path.write_text(json.dumps(config, ensure_ascii=False, indent=2), encoding="utf-8")
    return config_path


# --- generation fixture ---------------------------------------------------------------


def packaged_templates(*kinds: str) -> dict[str, PromptTemplate]:
    """The packaged prompt template of each generation kind, as batch_generate takes them."""
    return {kind: load_template(kind) for kind in kinds}


def build_gen_docs() -> list[Document]:
    """100 knowledge docs with unique G-codes embedded in the text."""
    rng = random.Random(7)
    docs = []
    for i in range(1, 101):
        marker = f"G{i:03d}"
        docs.append(make_doc(f"[{marker}] " + cjk_text(rng, 80) + "。"))
    return docs


def _mcq_response(marker: str, serial: int) -> str:
    gold = "ABCD"[serial % 4]
    payload = {
        "question": f"[{marker}] 该知识点的正确说法是？",
        "question_type": "单选",
        "candidate_options": {k: f"{marker}选项{k}" for k in "ABCD"},
        "answer": {"correct_option": gold, "reason": f"{marker}依据"},
    }
    return "答复如下：" + json.dumps(payload, ensure_ascii=False)


def _multi_response(marker: str) -> str:
    return (
        f"user: 关于{marker}，第一步做什么？\n"
        f"assistant: {marker}第一步是基层检查，需要确认平整度与含水率。\n"
        f"user: 然后呢？\n"
        f"assistant: 之后按{marker}工艺分层施工并留足养护时间。"
    )


def _one_turn_items(marker: str, categories: list[str], count: int) -> str:
    items = [
        {"question": f"[{marker}] 问题{j}？", "answer": f"{marker}答案{j}", "category": categories[j % len(categories)]}
        for j in range(count)
    ]
    return json.dumps(items, ensure_ascii=False)


def gen_script(categories: tuple[str, ...]):
    """Scripted endpoint: 90 valid responses, 10 bad across every error class.

    mcq g001-g050: 46 valid; g047/g048 malformed; g049 option mismatch;
    g050 wrong arity. multi g051-g097: 44 valid; g095/g096 role order;
    g097 malformed. one-turn g098-g100: category out of set / count out of
    range / malformed.
    """
    cats = list(categories)

    def script(messages) -> str:
        content = messages[0]["content"]
        import re

        m = re.search(r"G(\d{3})", content)
        if not m:  # one-turn step 2 never fires for the all-bad one-turn docs
            return "详细答案。"
        serial = int(m.group(1))
        marker = f"G{serial:03d}"
        if "单选题或判断题" in content:
            if serial in (47, 48):
                return "抱歉，我给不出JSON。"
            if serial == 49:
                return _mcq_response(marker, serial).replace(
                    '"correct_option": "' + "ABCD"[serial % 4] + '"', '"correct_option": "E"'
                )
            if serial == 50:
                bad = {
                    "question": f"[{marker}] 判断对错。",
                    "question_type": "判断",
                    "candidate_options": {k: f"{marker}选项{k}" for k in "ABCD"},
                    "answer": {"correct_option": "A", "reason": "理由"},
                }
                return json.dumps(bad, ensure_ascii=False)
            return _mcq_response(marker, serial)
        if "生成一个user和你的对话" in content:
            if serial in (95, 96):
                return f"assistant: 我先说。\nuser: 好的？\nassistant: {marker}内容。\nuser: 嗯。"
            if serial == 97:
                return f"这段文字没有任何角色标记，只有{marker}的描述。"
            return _multi_response(marker)
        if "出5至20道题" in content:
            if serial == 98:
                return _one_turn_items(marker, ["烹饪技法"], 6)
            if serial == 99:
                return _one_turn_items(marker, cats, 3)
            return "没有可解析的内容"
        return "详细答案。"

    return script
