"""Seeded inputs for the two corpus workloads, with their planted ground truth.

Every raw record carries a group marker (第NNNNN号). Records planted as
duplicates of each other share one marker, so the checks can follow each
group through docs.jsonl, kept.jsonl and unique.jsonl without relying on
renokit's own ids or hashing.

Prose is drawn from U+4E00..U+8FFF and lexicon words only from
U+9000..U+9FA5, so a sensitive-word hit happens exactly where one was
planted. Record counts and lengths follow fixed schedules; the seed changes
content and order only, so every seed costs the same amount of work.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

PROSE = [chr(c) for c in range(0x4E00, 0x9000)]
LEXICON_ALPHABET = [chr(c) for c in range(0x9000, 0x9FA6)]
MARKER_RE = re.compile(r"第(\d{5})号")
ENGLISH = "the of and to in is for on with as by at from that this are be or an it was".split()

BOOKS = {
    "chapters": 32,  # unique domain chapters, lengths cycle through CHAPTER_LENGTHS
    "near": 3,  # chapters reposted with 1-3 character edits (~10 % of chapters)
    "exact": 2,  # chapters reposted with different line breaks only
    "sensitive": 6,
    "language": 4,
    "short": 4,
    "decode": 2,
    "general_ratio": 1.1,  # general tokens per domain token, so a 1:1 mix never runs short
    "lexicon": 2000,
}
CHAPTER_LENGTHS = (1500, 2400, 3300, 4200, 5100, 6000)

WEB = {
    "pages": 392,  # unique domain pages, content 300-600 characters
    "near": 84,  # reposts with 1-2 character edits; with "exact", ~30 % of pages are reposts
    "exact": 84,  # reposts whose markup differs only in whitespace
    "ascii": 16,
    "short": 16,
    "sensitive": 6,
    "empty": 6,  # pages that hold only a table and a script
    "decode": 2,
    "boilerplate": 8,
    "lexicon": 20,
    "instructions": 200,
}
PAGE_LENGTHS = (300, 360, 420, 480, 540, 600)

SENTENCE_CAP = 2


def marker(n: int) -> str:
    return f"第{n:05d}号"


def prose(rng: random.Random, n: int) -> str:
    return "".join(rng.choices(PROSE, k=n))


def sentences(rng: random.Random, total: int) -> list[str]:
    """Sentences of 12-30 prose characters plus 。, about `total` characters in all."""
    out: list[str] = []
    size = 0
    while size < total:
        n = min(rng.randint(12, 30), max(4, total - size - 1))
        out.append(prose(rng, n) + "。")
        size += n + 1
    return out


def lexicon(rng: random.Random, n: int) -> list[str]:
    words: set[str] = set()
    while len(words) < n:
        words.add("".join(rng.choices(LEXICON_ALPHABET, k=rng.choice((3, 4)))))
    return sorted(words)


def english(rng: random.Random, n_words: int) -> str:
    return " ".join(rng.choice(ENGLISH) for _ in range(n_words)) + "."


def edit(rng: random.Random, text: str, n_edits: int) -> str:
    """Replace n prose characters outside the marker with other prose characters."""
    chars = list(text)
    spans = [m.span() for m in MARKER_RE.finditer(text)]
    positions = [
        i for i, ch in enumerate(chars)
        if "一" <= ch < "退" and not any(lo <= i < hi for lo, hi in spans)
    ]
    for i in rng.sample(positions, n_edits):
        old = chars[i]
        while chars[i] == old:
            chars[i] = rng.choice(PROSE)
    return "".join(chars)


class Plan:
    """Ground truth accumulated while records are planted."""

    def __init__(self):
        self.records = 0
        self.next_marker = 1
        self.groups: dict[str, dict] = {}  # marker -> {"fate", "members", "near"}
        self.ingest_failures: dict[str, int] = {}
        self.input_bytes = 0

    def group(self, fate: str, members: int = 1, near: bool = False) -> str:
        """A new group of `members` records; fate is "keep" or the filter that drops it."""
        mk = marker(self.next_marker)
        self.next_marker += 1
        self.groups[mk] = {"fate": fate, "members": members, "near": near}
        self.records += members
        return mk

    def failure(self, reason: str) -> None:
        self.records += 1
        self.ingest_failures[reason] = self.ingest_failures.get(reason, 0) + 1

    def truth(self, **extra) -> dict:
        filter_drops = {r: sum(g["members"] for g in self.groups.values() if g["fate"] == r)
                        for r in ("sensitive", "language", "length")}
        kept = [g for g in self.groups.values() if g["fate"] == "keep"]
        return {
            "records": self.records,
            "groups": self.groups,
            "ingest_failures": dict(sorted(self.ingest_failures.items())),
            "filter_drops": filter_drops,
            "exact_drops": sum(g["members"] - 1 for g in kept if not g["near"]),
            "input_bytes": self.input_bytes,
            "sentence_cap": SENTENCE_CAP,
            "dedup": dedup_config(),
            **extra,
        }


def _write(plan: Plan, path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    plan.input_bytes += len(data)


def jsonl_bytes(rows: list[dict]) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode("utf-8")


def dedup_config() -> dict:
    return {"ngram": 5, "num_perm": 128, "jaccard_threshold": 0.8, "lsh_bands": 16, "lsh_rows": 8,
            "sentence_max_repeats": SENTENCE_CAP, "sentence_scope": "corpus", "seed": 1}


def _inputs(root: Path, pattern: str, kind: str) -> list[dict]:
    # One entry per file: the pipeline digests each input path, so it takes
    # files, not directories.
    return [{"path": p.relative_to(root).as_posix(), "kind": kind} for p in sorted(root.glob(pattern))]


def _write_config(root: Path, seed: int, config: dict) -> None:
    config = {"seed": seed, "tokenizer": "approx-cjk-v1", **config}
    (root / "pipeline.json").write_text(json.dumps(config, ensure_ascii=False, indent=2), encoding="utf-8")


# --- corpus-books ---------------------------------------------------------------


def _chapter(rng: random.Random, mk: str, length: int) -> list[str]:
    """Paragraphs of 3-8 sentences; the marker opens the first sentence."""
    sents = sentences(rng, length - len(mk))
    sents[0] = mk + sents[0]
    paras: list[str] = []
    while sents:
        k = rng.randint(3, 8)
        paras.append("".join(sents[:k]))
        sents = sents[k:]
    return paras


def build_books(root: Path, seed: int) -> dict:
    """Long plain-text CJK chapters in a directory plus a general JSONL pool."""
    rng = random.Random(seed)
    plan = Plan()
    books = root / "raw" / "books"
    words = lexicon(rng, BOOKS["lexicon"])
    chapters: list[tuple[str, str]] = []  # (file stem, text)

    lengths = [CHAPTER_LENGTHS[i % len(CHAPTER_LENGTHS)] for i in range(BOOKS["chapters"])]
    rng.shuffle(lengths)
    domain_chars = 0
    for i, length in enumerate(lengths):
        if i < BOOKS["near"]:
            mk = plan.group("keep", members=2, near=True)
            paras = _chapter(rng, mk, length)
            chapters.append((f"ch{mk[1:6]}a", "\n".join(paras)))
            chapters.append((f"ch{mk[1:6]}b", edit(rng, "\n".join(paras), rng.randint(1, 3))))
        elif i < BOOKS["near"] + BOOKS["exact"]:
            mk = plan.group("keep", members=2)
            paras = _chapter(rng, mk, length)
            chapters.append((f"ch{mk[1:6]}a", "\n".join(paras)))
            chapters.append((f"ch{mk[1:6]}b", "\n\n".join(paras)))
        else:
            mk = plan.group("keep")
            chapters.append((f"ch{mk[1:6]}", "\n".join(_chapter(rng, mk, length))))
        domain_chars += length

    for _ in range(BOOKS["sensitive"]):
        mk = plan.group("sensitive")
        paras = _chapter(rng, mk, 1500)
        at = rng.randrange(1, len(paras[-1]))
        paras[-1] = paras[-1][:at] + words[rng.randrange(len(words))] + paras[-1][at:]
        chapters.append((f"ch{mk[1:6]}", "\n".join(paras)))
    for _ in range(BOOKS["language"]):
        mk = plan.group("language")
        body = "\n".join(english(rng, 40) for _ in range(8))
        chapters.append((f"ch{mk[1:6]}", mk + prose(rng, 20) + "。\n" + body))
    for i in range(BOOKS["short"]):
        mk = plan.group("length")
        chapters.append((f"ch{mk[1:6]}", mk + prose(rng, 60 + 20 * i) + "。"))

    rng.shuffle(chapters)
    for stem, text in chapters:
        _write(plan, books / f"{stem}.txt", text.encode("utf-8"))
    for i in range(BOOKS["decode"]):
        plan.failure("decode_error")
        legacy = (marker(90000 + i) + prose(rng, 800) + "。").encode("gbk")
        _write(plan, books / f"legacy{i}.txt", b"\xff" + legacy)

    general: list[dict] = []
    general_chars = 0
    while general_chars < BOOKS["general_ratio"] * domain_chars:
        mk = plan.group("keep")
        length = 800 + 300 * (len(general) % 5)
        general.append({"id": f"gen-{mk[1:6]}", "text": "\n".join(_chapter(rng, mk, length)), "kind": "general"})
        general_chars += length
    _write(plan, root / "raw" / "general.jsonl", jsonl_bytes(general))

    (root / "lexicon.txt").write_text("\n".join(words) + "\n", encoding="utf-8")
    _write_config(root, seed, {
        "ingest": {"inputs": _inputs(root, "raw/books/*.txt", "domain_book")
                   + [{"path": "raw/general.jsonl", "kind": "general"}]},
        "filters": {"sensitive_word_list": "lexicon.txt", "min_effective_chars": 200,
                    "target_language": "zh", "min_language_ratio": 0.7},
        "dedup": dedup_config(),
        "mix": {"ratio": "1:1", "mode": "dapt", "unit": "tokens", "seed": seed},
    })
    return plan.truth(mode="dapt", ratio_general=1, boilerplate=[])


# --- corpus-web -------------------------------------------------------------------


def _render_page(parts: dict, spaced_title: bool = False) -> str:
    sep = "\n" if spaced_title else " "
    body = parts["sentences"]
    half = len(body) // 2
    return (
        f"<html><head><title>{parts['title']}</title>"
        f"<script>var page = \"{parts['n']}\"; track(page);</script></head>\n"
        f"<body><h1>{parts['title']}{sep}{parts['marker']}</h1>\n"
        f"<p>{''.join(body[:half])}</p>\n"
        f"<img src=\"/img/{parts['n']}.png\" alt=\"{parts['title']}\"/>"
        f"<p>{''.join(body[half:])} 详见 https://www.example.com/item/{parts['n']}.html 。</p>\n"
        f"<table><tr><td>规格</td><td>{parts['spec']}</td></tr><tr><td>型号</td><td>{parts['n']}</td></tr></table>\n"
        f"<p>{''.join(parts['boilerplate'])}</p></body></html>"
    )


def build_web(root: Path, seed: int) -> dict:
    """Short HTML-like pages in one JSONL file plus a few standalone files."""
    rng = random.Random(seed)
    plan = Plan()
    words = lexicon(rng, WEB["lexicon"])
    boiler = [prose(rng, rng.randint(14, 24)) + "。" for _ in range(WEB["boilerplate"])]
    pages: list[str] = []

    def parts(mk: str, length: int) -> dict:
        n = int(mk[1:6])
        return {"n": n, "marker": mk, "title": prose(rng, 6), "spec": prose(rng, 8),
                "sentences": sentences(rng, length), "boilerplate": rng.sample(boiler, 2)}

    lengths = [PAGE_LENGTHS[i % len(PAGE_LENGTHS)] for i in range(WEB["pages"])]
    rng.shuffle(lengths)
    for i, length in enumerate(lengths):
        if i < WEB["near"]:
            mk = plan.group("keep", members=2, near=True)
            p = parts(mk, length)
            pages.append(_render_page(p))
            twin = dict(p)
            edited = edit(rng, "\n".join(p["sentences"]), rng.randint(1, 2))
            twin["sentences"] = edited.split("\n")
            pages.append(_render_page(twin))
        elif i < WEB["near"] + WEB["exact"]:
            mk = plan.group("keep", members=2)
            p = parts(mk, length)
            pages.append(_render_page(p))
            pages.append(_render_page(p, spaced_title=True))
        else:
            mk = plan.group("keep")
            pages.append(_render_page(parts(mk, length)))

    for _ in range(WEB["sensitive"]):
        mk = plan.group("sensitive")
        p = parts(mk, 360)
        p["sentences"][-1] = words[rng.randrange(len(words))] + p["sentences"][-1]
        pages.append(_render_page(p))
    for _ in range(WEB["ascii"]):
        mk = plan.group("language")
        p = parts(mk, 40)
        p["sentences"] = [english(rng, 12) for _ in range(6)]
        pages.append(_render_page(p))
    for _ in range(WEB["short"]):
        mk = plan.group("length")
        pages.append(f"<div><p>{mk}{prose(rng, rng.randint(20, 40))}。</p></div>")
    for _ in range(WEB["empty"]):
        plan.failure("empty_after_extraction")
        pages.append(f"<table><tr><td>{prose(rng, 10)}</td></tr></table><script>var x = 1;</script>")

    rng.shuffle(pages)
    rows = [{"id": f"page-{i:05d}", "text": html, "kind": "domain_website"} for i, html in enumerate(pages)]
    _write(plan, root / "raw" / "web.jsonl", jsonl_bytes(rows))
    for i in range(WEB["decode"]):
        plan.failure("decode_error")
        legacy = f"<p>{marker(90000 + i)}{prose(rng, 200)}。</p>".encode("gbk")
        _write(plan, root / "raw" / "files" / f"legacy{i}.html", b"\xff" + legacy)

    instructions = []
    for i in range(WEB["instructions"]):
        question = prose(rng, rng.randint(10, 20)) + "？"
        answer = "".join(sentences(rng, rng.randint(60, 160)))
        instructions.append({
            "kind": "one_turn",
            "turns": [{"role": "user", "content": question}, {"role": "assistant", "content": answer}],
            "category": "行业标准",
            "knowledge_id": f"k{i:05d}",
            "gen_meta": {},
        })
    _write(plan, root / "raw" / "instructions.jsonl", jsonl_bytes(instructions))

    (root / "lexicon.txt").write_text("\n".join(words) + "\n", encoding="utf-8")
    _write_config(root, seed, {
        "ingest": {"inputs": [{"path": "raw/web.jsonl", "kind": "domain_website"}]
                   + _inputs(root, "raw/files/*.html", "domain_website")},
        "filters": {"sensitive_word_list": "lexicon.txt", "min_effective_chars": 80,
                    "target_language": "zh", "min_language_ratio": 0.7},
        "dedup": dedup_config(),
        "mix": {"ratio": "1:0", "mode": "mip", "instructions": "raw/instructions.jsonl", "seed": seed},
    })
    return plan.truth(mode="mip", instructions=len(instructions), boilerplate=boiler)
