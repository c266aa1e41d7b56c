"""Raw-record ingestion: text extraction, cleaning, and corpus accounting.

Extraction strips markup, drops regions that carry no prose (tables, figures,
scripts), removes URLs, and normalizes whitespace. Markup is read by one token
scan, or, for text outside the scan's subset, by the HTMLParser reading
(`_markup_stripper`); the html package loads on the first entity reference
and html.parser on the first text the scan refuses, so plain text and
entity-free pages load neither. Cleaning is a fixpoint:
running it on already-clean text returns the text unchanged, which is what
makes downstream content hashes stable.
"""

from __future__ import annotations

import functools
import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DecodeError, EmptyAfterExtraction, SchemaError
from .jsonl import Record, line_error, read_jsonl, read_records
from .tokenizers import TOKENIZER, count_tokens_batch

SOURCE_KINDS = ("national_standard", "domain_book", "domain_website", "general")
DOMAIN_KINDS = ("national_standard", "domain_book", "domain_website")

STATUS_INGESTED = "ingested"
STATUS_FILTERED_OUT = "filtered_out"
STATUS_DEDUPED_OUT = "deduped_out"
STATUS_RETAINED = "retained"

_STATUSES = (STATUS_INGESTED, STATUS_FILTERED_OUT, STATUS_DEDUPED_OUT, STATUS_RETAINED)


@dataclass(frozen=True)
class RawRecord:
    source_id: str
    source_kind: str
    payload: bytes

    def __post_init__(self):
        if self.source_kind not in SOURCE_KINDS:
            raise ValueError(f"source_kind must be one of {SOURCE_KINDS}, got {self.source_kind!r}")


@dataclass
class Document(Record):
    doc_id: str
    text: str
    source_kind: str
    token_count: int
    char_count: int
    status: str = STATUS_INGESTED
    reason: str | None = None

    def __post_init__(self):
        if self.source_kind not in SOURCE_KINDS:
            raise SchemaError(f"document {self.doc_id}: bad source_kind {self.source_kind!r}")
        if self.status not in _STATUSES:
            raise SchemaError(f"document {self.doc_id}: bad status {self.status!r}")

    def mark(self, status: str, reason: str | None = None) -> None:
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        self.status = status
        self.reason = reason


def doc_id_for(text: str, source_kind: str) -> str:
    """Stable 128-bit content id over (cleaned text, source kind)."""
    payload = text.encode("utf-8") + b"\x1f" + source_kind.encode("utf-8")
    return hashlib.md5(payload).hexdigest()


# --- markup stripping -------------------------------------------------------

_MARKUP_ACTIVE = "<>&"


def _entity_text(raw: str) -> str:
    """The text of an entity or character reference `raw`, e.g. "&nbsp;". It is
    kept escaped when unknown or when its text would hold a markup-active
    character, so that cleaning remains a fixpoint; html.unescape also reads a
    legacy entity glued to more letters, e.g. "&ltp;" as "<p;". The html
    package and its entity tables load here, on the first entity read."""
    import html

    decoded = html.unescape(raw)
    return raw if any(ch in decoded for ch in _MARKUP_ACTIVE) else decoded


# Elements whose content is never prose, and elements that end a line.
_DROP = frozenset({
    "table", "thead", "tbody", "tfoot", "tr", "script", "style",
    "figure", "svg", "picture", "head", "iframe", "noscript",
})
_BLOCK = frozenset({
    "p", "div", "li", "ul", "ol", "h1", "h2", "h3", "h4", "h5", "h6",
    "section", "article", "blockquote", "pre", "td", "th",
})


@functools.cache
def _markup_stripper() -> type:
    """_MarkupStripper, the HTMLParser reading of markup, defined on first use:
    html.parser loads only for a text that leaves the token scan."""
    from html.parser import HTMLParser

    class _MarkupStripper(HTMLParser):
        """Collects prose text, skipping regions whose content is never prose."""

        def __init__(self):
            super().__init__(convert_charrefs=False)
            self._chunks: list[str] = []
            self._drop_depth = 0

        def handle_starttag(self, tag, attrs):
            if tag == "br":
                if not self._drop_depth:
                    self._chunks.append("\n")
                return
            if tag in _DROP:
                self._drop_depth += 1
            elif tag in _BLOCK and not self._drop_depth:
                self._chunks.append("\n")

        def handle_endtag(self, tag):
            if tag in _DROP:
                self._drop_depth = max(0, self._drop_depth - 1)
            elif tag in _BLOCK and not self._drop_depth:
                self._chunks.append("\n")

        def handle_data(self, data):
            if not self._drop_depth:
                self._chunks.append(data)

        def handle_entityref(self, name):
            if not self._drop_depth:
                self._chunks.append(_entity_text(f"&{name};"))

        def handle_charref(self, name):
            if not self._drop_depth:
                self._chunks.append(_entity_text(f"&#{name};"))

        def text(self) -> str:
            return "".join(self._chunks)

    return _MarkupStripper


# The markup subset that strip_markup reads without HTMLParser, one token per
# match, chosen so that every HTMLParser version reads each token the same
# way: tag and attribute names are ASCII, attribute values are quoted or bare
# and hold no "<" or ">", an entity ends in ";", and a comment holds no "--".
# An element whose body HTMLParser reads as raw text is one token: script and
# style with a body free of "<", and the elements that newer versions also read
# so with a body free of "<" and "&". A start tag of any of them alone is no
# token, nor is plaintext, whose body runs to the end of the input.
_SPACE = r"[ \t\n\r\f]"
_TAG_NAME = r"[a-zA-Z][-:a-zA-Z0-9]*"
_ATTRS = (rf"(?:{_SPACE}+[a-zA-Z_:][-.:a-zA-Z0-9_]*"
          rf"(?:{_SPACE}*={_SPACE}*(?:\"[^\"<>]*\"|'[^'<>]*'|[^\s\"'<>=`/]+(?=[ \t\n\r\f>])))?)*{_SPACE}*")


@functools.cache
def _markup_token_re() -> re.Pattern:
    """The token regex, compiled on first use: compiling it takes milliseconds,
    which importing the module for a command that reads no markup should not pay."""
    # (?ai:...) folds ASCII letter case only, so "ſ" and the Kelvin sign spell no tag name.
    script = "(?ai:script|style)"
    raw_text = "(?ai:title|textarea|xmp|iframe|noembed|noframes|noscript)"
    return re.compile(
        r"(?P<text>[^<&]+)"
        r"|(?P<entity>&(?:[a-zA-Z][-.a-zA-Z0-9]*|#[0-9]+|#[xX][0-9a-fA-F]+);)"
        rf"|<(?P<start>(?!(?:{script}|{raw_text}|(?ai:plaintext))[ \t\n\r\f/>]){_TAG_NAME})"
        rf"{_ATTRS}(?P<selfclose>/?)>"
        rf"|</(?P<end>{_TAG_NAME}){_SPACE}*>"
        rf"|<(?P<element>{raw_text}){_ATTRS}>(?P<body>[^<&]*)</(?P=element){_SPACE}*>"
        rf"|(?P<skip><!--(?!-?>)[^-]*(?:-[^-]+)*-->|<(?P<script>{script}){_ATTRS}>[^<]*</(?P=script){_SPACE}*>)"
    )


def _strip_tokens(text: str) -> str | None:
    """strip_markup for text made of _markup_token_re() tokens only, applying
    _MarkupStripper's rules to each; None if any position starts no token."""
    chunks: list[str] = []
    depth = 0
    pos = 0
    for m in _markup_token_re().finditer(text):
        if m.start() != pos:
            return None
        pos = m.end()
        kind = m.lastgroup
        if kind == "text":
            if not depth:
                chunks.append(m[0])
        elif kind == "entity":
            if not depth:
                chunks.append(_entity_text(m[0]))
        elif kind == "selfclose":  # a start tag; self-closing is a start then an end
            tag = m["start"].lower()
            if tag == "br":
                if not depth:
                    chunks.append("\n")
            elif tag in _DROP:
                if not m["selfclose"]:
                    depth += 1
            elif tag in _BLOCK and not depth:
                chunks.append("\n\n" if m["selfclose"] else "\n")
        elif kind == "end":
            tag = m["end"].lower()
            if tag in _DROP:
                depth = max(0, depth - 1)
            elif tag in _BLOCK and not depth:
                chunks.append("\n")
        elif kind == "body":  # none of these elements is a block; a drop one adds nothing
            if not depth and m["element"].lower() not in _DROP:
                chunks.append(m["body"])
    return "".join(chunks) if pos == len(text) else None


def strip_markup(text: str) -> str:
    """The prose of `text` with its markup removed. Text holding neither "<"
    nor "&" is one text token and comes back unchanged, without compiling the
    token regex. Text made only of the tokens of _markup_token_re() is read by
    one regex scan; anything else goes whole to HTMLParser (_MarkupStripper,
    from _markup_stripper()), which gives the same result."""
    if "<" not in text and "&" not in text:
        return text
    stripped = _strip_tokens(text)
    if stripped is not None:
        return stripped
    parser = _markup_stripper()()
    parser.feed(text)
    parser.close()
    return parser.text()


# --- cleaning rules ---------------------------------------------------------

# Scheme-prefixed URLs plus bare www. hosts; charset kept ASCII so adjacent
# CJK text is never swallowed. The pattern starts with the class [hfw], which
# lets the regex engine skip every other position in C; each alternative then
# checks which letter it began with. A bare www. host must not follow an ASCII
# letter, digit or dot, hence the two-character lookbehind over the first w.
_URL_RE = re.compile(
    r"[hfw](?:(?<=h)ttps?://|(?<=f)tp://|(?<![A-Za-z0-9.]w)(?<=w)ww\.)"
    r"[A-Za-z0-9._~:/?#@!$&'()*+;=%\[\]-]*"
)

_MD_IMAGE_RE = re.compile(r"!\[[^\]\n]*\]\([^)\n]*\)")

_SPACES_RE = re.compile("  +")
_BLANK_LINES_RE = re.compile("\n\n\n+")
_SPACE_RUN_RE = re.compile(r"\s+")


def _pipe_count(text: str) -> int:
    return text.count("|") + text.count("│") + text.count("║") + text.count("┃")


def _is_table_line(line: str) -> bool:
    # Both verdicts need two separators, so most lines stop at the counts.
    # Density is measured over non-whitespace characters so the verdict does
    # not change once whitespace runs have been collapsed.
    pipes = _pipe_count(line)
    tabs = line.count("\t")
    if pipes < 2 and tabs < 2:
        return False
    non_ws = len(_SPACE_RUN_RE.sub("", line))
    if pipes >= 2 and pipes / max(1, non_ws) > 0.30:
        return True
    return tabs >= 2 and tabs / max(1, tabs + non_ws) > 0.30


def _drop_table_lines(text: str) -> str:
    # Every table line holds two pipes or two tabs, so a text with fewer of
    # both holds none.
    if _pipe_count(text) < 2 and text.count("\t") < 2:
        return text
    return "\n".join(line for line in text.split("\n") if not _is_table_line(line))


def normalize_whitespace(text: str) -> str:
    """Collapse space runs within lines and runs of blank lines to one.

    Tabs, U+00A0 and U+3000 count as spaces; each line loses its leading and
    trailing whitespace (str.strip), and the text its leading and trailing
    blank lines. Every step is one pass in C over the whole text.
    """
    text = text.replace("\t", " ").replace("\u00a0", " ").replace("\u3000", " ")
    text = "\n".join(map(str.strip, _SPACES_RE.sub(" ", text).split("\n")))
    return _BLANK_LINES_RE.sub("\n\n", text).strip()


def clean_text(text: str) -> str:
    text = _MD_IMAGE_RE.sub(" ", text)
    text = strip_markup(text)
    if "://" in text or "www." in text:  # every URL holds one of them
        text = _URL_RE.sub("", text)
    text = _drop_table_lines(text)
    return normalize_whitespace(text)


def clean_record(record: RawRecord) -> str:
    """The clean article text of one raw record.

    Raises DecodeError for invalid UTF-8 and EmptyAfterExtraction when no
    text survives cleaning.
    """
    try:
        raw = record.payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{record.source_id}: {exc}") from None
    text = clean_text(raw)
    if not text:
        raise EmptyAfterExtraction(record.source_id)
    return text


def _document(text: str, source_kind: str, token_count: int) -> Document:
    return Document(
        doc_id=doc_id_for(text, source_kind),
        text=text,
        source_kind=source_kind,
        token_count=token_count,
        char_count=len(text),
        status=STATUS_INGESTED,
    )


# --- streaming ingestion ----------------------------------------------------


@dataclass
class PipelineStats(Record):
    """Per-kind document/token counts and failures of one ingest run."""

    tokenizer: str = TOKENIZER
    documents: dict[str, int] = field(default_factory=dict)
    tokens: dict[str, int] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    total_documents: int = 0
    total_tokens: int = 0


def ingest_stream(records: Iterable[RawRecord]) -> tuple[list[Document], PipelineStats]:
    """Clean each record as it is read, collecting per-record failures
    instead of raising, then count the tokens of every text in one batch.

    Output is sorted by doc_id, so the result is identical for any input
    order of the same record multiset.
    """
    texts: list[str] = []
    kinds: list[str] = []
    failures: Counter[str] = Counter()
    for record in records:
        try:
            texts.append(clean_record(record))
        except DecodeError:
            failures["decode_error"] += 1
            continue
        except EmptyAfterExtraction:
            failures["empty_after_extraction"] += 1
            continue
        kinds.append(record.source_kind)
    token_counts = count_tokens_batch(texts)
    documents: Counter[str] = Counter()
    tokens: Counter[str] = Counter()
    for kind, n in zip(kinds, token_counts):
        documents[kind] += 1
        tokens[kind] += n
    docs = sorted(map(_document, texts, kinds, token_counts), key=lambda d: d.doc_id)
    return docs, PipelineStats(documents=dict(sorted(documents.items())), tokens=dict(sorted(tokens.items())),
                               failures=dict(sorted(failures.items())), total_documents=len(docs),
                               total_tokens=sum(token_counts))


# --- file readers -----------------------------------------------------------


def source_files(path: str | Path) -> list[Path]:
    """The files `records_from_path` reads for `path`: the path itself, or
    every file under a directory in sorted order, dotfiles skipped."""
    path = Path(path)
    if not path.is_dir():
        return [path]
    return [f for child in sorted(path.iterdir()) if not child.name.startswith(".") for f in source_files(child)]


def records_from_path(path: str | Path, kind: str) -> Iterator[RawRecord]:
    """Yield raw records from a file or directory.

    JSONL files carry one record per line ({"id","text","kind"}, kind
    optional); anything else is read whole as a single record.
    """
    for file in source_files(path):
        if file.suffix.lower() == ".jsonl":
            for lineno, obj in read_jsonl(file):
                text = obj.get("text")
                if not isinstance(text, str):
                    raise line_error(file, lineno, "missing 'text'")
                try:  # a lone surrogate survives the encoding and fails clean_record's decode
                    record = RawRecord(source_id=str(obj.get("id") or f"{file.name}:{lineno}"),
                                       source_kind=obj.get("kind") or kind,
                                       payload=text.encode("utf-8", "surrogatepass"))
                except ValueError as exc:
                    raise line_error(file, lineno, exc) from None
                yield record
        else:
            yield RawRecord(source_id=file.name, source_kind=kind, payload=file.read_bytes())


_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _encodable_rows(path: str | Path) -> Iterator[tuple[int, dict]]:
    """The rows of a JSONL file, refusing one whose string value holds a lone surrogate:
    JSON can spell one as an escape such as \\ud800, but no stage could write or hash it."""
    for lineno, obj in read_jsonl(path):
        for key, value in obj.items():
            if type(value) is str and (m := _SURROGATE_RE.search(value)):
                raise line_error(path, lineno, f"{key} holds a lone surrogate {m.group()!r} at position {m.start()}")
        yield lineno, obj


def read_documents(path: str | Path) -> list[Document]:
    return read_records(Document, path, _encodable_rows(path))
