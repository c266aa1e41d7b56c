"""Raw-record ingestion: text extraction, cleaning, and corpus accounting.

Extraction strips markup, drops regions that carry no prose (tables, figures,
scripts), removes URLs, and normalizes whitespace. Cleaning is a fixpoint:
running it on already-clean text returns the text unchanged, which is what
makes downstream content hashes stable.
"""

from __future__ import annotations

import hashlib
import html
import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DecodeError, EmptyAfterExtraction, SchemaError
from .jsonl import Record, line_error, read_jsonl, read_records, write_jsonl
from .tokenizers import TOKENIZER, count_tokens

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

    def mark(self, status: str, reason: str | None = None) -> None:
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        self.status = status
        self.reason = reason

    def validate(self) -> "Document":
        if self.source_kind not in SOURCE_KINDS:
            raise SchemaError(f"document {self.doc_id}: bad source_kind {self.source_kind!r}")
        if self.status not in _STATUSES:
            raise SchemaError(f"document {self.doc_id}: bad status {self.status!r}")
        return self


def doc_id_for(text: str, source_kind: str) -> str:
    """Stable 128-bit content id over (cleaned text, source kind)."""
    payload = text.encode("utf-8") + b"\x1f" + source_kind.encode("utf-8")
    return hashlib.md5(payload).hexdigest()


# --- markup stripping -------------------------------------------------------

_MARKUP_ACTIVE = "<>&"


class _MarkupStripper(HTMLParser):
    """Collects prose text, skipping regions whose content is never prose."""

    DROP = {
        "table", "thead", "tbody", "tfoot", "tr", "script", "style",
        "figure", "svg", "picture", "head", "iframe", "noscript",
    }
    VOID = {"img", "hr", "meta", "link", "input", "source", "area", "base", "col", "embed", "track", "wbr"}
    BLOCK = {
        "p", "div", "li", "ul", "ol", "h1", "h2", "h3", "h4", "h5", "h6",
        "section", "article", "blockquote", "pre", "td", "th",
    }

    def __init__(self):
        super().__init__(convert_charrefs=False)
        self._chunks: list[str] = []
        self._drop_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag == "br":
            if not self._drop_depth:
                self._chunks.append("\n")
            return
        if tag in self.VOID:
            return
        if tag in self.DROP:
            self._drop_depth += 1
        elif tag in self.BLOCK and not self._drop_depth:
            self._chunks.append("\n")

    def handle_endtag(self, tag):
        if tag in self.DROP:
            self._drop_depth = max(0, self._drop_depth - 1)
        elif tag in self.BLOCK and not self._drop_depth:
            self._chunks.append("\n")

    def handle_data(self, data):
        if not self._drop_depth:
            self._chunks.append(data)

    # Entities are unescaped except when they would decode to a markup-active
    # character; those stay escaped so that cleaning remains a fixpoint.
    def handle_entityref(self, name):
        if self._drop_depth:
            return
        raw = f"&{name};"
        decoded = html.unescape(raw)
        self._chunks.append(raw if (decoded == raw or decoded in _MARKUP_ACTIVE) else decoded)

    def handle_charref(self, name):
        if self._drop_depth:
            return
        raw = f"&#{name};"
        decoded = html.unescape(raw)
        self._chunks.append(raw if (decoded == raw or decoded in _MARKUP_ACTIVE) else decoded)

    def text(self) -> str:
        return "".join(self._chunks)


def strip_markup(text: str) -> str:
    parser = _MarkupStripper()
    parser.feed(text)
    parser.close()
    return parser.text()


# --- cleaning rules ---------------------------------------------------------

# Scheme-prefixed URLs plus bare www. hosts; charset kept ASCII so adjacent
# CJK text is never swallowed.
_URL_RE = re.compile(
    r"(?:(?:https?|ftp)://|(?<![A-Za-z0-9.])www\.)"
    r"[A-Za-z0-9._~:/?#@!$&'()*+;=%\[\]-]*"
)

_MD_IMAGE_RE = re.compile(r"!\[[^\]\n]*\]\([^)\n]*\)")

_PIPE_SEPARATORS = "|│║┃"
_WS_RUN_RE = re.compile(r"[ \t 　]+")
_NON_WS_RE = re.compile(r"\S")


def _is_table_line(line: str) -> bool:
    # Density is measured over non-whitespace characters so the verdict does
    # not change once whitespace runs have been collapsed.
    non_ws = len(_NON_WS_RE.findall(line))
    pipes = sum(line.count(ch) for ch in _PIPE_SEPARATORS)
    if pipes >= 2 and pipes / max(1, non_ws) > 0.30:
        return True
    tabs = line.count("\t")
    return tabs >= 2 and tabs / max(1, tabs + non_ws) > 0.30


def _drop_table_lines(text: str) -> str:
    return "\n".join(line for line in text.split("\n") if not _is_table_line(line))


def normalize_whitespace(text: str) -> str:
    """Collapse space runs within lines and runs of blank lines to one."""
    lines = [_WS_RUN_RE.sub(" ", line).strip() for line in text.split("\n")]
    out: list[str] = []
    for line in lines:
        if line == "" and (not out or out[-1] == ""):
            continue
        out.append(line)
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out)


def clean_text(text: str) -> str:
    text = _MD_IMAGE_RE.sub(" ", text)
    text = strip_markup(text)
    text = _URL_RE.sub("", text)
    text = _drop_table_lines(text)
    return normalize_whitespace(text)


def extract_text(record: RawRecord) -> Document:
    """Extract the clean article text of one raw record.

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
    return Document(
        doc_id=doc_id_for(text, record.source_kind),
        text=text,
        source_kind=record.source_kind,
        token_count=count_tokens(text),
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

    def add_document(self, doc: Document) -> None:
        self.documents[doc.source_kind] = self.documents.get(doc.source_kind, 0) + 1
        self.tokens[doc.source_kind] = self.tokens.get(doc.source_kind, 0) + doc.token_count

    def add_failure(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1


def ingest_stream(records: Iterable[RawRecord]) -> tuple[list[Document], PipelineStats]:
    """Extract every record, collecting per-record failures instead of raising.

    Output is sorted by doc_id, so the result is identical for any input
    order of the same record multiset.
    """
    stats = PipelineStats()
    docs: list[Document] = []
    for record in records:
        try:
            doc = extract_text(record)
        except DecodeError:
            stats.add_failure("decode_error")
            continue
        except EmptyAfterExtraction:
            stats.add_failure("empty_after_extraction")
            continue
        docs.append(doc)
        stats.add_document(doc)
    docs.sort(key=lambda d: d.doc_id)
    stats.documents, stats.tokens, stats.failures = (
        dict(sorted(counts.items())) for counts in (stats.documents, stats.tokens, stats.failures))
    stats.total_documents = sum(stats.documents.values())
    stats.total_tokens = sum(stats.tokens.values())
    return docs, stats


# --- file readers / writers --------------------------------------------------


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
                try:  # a lone surrogate survives the encoding and fails extract_text's decode
                    record = RawRecord(source_id=str(obj.get("id") or f"{file.name}:{lineno}"),
                                       source_kind=obj.get("kind") or kind,
                                       payload=text.encode("utf-8", "surrogatepass"))
                except ValueError as exc:
                    raise line_error(file, lineno, exc) from None
                yield record
        else:
            yield RawRecord(source_id=file.name, source_kind=kind, payload=file.read_bytes())


def write_documents(path: str | Path, docs: Sequence[Document]) -> int:
    return write_jsonl(path, (d.to_dict() for d in docs))


def read_documents(path: str | Path) -> list[Document]:
    return read_records(Document, path)
