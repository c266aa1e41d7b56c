"""Raw-record ingestion: text extraction, cleaning, and corpus accounting.

Extraction strips markup, drops regions that carry no prose (tables, figures,
scripts), removes URLs, and normalizes whitespace. Markup is read by one token
scan, in time linear in the text, as HTMLParser reads it but for the forms
README lists (an unended tag or comment, a "<" inside a start tag, two kinds of
broken "&", an unknown marked section); the html package loads on the first
entity reference, so plain text and entity-free pages load nothing. Cleaning is a fixpoint:
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
        self.status = status
        self.reason = reason


def doc_id_for(text: str, source_kind: str) -> str:
    """Stable 128-bit content id over (cleaned text, source kind)."""
    payload = text.encode("utf-8") + b"\x1f" + source_kind.encode("utf-8")
    return hashlib.md5(payload).hexdigest()


# --- markup stripping -------------------------------------------------------

_MARKUP_ACTIVE = "<>&"


@functools.lru_cache(maxsize=4096)
def _entity_text(raw: str) -> str:
    """The text of an entity or character reference `raw`, e.g. "&nbsp;". It is
    kept escaped when unknown or when its text would hold a markup-active
    character, so that cleaning remains a fixpoint; html.unescape also reads a
    legacy entity glued to more letters, e.g. "&ltp;" as "<p;". The html
    package and its entity tables load here, on the first entity read. The
    text depends on `raw` alone, so the last few thousand are kept: a page
    repeats the same few references."""
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


# The token scan reads markup as HTMLParser (Python 3.10 to 3.13.0, convert_charrefs
# off) reads a whole text; every position starts a token. A start tag is HTMLParser's
# tolerant one, less any holding a "<" outside its quoted values, so no attempt runs
# past the next such "<"; the lookahead and backreference make it one atomic piece.
# The "</…>", "<!…>", "<?…>", "<!--…-->" and "<![…]]>" forms and script and style
# bodies end at a closer found past the match (_markup_closers). A "<" or "&" that
# starts no token, or one that never ends, is text. README lists the forms read differently.
_TAG_NAME = r"[a-zA-Z][^\t\n\r\f />\x00<]*"
_ATTR = (r"(?<=['\"\s/])[^\s/><][^\s/=><]*"
         r"(?:\s*=+\s*(?:'[^']*'|\"[^\"]*\"|(?!['\"])[^>\s<]*)\s*)?(?:\s|/(?!>))*")


@functools.cache
def _markup_token_re() -> re.Pattern:
    """The token regex, compiled on first use: compiling it takes milliseconds,
    which importing the module for a command that reads no markup should not pay."""
    return re.compile(
        r"[^<&]+"
        rf"|(?=(?P<tag><(?P<start>{_TAG_NAME})(?:\s|/(?!>))*(?:{_ATTR})*\s*))(?P=tag)(?P<selfclose>/?)>"
        r"|</\s*(?P<end>[a-zA-Z][-.a-zA-Z0-9:_]*)\s*>"
        r"|&(?P<ref>[a-zA-Z][-.a-zA-Z0-9]*(?=[^a-zA-Z0-9])|#(?:[0-9]+|[xX][0-9a-fA-F]+)(?=[^0-9a-fA-F]));?"
        rf"|<{_TAG_NAME}(?=\x00)"  # HTMLParser reads a tag name that a NUL ends as text
        r"|(?P<gt></|<\?|<!(?!--|\[))"
        r"|(?P<comment><!--)"
        r"|<!\[(?P<section>[a-zA-Z][-_.a-zA-Z0-9]*)(?=\s*\S)"
        r"|[<&][^<&]*"
    )


@functools.cache
def _markup_closers() -> dict[str, re.Pattern]:
    """The closer of each token that ends past its match, by the name of its
    opening group, a raw-text element or a _SECTIONS value."""
    return {
        "gt": re.compile(">"),
        "comment": re.compile(r"--\s*>"),
        "script": re.compile(r"</\s*(?ai:script)\s*>"),
        "style": re.compile(r"</\s*(?ai:style)\s*>"),
        "]]>": re.compile(r"]\s*]\s*>"),
        "]>": re.compile(r"]\s*>"),
    }


# The marked-section keywords HTMLParser reads, and their closers; it raises on any other.
_SECTIONS = {"temp": "]]>", "cdata": "]]>", "ignore": "]]>", "include": "]]>", "rcdata": "]]>",
             "if": "]>", "else": "]>", "endif": "]>"}
_END_TAG_NAME = re.compile(r"[a-zA-Z][^\t\n\r\f />\x00]*")


def _strip_tokens(text: str) -> str:
    """strip_markup by the token scan: HTMLParser's start tag, end tag, entity
    and character reference events, read into drop regions, block newlines and
    <br>. Each closer is searched for again only once the scan has passed its
    last hit, so a text of openers that never close costs one search per kind."""
    scan = _markup_token_re().finditer
    closers = _markup_closers()
    found: dict[str, re.Match | None] = {}

    def closer(kind: str, at: int) -> re.Match | None:
        hit = found.get(kind, False)
        if hit is False or hit is not None and hit.start() < at:
            hit = found[kind] = closers[kind].search(text, at)
        return hit

    chunks: list[str] = []
    depth = 0
    pos = 0
    while pos < len(text):
        for m in scan(text, pos):
            kind = m.lastgroup
            if kind is None:  # text, or a "<" or "&" that starts no token and the text after it
                if not depth:
                    chunks.append(m[0])
            elif kind == "selfclose":  # a start tag; self-closing is a start then an end
                tag = m["start"].lower()
                if tag == "br":
                    if not depth:
                        chunks.append("\n")
                elif tag in _DROP:
                    if m["selfclose"]:
                        continue
                    if tag != "script" and tag != "style":
                        depth += 1
                        continue
                    close = closer(tag, m.end())  # a script or style body runs to its end tag
                    if close is None:
                        return "".join(chunks)
                    pos = close.end()
                    break
                elif tag in _BLOCK and not depth:
                    chunks.append("\n\n" if m["selfclose"] else "\n")
            elif kind == "ref":
                if not depth:
                    chunks.append(_entity_text(f"&{m['ref']};"))
            else:  # an end tag, or "</", "<?", "<!", "<!--" or "<![" running to its closer
                tag = m["end"]
                if tag is None:
                    if kind == "section":
                        kind = _SECTIONS.get(m["section"].lower())
                    close = kind and closer(kind, m.end())
                    if not close:  # text: the opening holds no "<" or "&" past its first "<"
                        if not depth:
                            chunks.append(m[0])
                        continue
                    pos = close.end()
                    name = m[0] == "</" and _END_TAG_NAME.match(text, m.end())
                    if not name:
                        break
                    tag = name[0]  # an end tag that HTMLParser reads up to the first ">"
                tag = tag.lower()
                if tag in _DROP:
                    depth = max(0, depth - 1)
                elif tag in _BLOCK and not depth:
                    chunks.append("\n")
                if kind != "end":
                    break
        else:
            break
    return "".join(chunks)


def strip_markup(text: str) -> str:
    """The prose of `text` with its markup removed, by one token scan. Text
    holding neither "<" nor "&" is one text token and comes back unchanged,
    without compiling the token regex."""
    if "<" not in text and "&" not in text:
        return text
    return _strip_tokens(text)


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

# A Markdown image, "![alt](url)" within one line. A "![" that opens none is
# matched too, up to where every later "![" fails the same way, and kept as it
# is, so that no line of such openers is rescanned from each of them.
_MD_IMAGE_RE = re.compile(r"!\[[^\]\n]*(?:\](?:\([^)\n]*(?P<image>\))?)?)?")

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
    text = _MD_IMAGE_RE.sub(lambda m: " " if m["image"] else m[0], text)
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


def read_documents(path: str | Path) -> list[Document]:
    return read_records(Document, path)
