"""JSON / JSONL file helpers with stable, byte-deterministic serialization,
atomic writes, and checked construction of records and config objects from JSON.
`canonical_json` is the one byte form that ids and digests hash."""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

from .errors import ConfigError, SchemaError


class Record:
    """Mixin for a dataclass whose artifact is its fields in declaration order:
    to_dict() maps each field name to its value, without copying the value,
    and from_dict() reads such an object back. A record checks in its
    constructor what the JSON types of its fields do not, so one that exists is valid."""

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _field_names(type(self))}

    @classmethod
    def from_dict(cls, obj: dict):
        """The record built from the keys named like its fields (others are ignored); a missing
        required key or a value of the wrong JSON type raises SchemaError, and a value the
        constructor refuses raises the constructor's error."""
        return _build(cls, obj, cls.__name__, SchemaError)


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


# json.dumps builds an encoder per call when given any option; rows share this one.
_ENCODER = json.JSONEncoder(ensure_ascii=False, default=Record.to_dict)


def canonical_json(obj: Any) -> bytes:
    """`obj` as UTF-8 JSON with sorted keys, non-ASCII kept as is and any
    other value (a path) as its str: the bytes that request ids, record ids
    and config digests hash, so the same object always has the same id."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, default=str).encode("utf-8")


def line_error(path: str | Path, lineno: int, problem: Any) -> SchemaError:
    """The SchemaError for a bad row: names the file and the line, and carries the line."""
    return SchemaError(f"{path}: line {lineno}: {problem}", line=lineno)


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, parsed object) for each non-blank line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise line_error(path, lineno, f"invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise line_error(path, lineno, "expected a JSON object")
            yield lineno, obj


def read_records(cls: type[Record], path: str | Path, rows: Iterable[tuple[int, dict]] | None = None) -> list:
    """Read every row of a JSONL file through cls.from_dict; a row it refuses
    raises SchemaError with the row's line number. `rows`, the file's rows as
    read_jsonl yields them, saves parsing the file again."""
    records = []
    for lineno, obj in read_jsonl(path) if rows is None else rows:
        try:
            records.append(cls.from_dict(obj))
        except SchemaError as exc:
            raise line_error(path, lineno, exc) from None
    return records


def record_from_dict(cls: type[Record], obj: Any, path: str | Path):
    """cls.from_dict on `obj`, the JSON value of the file at `path`; every error names the file."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    try:
        return cls.from_dict(obj)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


@contextmanager
def _atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Write a temp file beside `path`, then rename it over `path`: readers see
    the old or the whole new file. The temp name is unique per call, so
    concurrent writers cannot collide, and it is removed if the write fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, rows: Iterable[dict | Record]) -> int:
    """Write each row as one line of JSON, a Record as its to_dict(), atomically, and
    return the number of rows.

    Within a `run` each file is written once and never read back: the stages
    that read it are handed the rows in memory.
    """
    encode = _ENCODER.encode
    n = 0
    with _atomic_write(path) as fh:
        for row in rows:
            fh.write(encode(row))
            fh.write("\n")
            n += 1
    return n


def read_json(path: str | Path) -> Any:
    """The JSON value of the file at `path`. A file that is not UTF-8 JSON raises a
    ValueError that names the file, as line_error does for a bad row."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: invalid JSON: {exc}") from None


def write_json(path: str | Path, obj: Any) -> None:
    """Write `obj` as indented JSON; a Record nested in it is written as its to_dict()."""
    text = json.dumps(obj, ensure_ascii=False, indent=2, default=Record.to_dict) + "\n"
    with _atomic_write(path) as fh:
        fh.write(text)


# --- checked construction -------------------------------------------------------

# JSON value types accepted for a field, keyed by the outer type of its annotation;
# the modules postpone annotations, so field types are strings such as "list[int]".
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,), "None": (type(None),),
               "tuple": (list,), "list": (list,), "dict": (dict,)}


@functools.cache
def _field_table(cls: type) -> tuple[tuple[str, str, tuple[type, ...], bool], ...]:
    """(name, annotation, JSON types, required) per field; once per class, as corpora have many rows."""
    return tuple(
        (f.name, f.type, sum((_JSON_TYPES[t.split("[")[0]] for t in f.type.split(" | ")), ()),
         f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    )


def _build(cls: type, obj: dict, what: str, error: type[Exception]):
    """`cls` from the keys of `obj` named like its fields; `error` if one is missing
    or mistyped, or if the constructor refuses a value with a ValueError or with the
    ConfigError of a record it builds from a nested object."""
    kwargs = {}
    for name, annotation, types, required in _field_table(cls):
        if name in obj:
            value = obj[name]
            if type(value) not in types:
                raise error(f"{what} key {name!r} must be {annotation}, got {value!r}")
            kwargs[name] = value
        elif required:
            raise error(f"{what} is missing required key {name!r}")
    try:
        return cls(**kwargs)
    except (ValueError, ConfigError) as exc:
        raise error(f"{what}: {exc}") from None


def config_from_dict(cls: type, obj: Any, what: str):
    """Build the dataclass `cls` from a JSON object; a value that is not an object, an unknown
    key, a missing required key, a value of the wrong JSON type or one the constructor refuses
    raises ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = obj.keys() - {name for name, *_ in _field_table(cls)}
    if unknown:
        raise ConfigError(f"{what}: unknown keys {sorted(unknown)}")
    return _build(cls, obj, what, ConfigError)


def config_from_json(cls: type, path: str | Path, what: str):
    """config_from_dict on the JSON file at `path`; every error names the file."""
    return config_from_dict(cls, read_json(path), f"{what} {path}")
