"""JSON / JSONL file helpers with stable, byte-deterministic serialization,
atomic writes, and checked construction of config objects from JSON."""

from __future__ import annotations

import dataclasses
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

from .errors import ConfigError, SchemaError


def dumps(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False)


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
                raise SchemaError(f"{path}: line {lineno}: invalid JSON: {exc}", line=lineno) from None
            if not isinstance(obj, dict):
                raise SchemaError(f"{path}: line {lineno}: expected a JSON object", line=lineno)
            yield lineno, obj


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


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    n = 0
    with _atomic_write(path) as fh:
        for row in rows:
            fh.write(dumps(row))
            fh.write("\n")
            n += 1
    return n


def read_json(path: str | Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str | Path, obj: Any) -> None:
    with _atomic_write(path) as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


# --- config objects ------------------------------------------------------------

# JSON value types accepted for each field annotation the config dataclasses
# use; their modules postpone annotations, so field types are these strings.
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "None": (type(None),),
               "tuple[float, ...]": (list,)}


def check_keys(obj: Any, allowed: Iterable[str], what: str) -> None:
    """Raise ConfigError unless `obj` is a JSON object with no key outside `allowed`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def config_from_dict(cls: type, obj: Any, what: str):
    """Build the dataclass `cls` from a JSON object; an unknown key, a missing
    required key or a value of the wrong JSON type raises ConfigError."""
    fields = dataclasses.fields(cls)
    check_keys(obj, (f.name for f in fields), what)
    for f in fields:
        if f.name not in obj:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{what} is missing required key {f.name!r}")
        elif type(obj[f.name]) not in sum((_JSON_TYPES[t] for t in f.type.split(" | ")), ()):
            raise ConfigError(f"{what} key {f.name!r} must be {f.type}, got {obj[f.name]!r}")
    return cls(**obj)
