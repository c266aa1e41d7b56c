"""Deterministic endpoint transports for tests, and the ids a response
archive holds; no network anywhere."""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

from renokit.endpoint import Completion, ResponseArchive
from renokit.errors import EndpointError
from renokit.jsonl import canonical_json


def archive_ids(archive: ResponseArchive) -> list[str]:
    """The request ids of every entry stored in `archive`, sorted."""
    return sorted(p.stem for p in archive.root.glob("*.json"))


def stable_timestamp(messages: Sequence[dict]) -> str:
    digest = hashlib.md5(canonical_json(list(messages))).hexdigest()
    return f"1970-01-01T00:00:00.{int(digest[:6], 16) % 1000000:06d}+00:00"


class ScriptedTransport:
    """Maps messages to canned text via a pure function; fully deterministic."""

    def __init__(self, script: Callable[[Sequence[dict]], str]):
        self.script = script
        self.calls = 0

    def complete(self, request: dict) -> Completion:
        self.calls += 1
        messages = request["messages"]
        return Completion(text=self.script(messages), timestamp=stable_timestamp(messages))

    def close(self) -> None:
        """Nothing to release; here so that a client may own this transport."""


class FailingTransport:
    def __init__(self, message: str = "boom"):
        self.message = message

    def complete(self, request) -> Completion:
        raise EndpointError(self.message)


class GoldAnswerTransport:
    """Answers the target question of an eval prompt.

    The target block is the one closest to the end of the prompt, which
    distinguishes it from exemplar blocks that quote other questions. Items
    whose id is in `correct_ids` get the gold letter; the rest get a
    deterministic wrong option (or abstain text when `abstain_wrong`).
    """

    def __init__(self, dataset, correct_ids, abstain_wrong: bool = False):
        self.entries = list(dataset.entries)
        self.correct_ids = set(correct_ids)
        self.abstain_wrong = abstain_wrong

    def _target_entry(self, content: str):
        best, best_pos = None, -1
        for entry in self.entries:
            pos = content.rfind(entry.item.question)
            if pos > best_pos:
                best, best_pos = entry, pos
        if best is None:
            raise AssertionError("no dataset question found in prompt")
        return best

    def complete(self, request: dict) -> Completion:
        messages = request["messages"]
        entry = self._target_entry(messages[-1]["content"])
        gold = entry.item.correct_option
        if entry.item_id in self.correct_ids:
            text = f"答案：{gold}"
        elif self.abstain_wrong:
            text = "无法判断"
        else:
            wrong = sorted(k for k in entry.item.options if k != gold)[0]
            text = f"答案：{wrong}"
        return Completion(text=text, timestamp=stable_timestamp(messages))


class ConstantTransport:
    def __init__(self, text: str):
        self.text = text

    def complete(self, request) -> Completion:
        return Completion(text=self.text, timestamp=stable_timestamp(request["messages"]))
