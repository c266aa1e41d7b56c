"""Ratio-controlled training-set construction and trainer-config emission.

A mix keeps every domain item exactly once and draws general items uniformly
without replacement until the general total first reaches ratio * domain
total (tokens by default, examples optionally). Sampling and the final
shuffle share one seeded RNG, so a fixed seed reproduces the output file
byte for byte.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import EmptyDomain, EmptyInput, InsufficientGeneralData, SchemaError
from .jsonl import Record, canonical_json, line_error, read_jsonl, write_json
from .tokenizers import TOKENIZER, count_tokens_batch, runs

MODE_DAPT = "dapt"
MODE_SFT = "sft"
MODE_MIP = "mip"
MODES = (MODE_DAPT, MODE_SFT, MODE_MIP)

UNIT_TOKENS = "tokens"
UNIT_EXAMPLES = "examples"
UNITS = (UNIT_TOKENS, UNIT_EXAMPLES)


@dataclass
class MixPlan:
    """One mix config: the `mix` section of a run config, the flags of the `mix`
    command, and what mix() reads. The constructor holds every mix rule."""

    seed: int  # in a run config, the run's seed unless the section sets its own
    ratio: str = "1:0"
    mode: str = MODE_DAPT
    unit: str = UNIT_TOKENS
    instructions: str | None = None
    allow_short: bool = False

    def __post_init__(self):
        m = re.fullmatch(r"\s*(\d+)\s*:\s*\d+\s*", self.ratio)
        if not m:
            raise ValueError(f"ratio must look like '1:5', got {self.ratio!r}")
        if int(m.group(1)) != 1:
            raise ValueError(f"ratio must have domain part 1, got {self.ratio!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.unit not in UNITS:
            raise ValueError(f"unit must be one of {UNITS}, got {self.unit!r}")
        if self.mode == MODE_MIP and not self.instructions:
            raise ValueError("mip mode requires instructions (--instructions, or mix.instructions in a run config)")
        if self.instructions is not None and self.mode != MODE_MIP:
            raise ValueError(f"instructions are read only in mip mode, not in {self.mode!r} mode")

    @property
    def ratio_general(self) -> int:
        """k of the "1:k" ratio; derived, so that it stays out of the section's config digest."""
        return int(self.ratio.split(":")[1])


def record_id(rec: dict) -> str:
    for key in ("doc_id", "id", "sample_id"):
        if rec.get(key):
            return str(rec[key])
    return hashlib.md5(canonical_json(rec)).hexdigest()


def records_tokens(recs: Sequence[dict]) -> list[int]:
    """The tokens of each record: its `token_count`, else those of its turns'
    contents or of its text, counted as one batch; 0 when it has none."""
    tokens = [0] * len(recs)
    texts: list[str] = []
    owners: list[int] = []
    for i, rec in enumerate(recs):
        if "token_count" in rec:
            tokens[i] = int(rec["token_count"])
            continue
        parts = [t.get("content", "") for t in rec["turns"]] if "turns" in rec else [rec.get("text", "")]
        texts += parts
        owners += [i] * len(parts)
    for i, n in zip(owners, count_tokens_batch(texts)):
        tokens[i] += n
    return tokens


# General records are counted a block at a time, in the order they are drawn,
# so that a pool far larger than the target is not counted whole.
_DRAW_BLOCK = 1024


def _counted(recs: Iterable[dict]) -> Iterator[tuple[dict, int]]:
    """Each record of `recs` with its tokens."""
    for block in runs(recs, lambda rec: 1, _DRAW_BLOCK):
        yield from zip(block, records_tokens(block))


def text_turns(turns) -> bool:
    """True when `turns` is a list of objects whose `content`, where given, is a string."""
    return type(turns) is list and all(type(t) is dict and type(t.get("content", "")) is str for t in turns)


def read_mix_records(path: str | Path, needs_text: bool = False) -> Iterator[dict]:
    """Yield the rows of a JSONL file, each checked for what records_tokens reads and, with
    `needs_text` (MIP mode), for the string `text` that build_mip reads; a bad row raises SchemaError."""
    for lineno, rec in read_jsonl(path):
        if "token_count" in rec:
            if type(rec["token_count"]) is not int:
                raise line_error(path, lineno, f"token_count must be an int, got {rec['token_count']!r}")
        elif "turns" in rec:
            if not text_turns(rec["turns"]):
                raise line_error(path, lineno, "turns must be a list of objects with string content")
        elif type(rec.get("text", "")) is not str:
            raise line_error(path, lineno, "text must be a string")
        if needs_text and type(rec.get("text")) is not str:
            raise line_error(path, lineno, "a pretrain record needs a string text")
        yield rec


@dataclass
class MixReport(Record):
    mode: str
    unit: str
    seed: int
    ratio_general: int
    domain_count: int
    general_count: int
    domain_tokens: int
    general_tokens: int
    achieved_ratio: float
    tokenizer: str = TOKENIZER
    shortfall: int = 0


@dataclass
class MipReport(Record):
    """The mix report of MIP mode: the pretrain and instruction records in the union and their tokens."""

    mode: str
    seed: int
    pretrain_count: int
    instruction_count: int
    total_tokens: int
    tokenizer: str = TOKENIZER


def mix(
    domain: Sequence[dict],
    general: Sequence[dict],
    plan: MixPlan,
) -> tuple[list[dict], MixReport]:
    """Combine all domain records with a seeded general sample at ratio 1:k."""
    if not domain:
        raise EmptyDomain("domain dataset is empty")
    k = plan.ratio_general
    if k > 0 and not general:
        raise InsufficientGeneralData("general pool is empty but ratio requires general data")

    rng = random.Random(plan.seed)
    domain_tokens = sum(records_tokens(domain))

    if plan.unit == UNIT_TOKENS:
        target = k * domain_tokens
    else:
        target = k * len(domain)

    order = list(range(len(general)))
    rng.shuffle(order)
    picked: list[dict] = []
    general_total = 0
    general_token_sum = 0
    for rec, tokens in _counted(general[idx] for idx in order) if target > 0 else ():
        picked.append(rec)
        general_token_sum += tokens
        general_total += tokens if plan.unit == UNIT_TOKENS else 1
        if general_total >= target:
            break

    shortfall = max(0, target - general_total)
    if shortfall and not plan.allow_short:
        raise InsufficientGeneralData(
            f"general pool short by {shortfall} {plan.unit} of the 1:{k} target",
            shortfall=shortfall,
        )

    combined = list(domain) + picked
    rng.shuffle(combined)

    if plan.unit == UNIT_TOKENS:
        achieved = general_token_sum / domain_tokens if domain_tokens else 0.0
    else:
        achieved = len(picked) / len(domain)
    report = MixReport(
        mode=plan.mode,
        unit=plan.unit,
        seed=plan.seed,
        ratio_general=k,
        domain_count=len(domain),
        general_count=len(picked),
        domain_tokens=domain_tokens,
        general_tokens=general_token_sum,
        achieved_ratio=achieved,
        shortfall=shortfall,
    )
    return combined, report


# --- instruction-in-pretraining union -------------------------------------------

USER_MARKER = "<user>"
ASSISTANT_MARKER = "<assistant>"


def render_instruction_text(turns: Sequence[dict]) -> str:
    """Serialize dialogue turns to plain training text with role markers."""
    parts = []
    for turn in turns:
        marker = USER_MARKER if turn["role"] == "user" else ASSISTANT_MARKER
        parts.append(f"{marker}\n{turn['content']}")
    return "\n".join(parts)


MIP_ORIGINS = ("pretrain", "instruction")


@dataclass
class MipRecord(Record):
    """A row of a MIP training set: pretrain text or a rendered instruction sample."""

    id: str
    text: str
    origin: str

    def __post_init__(self):
        if self.origin not in MIP_ORIGINS:
            raise SchemaError(f"record {self.id}: origin must be one of {MIP_ORIGINS}, got {self.origin!r}")


def build_mip(
    domain_pretrain: Sequence[dict],
    domain_instructions: Sequence[dict],
    seed: int,
) -> tuple[Iterator[dict], MipReport]:
    """Union pretrain text with rendered instruction text; no general data.

    The rows come lazily, in an order shuffled by `random.Random(seed)`, and
    each is made as it is read: one `MipRecord` row (`id`, `text`, `origin`)
    per pretrain record, then per instruction sample, before the shuffle."""
    if not domain_pretrain or not domain_instructions:
        raise EmptyInput("instruction pretraining needs both pretrain docs and instruction samples")
    # The pretrain records carry their token counts; only the rendered
    # instructions are counted here.
    total_tokens = sum(records_tokens(domain_pretrain)) + sum(
        count_tokens_batch([render_instruction_text(rec["turns"]) for rec in domain_instructions]))
    order = list(range(len(domain_pretrain) + len(domain_instructions)))
    random.Random(seed).shuffle(order)  # the permutation a shuffle of the rows themselves makes

    def rows() -> Iterator[dict]:
        for i in order:
            if i < len(domain_pretrain):
                rec = domain_pretrain[i]
                yield {"id": record_id(rec), "text": rec["text"], "origin": "pretrain"}
            else:
                rec = domain_instructions[i - len(domain_pretrain)]
                yield {"id": record_id(rec), "text": render_instruction_text(rec["turns"]), "origin": "instruction"}

    report = MipReport(mode=MODE_MIP, seed=seed, pretrain_count=len(domain_pretrain),
                       instruction_count=len(domain_instructions), total_tokens=total_tokens)
    return rows(), report


# --- trainer configuration -------------------------------------------------------

MAX_LENGTH_PRETRAIN = 1024
MAX_LENGTH_SFT = 1536


@dataclass(frozen=True)
class TrainerConfig(Record):
    precision: str = "fp16"
    epochs: int = 4
    batch_size: int = 64
    learning_rate: float = 1e-4
    warmup_ratio: float = 0.1
    lr_scheduler: str = "cosine"
    max_length: int = MAX_LENGTH_PRETRAIN


def trainer_config_for_mode(mode: str) -> TrainerConfig:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    max_length = MAX_LENGTH_SFT if mode == MODE_SFT else MAX_LENGTH_PRETRAIN
    return TrainerConfig(max_length=max_length)


def emit_trainer_config(mode: str, path: str | Path) -> TrainerConfig:
    cfg = trainer_config_for_mode(mode)
    write_json(path, cfg)
    return cfg
