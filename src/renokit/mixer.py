"""Ratio-controlled training-set construction and trainer-config emission.

A mix keeps every domain item exactly once and draws general items uniformly
without replacement until the general total first reaches ratio * domain
total (tokens by default, examples optionally). Sampling and the final
shuffle share one seeded RNG, so a fixed seed reproduces the output file
byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import EmptyDomain, EmptyInput, InsufficientGeneralData
from .jsonl import read_json, write_json
from .tokenizers import TOKENIZER, count_tokens

MODE_DAPT = "dapt"
MODE_SFT = "sft"
MODE_MIP = "mip"
MODES = (MODE_DAPT, MODE_SFT, MODE_MIP)

UNIT_TOKENS = "tokens"
UNIT_EXAMPLES = "examples"
UNITS = (UNIT_TOKENS, UNIT_EXAMPLES)


@dataclass
class MixPlan:
    ratio_general: int
    mode: str
    seed: int
    unit: str = UNIT_TOKENS

    def __post_init__(self):
        self.mode = self.mode.lower()
        if self.ratio_general < 0:
            raise ValueError("ratio_general must be >= 0")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.unit not in UNITS:
            raise ValueError(f"unit must be one of {UNITS}")

    @staticmethod
    def parse_ratio(text: str) -> tuple[int, int]:
        m = re.fullmatch(r"\s*(\d+)\s*:\s*(\d+)\s*", text)
        if not m:
            raise ValueError(f"ratio must look like '1:5', got {text!r}")
        return int(m.group(1)), int(m.group(2))


def record_id(rec: dict) -> str:
    for key in ("doc_id", "id", "sample_id"):
        if rec.get(key):
            return str(rec[key])
    canonical = json.dumps(rec, sort_keys=True, ensure_ascii=False)
    return hashlib.md5(canonical.encode("utf-8")).hexdigest()


def record_tokens(rec: dict) -> int:
    if "token_count" in rec:
        return int(rec["token_count"])
    if "turns" in rec:
        return sum(count_tokens(t.get("content", "")) for t in rec["turns"])
    if "text" in rec:
        return count_tokens(rec["text"])
    return 0


@dataclass
class MixReport:
    mode: str
    unit: str
    seed: int
    ratio_general: int
    domain_count: int
    general_count: int
    domain_tokens: int
    general_tokens: int
    achieved_ratio: float
    shortfall: int = 0

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "unit": self.unit,
            "seed": self.seed,
            "ratio_general": self.ratio_general,
            "domain_count": self.domain_count,
            "general_count": self.general_count,
            "domain_tokens": self.domain_tokens,
            "general_tokens": self.general_tokens,
            "achieved_ratio": self.achieved_ratio,
            "tokenizer": TOKENIZER,
            "shortfall": self.shortfall,
        }


def mix(
    domain: Sequence[dict],
    general: Sequence[dict],
    plan: MixPlan,
    allow_short: bool = False,
) -> tuple[list[dict], MixReport]:
    """Combine all domain records with a seeded general sample at ratio 1:k."""
    if not domain:
        raise EmptyDomain("domain dataset is empty")
    k = plan.ratio_general
    if k > 0 and not general:
        raise InsufficientGeneralData("general pool is empty but ratio requires general data")

    rng = random.Random(plan.seed)
    domain_tokens = sum(record_tokens(r) for r in domain)

    if plan.unit == UNIT_TOKENS:
        target = k * domain_tokens
    else:
        target = k * len(domain)

    order = list(range(len(general)))
    rng.shuffle(order)
    picked: list[dict] = []
    general_total = 0
    for idx in order:
        if general_total >= target:
            break
        rec = general[idx]
        picked.append(rec)
        general_total += record_tokens(rec) if plan.unit == UNIT_TOKENS else 1

    shortfall = max(0, target - general_total)
    if shortfall and not allow_short:
        raise InsufficientGeneralData(
            f"general pool short by {shortfall} {plan.unit} of the 1:{k} target",
            shortfall=shortfall,
        )

    combined = list(domain) + picked
    rng.shuffle(combined)

    general_token_sum = sum(record_tokens(r) for r in picked)
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
_MARKERS = {USER_MARKER: "user", ASSISTANT_MARKER: "assistant"}


def render_instruction_text(turns: Sequence[dict]) -> str:
    """Serialize dialogue turns to plain training text with role markers."""
    parts = []
    for turn in turns:
        marker = USER_MARKER if turn["role"] == "user" else ASSISTANT_MARKER
        parts.append(f"{marker}\n{turn['content']}")
    return "\n".join(parts)


def parse_rendered_text(text: str) -> list[dict]:
    """Recover (role, content) turns from rendered training text."""
    turns: list[dict] = []
    content: list[str] | None = None
    for line in text.split("\n"):
        if line in _MARKERS:
            if turns and content is not None:
                turns[-1]["content"] = "\n".join(content)
            turns.append({"role": _MARKERS[line], "content": ""})
            content = []
        elif content is not None:
            content.append(line)
    if turns and content is not None:
        turns[-1]["content"] = "\n".join(content)
    return turns


def build_mip(
    domain_pretrain: Sequence[dict],
    domain_instructions: Sequence[dict],
    seed: int,
) -> list[dict]:
    """Union pretrain text with rendered instruction text; no general data."""
    if not domain_pretrain or not domain_instructions:
        raise EmptyInput("instruction pretraining needs both pretrain docs and instruction samples")
    records: list[dict] = []
    for rec in domain_pretrain:
        records.append({"id": record_id(rec), "text": rec["text"], "origin": "pretrain"})
    for rec in domain_instructions:
        records.append({"id": record_id(rec), "text": render_instruction_text(rec["turns"]), "origin": "instruction"})
    random.Random(seed).shuffle(records)
    return records


# --- trainer configuration -------------------------------------------------------

MAX_LENGTH_PRETRAIN = 1024
MAX_LENGTH_SFT = 1536


@dataclass(frozen=True)
class TrainerConfig:
    precision: str = "fp16"
    epochs: int = 4
    batch_size: int = 64
    learning_rate: float = 1e-4
    warmup_ratio: float = 0.1
    lr_scheduler: str = "cosine"
    max_length: int = MAX_LENGTH_PRETRAIN

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "warmup_ratio": self.warmup_ratio,
            "lr_scheduler": self.lr_scheduler,
            "max_length": self.max_length,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainerConfig":
        return cls(**obj)


def trainer_config_for_mode(mode: str | MixPlan) -> TrainerConfig:
    mode = (mode.mode if isinstance(mode, MixPlan) else mode).lower()
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    max_length = MAX_LENGTH_SFT if mode == MODE_SFT else MAX_LENGTH_PRETRAIN
    return TrainerConfig(max_length=max_length)


def emit_trainer_config(mode: str | MixPlan, path: str | Path) -> TrainerConfig:
    cfg = trainer_config_for_mode(mode)
    write_json(path, cfg.to_dict())
    return cfg


def load_trainer_config(path: str | Path) -> TrainerConfig:
    return TrainerConfig.from_dict(read_json(path))
