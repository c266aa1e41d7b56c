"""End-to-end pipeline runner with a digest-chained manifest, and the one
implementation of each stage that both the runner and the CLI call.

Each stage records the sha256 of its inputs, outputs, and config in an
append-only manifest. A resumed run re-verifies those digests: a matching
stage is skipped, a file that a later run of an earlier stage rewrote is
stale and recomputed, and a file that matches no recorded output is an error
rather than a silent recompute.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .dedup import DedupConfig, DedupReport, run_dedup
from .errors import BudgetExhausted, ConfigError, StageFailure, UnknownSchema
from .endpoint import ChatClient, EndpointConfig, ResponseArchive, utc_now_iso
from .evalharness import EvalReport, EvalRunConfig, best_of_settings, load_dataset, run_eval
from .filters import FilterConfig, FilterReport, run_filters
from .ingest import (
    DOMAIN_KINDS,
    SOURCE_KINDS,
    PipelineStats,
    ingest_stream,
    read_documents,
    records_from_path,
    source_files,
    write_documents,
)
from .jsonl import check_keys, read_json, read_jsonl, write_json, write_jsonl
from .mixer import MODE_MIP, MixPlan, build_mip, emit_trainer_config, mix, record_tokens
from .sftgen import DIFFICULTIES, GenReport, batch_generate, load_template, read_instruction_samples
from .tokenizers import TOKENIZER

STAGES = ("ingest", "filter", "dedup", "mix", "gen", "eval")


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def config_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, ensure_ascii=False).encode("utf-8")).hexdigest()


# --- stages -------------------------------------------------------------------
# PipelineRunner.stage_<x> and the CLI subcommand <x> both call run_<x>_stage:
# it reads the inputs, calls the layer, writes the artifacts, returns the report.


def run_ingest_stage(sources: Sequence[tuple[str | Path, str]], docs_path, stats_path) -> PipelineStats:
    """Ingest (path, kind) sources into one document file sorted by doc_id."""
    records = [r for path, kind in sources for r in records_from_path(path, kind)]
    docs, stats = ingest_stream(records)
    write_documents(docs_path, docs)
    if stats_path:
        write_json(stats_path, stats.to_dict())
    return stats


def run_filter_stage(docs_path, cfg: FilterConfig, kept_path, report_path) -> FilterReport:
    kept, report = run_filters(read_documents(docs_path), cfg)
    write_documents(kept_path, kept)
    write_json(report_path, report.to_dict())
    return report


def run_dedup_stage(kept_path, cfg: DedupConfig, unique_path, pairs_path, report_path) -> DedupReport:
    unique, pairs, report = run_dedup(read_documents(kept_path), cfg)
    write_documents(unique_path, unique)
    write_jsonl(pairs_path, (p.to_dict() for p in pairs))
    if report_path:
        write_json(report_path, report.to_dict())
    return report


def mix_plan(ratio: str, mode: str, seed: int, unit: str) -> MixPlan:
    """MixPlan for a "1:k" ratio string; the domain part must be 1."""
    ratio_domain, ratio_general = MixPlan.parse_ratio(ratio)
    if ratio_domain != 1:
        raise ConfigError("mix ratio must have domain part 1")
    return MixPlan(ratio_general=ratio_general, mode=mode, seed=seed, unit=unit)


def run_mix_stage(domain_path, plan: MixPlan, train_path, report_path, *, general_path=None,
                  instructions_path=None, allow_short: bool = False) -> dict:
    """Build one training set and return its report.

    Records of `domain_path` with source_kind "general" join the general pool,
    followed by every record of `general_path`; all others are domain data.
    MIP mode unions the domain records with the instruction samples and uses
    no general data.
    """
    domain: list[dict] = []
    general: list[dict] = []
    for _, rec in read_jsonl(domain_path):
        (general if rec.get("source_kind") == "general" else domain).append(rec)
    if plan.mode == MODE_MIP:
        instructions = [s.to_dict() for s in read_instruction_samples(instructions_path)]
        mixed = build_mip(domain, instructions, seed=plan.seed)
        report = {
            "mode": MODE_MIP,
            "seed": plan.seed,
            "pretrain_count": len(domain),
            "instruction_count": len(instructions),
            "total_tokens": sum(record_tokens(r) for r in mixed),
            "tokenizer": TOKENIZER,
        }
    else:
        if general_path:
            general.extend(rec for _, rec in read_jsonl(general_path))
        mixed, mix_report = mix(domain, general, plan, allow_short=allow_short)
        report = mix_report.to_dict()
    write_jsonl(train_path, mixed)
    if report_path:
        write_json(report_path, report)
    return report


def run_gen_stage(knowledge_path, kind: str, endpoint: EndpointConfig, transport, budget: int, archive_dir, sft_path,
                  report_path, *, template=None, categories=None, lenient: bool = False) -> GenReport:
    """Generate `kind` samples from the domain documents of `knowledge_path`.

    With `transport` None requests go over HTTP. On budget exhaustion the
    partial output is still written and the report has `budget_exhausted`
    set; the caller decides how to fail.
    """
    docs = [d for d in read_documents(knowledge_path) if d.source_kind in DOMAIN_KINDS]
    templates = {kind: load_template(kind, body_path=template, categories_path=categories)}
    with closing(ChatClient(endpoint, transport)) as client:
        items, report = batch_generate(docs, [kind], client, budget=budget, archive=ResponseArchive(archive_dir),
                                       templates=templates, lenient=lenient)
    write_jsonl(sft_path, (it.to_dict() for it in items))
    if report_path:
        write_json(report_path, report.to_dict())
    return report


def run_eval_stage(dataset_path, endpoint: EndpointConfig, shots: Sequence[int], seed: int, report_path, *,
                   transport=None, labels: dict | None = None) -> tuple[EvalReport, list[EvalReport]]:
    """Evaluate at each shot count and save the best report; returns it and the per-setting reports."""
    dataset = load_dataset(dataset_path)
    reports = [
        run_eval(dataset, EvalRunConfig(shots=int(k), seed=seed, endpoint=endpoint), transport=transport, labels=labels)
        for k in shots
    ]
    best = best_of_settings(reports)
    best.save(report_path)
    return best, reports


# --- manifest -----------------------------------------------------------------


@dataclass
class StageRecord:
    stage: str
    config_digest: str
    seed: int
    inputs: dict[str, str]
    outputs: dict[str, str]
    started: str
    finished: str

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "started": self.started,
            "finished": self.finished,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "StageRecord":
        return cls(**obj)


@dataclass
class PipelineManifest:
    path: Path
    version: str = __version__
    records: list[StageRecord] = field(default_factory=list)

    @classmethod
    def load_or_create(cls, path: str | Path) -> "PipelineManifest":
        path = Path(path)
        if path.exists():
            obj = read_json(path)
            return cls(
                path=path,
                version=obj.get("version", __version__),
                records=[StageRecord.from_dict(r) for r in obj.get("stages", [])],
            )
        return cls(path=path)

    def save(self) -> None:
        write_json(self.path, {"version": self.version, "stages": [r.to_dict() for r in self.records]})

    def append(self, record: StageRecord) -> None:
        self.records.append(record)
        self.save()

    def latest(self, stage: str) -> StageRecord | None:
        for record in reversed(self.records):
            if record.stage == stage:
                return record
        return None

    def output_digests(self) -> dict[str, str]:
        merged: dict[str, str] = {}
        for record in self.records:
            merged.update(record.outputs)
        return merged


# The keys PipelineRunner reads from each config section; FilterConfig and
# DedupConfig check the filters and dedup sections.
_PIPELINE_KEYS = ("seed", "tokenizer", "ingest", "filters", "dedup", "mix", "gen", "eval")
_SECTION_KEYS = {
    "ingest": ("inputs",),
    "mix": ("ratio", "mode", "unit", "seed", "instructions", "allow_short"),
    "gen": ("endpoint", "budget", "kind", "template", "categories", "lenient"),
    "eval": ("dataset", "endpoint", "shots", "labels"),
}


def _check_config(config: dict) -> None:
    """Refuse a key the runner does not read, and a tokenizer other than TOKENIZER."""
    check_keys(config, _PIPELINE_KEYS, "pipeline config")
    if config.get("tokenizer", TOKENIZER) != TOKENIZER:
        raise ConfigError(f"tokenizer must be {TOKENIZER!r}, got {config['tokenizer']!r}")
    for section, keys in _SECTION_KEYS.items():
        if config.get(section):
            check_keys(config[section], keys, f"{section} config")


class PipelineRunner:
    """Executes ingest -> filter -> dedup -> mix (plus optional gen/eval)
    from one JSON config.

    `gen_transport` / `eval_transport` override the HTTP transport for the
    endpoint-backed stages; tests inject deterministic mocks there.
    """

    def __init__(
        self,
        config: dict,
        config_dir: Path,
        out_dir: Path,
        resume: bool = False,
        gen_transport=None,
        eval_transport=None,
    ):
        self.config = config
        self.config_dir = config_dir
        self.out_dir = Path(out_dir)
        self.resume = resume
        _check_config(config)
        self.seed = int(config.get("seed", 0))
        self.gen_transport = gen_transport
        self.eval_transport = eval_transport
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest = PipelineManifest.load_or_create(self.out_dir / "manifest.json")

    def _resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.config_dir / p

    def _resolve_opt(self, rel: str | None) -> str | None:
        return str(self._resolve(rel)) if rel else None

    def _out(self, *names: str) -> list[Path]:
        return [self.out_dir / name for name in names]

    def _stage_digest(self, stage: str) -> str:
        scoped = {
            "stage_config": self.config.get(stage if stage != "filter" else "filters", {}),
            "seed": self.seed,
            "tokenizer": TOKENIZER,
            "version": __version__,
        }
        return config_digest(scoped)

    def _can_skip(self, stage: str, digest: str, inputs: list[Path]) -> bool:
        """On resume, skip a stage whose config, input files and recorded digests
        are unchanged. A file holding the latest output the manifest records for
        its path was rewritten by an earlier stage's rerun: it is stale and the
        stage reruns. A file matching no recorded output is refused."""
        if not self.resume:
            return False
        record = self.manifest.latest(stage)
        if record is None or record.config_digest != digest or set(record.inputs) != {str(p) for p in inputs}:
            return False
        latest_outputs = self.manifest.output_digests()
        fresh = True
        for path_str, want in {**record.inputs, **record.outputs}.items():
            path = Path(path_str)
            if not path.exists():
                return False
            have = file_digest(path)
            if have == want:
                continue
            if have != latest_outputs.get(path_str):
                raise StageFailure(stage, f"digest mismatch for {path} (file changed since last run)")
            fresh = False
        return fresh

    def _run_stage(self, stage: str, inputs: list[Path], outputs: list[Path], action: Callable[[], object]) -> None:
        digest = self._stage_digest(stage)
        if self._can_skip(stage, digest, inputs):
            return
        started = utc_now_iso()
        try:
            action()
        except (StageFailure, BudgetExhausted):
            raise
        except Exception as exc:
            raise StageFailure(stage, str(exc)) from exc
        self.manifest.append(
            StageRecord(
                stage=stage,
                config_digest=digest,
                seed=self.seed,
                inputs={str(p): file_digest(p) for p in inputs},
                outputs={str(p): file_digest(p) for p in outputs},
                started=started,
                finished=utc_now_iso(),
            )
        )

    # --- stages -----------------------------------------------------------

    def stage_ingest(self) -> None:
        cfg = self.config.get("ingest")
        if not cfg or not cfg.get("inputs"):
            raise ConfigError("config.ingest.inputs is required")
        sources = []
        for spec in cfg["inputs"]:
            check_keys(spec, ("path", "kind"), "ingest input")
            kind = spec.get("kind")
            if kind not in SOURCE_KINDS:
                raise ConfigError(f"ingest input kind must be one of {SOURCE_KINDS}, got {kind!r}")
            if "path" not in spec:
                raise ConfigError("every ingest input needs a 'path'")
            sources.append((self._resolve(spec["path"]), kind))
        files = [f for path, _ in sources for f in source_files(path)]
        docs, stats = outputs = self._out("docs.jsonl", "ingest_stats.json")
        self._run_stage("ingest", files, outputs, lambda: run_ingest_stage(sources, docs, stats))

    def stage_filter(self) -> None:
        cfg = FilterConfig.from_dict(self.config.get("filters", {}))
        cfg.sensitive_word_list = self._resolve_opt(cfg.sensitive_word_list)
        docs, kept, report = self._out("docs.jsonl", "kept.jsonl", "filter_report.json")
        self._run_stage("filter", [docs], [kept, report], lambda: run_filter_stage(docs, cfg, kept, report))

    def stage_dedup(self) -> None:
        cfg = DedupConfig.from_dict(self.config.get("dedup", {}))
        kept, *outputs = self._out("kept.jsonl", "unique.jsonl", "dup_pairs.jsonl", "dedup_report.json")
        self._run_stage("dedup", [kept], outputs, lambda: run_dedup_stage(kept, cfg, *outputs))

    def stage_mix(self) -> None:
        cfg = self.config.get("mix")
        if not cfg:
            return
        plan = mix_plan(cfg.get("ratio", "1:0"), cfg.get("mode", "dapt"), int(cfg.get("seed", self.seed)),
                        cfg.get("unit", "tokens"))
        unique, train, report, trainer = self._out("unique.jsonl", "train.jsonl", "mix_report.json", "trainer_config.json")
        inputs = [unique]
        instructions = self._resolve_opt(cfg.get("instructions"))
        if plan.mode == MODE_MIP:
            if not instructions:
                raise ConfigError("mix.instructions is required in mip mode")
            inputs.append(Path(instructions))

        def action() -> None:
            run_mix_stage(unique, plan, train, report, instructions_path=instructions,
                          allow_short=bool(cfg.get("allow_short", False)))
            emit_trainer_config(plan.mode, trainer)

        self._run_stage("mix", inputs, [train, report, trainer], action)

    def stage_gen(self) -> None:
        cfg = self.config.get("gen")
        if not cfg:
            return
        for key in ("endpoint", "budget"):
            if key not in cfg:
                raise ConfigError(f"gen.{key} is required")
        endpoint_path = self._resolve(cfg["endpoint"])
        endpoint = EndpointConfig.from_json(endpoint_path)
        kind = str(cfg.get("kind", "one_turn")).replace("-", "_")
        unique, sft, report = self._out("unique.jsonl", "sft.jsonl", "gen_report.json")

        def action() -> None:
            gen_report = run_gen_stage(
                unique, kind, endpoint, self.gen_transport, int(cfg["budget"]), self.out_dir / "gen_archive",
                sft, report, template=self._resolve_opt(cfg.get("template")),
                categories=self._resolve_opt(cfg.get("categories")), lenient=bool(cfg.get("lenient", False)),
            )
            if gen_report.budget_exhausted:
                raise BudgetExhausted("generation budget exhausted; partial sft.jsonl written, archive is resumable")

        self._run_stage("gen", [unique, endpoint_path], [sft, report], action)

    def stage_eval(self) -> None:
        cfg = self.config.get("eval")
        if not cfg:
            return
        for key in ("dataset", "endpoint"):
            if key not in cfg:
                raise ConfigError(f"eval.{key} is required")
        dataset_path = self._resolve(cfg["dataset"])
        endpoint_path = self._resolve(cfg["endpoint"])
        endpoint = EndpointConfig.from_json(endpoint_path)
        report = self.out_dir / "eval_report.json"
        self._run_stage("eval", [dataset_path, endpoint_path], [report], lambda: run_eval_stage(
            dataset_path, endpoint, cfg.get("shots", [0, 5]), self.seed, report,
            transport=self.eval_transport, labels=cfg.get("labels", {})))

    def run(self) -> PipelineManifest:
        self.stage_ingest()
        self.stage_filter()
        self.stage_dedup()
        self.stage_mix()
        self.stage_gen()
        self.stage_eval()
        return self.manifest


def run_pipeline(
    config_path: str | Path,
    out_dir: str | Path,
    resume: bool = False,
    gen_transport=None,
    eval_transport=None,
) -> PipelineManifest:
    config_path = Path(config_path)
    try:
        config = read_json(config_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read pipeline config {config_path}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("pipeline config must be a JSON object")
    runner = PipelineRunner(
        config,
        config_path.parent,
        Path(out_dir),
        resume=resume,
        gen_transport=gen_transport,
        eval_transport=eval_transport,
    )
    return runner.run()


# --- artifact summaries -------------------------------------------------------


def _summarize_documents(rows: list[dict]) -> str:
    by_kind: dict[str, int] = {}
    by_status: dict[str, int] = {}
    tokens: dict[str, int] = {}
    for r in rows:
        by_kind[r["source_kind"]] = by_kind.get(r["source_kind"], 0) + 1
        by_status[r["status"]] = by_status.get(r["status"], 0) + 1
        tokens[r["source_kind"]] = tokens.get(r["source_kind"], 0) + int(r["token_count"])
    lines = [f"documents: {len(rows)}"]
    for kind in sorted(by_kind):
        lines.append(f"  {kind}: {by_kind[kind]} docs, {tokens[kind]} tokens")
    lines.append("status: " + ", ".join(f"{k}={v}" for k, v in sorted(by_status.items())))
    lines.append(f"total tokens: {sum(tokens.values())}")
    return "\n".join(lines)


def _summarize_mcq(rows: list[dict]) -> str:
    per: dict[str, dict] = {}
    types: dict[str, int] = {}
    for r in rows:
        bucket = per.setdefault(r["difficulty"], {"questions": 0, "subclasses": set()})
        bucket["questions"] += 1
        bucket["subclasses"].add(r["subclass"])
        types[r["question_type"]] = types.get(r["question_type"], 0) + 1
    canonical = [d for d in DIFFICULTIES if d in per] + sorted(set(per) - set(DIFFICULTIES))
    lines = [f"{'category':<20}{'subclasses':>12}{'questions':>12}"]
    total_sub = 0
    for diff in canonical:
        n_sub = len(per[diff]["subclasses"])
        total_sub += n_sub
        lines.append(f"{diff:<20}{n_sub:>12}{per[diff]['questions']:>12}")
    lines.append(f"{'TOTAL':<20}{total_sub:>12}{len(rows):>12}")
    lines.append("question types: " + ", ".join(f"{k}={v}" for k, v in sorted(types.items())))
    return "\n".join(lines)


def _summarize_instructions(rows: list[dict]) -> str:
    kinds: dict[str, int] = {}
    turns_total = 0
    categories: dict[str, int] = {}
    for r in rows:
        kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
        turns_total += len(r["turns"])
        if r.get("category"):
            categories[r["category"]] = categories.get(r["category"], 0) + 1
    lines = [f"instruction samples: {len(rows)}"]
    for kind in sorted(kinds):
        lines.append(f"  {kind}: {kinds[kind]}")
    lines.append(f"turns total: {turns_total}")
    if categories:
        top = sorted(categories.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        lines.append("top categories: " + ", ".join(f"{c}={n}" for c, n in top))
    return "\n".join(lines)


def summarize_artifact(path: str | Path) -> str:
    """Human-readable summary of any toolkit artifact file."""
    path = Path(path)
    if path.suffix == ".jsonl":
        rows = [obj for _, obj in read_jsonl(path)]
        if not rows:
            raise UnknownSchema(f"{path}: empty file")
        first = rows[0]
        if {"doc_id", "text", "source_kind"} <= first.keys():
            return _summarize_documents(rows)
        if {"question", "options", "correct_option"} <= first.keys():
            return _summarize_mcq(rows)
        if {"kind", "turns"} <= first.keys():
            return _summarize_instructions(rows)
        if {"a", "b", "jaccard"} <= first.keys():
            return f"duplicate pairs: {len(rows)}"
        if {"id", "text"} <= first.keys():
            return f"training records: {len(rows)}"
        raise UnknownSchema(f"{path}: unrecognized JSONL schema (keys: {sorted(first)})")
    if path.suffix == ".json":
        obj = read_json(path)
        if not isinstance(obj, dict):
            raise UnknownSchema(f"{path}: expected a JSON object")
        if "stages" in obj:
            stages = ", ".join(r["stage"] for r in obj["stages"])
            return f"manifest: {len(obj['stages'])} stage records ({stages})"
        if "overall_micro" in obj:
            return (
                f"eval report: {obj.get('dataset')} items={obj.get('items_total')} "
                f"micro={obj.get('overall_micro')} macro={obj.get('overall_macro')}"
            )
        if "pairs" in obj and "dropped" in obj:
            dropped = ", ".join(f"{k}={v}" for k, v in obj["dropped"].items())
            return (
                f"dedup report: input={obj['input']} retained={obj['retained']} dropped: {dropped}; "
                f"tokens {obj['tokens_in']} -> {obj['tokens_out']}; {obj['pairs']} near-dup pairs"
            )
        if "dropped" in obj and "retained" in obj:
            dropped = ", ".join(f"{k}={v}" for k, v in obj["dropped"].items())
            return f"filter report: input={obj['input']} retained={obj['retained']} dropped: {dropped}"
        if "requests_sent" in obj and "accepted" in obj:
            rejected = ", ".join(f"{k}={v}" for k, v in obj.get("rejected", {}).items()) or "none"
            return (
                f"generation report: accepted={obj['accepted']} rejected: {rejected}; "
                f"sent={obj['requests_sent']} replayed={obj.get('replayed', 0)}"
            )
        if "achieved_ratio" in obj:
            return (
                f"mix report: mode={obj.get('mode')} ratio=1:{obj.get('ratio_general')} "
                f"achieved={obj.get('achieved_ratio'):.4f} seed={obj.get('seed')}"
            )
        if "max_length" in obj and "precision" in obj:
            return "trainer config: " + ", ".join(f"{k}={v}" for k, v in obj.items())
        if "tokenizer" in obj and "documents" in obj:
            return "ingest stats: " + json.dumps(obj, ensure_ascii=False)
        raise UnknownSchema(f"{path}: unrecognized JSON schema (keys: {sorted(obj)})")
    raise UnknownSchema(f"{path}: expected .json or .jsonl")
