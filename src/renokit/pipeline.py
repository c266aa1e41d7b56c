"""End-to-end pipeline runner with a digest-chained manifest, and the one
implementation of each stage that both the runner and the CLI call.

Each stage records the sha256 of its inputs, outputs, and config in an
append-only manifest. A resumed run re-verifies those digests: a matching
stage is skipped, and a changed source file, or a file that a later run of
an earlier stage rewrote, is stale and recomputed. A stage whose attempt was
cut short is recorded unfinished and reruns, and a file it may have written
is stale too. A file the pipeline wrote that matches no digest recorded for
it is an error rather than a silent recompute.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import Counter
from contextlib import closing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from . import __version__
from .dedup import DedupConfig, DedupReport, DupPair, run_dedup
from .errors import BudgetExhausted, ConfigError, StageFailure, UnknownSchema
from .endpoint import ChatClient, EndpointConfig, ResponseArchive, utc_now_iso
from .evalharness import EvalReport, EvalRunConfig, MCQDataset, best_of_settings, check_shots, load_dataset, run_eval
from .filters import FilterConfig, FilterReport, run_filters
from .ingest import (
    DOMAIN_KINDS,
    SOURCE_KINDS,
    Document,
    PipelineStats,
    ingest_stream,
    read_documents,
    records_from_path,
    source_files,
)
from .jsonl import (Record, canonical_json, config_from_dict, config_from_json, read_json, read_jsonl, read_records,
                    record_from_dict, write_json, write_jsonl)
from .mixer import (MODE_MIP, MipRecord, MipReport, MixPlan, MixReport, TrainerConfig, build_mip, emit_trainer_config,
                    mix)
from .sftgen import DIFFICULTIES, GenReport, InstructionSample, PromptTemplate, batch_generate, load_template
from .tokenizers import TOKENIZER


T = TypeVar("T")


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def config_digest(obj) -> str:
    """sha256 of `obj` as canonical JSON; a path in it is hashed as its string."""
    return hashlib.sha256(canonical_json(obj)).hexdigest()


# --- stages -------------------------------------------------------------------
# PipelineRunner.stage_<x> and the CLI subcommand <x> both call run_<x>_stage:
# it takes the input records, calls the layer, writes the artifacts, and
# returns the records it wrote with the report. The CLI reads its input files;
# the runner hands each stage the records of the one before it.


def run_ingest_stage(sources: Sequence[tuple[str | Path, str]], docs_path,
                     stats_path) -> tuple[list[Document], PipelineStats]:
    """Ingest (path, kind) sources into one document file sorted by doc_id; records are
    read as they are extracted, and a bad row raises before any file is written."""
    docs, stats = ingest_stream(r for path, kind in sources for r in records_from_path(path, kind))
    write_jsonl(docs_path, docs)
    if stats_path:
        write_json(stats_path, stats)
    return docs, stats


def run_filter_stage(docs: Iterable[Document], cfg: FilterConfig, kept_path,
                     report_path) -> tuple[list[Document], FilterReport]:
    kept, report = run_filters(docs, cfg)
    write_jsonl(kept_path, kept)
    write_json(report_path, report)
    return kept, report


def run_dedup_stage(kept: Sequence[Document], cfg: DedupConfig, unique_path, pairs_path,
                    report_path) -> tuple[list[Document], DedupReport]:
    unique, pairs, report = run_dedup(kept, cfg)
    write_jsonl(unique_path, unique)
    write_jsonl(pairs_path, pairs)
    if report_path:
        write_json(report_path, report)
    return unique, report


def run_mix_stage(records: Iterable[dict], plan: MixPlan, train_path, report_path, *,
                  general: Iterable[dict] = (), instructions_path=None) -> MixReport | MipReport:
    """Build one training set, write it, and return its report.

    `records` with source_kind "general" join the general pool, followed by
    every record of `general`; all others are domain data. MIP mode unions
    the domain records with the instruction samples of `instructions_path`
    and uses no general data.
    """
    domain: list[dict] = []
    pool: list[dict] = []
    for rec in records:
        (pool if rec.get("source_kind") == "general" else domain).append(rec)
    if plan.mode == MODE_MIP:
        instructions = [s.to_dict() for s in read_records(InstructionSample, instructions_path)]
        mixed, report = build_mip(domain, instructions, seed=plan.seed)
    else:
        pool.extend(general)
        mixed, report = mix(domain, pool, plan)
    write_jsonl(train_path, mixed)
    if report_path:
        write_json(report_path, report)
    return report


def check_budget(budget: int) -> None:
    """The request budget rule of `run` and `gen`: 0 sends nothing and replays a full archive."""
    if budget < 0:
        raise ConfigError(f"generation budget must be >= 0, got {budget}")


def run_gen_stage(knowledge: Iterable[Document], template: PromptTemplate, endpoint: EndpointConfig, transport,
                  budget: int, archive_dir, sft_path, report_path, *, lenient: bool = False) -> GenReport:
    """Generate `template.kind` samples from the domain documents of `knowledge`.

    With `transport` None requests go over HTTP. On budget exhaustion the
    partial output and the report are written, then BudgetExhausted is raised.
    """
    docs = [d for d in knowledge if d.source_kind in DOMAIN_KINDS]
    with closing(ChatClient(endpoint, transport)) as client:
        items, report = batch_generate(docs, [template.kind], client, budget=budget,
                                       archive=ResponseArchive(archive_dir), templates={template.kind: template},
                                       lenient=lenient)
    write_jsonl(sft_path, items)
    if report_path:
        write_json(report_path, report)
    if report.budget_exhausted:
        raise BudgetExhausted(f"request budget of {budget} exhausted after {report.requests_sent} requests sent; "
                              f"{report.accepted} items accepted into partial {sft_path}; "
                              "a rerun with the same archive resumes the run")
    return report


def run_eval_stage(dataset: MCQDataset, endpoint: EndpointConfig, shots: Sequence[int], seed: int, report_path, *,
                   transport=None, labels: dict | None = None) -> tuple[EvalReport, list[EvalReport]]:
    """Evaluate at each shot count and save the best report; returns it and the per-setting reports."""
    check_shots(shots, dataset)
    reports = [
        run_eval(dataset, EvalRunConfig(shots=k, seed=seed, endpoint=endpoint), transport=transport, labels=labels)
        for k in shots
    ]
    best = best_of_settings(reports)
    best.save(report_path)
    return best, reports


# --- manifest -----------------------------------------------------------------


@dataclass
class StageRecord(Record):
    stage: str
    config_digest: str
    seed: int
    inputs: dict[str, str]
    outputs: dict[str, str]
    started: str
    finished: str  # "" while the attempt is unfinished; its outputs then carry no digests


@dataclass
class PipelineManifest(Record):
    """manifest.json: the version that wrote it and every stage record, in run order."""

    version: str = __version__
    stages: list[StageRecord] = field(default_factory=list)

    def __post_init__(self):
        # Read back from JSON, each stage record is an object; every one must be complete.
        self.stages = [config_from_dict(StageRecord, r, f"stage record {i}") for i, r in enumerate(self.stages, 1)]

    @classmethod
    def load_or_create(cls, path: str | Path) -> "PipelineManifest":
        """The manifest at `path`, or an empty one when there is none; a malformed one is a ConfigError."""
        return config_from_json(cls, path, "manifest") if Path(path).exists() else cls()

    def latest(self, stage: str) -> StageRecord | None:
        for record in reversed(self.stages):
            if record.stage == stage:
                return record
        return None

    def output_digests(self) -> dict[str, str]:
        merged: dict[str, str] = {}
        for record in self.stages:
            merged.update(record.outputs)
        return merged


# --- run config ---------------------------------------------------------------
# A `run` config and its sections are built by config_from_dict, so each
# section's keys, JSON types, required keys and defaults are its fields; the
# filters and dedup sections build FilterConfig and DedupConfig.


@dataclass
class RunConfig:
    ingest: dict
    seed: int = 0
    tokenizer: str = TOKENIZER
    filters: dict = field(default_factory=dict)
    dedup: dict = field(default_factory=dict)
    mix: dict | None = None
    gen: dict | None = None
    eval: dict | None = None

    def __post_init__(self):
        if self.tokenizer != TOKENIZER:
            raise ValueError(f"tokenizer must be {TOKENIZER!r}, got {self.tokenizer!r}")


@dataclass
class IngestSection:
    inputs: list[dict]

    def __post_init__(self):
        if not self.inputs:
            raise ValueError("inputs must list at least one source")


@dataclass
class IngestInput:
    path: str
    kind: str

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"kind must be one of {SOURCE_KINDS}, got {self.kind!r}")


@dataclass
class GenSection:
    endpoint: str
    budget: int
    kind: str = "one_turn"
    template: str | None = None
    categories: str | None = None
    lenient: bool = False

    def __post_init__(self):
        check_budget(self.budget)


@dataclass
class EvalSection:
    dataset: str
    endpoint: str
    shots: list[int] = field(default_factory=lambda: [0, 5])
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all(type(v) is str for v in self.labels.values()):
            raise ValueError(f"label values must be strings, got {self.labels!r}")


class PipelineRunner:
    """Executes ingest -> filter -> dedup -> mix (plus optional gen/eval)
    from one JSON config.

    Every config value, and every file the config names, is checked and read
    here, before the first stage runs, so that a config error never comes
    after the files of the stages before it.

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
        self.config_dir = config_dir
        self.out_dir = Path(out_dir)
        self.resume = resume
        run = config_from_dict(RunConfig, config, "run config")
        self.seed = run.seed
        ingest = config_from_dict(IngestSection, run.ingest, "ingest section")
        specs = [config_from_dict(IngestInput, obj, f"ingest input {i}") for i, obj in enumerate(ingest.inputs, 1)]
        self.sources = [(self._resolve(spec.path), spec.kind) for spec in specs]
        self.filter_cfg = config_from_dict(FilterConfig, run.filters, "filters section")
        self.filter_cfg.sensitive_word_list = self._file(self.filter_cfg.sensitive_word_list,
                                                         "filters.sensitive_word_list")
        self.dedup_cfg = config_from_dict(DedupConfig, run.dedup, "dedup section")
        self.mix = config_from_dict(MixPlan, {"seed": run.seed, **run.mix}, "mix section") if run.mix else None
        self.instructions = self._file(self.mix.instructions, "mix.instructions") if self.mix else None
        self.gen = config_from_dict(GenSection, run.gen, "gen section") if run.gen else None
        if self.gen:
            template = self._file(self.gen.template, "gen.template")
            categories = self._file(self.gen.categories, "gen.categories")
            self.gen_files = [p for p in (template, categories) if p]
            self.gen_template = load_template(self.gen.kind, body_path=template, categories_path=categories)
            self.gen_endpoint = self._endpoint(self.gen.endpoint, "gen.endpoint")
        self.eval = config_from_dict(EvalSection, run.eval, "eval section") if run.eval else None
        if self.eval:
            self.eval_endpoint = self._endpoint(self.eval.endpoint, "eval.endpoint")
            dataset_path = self._file(self.eval.dataset, "eval.dataset")
            self.eval_dataset = dataset_path, load_dataset(dataset_path)
            check_shots(self.eval.shots, self.eval_dataset[1])
        self.gen_transport = gen_transport
        self.eval_transport = eval_transport
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out_dir / "manifest.json"
        self.manifest = PipelineManifest.load_or_create(self.manifest_path)
        self._digests: dict[str, str] = {}  # path -> sha256, for each file hashed in this run

    def _endpoint(self, rel: str, what: str) -> tuple[str, EndpointConfig]:
        """The endpoint file that `rel` names, and its config."""
        path = self._file(rel, what)
        return path, EndpointConfig.from_json(path)

    def _resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else self.config_dir / p

    def _file(self, rel: str | None, what: str) -> str | None:
        """The resolved path of the file that config value `what` names, None
        when it is null; a path that names no file, "" included, is a ConfigError."""
        if rel is None:
            return None
        path = self._resolve(rel)
        if not path.is_file():
            raise ConfigError(f"{what}: no such file {path}")
        return str(path)

    def _out(self, *names: str) -> list[Path]:
        return [self.out_dir / name for name in names]

    def _stage_digest(self, stage: str) -> str:
        """The digest of the stage's built config, so that a default spelt out in the file changes nothing."""
        built = {"filter": self.filter_cfg, "dedup": self.dedup_cfg, "mix": self.mix, "gen": self.gen,
                 "eval": self.eval}
        scoped = {
            "stage_config": asdict(built[stage]) if stage in built else self.sources,
            "seed": self.seed,
            "tokenizer": TOKENIZER,
            "version": __version__,
        }
        return config_digest(scoped)

    def _digest(self, path: str | Path) -> str:
        """The sha256 of the file at `path`, hashed once per run: a file an earlier
        stage wrote or checked in this run keeps the digest it got then."""
        key = str(path)
        if key not in self._digests:
            self._digests[key] = file_digest(path)
        return self._digests[key]

    def _can_skip(self, stage: str, digest: str, inputs: Sequence[str | Path]) -> bool:
        """On resume, skip a stage whose config, input files and recorded digests
        are unchanged; a stage whose latest attempt did not finish reruns. A
        changed file is stale, and the stage reruns, when no record lists it as
        an output (a source file), when it holds the latest output recorded for
        its path (an earlier stage's rerun rewrote it), or when the latest
        record naming it is an unfinished attempt, which may have rewritten it.
        A file the pipeline wrote that matches none of these is refused."""
        if not self.resume:
            return False
        record = self.manifest.latest(stage)
        if (record is None or not record.finished or record.config_digest != digest
                or set(record.inputs) != {str(p) for p in inputs}):
            return False
        written = self.manifest.output_digests()
        fresh = True
        for path_str, want in {**record.inputs, **record.outputs}.items():
            path = Path(path_str)
            if not path.exists():
                return False
            have = self._digest(path)
            if have == want:
                continue
            if written.get(path_str, "") not in ("", have):
                raise StageFailure(stage, f"digest mismatch for {path} (file changed since last run)")
            fresh = False
        return fresh

    def _run_stage(self, stage: str, inputs: Sequence[str | Path], outputs: Sequence[Path],
                   action: Callable[[], T]) -> T | None:
        """Run `action` unless the stage can be skipped, and return what it returns, None
        when skipped. The attempt is recorded before `action` runs and gets its digests
        and `finished` time once `action` returns."""
        digest = self._stage_digest(stage)
        if self._can_skip(stage, digest, inputs):
            return None
        record = StageRecord(stage=stage, config_digest=digest, seed=self.seed, inputs={},
                             outputs=dict.fromkeys(map(str, outputs), ""), started=utc_now_iso(), finished="")
        self.manifest.stages.append(record)
        write_json(self.manifest_path, self.manifest)
        for path in outputs:
            self._digests.pop(str(path), None)
        try:
            result = action()
        except (StageFailure, BudgetExhausted):
            raise
        except Exception as exc:
            raise StageFailure(stage, str(exc)) from exc
        record.inputs = {str(p): self._digest(p) for p in inputs}
        record.outputs = {str(p): self._digest(p) for p in outputs}
        record.finished = utc_now_iso()
        write_json(self.manifest_path, self.manifest)
        return result

    # --- stages -----------------------------------------------------------
    # Ingest, filter and dedup return the documents they wrote, None when
    # skipped; a stage handed None reads the file back. Mix and gen are handed
    # a function that returns dedup's documents.

    def stage_ingest(self) -> list[Document] | None:
        files = [f for path, _ in self.sources for f in source_files(path)]
        docs, stats = outputs = self._out("docs.jsonl", "ingest_stats.json")
        return self._run_stage("ingest", files, outputs, lambda: run_ingest_stage(self.sources, docs, stats)[0])

    def stage_filter(self, docs: list[Document] | None) -> list[Document] | None:
        docs_path, kept, report = self._out("docs.jsonl", "kept.jsonl", "filter_report.json")
        lexicon = self.filter_cfg.sensitive_word_list
        return self._run_stage("filter", [docs_path, lexicon] if lexicon else [docs_path], [kept, report],
                               lambda: run_filter_stage(_handed(docs, docs_path), self.filter_cfg, kept, report)[0])

    def stage_dedup(self, kept: list[Document] | None) -> list[Document] | None:
        kept_path, *outputs = self._out("kept.jsonl", "unique.jsonl", "dup_pairs.jsonl", "dedup_report.json")
        return self._run_stage("dedup", [kept_path], outputs,
                               lambda: run_dedup_stage(_handed(kept, kept_path), self.dedup_cfg, *outputs)[0])

    def stage_mix(self, unique: Callable[[], list[Document]]) -> None:
        if self.mix is None:
            return
        unique_path, train, report, trainer = self._out("unique.jsonl", "train.jsonl", "mix_report.json",
                                                        "trainer_config.json")
        inputs = [unique_path, self.instructions] if self.instructions else [unique_path]

        def action() -> None:
            records = (d.to_dict() for d in unique())
            run_mix_stage(records, self.mix, train, report, instructions_path=self.instructions)
            emit_trainer_config(self.mix.mode, trainer)

        self._run_stage("mix", inputs, [train, report, trainer], action)

    def stage_gen(self, unique: Callable[[], list[Document]]) -> None:
        if self.gen is None:
            return
        endpoint_path, endpoint = self.gen_endpoint
        unique_path, sft, report = self._out("unique.jsonl", "sft.jsonl", "gen_report.json")
        self._run_stage("gen", [unique_path, endpoint_path, *self.gen_files], [sft, report], lambda: run_gen_stage(
            unique(), self.gen_template, endpoint, self.gen_transport, self.gen.budget, self.out_dir / "gen_archive",
            sft, report, lenient=self.gen.lenient))

    def stage_eval(self) -> None:
        if self.eval is None:
            return
        (endpoint_path, endpoint), (dataset_path, dataset) = self.eval_endpoint, self.eval_dataset
        report = self.out_dir / "eval_report.json"
        self._run_stage("eval", [dataset_path, endpoint_path], [report], lambda: run_eval_stage(
            dataset, endpoint, self.eval.shots, self.seed, report,
            transport=self.eval_transport, labels=self.eval.labels))

    def run(self) -> PipelineManifest:
        # A list is referenced only until the last stage that reads it returns.
        unique = self.stage_dedup(self.stage_filter(self.stage_ingest()))
        # When dedup was skipped, the first of mix and gen that runs reads its
        # file back, and the other reuses what it read.
        handed = functools.cache(functools.partial(_handed, unique, self.out_dir / "unique.jsonl"))
        del unique
        self.stage_mix(handed)
        self.stage_gen(handed)
        del handed
        self.stage_eval()
        return self.manifest


def _handed(docs: list[Document] | None, path: Path) -> list[Document]:
    """The documents an earlier stage of this run handed over, or, when that stage
    was skipped on resume, those of the file it wrote at `path`."""
    return read_documents(path) if docs is None else docs


def run_pipeline(config_path: str | Path, out_dir: str | Path, resume: bool = False, gen_transport=None,
                 eval_transport=None) -> PipelineManifest:
    config_path = Path(config_path)
    try:
        config = read_json(config_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read pipeline config: {exc}") from None  # both errors name the file
    return PipelineRunner(config, config_path.parent, Path(out_dir), resume=resume, gen_transport=gen_transport,
                          eval_transport=eval_transport).run()


# --- artifact summaries -------------------------------------------------------


def _summarize_documents(docs: list[Document]) -> str:
    by_kind = Counter(d.source_kind for d in docs)
    by_status = Counter(d.status for d in docs)
    tokens: Counter[str] = Counter()
    for d in docs:
        tokens[d.source_kind] += d.token_count
    lines = [f"documents: {len(docs)}"]
    for kind in sorted(by_kind):
        lines.append(f"  {kind}: {by_kind[kind]} docs, {tokens[kind]} tokens")
    lines.append("status: " + ", ".join(f"{k}={v}" for k, v in sorted(by_status.items())))
    lines.append(f"total tokens: {sum(tokens.values())}")
    return "\n".join(lines)


def _summarize_mcq(dataset: MCQDataset) -> str:
    stats = dataset.stats()
    per = stats["per_difficulty"]
    lines = [f"{'category':<20}{'subclasses':>12}{'questions':>12}"]
    lines.extend(f"{d:<20}{per[d]['subclasses']:>12}{per[d]['questions']:>12}" for d in DIFFICULTIES if d in per)
    lines.append(f"{'TOTAL':<20}{stats['subclasses']:>12}{stats['total']:>12}")
    types = Counter(entry.item.question_type for entry in dataset.entries)
    lines.append("question types: " + ", ".join(f"{k}={v}" for k, v in sorted(types.items())))
    return "\n".join(lines)


def _summarize_instructions(samples: list[InstructionSample]) -> str:
    kinds = Counter(s.kind for s in samples)
    turns_total = sum(len(s.turns) for s in samples)
    categories = Counter(s.category for s in samples if s.category)
    lines = [f"instruction samples: {len(samples)}"]
    for kind in sorted(kinds):
        lines.append(f"  {kind}: {kinds[kind]}")
    lines.append(f"turns total: {turns_total}")
    if categories:
        top = sorted(categories.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        lines.append("top categories: " + ", ".join(f"{c}={n}" for c, n in top))
    return "\n".join(lines)


def _counts(counts: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in counts.items())


# What `stats` prints for each JSON report; a file is read through from_dict of
# the one class whose field names are exactly its keys.
_REPORT_SUMMARIES: dict[type[Record], Callable] = {
    PipelineManifest: lambda m: f"manifest: {len(m.stages)} stage records ({', '.join(r.stage for r in m.stages)})",
    EvalReport: lambda r: (
        f"eval report: {r.dataset} items={r.items_total} micro={r.overall_micro} macro={r.overall_macro}"
    ),
    DedupReport: lambda r: (
        f"dedup report: input={r.input} retained={r.retained} dropped: {_counts(r.dropped)}; "
        f"tokens {r.tokens_in} -> {r.tokens_out}; {r.pairs} near-dup pairs of {r.lsh_candidates} LSH candidates; "
        f"a pair at the threshold is a candidate with probability {r.candidate_prob_at_threshold:.4f}"
    ),
    FilterReport: lambda r: f"filter report: input={r.input} retained={r.retained} dropped: {_counts(r.dropped)}",
    GenReport: lambda r: (
        f"generation report: accepted={r.accepted} rejected: {_counts(r.rejected) or 'none'}; "
        f"sent={r.requests_sent} replayed={r.replayed}"
    ),
    MixReport: lambda r: (
        f"mix report: mode={r.mode} ratio=1:{r.ratio_general} achieved={r.achieved_ratio:.4f} seed={r.seed}"
    ),
    MipReport: lambda r: (
        f"mix report: mode={r.mode} pretrain={r.pretrain_count} instructions={r.instruction_count} "
        f"total_tokens={r.total_tokens} seed={r.seed}"
    ),
    TrainerConfig: lambda c: "trainer config: " + _counts(c.to_dict()),
    PipelineStats: lambda stats: "ingest stats: " + json.dumps(stats.to_dict(), ensure_ascii=False),
}
_REPORT_CLASSES = {frozenset(f.name for f in fields(cls)): cls for cls in _REPORT_SUMMARIES}


def summarize_artifact(path: str | Path) -> str:
    """Human-readable summary of any toolkit artifact file; a JSONL file's schema is
    chosen by the keys that every row holds."""
    path = Path(path)
    if path.suffix == ".jsonl":
        rows = list(read_jsonl(path))
        if not rows:
            raise UnknownSchema(f"{path}: empty file")
        keys = frozenset(rows[0][1]).intersection(*(obj for _, obj in rows[1:]))
        if {"doc_id", "text", "source_kind"} <= keys:
            return _summarize_documents(read_records(Document, path, rows))
        if {"question", "options", "correct_option"} <= keys:
            return _summarize_mcq(load_dataset(path, rows))
        if {"kind", "turns"} <= keys:
            return _summarize_instructions(read_records(InstructionSample, path, rows))
        if {"a", "b", "jaccard"} <= keys:
            return f"duplicate pairs: {len(read_records(DupPair, path, rows))}"
        if "origin" in keys:
            return f"training records: {len(read_records(MipRecord, path, rows))}"
        if "text" in keys or "turns" in keys:
            return f"training records: {len(rows)}"
        raise UnknownSchema(f"{path}: unrecognized JSONL schema (keys every row holds: {sorted(keys)})")
    if path.suffix == ".json":
        obj = read_json(path)
        if not isinstance(obj, dict):
            raise UnknownSchema(f"{path}: expected a JSON object")
        cls = _REPORT_CLASSES.get(frozenset(obj))
        if cls is None:
            raise UnknownSchema(f"{path}: unrecognized JSON schema (keys: {sorted(obj)})")
        return _REPORT_SUMMARIES[cls](record_from_dict(cls, obj, path))
    raise UnknownSchema(f"{path}: expected .json or .jsonl")
