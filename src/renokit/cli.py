"""Command-line entry point.

Exit codes: 0 success, 2 validation/config error, 3 stage failure,
4 request budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import __version__
from .dedup import DedupConfig
from .endpoint import EndpointConfig, OfflineTransport
from .errors import (
    BudgetExhausted,
    ConfigError,
    RenokitError,
    SchemaError,
    StageFailure,
    UnknownSchema,
)
from .evalharness import EvalReport, load_dataset, sweep_report
from .filters import FilterConfig, load_lexicon
from .ingest import SOURCE_KINDS, read_documents
from .jsonl import _atomic_write, config_from_json, encodable_rows, read_json, record_from_dict
from .mixer import MODE_MIP, MODES, UNITS, MixPlan, emit_trainer_config, read_mix_records
from .pipeline import (
    check_budget,
    describe,
    run_dedup_stage,
    run_eval_stage,
    run_filter_stage,
    run_gen_stage,
    run_ingest_stage,
    run_mix_stage,
    run_pipeline,
    summarize_artifact,
)
from .sftgen import load_template, term_frequency_report

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STAGE = 3
EXIT_BUDGET = 4

# OSError covers unreadable input and config files named on the command line;
# inside `run` those surface as StageFailure instead.
_VALIDATION_ERRORS = (ConfigError, SchemaError, UnknownSchema, ValueError, OSError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="renokit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"renokit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="extract clean documents from raw sources")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--kind", choices=SOURCE_KINDS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", help="where to write ingest stats JSON")

    p = sub.add_parser("filter", help="apply sensitive/language/length filters")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--config", help="filter config JSON")

    p = sub.add_parser("dedup", help="exact, near-duplicate, and sentence dedup")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--config", help="dedup config JSON")

    p = sub.add_parser("mix", help="build a ratio-controlled training set")
    p.add_argument("--domain", required=True)
    p.add_argument("--general")
    p.add_argument("--instructions", help="instruction JSONL (mip mode only)")
    p.add_argument("--ratio", default="1:0")
    p.add_argument("--mode", default="dapt", choices=MODES)
    p.add_argument("--unit", default="tokens", choices=UNITS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--allow-short", action="store_true")

    p = sub.add_parser("emit-config", help="write trainer hyperparameters for a mode")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen", help="generate instruction data from knowledge docs")
    p.add_argument("--kind", required=True, choices=("one-turn", "multi-turn", "mcq"))
    p.add_argument("--knowledge", required=True)
    p.add_argument("--endpoint", required=True, help="endpoint config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=int, required=True, help="max requests to send")
    p.add_argument("--archive", help="raw-response archive dir (default: <out>.archive)")
    p.add_argument("--report", help="where to write the generation report")
    p.add_argument("--template", help="override prompt template file")
    p.add_argument("--categories", help="override category list file")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--replay-only", action="store_true", help="never touch the network; archive must be complete")

    p = sub.add_parser("eval", help="evaluate an endpoint on an MCQ dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--endpoint", required=True)
    p.add_argument("--shots", default="0,5", help="comma-separated shot counts")
    p.add_argument("--out", required=True, help="best-setting report JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label-model", help="model label for sweep tables")
    p.add_argument("--label-ratio", help="data-ratio label for sweep tables")

    p = sub.add_parser("sweep-report", help="tabulate eval reports by model and ratio")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--text", help="aligned text table output path")

    p = sub.add_parser("term-freq", help="term frequency table over instruction data")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stopwords", help="newline-delimited stop-word list")
    p.add_argument("--top", type=int, default=50)

    p = sub.add_parser("stats", help="summarize any toolkit artifact file")
    p.add_argument("path")

    p = sub.add_parser("run", help="run the full pipeline from one config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", action="store_true")

    return parser


def _cmd_ingest(args) -> int:
    _, stats = run_ingest_stage([(path, args.kind) for path in args.inputs], args.out, args.stats)
    print(describe(stats))
    return EXIT_OK


def _cmd_filter(args) -> int:
    cfg = config_from_json(FilterConfig, args.config, "filter config") if args.config else FilterConfig()
    _, report = run_filter_stage(read_documents(args.input), cfg, args.out, args.report)
    print(describe(report))
    return EXIT_OK


def _cmd_dedup(args) -> int:
    cfg = config_from_json(DedupConfig, args.config, "dedup config") if args.config else DedupConfig()
    _, report = run_dedup_stage(read_documents(args.input), cfg, args.out, args.pairs, None)
    print(describe(report))
    return EXIT_OK


def _cmd_mix(args) -> int:
    if args.mode == MODE_MIP and args.general:
        raise ConfigError("mip mode takes no general data")
    plan = MixPlan(seed=args.seed, ratio=args.ratio, mode=args.mode, unit=args.unit,
                   instructions=args.instructions, allow_short=args.allow_short)
    general = read_mix_records(args.general) if args.general else ()
    report = run_mix_stage(read_mix_records(args.domain, needs_text=plan.mode == MODE_MIP), plan, args.out,
                           args.report, general=general, instructions_path=args.instructions)
    print(describe(report))
    return EXIT_OK


def _cmd_emit_config(args) -> int:
    print(describe(emit_trainer_config(args.mode, args.out)))
    return EXIT_OK


def _cmd_gen(args) -> int:
    check_budget(args.budget)
    template = load_template(args.kind.replace("-", "_"), body_path=args.template, categories_path=args.categories)
    endpoint = EndpointConfig.from_json(args.endpoint)
    report = run_gen_stage(read_documents(args.knowledge), template, endpoint,
                           OfflineTransport() if args.replay_only else None, args.budget,
                           args.archive or f"{args.out}.archive", args.out, args.report, lenient=args.lenient)
    print(describe(report))
    return EXIT_OK


def _cmd_eval(args) -> int:
    labels = {}
    if args.label_model:
        labels["model"] = args.label_model
    if args.label_ratio:
        labels["ratio"] = args.label_ratio
    shots = [int(text) for text in args.shots.split(",")]
    best, reports = run_eval_stage(load_dataset(args.dataset), EndpointConfig.from_json(args.endpoint), shots,
                                   args.seed, args.out, labels=labels)
    for report in (*reports, best):
        print(describe(report))
    return EXIT_OK


def _cmd_sweep_report(args) -> int:
    out_rows, text = sweep_report([record_from_dict(EvalReport, read_json(path), path) for path in args.runs])
    with _atomic_write(args.out) as fh:
        writer = csv.DictWriter(fh, fieldnames=list(out_rows[0]))
        writer.writeheader()
        writer.writerows(out_rows)
    if args.text:
        with _atomic_write(args.text) as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


def _cmd_term_freq(args) -> int:
    samples = [obj for _, obj in encodable_rows(args.input)]
    ranked = term_frequency_report(samples, stopwords=load_lexicon(args.stopwords), top_k=args.top)
    with _atomic_write(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "count"])
        writer.writerows(ranked)
    for term, count in ranked[:10]:
        print(f"{term}\t{count}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    print(summarize_artifact(args.path))
    return EXIT_OK


def _cmd_run(args) -> int:
    print(describe(run_pipeline(args.config, args.out_dir, resume=args.resume)))
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "filter": _cmd_filter,
    "dedup": _cmd_dedup,
    "mix": _cmd_mix,
    "emit-config": _cmd_emit_config,
    "gen": _cmd_gen,
    "eval": _cmd_eval,
    "sweep-report": _cmd_sweep_report,
    "term-freq": _cmd_term_freq,
    "stats": _cmd_stats,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except RenokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
