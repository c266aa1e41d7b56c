"""Per-layer metrics of the traced run: which renokit calls get spans, and
how spans and the program's own reports turn into `<layer>.<metric>` values.

Every workload reports every metric; a layer a workload never calls reads 0.
The names, units and directions are listed in BENCHMARK.json; run.py checks
that the metrics computed here are exactly those.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from sftplan import CONCURRENCY, REJECT_CLASSES
from spans import Tracer, current_rss_mb, peak_rss_mb

STAGES = ("ingest", "filter", "dedup", "mix")
FILTER_REASONS = ("sensitive", "language", "length")
DEDUP_REASONS = ("exact", "near", "sentence")
LAYERS = ("ingest", "tokenizers", "filters", "dedup", "mixer", "jsonl", "pipeline", "endpoint", "sftgen", "evalharness")


def install(workload: str, run_id: str) -> tuple[Tracer, dict]:
    """Wrap renokit's layer functions; returns the tracer and keyword
    arguments for the workload's run function."""
    from renokit import dedup, evalharness, filters, ingest, jsonl, mixer, pipeline, sftgen, tokenizers
    from renokit.endpoint import HttpTransport, ResponseArchive

    tracer = Tracer(run_id)
    tracer.captures = {"rss": [], "prompt_chars": []}
    for module, functions in (
        (ingest, ("ingest_stream", "clean_text")),
        (tokenizers, ("count_tokens",)),
        (filters, ("run_filters", "filter_sensitive", "filter_language")),
        (dedup, ("exact_dedup", "near_dedup", "sentence_dedup", "shingle", "compute_signatures", "jaccard")),
        (mixer, ("mix", "build_mip")),
        (jsonl, ("read_jsonl", "read_json", "write_jsonl", "write_json")),
        (pipeline, ("file_digest",)),
        (sftgen, ("batch_generate", "gen_one_turn", "gen_multi_turn", "gen_mcq")),
        (evalharness, ("run_eval", "best_of_settings", "load_dataset")),
    ):
        for fn in functions:
            tracer.patch(module, fn, f"{module.__name__.split('.')[-1]}.{fn}")
    for stage in STAGES:
        tracer.patch_method(pipeline.PipelineRunner, f"stage_{stage}", f"pipeline.stage_{stage}")
    tracer.patch_method(HttpTransport, "complete", "endpoint.complete")

    # Shingle sets are all alive when signing starts; RSS then minus RSS at
    # the start of dedup is what they hold.
    run_dedup, compute_signatures = pipeline.run_dedup, dedup.compute_signatures

    def traced_run_dedup(*args, **kwargs):
        base = current_rss_mb()
        peak0 = peak_rss_mb()
        with tracer.span("dedup.run_dedup"):
            result = run_dedup(*args, **kwargs)
        peak1 = peak_rss_mb()
        held = max(tracer.captures["rss"], default=base)
        tracer.captures["rss_growth"] = max(held, peak1 if peak1 > peak0 else base) - base
        return result

    def rss_at_signing(*args, **kwargs):
        tracer.captures["rss"].append(current_rss_mb())
        return compute_signatures(*args, **kwargs)

    pipeline.run_dedup = traced_run_dedup
    dedup.compute_signatures = rss_at_signing

    build_prompt = evalharness.build_prompt

    def measured_build_prompt(*args, **kwargs):
        with tracer.span("evalharness.build_prompt"):
            messages = build_prompt(*args, **kwargs)
        tracer.captures["prompt_chars"].append(sum(len(m["content"]) for m in messages))
        return messages

    evalharness.build_prompt = measured_build_prompt

    class TimedArchive(ResponseArchive):
        def store(self, rid, entry):
            with tracer.span("endpoint.archive_store"):
                return super().store(rid, entry)

        def load(self, rid):
            with tracer.span("endpoint.archive_load"):
                return super().load(rid)

    def backoff(seconds: float) -> None:
        with tracer.span("endpoint.backoff"):
            time.sleep(seconds)

    kwargs = {"archive_cls": TimedArchive, "sleep": backoff} if workload == "sft-endpoint" else {}
    return tracer, kwargs


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def _lines(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _mean_ms(values: list[float]) -> float:
    return 1000.0 * sum(values) / len(values) if values else 0.0


def collect(tracer: Tracer, out: Path) -> tuple[dict, list[float]]:
    """Per-layer metrics of one traced iteration, and its request latencies in ms.

    Latency percentiles are left to the caller, which pools the samples of
    every traced iteration.
    """
    t = tracer.total
    stats = _read(out / "ingest_stats.json")
    filt = _read(out / "filter_report.json")
    dd = _read(out / "dedup_report.json")
    m = {
        "ingest.wall_s": t("ingest.ingest_stream"),
        "ingest.clean_text_s": t("ingest.clean_text"),
        "ingest.docs_out": stats.get("total_documents", 0),
        "ingest.failures": sum(stats.get("failures", {}).values()),
        "tokenizers.count_tokens_s": t("tokenizers.count_tokens"),
        "tokenizers.calls": tracer.count("tokenizers.count_tokens"),
        "filters.sensitive_s": t("filters.filter_sensitive"),
        "filters.language_s": t("filters.filter_language"),
        "dedup.exact_s": t("dedup.exact_dedup"),
        "dedup.shingle_s": t("dedup.shingle"),
        "dedup.minhash_s": t("dedup.compute_signatures"),
        "dedup.verify_s": t("dedup.jaccard"),
        "dedup.near_s": t("dedup.near_dedup"),
        "dedup.sentence_s": t("dedup.sentence_dedup"),
        "dedup.pairs": dd.get("pairs", 0),
        "dedup.rss_growth_mb": tracer.captures.get("rss_growth", 0.0),
        "mixer.wall_s": t("mixer.mix") + t("mixer.build_mip"),
        "mixer.records_out": _lines(out / "train.jsonl"),
        "jsonl.read_s": t("jsonl.read_jsonl") + t("jsonl.read_json"),
        "jsonl.write_s": t("jsonl.write_jsonl") + t("jsonl.write_json"),
        "pipeline.digest_s": t("pipeline.file_digest"),
    }
    for reason in FILTER_REASONS:
        m[f"filters.dropped.{reason}"] = filt.get("dropped", {}).get(reason, 0)
    for reason in DEDUP_REASONS:
        m[f"dedup.dropped.{reason}"] = dd.get("dropped", {}).get(reason, 0)
    core = {"ingest": {"ingest.ingest_stream"}, "filter": {"filters.run_filters"},
            "dedup": {"dedup.run_dedup"}, "mix": {"mixer.mix", "mixer.build_mip"}}
    for stage in STAGES:
        span = f"pipeline.stage_{stage}"
        m[f"pipeline.stage_overhead_s.{stage}"] = t(span) - tracer.inner_total(span, core[stage])

    request_ms = [1000.0 * d for d in tracer.durations("endpoint.complete")]
    m.update(_sft_metrics(tracer, out))
    m["endpoint.requests"] = len(request_ms)
    self_s = tracer.layer_self_s()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["trace.spans"] = len(tracer.spans)
    return m, request_ms


def _sft_metrics(tracer: Tracer, out: Path) -> dict:
    gen = _read(out / "gen_report.json")
    gen_s = tracer.inner_total("bench.gen", {"sftgen.batch_generate"})
    replay_s = tracer.inner_total("bench.replay", {"sftgen.batch_generate"})
    replayed = _read(out / "replay_report.json").get("accepted", 0)
    gen_spans = [(s[2], s[3]) for s in tracer.spans if s[1] == "bench.gen"]
    busy = sum(end - start for _, name, start, end, _ in tracer.spans
               if name == "endpoint.complete" and any(g0 <= start <= g1 for g0, g1 in gen_spans))
    evals = tracer.durations("evalharness.run_eval")
    prompt_chars = tracer.captures["prompt_chars"]
    m = {
        "endpoint.retries": tracer.count("endpoint.backoff"),
        "endpoint.archive_store_ms": _mean_ms(tracer.durations("endpoint.archive_store")),
        "endpoint.archive_load_ms": _mean_ms(tracer.durations("endpoint.archive_load")),
        "sftgen.gen_s": gen_s,
        "sftgen.replay_s": replay_s,
        "sftgen.replay_items_per_s": replayed / replay_s if replay_s else 0.0,
        "sftgen.accepted": gen.get("accepted", 0),
        "sftgen.requests_per_accepted": gen["requests_sent"] / gen["accepted"] if gen.get("accepted") else 0.0,
        "sftgen.pool_busy_frac": busy / (CONCURRENCY * gen_s) if gen_s else 0.0,
        "evalharness.shots0_s": evals[0] if evals else 0.0,
        "evalharness.shots5_s": evals[1] if len(evals) > 1 else 0.0,
        "evalharness.items": _read(out / "eval_best.json").get("items_total", 0),
        "evalharness.prompt_chars_p50": statistics.median(prompt_chars) if prompt_chars else 0.0,
    }
    for cls in REJECT_CLASSES:
        m[f"sftgen.rejected.{cls}"] = gen.get("rejected", {}).get(cls, 0)
    return m
