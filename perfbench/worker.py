"""One measured iteration of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload corpus-books --dir <inputs> --out <dir> --trace 0 --run-id r0
    python3 perfbench/worker.py --workload corpus-books --dir <inputs> --setup-only

`run.py` starts one worker per iteration and reads the JSON line it prints
last. The worker imports renokit and loads what the workload hands to it
(for sft-endpoint the endpoint config and templates; run_pipeline loads its
own config and lexicon), notes the monotonic clock (the end of set-up), runs the
workload through renokit's public API, and reports wall and CPU time of that
part, the peak RSS of the process, and for set-up and for the run the
trimmed mean time of the speed probe sampled while each ran (probe.py).
With --trace 1 it also records spans around renokit's layers and reports
the per-layer metrics. With --setup-only it reports set-up alone and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

from probe import SpeedSampler

# Sampling starts before renokit is imported, so set-up is sampled too.
SAMPLER = SpeedSampler()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import requests  # noqa: E402
# Calls go through the modules, so that a traced run's wrappers see them.
from renokit import evalharness, ingest, jsonl, pipeline, sftgen  # noqa: E402
from renokit.endpoint import ChatClient, EndpointConfig, HttpTransport, OfflineTransport, ResponseArchive  # noqa: E402

BUDGET = 100_000


# --- corpus workloads ----------------------------------------------------------


def setup_corpus(inputs: Path) -> dict:
    # run_pipeline reads the config and lexicon itself, so those loads fall in wall_s.
    return {"config_path": inputs / "pipeline.json"}


def run_corpus(state: dict, out: Path, tracer) -> None:
    with _section(tracer, "bench.run_pipeline"):
        pipeline.run_pipeline(state["config_path"], out)


# --- sft-endpoint ------------------------------------------------------------------


def setup_sft(inputs: Path) -> dict:
    endpoint = EndpointConfig.from_json(inputs / "endpoint.json")
    templates = {kind: sftgen.load_template(kind, body_path=inputs / f"template_{kind}.txt")
                 for kind in sftgen.GEN_KINDS}
    return {"inputs": inputs, "endpoint": endpoint, "templates": templates}


def run_sft(state: dict, out: Path, tracer, archive_cls=ResponseArchive, sleep=time.sleep) -> None:
    """Fresh generation over HTTP, offline replay from its archive, then eval at each shot count."""
    inputs, endpoint = state["inputs"], state["endpoint"]
    session = requests.Session()
    session.trust_env = False  # loopback only: never route through a proxy from the environment
    transport = HttpTransport(endpoint, session=session, sleep=sleep)
    docs = ingest.read_documents(inputs / "knowledge.jsonl")
    archive_dir = out / "gen_archive"
    with _section(tracer, "bench.gen"):
        items, report = sftgen.batch_generate(docs, sftgen.GEN_KINDS, ChatClient(endpoint, transport), BUDGET,
                                              archive_cls(archive_dir), templates=state["templates"])
        jsonl.write_jsonl(out / "sft.jsonl", (it.to_dict() for it in items))
        jsonl.write_json(out / "gen_report.json", report.to_dict())
    with _section(tracer, "bench.replay"):
        items, report = sftgen.batch_generate(docs, sftgen.GEN_KINDS, ChatClient(endpoint, OfflineTransport()),
                                              BUDGET, archive_cls(archive_dir), templates=state["templates"])
        jsonl.write_jsonl(out / "sft_replay.jsonl", (it.to_dict() for it in items))
        jsonl.write_json(out / "replay_report.json", report.to_dict())
    with _section(tracer, "bench.eval"):
        dataset = evalharness.load_dataset(inputs / "evalset.jsonl")
        reports = []
        for shots in state["shots"]:
            cfg = evalharness.EvalRunConfig(shots=shots, seed=0, endpoint=endpoint)
            rep = evalharness.run_eval(dataset, cfg, transport=transport)
            rep.save(out / f"eval_{shots}shot.json")
            reports.append(rep)
        evalharness.best_of_settings(reports).save(out / "eval_best.json")
    session.close()


def _section(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


WORKLOADS = {
    "corpus-books": (setup_corpus, run_corpus),
    "corpus-web": (setup_corpus, run_corpus),
    "sft-endpoint": (setup_sft, run_sft),
}


def main() -> None:
    ap = argparse.ArgumentParser(description="one measured iteration of a perfbench workload")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--dir", required=True, type=Path, help="generated inputs")
    ap.add_argument("--setup-only", action="store_true", help="report set-up and exit")
    ap.add_argument("--out", type=Path, help="artifact directory for this iteration")
    ap.add_argument("--trace", type=int)
    ap.add_argument("--run-id")
    args = ap.parse_args()
    if not args.setup_only and None in (args.out, args.trace, args.run_id):
        ap.error("--out, --trace and --run-id are required unless --setup-only is given")

    setup, run = WORKLOADS[args.workload]
    state = setup(args.dir)
    ready = time.monotonic()
    setup_probe = SAMPLER.take()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_probe_s": setup_probe}))
        return

    import sftplan  # the benchmark's own modules stay out of set-up time
    from spans import peak_rss_mb

    state["shots"] = sftplan.SHOTS
    tracer = None
    run_kwargs = {}
    if args.trace:
        import layers

        tracer, run_kwargs = layers.install(args.workload, args.run_id)
    SAMPLER.take()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    run(state, args.out, tracer, **run_kwargs)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    result = {"ready": ready, "setup_probe_s": setup_probe,
              "wall_s": wall, "cpu_s": cpu, "probe_s": SAMPLER.take(), "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["layers"], result["request_ms"] = layers.collect(tracer, args.out)
        tracer.write(args.out / "spans.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
