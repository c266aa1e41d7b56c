"""renokit's benchmark: one command per workload, seed and run length.

    python3 perfbench/run.py --workload corpus-books --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Inputs are generated from the seed under
.perfbench_work/ and removed afterwards. Each iteration runs in a fresh
worker process (perfbench/worker.py) that imports renokit from src/;
iterations repeat until --seconds have been spent, and every iteration's
artifacts are checked against the planted truth before they are deleted.
If any check fails, the result line says "correct": false and the exit
code is 1.

Workloads:
  corpus-books  run_pipeline (ingest -> filter -> dedup -> DAPT 1:1 mix) on long
                plain-text CJK chapters, planted near/exact duplicates and a
                2,000-word sensitive lexicon.
  corpus-web    run_pipeline in MIP mode on short HTML pages with reposts,
                repeated boilerplate sentences and a 20-word lexicon.
  sft-endpoint  batch_generate over HttpTransport against a loopback mock
                server, offline replay from the archive, run_eval at 0 and 5
                shots.

With --trace 0 the last line reports the end-to-end metrics, medians over
iterations. Their times are in seconds at the reference host speed: the CPU
part of each time is scaled by a speed probe sampled while it ran
(probe.py), and time spent waiting is kept as measured. The unscaled medians
are printed above the result line. With --trace 1 the last line reports the
per-layer metrics of traced iterations, which alternate with untraced ones so
that the tracing overhead can be given. Spans of traced iterations go to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import http.client
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STARTED = time.monotonic()
MIN_ITERATIONS = 3
HARD_STOP_S = 150.0  # no iteration starts later than this into the run
EXIT_BY_S = 175.0  # a run must end within 180 s, a hung worker included
MIN_REQUEST_SAMPLES = 1000  # p99 needs at least 10 samples beyond it
SETUP_SAMPLES = 10  # set-ups timed per untraced run, iterations' included


class BenchError(Exception):
    pass


def _median(values):
    return statistics.median(values) if values else 0.0


def scaled(seconds: float, cpu: float, probe_s: float) -> float:
    """`seconds` with its CPU part `cpu` moved to the reference speed; the
    rest, time spent waiting, is kept as measured."""
    return seconds - cpu + cpu * REFERENCE_S / probe_s


def scaled_wall(result: dict) -> float:
    return scaled(result["wall_s"], result["cpu_s"], result["probe_s"])


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them under `section`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


class Server:
    """The mock chat-completions server process for one run."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "mockserver.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise BenchError("mock server did not start")
        self.port = int(line[1])

    def call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path, body=b"" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def prepare(workload: str, seed: int, inputs: Path) -> tuple[dict, int, float, Server | None]:
    """Generate inputs; returns (truth, operations per iteration, input MB, server)."""
    import corpus
    import sftplan

    if workload == "corpus-books":
        truth = corpus.build_books(inputs, seed)
        return truth, truth["records"], truth["input_bytes"] / 1e6, None
    if workload == "corpus-web":
        truth = corpus.build_web(inputs, seed)
        return truth, truth["records"], truth["input_bytes"] / 1e6, None
    truth = sftplan.build_sft(inputs, seed)
    server = Server(seed)
    endpoint = {"base_url": f"http://127.0.0.1:{server.port}/v1", "model_name": "mock-chat",
                "api_key_env": "PERFBENCH_NO_KEY", "temperature": 0.0, "max_retries": 3,
                "backoff": [0.005], "concurrency_limit": sftplan.CONCURRENCY, "timeout": 30.0}
    (inputs / "endpoint.json").write_text(json.dumps(endpoint), encoding="utf-8")
    return truth, truth["fresh_requests"], truth["input_bytes"] / 1e6, server


def iterate(workload: str, inputs: Path, out: Path | None, traced: bool = False, run_id: str = "") -> dict:
    """Run one worker; with `out` None it only sets up."""
    start = time.monotonic()
    job = ["--setup-only"] if out is None else ["--out", str(out), "--trace", str(int(traced)), "--run-id", run_id]
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--dir", str(inputs), *job],
        capture_output=True, text=True, timeout=max(1.0, EXIT_BY_S - (time.monotonic() - STARTED)),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description="renokit benchmark")
    ap.add_argument("--workload", required=True, choices=("corpus-books", "corpus-web", "sft-endpoint"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "renokit" / "__init__.py").is_file():
        print(f"no renokit sources under {ROOT / 'src'}; run from the root of a renokit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gates

    units = declared_units("per_layer" if args.trace else "end_to_end")

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-{int(time.time() * 1000)}"
    inputs = work / "inputs"
    server = None
    try:
        truth, ops, input_mb, server = prepare(args.workload, args.seed, inputs)
        runs = []  # (traced, worker result, failed)
        setups = []  # results of set-up-only workers
        digests = None
        problems: list[str] = []
        spans_path = None
        if args.trace:
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-s{args.seed}.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.unlink(missing_ok=True)
        started = time.monotonic()
        while True:
            i = len(runs)
            traced = bool(args.trace) and i not in (0, 2)  # two untraced iterations give the overhead
            out = work / f"iter{i}"
            result = iterate(args.workload, inputs, out, traced, f"{args.workload}-s{args.seed}-i{i}")
            if server is not None:
                stats = server.call("GET", "/stats")
                server.call("POST", "/reset")
                got, failed, faults = gates.check_sft(out, truth, stats)
            else:
                got, failed, faults = gates.check_corpus(out, truth)
            if digests is None:
                digests = got
            elif got != digests:
                changed = sorted(k for k in got if got[k] != digests.get(k))
                faults.append(f"artifacts differ from iteration 0: {changed}")
                failed = ops
            problems += [f"iteration {i}: {p}" for p in faults]
            if traced:
                with open(spans_path, "a", encoding="utf-8") as fh:
                    fh.write((out / "spans.jsonl").read_text(encoding="utf-8"))
            shutil.rmtree(out)
            runs.append((traced, result, failed))
            # A run has few iterations when they are long; time set-up alone
            # in between until there are enough set-ups for a steady median.
            if not args.trace and len(runs) + len(setups) < SETUP_SAMPLES:
                setups.append(iterate(args.workload, inputs, None))

            elapsed = time.monotonic() - started
            per_iteration = elapsed / len(runs)
            traced_runs = [r for t, r, _ in runs if t]
            plain_runs = [r for t, r, _ in runs if not t]
            samples = sum(len(r["request_ms"]) for r in traced_runs)
            enough = (len(plain_runs) >= MIN_ITERATIONS if not args.trace
                      else len(plain_runs) >= 2 and len(traced_runs) >= 2
                      and (server is None or samples >= MIN_REQUEST_SAMPLES))
            if (time.monotonic() - STARTED + per_iteration > HARD_STOP_S
                    or (enough and elapsed + per_iteration > args.seconds)):
                break
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = ops * len(runs)
    failed = sum(f for _, _, f in runs)
    for p in problems:
        print(f"CHECK FAILED {p}")
    plain = [r for t, r, _ in runs if not t]
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} iterations "
          f"({len(plain)} untraced), {ops} operations each, {input_mb:.3f} MB input")
    print("iteration wall_s " + " ".join(f"{r['wall_s']:.3f}{'*' if t else ''}" for t, r, _ in runs)
          + ("  (* traced)" if args.trace else ""))
    print("iteration cpu_s " + " ".join(f"{r['cpu_s']:.3f}" for _, r, _ in runs))
    print("iteration probe_ms " + " ".join(f"{1000 * r['probe_s']:.4f}" for _, r, _ in runs))
    setups += plain
    print("setup_s " + " ".join(f"{r['setup_s']:.3f}" for r in setups))
    print("setup_probe_ms " + " ".join(f"{1000 * r['setup_probe_s']:.4f}" for r in setups))
    print(f"failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    if args.trace:
        metrics = per_layer(runs, truth)
    else:
        print(f"unscaled medians: setup_s {_median([r['setup_s'] for r in setups]):.4f} "
              f"wall_s {_median([r['wall_s'] for r in plain]):.4f} cpu_s {_median([r['cpu_s'] for r in plain]):.4f}")
        walls = [scaled_wall(r) for r in plain]
        metrics = {
            "setup_s": _median([scaled(r["setup_s"], r["setup_s"], r["setup_probe_s"]) for r in setups]),
            "wall_s": _median(walls),
            "cpu_s": _median([scaled(r["cpu_s"], r["cpu_s"], r["probe_s"]) for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "mb_per_s": _median([input_mb / w for w in walls]),
            "ops_per_s": _median([ops / w for w in walls]),
        }
    if set(metrics) != set(units):
        raise BenchError(f"computed metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
                         f"not listed {sorted(set(metrics) - set(units))}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def per_layer(runs, truth: dict) -> dict:
    traced = [r for t, r, _ in runs if t]
    plain = [r for t, r, _ in runs if not t]
    metrics = {name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
    samples = sorted(ms for r in traced for ms in r["request_ms"])
    p50 = p99 = 0.0
    if samples:
        q = statistics.quantiles(samples, n=100, method="inclusive")
        p50, p99 = q[49], q[98]
    metrics["endpoint.request_p50_ms"] = p50
    metrics["endpoint.request_p99_ms"] = p99
    metrics["endpoint.overhead_ms"] = p50 - truth["latency_ms"] if samples else 0.0
    metrics["endpoint.request_samples"] = len(samples)
    # Both sides at the reference speed, so that a change of host speed
    # between traced and untraced iterations does not pass for overhead.
    metrics["trace.overhead_s"] = _median([scaled_wall(r) for r in traced]) - _median([scaled_wall(r) for r in plain])
    return metrics


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
