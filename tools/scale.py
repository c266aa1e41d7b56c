"""A scale run: the benchmark's two corpora with every count times K, run
through `renokit.pipeline.run_pipeline` and checked by the benchmark's gates.

    python tools/scale.py --k 10 30 --name base                           # this checkout only
    python tools/scale.py --k 10 30 --pairs 3 --parent ../parent --name base

The corpora come from perfbench/corpus.py and the checks from
perfbench/gates.py; the tool imports both and changes neither file. It
multiplies the integer counts of `corpus.BOOKS` and `corpus.WEB` by K, in
this process only, except BOOKS["short"]: planted short chapter i is
60 + 20 i characters long, so only the first seven stay under the books'
200-character length floor, and more of them would be kept, a fault of the
generator that the gates would count. The lexicons scale with the rest
(60,000 words for books at K = 30). Each corpus is built once per K.

Each run is `run_pipeline` in a fresh process (this file with --measure),
which reports its wall time and peak RSS, and after each stage
(`PipelineRunner.stage_*`) the stage's wall time and the process's peak RSS
so far. The peak is the kernel's high-water mark of the process's memory
(VmHWM, Linux only), not ru_maxrss: a process that another starts begins
with that one's ru_maxrss, which here would be the tool's own, corpus and
all. With --parent the runs alternate between that checkout
and this one, the parent first in even pairs; the gates check every run,
and both sides of a pair must write the same artifacts. The record goes to
BENCH_scale_<name>.json in the current directory, and the exit status is 1
if any gate failed or the sides' artifacts differ. Standard library only;
not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# corpus name -> (its counts in perfbench/corpus.py, the function that writes it)
BUILDERS = {"books": ("BOOKS", "build_books"), "web": ("WEB", "build_web")}
HELD = {("BOOKS", "short")}  # counts that stay at K = 1
STAGES = ("ingest", "filter", "dedup", "mix")  # PipelineRunner.stage_<name>
SEED = 1  # the corpus generator's seed


def _peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        (kib,) = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    return round(int(kib) / 1024, 2)


def measure(src: str, config: str, out: str) -> None:
    """In a fresh process: run_pipeline from the renokit under `src`, printing
    its timings as one JSON line."""
    sys.path.insert(0, src)
    from renokit.pipeline import PipelineRunner, run_pipeline

    stages = {}

    def timed(name, method):
        def run(self, *args):
            t0 = time.perf_counter()
            try:
                return method(self, *args)
            finally:
                stages[name] = {"wall_s": round(time.perf_counter() - t0, 4), "peak_rss_mb": _peak_rss_mb()}
        return run

    for name in STAGES:
        setattr(PipelineRunner, f"stage_{name}", timed(name, getattr(PipelineRunner, f"stage_{name}")))
    t0 = time.perf_counter()
    run_pipeline(config, out)
    print(json.dumps({"wall_s": round(time.perf_counter() - t0, 4), "peak_rss_mb": _peak_rss_mb(), "stages": stages}))


def build(corpus, name: str, k: int, root: Path) -> dict:
    """Writes corpus `name` with its counts times `k` under `root`; returns its planted truth."""
    counts_name, builder = BUILDERS[name]
    counts = getattr(corpus, counts_name)
    saved = dict(counts)
    for key, value in saved.items():
        if type(value) is int and (counts_name, key) not in HELD:
            counts[key] = value * k
    try:
        return getattr(corpus, builder)(root, SEED)
    finally:
        counts.update(saved)


def run(checkout: Path, config: Path, out: Path) -> dict:
    argv = [sys.executable, __file__, "--measure", str(checkout / "src"), str(config), str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summary(pairs: list[dict], sides) -> dict:
    """Per side: median wall and peak RSS of the whole run and of each stage, and the failed operations."""
    out = {}
    for side in sides:
        runs = [pair[side] for pair in pairs]
        out[side] = {
            "wall_s": round(statistics.median(r["wall_s"] for r in runs), 4),
            "peak_rss_mb": round(statistics.median(r["peak_rss_mb"] for r in runs), 2),
            "failed": sum(r["failed"] for r in runs),
            "stages": {s: {m: round(statistics.median(r["stages"][s][m] for r in runs), 4)
                           for m in ("wall_s", "peak_rss_mb")} for s in STAGES},
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="scale run of the corpus pipeline")
    ap.add_argument("--k", type=int, nargs="+", default=[10], help="count multipliers (default 10)")
    ap.add_argument("--pairs", type=int, default=1)
    ap.add_argument("--parent", type=Path, help="a checkout of the parent commit; without it only this one runs")
    ap.add_argument("--name", help="the record goes to BENCH_scale_<name>.json")
    ap.add_argument("--measure", nargs=3, metavar=("SRC", "CONFIG", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        measure(*args.measure)
        return 0
    if not args.name:
        ap.error("--name is required")
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import corpus
    import gates

    sides = ["parent", "change"] if args.parent else ["change"]
    checkouts = {"parent": args.parent and args.parent.resolve(), "change": ROOT}
    record = {
        "command": "python tools/scale.py " + " ".join(sys.argv[1:]),
        "host": f"{os.cpu_count()} cores, {platform.machine()}, Python {platform.python_version()}",
        "held": [f"{counts}[{key!r}]" for counts, key in sorted(HELD)],
        "runs": {},
    }
    bad = False
    with tempfile.TemporaryDirectory(prefix="renokit-scale-") as work:
        for name in BUILDERS:
            for k in args.k:
                inputs = Path(work) / f"{name}-k{k}"
                truth = build(corpus, name, k, inputs)
                pairs = []
                for i in range(args.pairs):
                    order = sides if i % 2 == 0 else sides[::-1]
                    pair, digests = {"first": order[0]}, {}
                    for side in order:
                        out = inputs / f"out-{side}"
                        pair[side] = run(checkouts[side], inputs / "pipeline.json", out)
                        digests[side], pair[side]["failed"], pair[side]["problems"] = gates.check_corpus(out, truth)
                        shutil.rmtree(out)
                    pair["same_artifacts"] = len({json.dumps(d, sort_keys=True) for d in digests.values()}) == 1
                    bad |= not pair["same_artifacts"] or any(pair[side]["failed"] for side in sides)
                    pairs.append(pair)
                    print(f"{name} k={k} pair {i}: " + ", ".join(
                        f"{side} {pair[side]['wall_s']:.2f} s {pair[side]['peak_rss_mb']:.1f} MB "
                        f"failed {pair[side]['failed']}" for side in sides), flush=True)
                record["runs"][f"{name}-k{k}"] = {
                    "seed": SEED, "records": truth["records"], "input_bytes": truth["input_bytes"],
                    "summary": summary(pairs, sides), "pairs": pairs,
                }
    path = Path(f"BENCH_scale_{args.name}.json")
    path.write_text(json.dumps(record, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
