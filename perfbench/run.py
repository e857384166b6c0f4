"""Benchmark entry point for knotfill: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0

Measures set-up time in fresh interpreters, generates the workload's inputs
from the seed, runs them in a fresh worker process for ``--seconds``, checks
every answer against an oracle, and prints the metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md beside
this file for the metric and workload definitions.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_REPEATS = 9
SETUP_CODE = "import knotfill\nfrom knotfill.catalog import load_catalog\nload_catalog()\n"
# a worker may overrun --seconds by its last block; past this it is stopped
WORKER_GRACE_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> list:
    """Seconds from launching a fresh interpreter to a loaded catalog."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), cwd=ROOT, check=True)
        out.append(time.perf_counter() - t0)
    return out


def run_worker(workload: str, ops: list, seconds: float, spans: str = "") -> dict:
    job = {"workload": workload, "ops": ops, "seconds": seconds, "trace": bool(spans), "spans": spans}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=seconds + WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def context(ops_done: int) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    sources = hashlib.sha256()
    for path in sorted((SRC / "knotfill").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            sources.update(path.relative_to(SRC).as_posix().encode())
            sources.update(path.read_bytes())
    return {
        "commit": commit,
        "sources_sha256": sources.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops": ops_done,
    }


def latency_metrics(run: dict) -> dict:
    lat = run["latencies"]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        "ops_per_s": run["ops"] / run["elapsed_s"],
        "op_p50_s": statistics.median(lat),
        "op_p90_s": p90,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "knotfill" / "__init__.py").is_file():
        print(f"perfbench: no knotfill package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import LAYER_UNITS, layer_metrics
    from verify import Oracle

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    setup = measure_setup()
    ops = workloads.generate(args.workload, args.seed)
    print(f"inputs: workload={args.workload} seed={args.seed} ops={len(ops)} sha256={workloads.digest(ops)}")

    # the traced run splits its time between an untraced and a traced worker
    # on the same inputs, so the two op rates give the tracing overhead
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_worker(args.workload, ops, seconds)
    runs = [plain]
    if args.trace:
        RUNS.mkdir(exist_ok=True)
        spans_path = RUNS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced = run_worker(args.workload, ops, seconds, str(spans_path))
        runs.append(traced)

    oracle = Oracle(args.workload)
    attempted = failed = 0
    for run in runs:
        for i, (ans, err) in enumerate(zip(run["answers"], run["errors"])):
            spec = ops[i % len(ops)]
            problem = oracle.check(spec, ans)
            attempted += 1
            if problem:
                failed += 1
                print(f"FAILED op {i} {json.dumps(spec)}: {problem}", file=sys.stderr)
                if err:
                    print(err, file=sys.stderr)

    end_to_end = {
        "setup_s": statistics.median(setup),
        **latency_metrics(plain),
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    print("context: " + json.dumps(context(sum(r["ops"] for r in runs))))
    print(f"samples: {plain['ops']} ops timed; op_p90_s has {plain['ops'] // 10} beyond it")
    print(f"error_rate: {failed / attempted} ({failed} of {attempted} ops failed)")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name} = {end_to_end[name]:.6g} {unit}")

    if args.trace:
        spans = [json.loads(line) for line in spans_path.read_text(encoding="utf-8").splitlines()]
        dims = [
            {int(n): v for n, v in ans["dims"].items()}
            for ans in traced["answers"]
            if ans is not None and "dims" in ans
        ]
        layers = layer_metrics(spans, dims)
        traced_rate = latency_metrics(traced)["ops_per_s"]
        layers["trace.ops_per_s"] = traced_rate
        layers["trace.untraced_ops_per_s"] = end_to_end["ops_per_s"]
        layers["trace.overhead"] = end_to_end["ops_per_s"] / traced_rate - 1.0
        print(f"spans: {len(spans)} written to {spans_path.relative_to(ROOT)}")
        for name, value in layers.items():
            print(f"  {name} = {value:.6g} {LAYER_UNITS[name]}")
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in layers.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
