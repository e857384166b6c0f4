"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload family \
        --pairs 10 --out BENCH_N.json

Each pair runs ``perfbench/run.py`` once in each checkout on the same seed,
one after the other; even pairs run the parent first and odd pairs the
change, so a host whose speed drifts does not favour one side.  Pair ``i``
uses seed ``FIRST_SEED + i``, and every run lasts the ``run_seconds`` of
the change's ``BENCHMARK.json``.  The output file ``--out`` has no default, so
no run overwrites an earlier record by accident.  It keeps one section per
workload (``family``, or ``family+trace`` with ``--trace 1``); running the
script again for another workload adds its section and keeps the others.

Each section holds every run's metrics and, per metric, each side's median
and quartiles, how many pairs the change won (ties count for neither side)
and whether a gain could be claimed: the section has at least
``MIN_GAIN_PAIRS`` (ten) pairs, the change wins at least nine tenths of
them and the medians differ by more than the distance between the parent's
quartiles.  Which direction is better comes from the ``better``
field of ``BENCHMARK.json`` (end-to-end metrics) and of the per-layer list.
Each end-to-end metric also records ``regressed``: whether the change's
median is worse than the parent's by more than that metric's ``bound``, a
fraction of the parent's median.

The script exits with code 1 after writing the file if any run's answers
failed their check (``correct`` false).
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
FIRST_SEED = 101
MIN_GAIN_PAIRS = 10  # fewer pairs cannot support a claimed gain


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: run in {checkout} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def directions(spec: dict) -> dict:
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def bounds(spec: dict) -> dict:
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summarise(pairs: list, better: dict, bound: dict) -> dict:
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        stats = {}
        for side in SIDES:
            v = values[side]
            q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else (v[0],) * 3
            stats[side] = {"median": statistics.median(v), "q1": q1, "q3": q3}
        sign = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(1 for a, b in zip(values["parent"], values["change"]) if sign * (b - a) > 0)
        gap = sign * (stats["change"]["median"] - stats["parent"]["median"])
        out[name] = {
            **stats,
            "better": better.get(name, "lower"),
            "change_wins": wins,
            "pairs": len(pairs),
            "gain": len(pairs) >= MIN_GAIN_PAIRS
            and wins >= 0.9 * len(pairs)
            and gap > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
        if name in bound:
            out[name]["regressed"] = -gap > bound[name] * abs(stats["parent"]["median"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in dirs.items():
        if not (path / "perfbench" / "run.py").is_file():
            print(f"bench_pairs: {side} checkout {path} has no perfbench/run.py", file=sys.stderr)
            return 2
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    pairs = []
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            t0 = time.perf_counter()
            pair[side] = run_once(dirs[side], args.workload, seed, seconds, args.trace)
            pair[side]["wall_s"] = time.perf_counter() - t0
        pairs.append(pair)
        print(
            f"pair {i} seed {seed} ({order[0]} first): "
            + ", ".join(f"{s} {pair[s]['metrics'].get('op_p50_s', float('nan')):.4g}" for s in SIDES)
            + " op_p50_s",
            flush=True,
        )

    key = args.workload + ("+trace" if args.trace else "")
    data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    data.setdefault("host", {"python": platform.python_version(), "machine": platform.machine()})
    data.setdefault("workloads", {})[key] = {
        "seconds": seconds,
        "pairs": pairs,
        "summary": summarise(pairs, directions(spec), bounds(spec)),
    }
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    wrong = [(p["seed"], side) for p in pairs for side in SIDES if not p[side]["correct"]]
    if wrong:
        print(f"bench_pairs: answers failed their check in runs (seed, side) {wrong}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
