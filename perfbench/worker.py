"""Timed op loop of one benchmark run, in a fresh interpreter.

Reads a job from standard input: ``{"workload", "ops", "seconds", "trace",
"spans"}``.  Imports knotfill, loads the catalog, then runs the ops in order
(starting over if it gets through them all) until ``seconds`` have passed
and the current block of the workload's inputs is done.
Prints one JSON object with the op count, the elapsed time, each op's
latency, answer and error, and the peak resident memory of this process.
With ``trace`` set it records spans around the calls into every layer and
writes them to ``spans``.

Every call uses the public API with its library defaults.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402

from knotfill import catalog, cli, kappa, khovanov, lspace  # noqa: E402
from workloads import BLOCK_OPS, build_diagram, build_template  # noqa: E402


def _entries(table) -> list:
    return sorted([h, q, v] for (h, q), v in table.entries.items())


def run_family(spec: dict, cat: dict, tracer) -> dict:
    run = kappa.kappa_for_template(build_template(spec), hint=spec["hint"])
    return {
        "N": run.profile.N,
        "kappa": _entries(run.table),
        "dims": {str(n): t.total_dim for n, t in run.family.tables.items()},
    }


def run_kh_large(spec: dict, cat: dict, tracer) -> dict:
    d = build_diagram(spec, cat)
    return {"kh": _entries(khovanov.kh_table(d))}


def _cli_json(args: list, tracer) -> dict:
    out = io.StringIO()
    scope = tracer.span("cli.invoke") if tracer else contextlib.nullcontext()
    with scope, contextlib.redirect_stdout(out):
        cli.main(args, standalone_mode=False)
    return json.loads(out.getvalue())


def run_query(spec: dict, cat: dict, tracer) -> dict:
    d = build_diagram(spec, cat)
    ans: dict = {}
    if spec["via"] == "cli":
        data = _cli_json(["kh", "--braid", spec["braid"], "--format", "json"], tracer)
        ans["kh"] = sorted([e["h"], e["q"], e["dim"]] for e in data["entries"])
        ans["width"] = data["width"]
    else:
        table = khovanov.kh_table(d)
        ans["kh"] = _entries(table)
        ans["width"] = khovanov.width(table)
    ans["det"] = lspace.determinant(d)
    if d.n_components == 1:
        p = lspace.alexander(d)
        ans["alexander_det"] = p.evaluate_abs(-1)
        ans["lspace"] = lspace.is_lspace_form(p)
        if ans["lspace"]:
            ans["actual_semigroup"] = lspace.is_actual_semigroup(lspace.formal_semigroup(p))
    return ans


def main() -> None:
    job = json.load(sys.stdin)
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    cat = catalog.load_catalog()

    runner = {"family": run_family, "kh-large": run_kh_large, "query-small": run_query}[job["workload"]]
    ops = job["ops"]
    block = BLOCK_OPS[job["workload"]]
    latencies, answers, errors = [], [], []
    start = time.perf_counter()
    deadline = start + job["seconds"]
    i = 0
    while True:
        spec = ops[i % len(ops)]
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.span("op", op=i):
                    ans = runner(spec, cat, tracer)
            else:
                ans = runner(spec, cat, None)
            err = None
        except Exception:  # a failed op is counted, and the run goes on
            ans, err = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        answers.append(ans)
        errors.append(err)
        i += 1
        if t1 >= deadline and i % block == 0:
            break
    elapsed = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        tracer.dump(job["spans"])
    json.dump(
        {
            "ops": i,
            "elapsed_s": elapsed,
            "latencies": latencies,
            "answers": answers,
            "errors": errors,
            "peak_rss_mb": peak_kb / 1024.0,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
