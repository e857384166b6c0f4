"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``-s`` (or read captured stdout) to see the per-criterion lines.
The heavy twist-family computations are shared between criteria through a
module cache, so the suite prices each family once.
"""

import json
import time
from typing import Dict, Tuple

import pytest
from click.testing import CliRunner

from knotfill.catalog import get_entry, load_catalog, resolve_template
from knotfill.cli import main as cli_main
from knotfill.diagram import braid_closure, parse_braid, plat_closure, unknot_diagram
from knotfill.kappa import classify_steps, kappa_for_template, kappa_width
from knotfill.khovanov import jones_from_kh, kauffman_jones, kh_table, width
from knotfill.lspace import (
    alexander,
    determinant,
    formal_semigroup,
    is_actual_semigroup,
    is_lspace_form,
    semigroup_series_elements,
)
from knotfill.tangles import INFINITY, fill, validate_template

# -- reported twist-family tables the build must reproduce -------------------

K1_KAPPA: Dict[Tuple[int, int], int] = {
    (-9, -1): 1, (-8, 1): 2, (-7, 3): 3, (-6, 5): 4, (-5, 7): 4,
    (-4, 9): 4, (-3, 11): 3, (-2, 13): 2, (-1, 15): 1,
    (-5, 5): 1, (-3, 9): 1, (-2, 11): 1, (0, 15): 1,
}
K1_N = 20

K2_KAPPA: Dict[Tuple[int, int], int] = {
    (-6, 5): 1, (-5, 7): 2, (-4, 9): 3, (-3, 11): 4, (-2, 13): 4,
    (-1, 15): 4, (0, 17): 3, (1, 19): 2, (2, 21): 1,
    (-2, 11): 1, (-1, 13): 1, (0, 15): 1, (1, 17): 2,
    (2, 19): 1, (3, 21): 1, (4, 23): 1,
}
K2_N = 16


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else "")
    print(line, flush=True)
    assert ok, line


# -- shared family runs -------------------------------------------------------

_RUNS: Dict[str, object] = {}


def _template_run(name: str):
    """Kappa run for a catalog template, computed once per session."""
    if name not in _RUNS:
        t0 = time.monotonic()
        try:
            catalog = load_catalog()
            entry = get_entry(name, catalog)
            template = resolve_template(entry, catalog)
            run = kappa_for_template(template, hint=entry.transition_hint or 0)
        except Exception as exc:  # noqa: BLE001 - cache the failure, fail every user
            _RUNS[name] = RuntimeError(f"{name}: {exc}")
        else:
            _RUNS[name] = (run, time.monotonic() - t0)
    cached = _RUNS[name]
    if isinstance(cached, RuntimeError):
        raise cached
    return cached


def _kappa_criterion(criterion, name, expected_n, expected_table, budget_s):
    try:
        run, elapsed = _template_run(name)
    except RuntimeError as exc:
        _report(criterion, False, str(exc))
        return
    ok_n = run.profile.N == expected_n
    ok_table = run.table.entries == expected_table
    ok_time = elapsed <= budget_s
    _report(
        criterion,
        ok_n and ok_table and ok_time,
        f"N={run.profile.N} (want {expected_n}), table "
        f"{'matches' if ok_table else 'differs'}, {elapsed:.1f}s of {budget_s}s",
    )


def test_ac1_k1_family():
    """kappa of the T1 family: N=20 and the exact 28-generator table."""
    _kappa_criterion("AC1", "T1", K1_N, K1_KAPPA, budget_s=1800)


def test_ac2_k2_family():
    """kappa of the T2 family: N=16 and the exact 32-generator table."""
    _kappa_criterion("AC2", "T2", K2_N, K2_KAPPA, budget_s=1800)


def test_ac3_fill_widths():
    """>=10 integer fills and >=2 rational fills per template, width 2."""
    results = []
    try:
        for name, rationals in (("T1", ("41/2", "39/2")), ("T2", ("33/2", "31/2"))):
            run, _ = _template_run(name)
            widths = run.family.widths()
            int_ok = [n for n, w in widths.items() if w == 2]
            if len(int_ok) < 10:
                results.append(f"{name}: only {len(int_ok)} integer fills at width 2")
            catalog = load_catalog()
            template = resolve_template(get_entry(name, catalog), catalog)
            for slope in rationals:
                w = width(kh_table(fill(template, slope)))
                if w != 2:
                    results.append(f"{name}({slope}): width {w}")
    except RuntimeError as exc:
        results.append(str(exc))
    _report("AC3", not results, "; ".join(results) or "all sampled fills have width 2")


def test_ac4_unit_steps():
    """Every family step changes dimension by one in a single bigrading."""
    details = []
    try:
        for name in ("T1", "T2"):
            run, _ = _template_run(name)
            steps = classify_steps(run.family)
            bad = [s for s in steps if s.defect_bigrading is None]
            if bad:
                details.append(f"{name}: {len(bad)} steps without a concentrated defect")
            details.append(f"{name}: {len(steps)} steps checked")
    except RuntimeError as exc:
        details.append(str(exc))
        _report("AC4", False, "; ".join(details))
        return
    ok = not any("without" in d for d in details)
    _report("AC4", ok, "; ".join(details))


def test_ac5_template_conventions():
    """Template calibration: validate_template plus det(fill(T1, n)) = n."""
    problems = []
    try:
        catalog = load_catalog()
        for name in ("T1", "T2"):
            template = resolve_template(get_entry(name, catalog), catalog)
            report = validate_template(template)
            if not report.ok:
                problems.append(f"{name}: {report}")
        t1 = resolve_template(get_entry("T1", catalog), catalog)
        bad = {
            n: determinant(fill(t1, n))
            for n in range(12, 26)
            if determinant(fill(t1, n)) != n
        }
        if bad:
            problems.append(f"T1 det line: {bad}")
    except Exception as exc:  # noqa: BLE001
        problems.append(str(exc))
    _report("AC5", not problems, "; ".join(problems) or "validation and det lines hold")


def _pretzel(k1, k2, k3):
    word = []
    for i, k in enumerate((k1, k2, k3)):
        word += [(2 * i + 1) * (1 if k > 0 else -1)] * abs(k)
    caps = [(2, 3), (4, 5), (1, 6)]
    return plat_closure(6, word, caps_top=caps, caps_bottom=caps)


def test_ac6_jones_and_determinant_cross_checks():
    """>=25 small diagrams: Euler characteristic and Goeritz cross-oracles."""
    t0 = time.monotonic()
    diagrams = [unknot_diagram()]
    for n in range(2, 13):
        diagrams.append(braid_closure(parse_braid(",".join(["1"] * n))))
    for k in (2, 3, 4):
        diagrams.append(braid_closure(parse_braid(",".join(["1,2"] * k))))
    for braid in ("1,-2,1,-2", "1,1,-2,1,-2", "1,1,1,-2,-2", "1,-2,3,-2",
                  "1,2,3,1,2,3", "1,1,2,2", "3,1,-2,3,-2,1"):
        diagrams.append(braid_closure(parse_braid(braid)))
    diagrams += [_pretzel(3, 3, 3), _pretzel(-2, 3, 3), _pretzel(2, 3, 5)]
    catalog = load_catalog()
    trivial = resolve_template(get_entry("trivial", catalog), catalog)
    for slope in (4, 5, 6, 7, "7/2", "9/4", "11/3"):
        diagrams.append(fill(trivial, slope))

    assert all(len(d.crossings) <= 12 for d in diagrams)
    failures = []
    knots = 0
    for d in diagrams:
        table = kh_table(d)
        if jones_from_kh(table) != kauffman_jones(d):
            failures.append(f"jones mismatch: {d.name or d.crossings}")
        if d.n_components == 1:
            knots += 1
            if determinant(d) != alexander(d).evaluate_abs(-1):
                failures.append(f"det mismatch: {d.name or d.crossings}")
    elapsed = time.monotonic() - t0
    ok = not failures and len(diagrams) >= 25 and elapsed <= 120
    _report(
        "AC6",
        ok,
        f"{len(diagrams)} diagrams ({knots} knots), {elapsed:.1f}s of 120s"
        + ("; " + "; ".join(failures) if failures else ""),
    )


def test_ac7_small_tables():
    """Unknot, trefoil, figure-eight reduced tables."""
    problems = []
    unknot = kh_table(unknot_diagram())
    if unknot.entries != {(0, 0): 1}:
        problems.append(f"unknot: {unknot.entries}")
    tref = kh_table(braid_closure(parse_braid("1,1,1")))
    if tref.total_dim != 3 or width(tref) != 1:
        problems.append(f"trefoil: dim {tref.total_dim}, width {width(tref)}")
    fig8 = kh_table(braid_closure(parse_braid("1,-2,1,-2")))
    if fig8.total_dim != 5 or width(fig8) != 1:
        problems.append(f"fig8: dim {fig8.total_dim}, width {width(fig8)}")
    _report("AC7", not problems, "; ".join(problems) or "all three tables as pinned")


def test_ac8_semigroups():
    """Formal semigroup verdicts with the power-series oracle agreeing."""
    catalog = load_catalog()
    cases = [
        ("K1", catalog["K1"].diagram(), True),
        ("K2", catalog["K2"].diagram(), True),
        ("T(2,3)", braid_closure(parse_braid("1,1,1")), True),
        ("T(3,4)", braid_closure(parse_braid("1,2,1,2,1,2,1,2")), True),
        ("P(-2,3,7)", _pretzel(-2, 3, 7), False),
    ]
    problems = []
    for name, diagram, expected in cases:
        p = alexander(diagram)
        if not is_lspace_form(p):
            problems.append(f"{name}: not L-space form")
            continue
        s = formal_semigroup(p)
        verdict = is_actual_semigroup(s)
        if verdict != expected:
            problems.append(f"{name}: semigroup verdict {verdict}, want {expected}")
        bound = s.threshold + 2 * p.genus_bound
        oracle = semigroup_series_elements(p, bound)
        from_closure = sorted(set(s.elements_below) | set(range(s.threshold, bound + 1)))
        if oracle != from_closure:
            problems.append(f"{name}: series oracle disagrees with interval extraction")
    _report("AC8", not problems, "; ".join(problems) or f"{len(cases)} verdicts correct")


def test_ac9_fifteen_crossing_fill():
    """A 15-crossing filling computes inside a minute."""
    catalog = load_catalog()
    trivial = resolve_template(get_entry("trivial", catalog), catalog)
    d = fill(trivial, 15)
    assert len(d.crossings) == 15
    t0 = time.monotonic()
    table = kh_table(d)
    elapsed = time.monotonic() - t0
    ok = elapsed <= 60 and table.total_dim == 15
    _report("AC9", ok, f"dim {table.total_dim}, {elapsed:.1f}s of 60s")


def test_ac10_selftest_determinism():
    """CLI selftest passes and its output is byte-identical across runs."""
    runner = CliRunner()
    outs = []
    codes = []
    for _ in range(4):
        result = runner.invoke(cli_main, ["selftest"], catch_exceptions=False)
        outs.append(result.output)
        codes.append(result.exit_code)
    ok = all(c == 0 for c in codes) and len({*outs}) == 1
    _report(
        "AC10",
        ok,
        f"exit codes {codes}, {'identical' if len({*outs}) == 1 else 'DIFFERING'} output "
        f"across {len(outs)} runs",
    )
