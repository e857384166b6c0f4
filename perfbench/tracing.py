"""Span tracing around the calls into each knotfill layer.

``Tracer.install`` replaces each traced function at every module attribute
of the package that refers to it, so a call is recorded whichever module the
caller resolves it through (``knotfill.kappa.kh_table`` and
``knotfill.khovanov.kh_table`` are the same function).  Spans are kept in
memory as ``[name, start, end, parent, op, count]`` and written out once,
when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional

# span name -> (module, attribute) of every function recorded under it
TRACED = {
    "catalog.load": [("knotfill.catalog", "load_catalog")],
    "diagram.build": [
        ("knotfill.diagram", "parse_braid"),
        ("knotfill.diagram", "braid_closure"),
        ("knotfill.diagram", "plat_closure"),
    ],
    "symmetric.template": [("knotfill.symmetric", "quotient_template")],
    "tangles.fill": [("knotfill.tangles", "fill")],
    "kappa.for_template": [("knotfill.kappa", "kappa_for_template")],
    "khovanov.kh_table": [("knotfill.khovanov", "kh_table")],
    # the cube engine's entry, resolved by kh_table through its module
    "khovanov.cube": [("knotfill.khovanov", "_cube_homology")],
    "f2algebra.homology": [("knotfill.f2algebra", "GradedComplexF2.homology_dims")],
    "scan.compile": [("knotfill.scan", "compile_events")],
    "scan.sweep": [("knotfill.scan", "run_events")],
    "lspace.determinant": [("knotfill.lspace", "determinant")],
    "lspace.alexander": [("knotfill.lspace", "alexander")],
    "lspace.semigroup": [
        ("knotfill.lspace", "is_lspace_form"),
        ("knotfill.lspace", "formal_semigroup"),
        ("knotfill.lspace", "is_actual_semigroup"),
    ],
}


def _sweep_crossings(events, *_args, **_kw) -> int:
    return sum(1 for ev in events if ev[0] == "cross")


def _generators(cx, *_args, **_kw) -> int:
    return cx.total_dim()


# work counted at a span's start, from its arguments
COUNTERS: Dict[str, Callable[..., int]] = {
    "scan.sweep": _sweep_crossings,
    "f2algebra.homology": _generators,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op: int = -1

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None, count: int = 0):
        """Record one span; ``op`` starts a new op, ``count`` is its work."""
        if op is not None:
            self.op = op
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.op, count]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, count=counter(*args, **kwargs) if counter else 0):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Route every traced function through a span-recording wrapper."""
        # scan is imported lazily by kh_table; load every traced module first
        for targets in TRACED.values():
            for module_name, _ in targets:
                importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "knotfill" or n.startswith("knotfill.")]
        for name, targets in TRACED.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:  # a method: patch the class attribute
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                fn = getattr(owner, attr)
                traced = self._wrap(name, fn)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


LAYER_UNITS = {
    "scan.sweep_s": "s/op",
    "scan.sweeps": "calls/op",
    "scan.crossings_per_s": "1/s",
    "scan.compile_s": "s/op",
    "kappa.self_s": "s/family",
    "kappa.fills_per_family": "fills",
    "kappa.fill_yield": "ratio",
    "tangles.fill_s": "s/op",
    "tangles.fills": "calls/op",
    "symmetric.template_s": "s/op",
    "khovanov.kh_table_s": "s/op",
    "khovanov.cube_s": "s/op",
    "khovanov.cube_calls": "calls/op",
    "f2algebra.homology_s": "s/op",
    "f2algebra.generators": "gens/op",
    "lspace.determinant_s": "s/op",
    "lspace.alexander_s": "s/op",
    "lspace.semigroup_s": "s/op",
    "diagram.build_s": "s/op",
    "cli.invoke_s": "s/op",
    "catalog.load_s": "s",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}


def layer_metrics(spans: List[list], family_dims: List[Dict[int, int]]) -> Dict[str, float]:
    """Per-layer figures of one traced run, per op unless named otherwise."""
    selfs = self_times(spans)
    ops = sum(1 for s in spans if s[0] == "op")
    families = sum(1 for s in spans if s[0] == "kappa.for_template")
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def self_s(name: str) -> float:
        return sum(selfs[i] for i in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def counted(name: str) -> int:
        return sum(spans[i][5] for i in by_name.get(name, ()))

    def per(value: float, base: int) -> float:
        return value / base if base else 0.0

    sweep_s = self_s("scan.sweep")
    # fills kappa_for_template made itself (its direct children)
    fills_in_families = sum(
        1
        for i in by_name.get("tangles.fill", ())
        if spans[i][3] >= 0 and spans[spans[i][3]][0] == "kappa.for_template"
    )
    computed = sum(len(d) for d in family_dims)
    needed = sum(smallest_window(d) for d in family_dims)
    return {
        "scan.sweep_s": per(sweep_s, ops),
        "scan.sweeps": per(calls("scan.sweep"), ops),
        "scan.crossings_per_s": per(counted("scan.sweep"), 1) / sweep_s if sweep_s else 0.0,
        "scan.compile_s": per(self_s("scan.compile"), ops),
        "kappa.self_s": per(self_s("kappa.for_template"), families),
        "kappa.fills_per_family": per(fills_in_families, families),
        "kappa.fill_yield": per(needed, computed),
        "tangles.fill_s": per(self_s("tangles.fill"), ops),
        "tangles.fills": per(calls("tangles.fill"), ops),
        "symmetric.template_s": per(self_s("symmetric.template"), ops),
        "khovanov.kh_table_s": per(self_s("khovanov.kh_table"), ops),
        "khovanov.cube_s": per(self_s("khovanov.cube"), ops),
        "khovanov.cube_calls": per(calls("khovanov.cube"), ops),
        "f2algebra.homology_s": per(self_s("f2algebra.homology"), ops),
        "f2algebra.generators": per(counted("f2algebra.homology"), ops),
        "lspace.determinant_s": per(self_s("lspace.determinant"), ops),
        "lspace.alexander_s": per(self_s("lspace.alexander"), ops),
        "lspace.semigroup_s": per(self_s("lspace.semigroup"), ops),
        "diagram.build_s": per(self_s("diagram.build"), ops),
        "cli.invoke_s": per(self_s("cli.invoke"), ops),
        "catalog.load_s": self_s("catalog.load"),
    }


# ---------------------------------------------------------------------------
# kappa_for_template's window rules, replayed on the dimensions it computed


def _transition(dims: Dict[int, int], lo: int, hi: int):
    """(N, injective count, surjective count) on fills lo..hi, or None."""
    kinds = [(n, dims[n] == dims[n - 1] + 1) for n in range(lo + 1, hi + 1)]
    kept, i = [], 0
    while i < len(kinds):
        # a surjective step followed by an injective one flanks a bump
        if i + 1 < len(kinds) and kinds[i][1] and not kinds[i + 1][1]:
            i += 2
            continue
        kept.append(kinds[i])
        i += 1
    inj = [n for n, sur in kept if not sur]
    sur = [n for n, sur in kept if sur]
    if not inj or not sur or max(inj) > min(sur):
        return None
    return max(inj), len(inj), len(sur)


def smallest_window(dims: Dict[int, int], margin: int = 4) -> int:
    """Fills in the smallest window that meets kappa_for_template's rules.

    ``dims`` maps every computed fill to its total dimension; the window must
    find the same transition as the whole family, with ``margin`` monotone
    steps on each side, and reach from ``min(0, N - 1)`` to ``max(0, N + 1)``.
    """
    lo, hi = min(dims), max(dims)
    full = _transition(dims, lo, hi)
    if full is None:
        return len(dims)
    N = full[0]
    for size in range(2, hi - lo + 2):
        for a in range(lo, hi - size + 2):
            b = a + size - 1
            if a > min(0, N - 1) or b < max(0, N + 1):
                continue
            found = _transition(dims, a, b)
            if found and found[0] == N and found[1] >= margin and found[2] >= margin:
                return size
    return len(dims)
