"""Four-ended tangle templates and their rational fillings.

A template is a knot diagram with a square hole: a crossing fragment whose
four loose ends sit at the corners NW, NE, SE, SW of the missing square.
``fill`` plugs a rational two-string tangle into the hole and returns the
closed diagram.  Slopes follow the vertical convention:

* slope 0 is the identity tangle (NW-SW and NE-SE strands);
* slope ``n`` stacks ``n`` signed half-twists on the identity, so the
  integer fillings of a template form its twist family;
* slope infinity is the horizontal cap (NW-NE and SW-SE);
* a general ``p/q`` is built from the floor continued fraction, rotating a
  quarter turn at each level, which agrees with the integer construction
  whenever ``q == 1``.

Calibration facts pinned by the test suite: filling the trivial closure
template with slope ``n > 0`` yields the positive ``(2, n)`` torus link, and
slope ``p/q > 0`` yields a two-bridge diagram of determinant ``p``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .diagram import Crossing, DiagramError, PlanarDiagram, _emit_crossing, merge_classes

__all__ = [
    "INFINITY",
    "Slope",
    "TangleTemplate",
    "TemplateCheck",
    "ValidationReport",
    "fill",
    "mirror_template",
    "parse_slope",
    "template_from_json",
    "template_to_json",
    "validate_template",
]

TEMPLATE_FORMAT = "kf-tangle-1"

# A slope is a reduced pair (p, q) with q >= 0; (1, 0) is the horizontal cap.
Slope = Tuple[int, int]
INFINITY: Slope = (1, 0)

SlopeLike = Union[int, str, Fraction, Slope, float]


def parse_slope(value: SlopeLike) -> Slope:
    """Normalize ints, Fractions, ``(p, q)`` pairs, or strings like ``"-3/2"``."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "-inf", "infinity"):
            return INFINITY
        num, sep, den = text.partition("/")
        try:
            pair = (int(num), int(den) if sep else 1)
        except ValueError:
            raise DiagramError(f"slope {value!r} is not p/q, an integer or inf") from None
        return parse_slope(pair)
    if isinstance(value, float):
        if value in (inf, -inf):
            return INFINITY
        raise DiagramError(f"non-integral float slope {value!r}; pass a Fraction")
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator)
    if isinstance(value, tuple):
        p, q = value
        if q == 0:
            if p == 0:
                raise DiagramError("slope 0/0 is not a tangle")
            return INFINITY
        if q < 0:
            p, q = -p, -q
        g = gcd(p, q)
        return (p // g, q // g)
    return (int(value), 1)


def slope_text(s: Slope) -> str:
    p, q = s
    if q == 0:
        return "inf"
    return str(p) if q == 1 else f"{p}/{q}"


@dataclass(frozen=True)
class TangleTemplate:
    """A diagram fragment with four boundary ends at the corners of a hole.

    ``ends`` lists the arc labels reaching the corners in the order
    (NW, NE, SE, SW).  Every arc label must occur exactly twice across the
    crossings and the ends together; an arc may use both of its occurrences
    on the boundary (a strand running straight past the hole).
    """

    name: str
    crossings: Tuple[Crossing, ...]
    ends: Tuple[int, int, int, int]
    free_loops: int = 0
    notes: str = ""

    def __post_init__(self):
        crossings = tuple(tuple(int(x) for x in c) for c in self.crossings)
        object.__setattr__(self, "crossings", crossings)
        ends = tuple(int(x) for x in self.ends)
        if len(ends) != 4:
            raise DiagramError("a template needs exactly 4 ends")
        object.__setattr__(self, "ends", ends)
        counts: Dict[int, int] = {}
        for c in crossings:
            if len(c) != 4:
                raise DiagramError("each crossing needs exactly 4 arc labels")
            for a in c:
                counts[a] = counts.get(a, 0) + 1
        for a in ends:
            counts[a] = counts.get(a, 0) + 1
        bad = {a: k for a, k in counts.items() if k != 2}
        if bad:
            raise DiagramError(f"arcs with endpoint count != 2: {bad}")
        if self.free_loops < 0:
            raise DiagramError("free_loops must be >= 0")

    @property
    def arc_count(self) -> int:
        return len({a for c in self.crossings for a in c} | set(self.ends))


def mirror_template(t: TangleTemplate) -> TangleTemplate:
    """Swap every over-strand for the under-strand (same shadow)."""
    return TangleTemplate(
        name=f"{t.name}.mirror",
        crossings=tuple((c[1], c[2], c[3], c[0]) for c in t.crossings),
        ends=t.ends,
        free_loops=t.free_loops,
        notes=t.notes,
    )


def template_to_json(t: TangleTemplate) -> Dict:
    out: Dict = {
        "format": TEMPLATE_FORMAT,
        "name": t.name,
        "crossings": [list(c) for c in t.crossings],
        "ends": list(t.ends),
    }
    if t.free_loops:
        out["free_loops"] = t.free_loops
    if t.notes:
        out["notes"] = t.notes
    return out


def template_from_json(data: Union[str, Dict]) -> TangleTemplate:
    if isinstance(data, str):
        data = json.loads(data)
    if data.get("format") != TEMPLATE_FORMAT:
        raise DiagramError(f"not a {TEMPLATE_FORMAT} template: {data.get('format')!r}")
    return TangleTemplate(
        name=data["name"],
        crossings=tuple(tuple(c) for c in data["crossings"]),
        ends=tuple(data["ends"]),
        free_loops=data.get("free_loops", 0),
        notes=data.get("notes", ""),
    )


@dataclass(frozen=True)
class TemplateCheck:
    name: str
    passed: bool
    detail: str = ""

    def __str__(self):
        mark = "ok  " if self.passed else "FAIL"
        return f"{mark} {self.name}: {self.detail}" if self.detail else f"{mark} {self.name}"


@dataclass(frozen=True)
class ValidationReport:
    template: str
    checks: Tuple[TemplateCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> Dict:
        return {
            "format": "kf-1",
            "template": self.template,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def validate_template(t: TangleTemplate) -> ValidationReport:
    """Check the filling conventions a usable template must satisfy.

    The infinity filling must close to an unknot (one component, determinant
    one, one-dimensional reduced homology) and the zero filling to a
    two-component link of determinant zero.  Failures are reported, not
    raised, so a bad hand-built template gets a per-check explanation.
    """
    from .khovanov import kh_table
    from .lspace import determinant

    checks: List[TemplateCheck] = []

    def run(name: str, func: Callable[[], Tuple[bool, str]]) -> None:
        try:
            passed, detail = func()
        except Exception as exc:  # noqa: BLE001 - report, never raise
            passed, detail = False, f"error: {exc}"
        checks.append(TemplateCheck(name, passed, detail))

    def cap_components() -> Tuple[bool, str]:
        n = fill(t, INFINITY).n_components
        return n == 1, f"components = {n}, want 1"

    def cap_det() -> Tuple[bool, str]:
        d = determinant(fill(t, INFINITY))
        return d == 1, f"determinant = {d}, want 1"

    def cap_kh() -> Tuple[bool, str]:
        dim = kh_table(fill(t, INFINITY)).total_dim
        return dim == 1, f"reduced dimension = {dim}, want 1"

    def zero_components() -> Tuple[bool, str]:
        n = fill(t, 0).n_components
        return n == 2, f"components = {n}, want 2"

    def zero_det() -> Tuple[bool, str]:
        d = determinant(fill(t, 0))
        return d == 0, f"determinant = {d}, want 0"

    run("infinity filling is connected", cap_components)
    run("infinity filling has determinant 1", cap_det)
    run("infinity filling is homologically trivial", cap_kh)
    run("zero filling has two components", zero_components)
    run("zero filling has determinant 0", zero_det)
    return ValidationReport(template=t.name, checks=tuple(checks))


# ---------------------------------------------------------------------------
# building the rational insert

# Corner bookkeeping for the insert builder: a partial tangle is a list of
# crossings plus the arc labels reaching (NW, NE, SE, SW) of its own square.
_Tangle = Tuple[List[Crossing], Tuple[int, int, int, int]]


def _corridor(n: int, base: Optional[_Tangle], fresh: Callable[[], int]) -> _Tangle:
    """Stack ``n`` signed vertical half-twists above ``base`` (identity if None).

    The twists are emitted wire by wire exactly like braid letters: the two
    strands rise out of the base square's NW/NE corners, cross ``|n|`` times,
    and the survivors become the new NW/NE ends.
    """
    crossings: List[Crossing] = []
    if base is None:
        bot_l, bot_r = fresh(), fresh()
        se, sw = bot_r, bot_l
    else:
        crossings.extend(base[0])
        bot_l, bot_r = base[1][0], base[1][1]
        se, sw = base[1][2], base[1][3]
    l, r = bot_l, bot_r
    positive = n > 0
    for _ in range(abs(n)):
        lo, ro = fresh(), fresh()
        crossings.append(_emit_crossing(l, r, lo, ro, positive))
        l, r = ro, lo  # the wires swap positions
    return crossings, (l, r, se, sw)


def _rotate(t: _Tangle) -> _Tangle:
    """Quarter turn: the vertical identity becomes the horizontal cap."""
    crossings, (nw, ne, se, sw) = t
    return crossings, (sw, nw, ne, se)


def _insert(p: int, q: int, fresh: Callable[[], int]) -> _Tangle:
    """Rational tangle of slope p/q in its own square.

    Uses ``p/q = a0 + r/q`` with ``r/q = -1/(-q/r)``: a quarter turn carries
    slope ``t`` to ``-1/t``, so the rotated recursive insert for ``-q/r``
    contributes exactly ``r/q`` under the stack of ``a0`` twists.
    """
    if q == 0:
        a, b = fresh(), fresh()
        return [], (a, a, b, b)
    a0, r = divmod(p, q)
    if r == 0:
        return _corridor(a0, None, fresh)
    sub = _rotate(_insert(-q, r, fresh))
    return _corridor(a0, sub, fresh)


def fill(template: TangleTemplate, slope: SlopeLike, name: str = "") -> PlanarDiagram:
    """Close a template's hole with the rational tangle of the given slope."""
    p, q = parse_slope(slope)
    labels = {a for c in template.crossings for a in c} | set(template.ends)
    counter = [max(labels) + 1]

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    ins_crossings, ins_ends = _insert(p, q, fresh)

    # glue corner to corner
    rep, loops = merge_classes((*template.ends, *ins_ends), zip(template.ends, ins_ends))
    crossings = tuple(
        tuple(rep.get(a, a) for a in c)
        for c in (*template.crossings, *ins_crossings)
    )
    return PlanarDiagram(
        crossings,
        free_loops=template.free_loops + loops,
        name=name or f"{template.name}({slope_text((p, q))})",
    )
