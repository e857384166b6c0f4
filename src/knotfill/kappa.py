"""Twist-filling families and the kappa invariant.

A tangle template with one open site defines a family of links indexed by
the number of half-twists inserted at the site.  Consecutive members differ
by one crossing whose other resolution is the unknotted infinity fill, so
each step map on reduced homology is either injective with one-dimensional
cokernel or surjective with one-dimensional kernel — total dimensions move
by exactly one per step.  Far enough down the index every step is injective
and far enough up every step is surjective; ``kappa`` is the stable image
caught between the two regimes.

The same cone fixes how consecutive tables line up.  Fills are graded in
one orientation (see ``fill_table``): both strands of a two-component fill
run the same way through the twist site, as in the knot fills.  So fill
``n`` has the template's crossing counts, read once per family off a knot
fill, plus ``|n|`` twist crossings of sign ``n``.  The absolute grading
shift of fill ``n`` then exceeds that of fill ``n-1`` by exactly ``q + 1``
on both sides of zero, so table ``n`` moved by ``q -> q - 1`` differs from
table ``n-1`` in one generator, whose side gives the step's kind
(``_step``); any other difference is a ``StepError``.
Kappa's homological grading is absolute, and its quantum grading is quoted
in the zero-fill frame by ``q -> q - frame`` (the band closed without extra
twists sits at index zero of a raw template; calibrated templates put the
determinant-zero fill there).  In the orientation a diagram picks for
itself, two-component fills drift by ``(2l, 6l)`` from fill to fill.

One wrinkle is handled explicitly: the untwisted band closure typically
carries two extra generators, so the dimension sequence has a local bump
whose two flanking steps read surjective-then-injective.  That reversed
pair is recognised as a bump, recorded, and excluded from the monotone
pattern; a genuine transition reads injective-then-surjective and is
unaffected.  The invariant is always the two-step image at the transition,
so families whose transition sits right next to a bump inherit a one-sided
reading from the exclusion rule.  The headline families are of this kind:
T1 and T2 transition at N = 19 and N = 15, directly under their bumps at 20
and 16, just as the trefoil-plat family transitions at -1 under its bump at
0.  Only families with clear margin on both sides of the transition are
insensitive to the rule.

The fills of one template share a single sweep (``_TwistFamily``): the
template is swept once, down to its complex over the hole's four ends.
Closing a copy of that complex with the infinity tangle checks that the
infinity fill is an unknot, as the cone needs, and a template that fails is
no twist family (``DiagramError``).  Each direction extends the complex by
one twist crossing per fill and closes a copy of it with two cups.  A fill
costs one crossing and two cups instead of a sweep of its whole diagram,
so ``kappa_for_template`` needs about 3.3 s for T1 (fills 0..25) and 4.8 s
for T2 (fills 0..21) on one core of a 2-vCPU Xeon VM, most of it the one
template sweep; sweeping every fill on its own took 286-372 s and
208-280 s.  Everything runs in one process.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import scan
from .diagram import DiagramError
from .khovanov import DEFAULT_MAX_GENERATORS, BudgetError, KhTable, kh_table, width
from .tangles import TangleTemplate, fill

__all__ = [
    "INJECTIVE",
    "SURJECTIVE",
    "StepError",
    "TransitionError",
    "FillingFamily",
    "StepClass",
    "TransitionProfile",
    "KappaTable",
    "KappaRun",
    "compute_family",
    "classify_steps",
    "find_transition",
    "compute_kappa",
    "kappa_width",
    "kappa_for_template",
    "fill_table",
]

INJECTIVE = "injective"
SURJECTIVE = "surjective"


class StepError(RuntimeError):
    """A consecutive pair of fills violates the one-step structure."""


class TransitionError(RuntimeError):
    """No transition index is visible (or the pattern is inconsistent).

    ``missing`` names the step kind (``INJECTIVE`` or ``SURJECTIVE``) that
    the window lacks, so a wider window on that side may help; it is None
    when the pattern itself is inconsistent.
    """

    def __init__(self, message: str, missing: Optional[str] = None) -> None:
        super().__init__(message)
        self.missing = missing


@dataclass
class FillingFamily:
    """Reduced homology tables of integer fills n_lo..n_hi of one template.

    Every step obeys the twist cone (see ``_step``): table ``n`` moved by
    ``q -> q - 1`` differs from table ``n-1`` in a single entry of +-1, so
    frame ``n`` reads in the zero-fill frame by ``q -> q - n``.
    """

    template: TangleTemplate
    n_lo: int
    n_hi: int
    tables: Dict[int, KhTable]

    def table(self, n: int) -> KhTable:
        try:
            return self.tables[n]
        except KeyError:
            raise StepError(f"fill {n} not computed (range {self.n_lo}..{self.n_hi})")

    def dims(self) -> Dict[int, int]:
        return {n: t.total_dim for n, t in sorted(self.tables.items())}

    def widths(self) -> Dict[int, int]:
        return {n: width(t) for n, t in sorted(self.tables.items())}


@dataclass(frozen=True)
class StepClass:
    """One step map, read off by comparing consecutive tables.

    The defect bigrading (the lone kernel or cokernel generator) is quoted
    in the coordinates of the target table, fill ``n - 1``.
    """

    n: int
    kind: str
    defect_bigrading: Tuple[int, int]


@dataclass(frozen=True)
class TransitionProfile:
    """Where the family flips from injective steps to surjective ones.

    ``margin`` counts verified monotone steps (below, above) the transition;
    ``bumps`` lists fill indices whose reversed step pair was excluded.
    """

    N: int
    evidence: Tuple[StepClass, ...]
    margin: Tuple[int, int]
    bumps: Tuple[int, ...] = ()


@dataclass
class KappaTable:
    """The kappa invariant: graded dimensions of the stable image.

    Homological grading absolute; quantum grading in the zero-fill frame.
    """

    entries: Dict[Tuple[int, int], int]
    template: str = ""
    N: int = 0
    n_range: Tuple[int, int] = (0, 0)

    def __post_init__(self):
        self.entries = {
            (int(h), int(q)): int(v) for (h, q), v in self.entries.items() if v
        }
        if any(v < 0 for v in self.entries.values()):
            raise ValueError("dimensions must be positive")

    @property
    def total_dim(self) -> int:
        return sum(self.entries.values())

    def delta_support(self) -> List[int]:
        return sorted({q - 2 * h for h, q in self.entries})

    def as_kh_table(self) -> KhTable:
        return KhTable(dict(self.entries), link=f"kappa({self.template})")

    def to_json_dict(self) -> dict:
        return {
            "format": "kf-1",
            "template": self.template,
            "N": self.N,
            "entries": [
                {"h": h, "q": q, "dim": v}
                for (h, q), v in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "KappaTable":
        return cls(
            entries={(e["h"], e["q"]): e["dim"] for e in d["entries"]},
            template=d.get("template", ""),
            N=d.get("N", 0),
        )

    def to_text(self) -> str:
        return self.as_kh_table().to_text()

    def to_latex(self) -> str:
        return self.as_kh_table().to_latex()


@dataclass
class KappaRun:
    """Bundle returned by the automatic driver."""

    family: FillingFamily
    profile: TransitionProfile
    table: KappaTable


# ---------------------------------------------------------------------------
# Family construction


def _template_counts(template: TangleTemplate) -> Tuple[int, int]:
    """The template's crossing counts ``(P, M)`` in the family orientation.

    A knot fill orients itself, and its template crossings carry the family
    signs; one of fills 0 and 1 is a knot whenever the infinity fill is.
    """
    k = len(template.crossings)
    for n in (1, 0):
        d = fill(template, n)
        if d.n_components == 1:
            n_minus = sum(1 for s in d.signs[:k] if s < 0)
            return k - n_minus, n_minus
    raise DiagramError(f"neither fill 0 nor fill 1 of {template.name!r} is a knot")


def _fill_counts(counts: Tuple[int, int], n: int) -> Tuple[int, int]:
    """Crossing counts of fill ``n``: the template's plus ``|n|`` twists of
    sign ``n``.  In a two-component fill both strands then run the same way
    through the twist site, as they do in the knot fills."""
    n_plus, n_minus = counts
    return n_plus + max(n, 0), n_minus + max(-n, 0)


def fill_table(
    template: TangleTemplate, n: int, max_generators: int = DEFAULT_MAX_GENERATORS
) -> KhTable:
    """Reduced homology of integer fill ``n``, graded in the family convention.

    The fill is computed on its own with ``kh_table`` and regraded to the
    crossing counts of ``_fill_counts``: a two-component fill whose own
    orientation reverses one component has ``flip`` more negative crossings
    in the family orientation (and as many fewer positive), which moves
    ``(h, q)`` by ``(-flip, -3 * flip)``.  Knot fills keep their absolute
    gradings.
    """
    d = fill(template, n)
    _, n_minus = _fill_counts(_template_counts(template), n)
    flip = n_minus - d.n_minus
    return kh_table(d, max_generators=max_generators).shifted(-flip, -3 * flip)


class _TwistFamily:
    """Tables of one template's integer fills, from one shared sweep.

    The template word (``scan.template_word``) is swept once, down to the
    complex over the hole's four ends.  Closing a copy of it with the
    infinity tangle first checks that the template is a twist family, whose
    infinity fill is an unknot.  Each direction keeps an edge complex that
    grows by one twist crossing per fill, so fill ``n`` costs one crossing
    and the two closing cups, which act on a copy of the edge.  A wider
    window resumes from the edges.  Each table is graded with the crossing
    counts of ``_fill_counts``, so it equals ``fill_table`` of that fill.
    """

    def __init__(self, template: TangleTemplate, max_generators: int) -> None:
        self.template = template
        self.max_generators = max_generators
        # ungraded unreduced tables of every fill the edges have passed
        self.raw: Dict[int, Dict[Tuple[int, int], int]] = {}
        self.edges: Dict[int, Tuple[int, scan._ScanComplex]] = {}
        self.counts = (0, 0)

    def tables(self, wanted: Iterable[int]) -> Dict[int, KhTable]:
        return {n: self.table(n) for n in sorted(set(wanted))}

    def fills_after(self, lo: int, hi: int) -> int:
        """How many fills are computed once ``lo..hi`` are: each edge passes
        every fill between 0 and the fill it reaches."""
        return max(hi, 0, *self.raw) - min(lo, 0, *self.raw) + 1

    def table(self, n: int) -> KhTable:
        self._reach(n)
        raw = scan.unreduced_dims(self.raw[n], *_fill_counts(self.counts, n))
        return KhTable(scan.divide_unit_circle(raw), link=f"{self.template.name}({n})")

    def _start(self) -> None:
        cx = scan._ScanComplex(self.max_generators)
        for ev in scan.template_word(self.template):
            cx.apply(ev)
        # unreduced Kh over GF(2) is twice the reduced one, a link of c
        # components has reduced dimension at least 2^(c-1), and only the
        # unknot has reduced dimension 1 (Kronheimer-Mrowka)
        total = sum(self._close(cx, scan.CLOSE_INF).values())
        if total != 2 or self.template.free_loops:
            raise DiagramError(
                f"{self.template.name!r} is no twist family: its infinity fill has "
                f"reduced dimension {total * 2 ** self.template.free_loops // 2}, not an unknot's 1"
            )
        self.counts = _template_counts(self.template)
        self.raw[0] = self._close(cx, scan.CLOSE)
        self.edges = {1: (0, cx), -1: (0, cx.copy())}

    def _reach(self, n: int) -> None:
        if not self.edges:
            self._start()
        sign = 1 if n > 0 else -1
        m, cx = self.edges[sign]
        while n not in self.raw:
            cx.apply(scan.TWIST[sign])
            m += sign
            self.raw[m] = self._close(cx, scan.CLOSE)
        self.edges[sign] = (m, cx)

    @staticmethod
    def _close(cx: scan._ScanComplex, events: Sequence[scan.Event]) -> Dict[Tuple[int, int], int]:
        closed = cx.copy()
        for ev in events:
            closed.apply(ev)
        return closed.table()


def _step(prev: KhTable, cur: KhTable, n: int) -> StepClass:
    """The step map out of fill ``n``, read at the twist cone's alignment.

    Table ``n`` moved by ``q -> q - 1`` must differ from table ``n-1`` in
    one entry of +-1: a spare generator of fill ``n-1`` is the cokernel of
    an injective step, a spare one of fill ``n`` the kernel of a surjective
    one.  The defect is quoted in fill ``n-1``'s coordinates.
    """
    diff: Dict[Tuple[int, int], int] = dict(prev.entries)
    for (h, q), v in cur.entries.items():
        diff[h, q - 1] = diff.get((h, q - 1), 0) - v
    nonzero = [(k, v) for k, v in diff.items() if v]
    if len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
        raise StepError(
            f"fills {n - 1} and {n} do not differ by one generator under q -> q - 1 "
            f"(total dimensions {prev.total_dim}, {cur.total_dim})"
        )
    (spot, value), = nonzero
    return StepClass(n=n, kind=INJECTIVE if value > 0 else SURJECTIVE, defect_bigrading=spot)


def compute_family(
    template: TangleTemplate,
    n_range: Tuple[int, int],
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> FillingFamily:
    """Tables for every integer fill in ``n_range``, every step checked."""
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo > hi:
        raise DiagramError(f"empty fill range {lo}..{hi}")
    tables = _TwistFamily(template, max_generators).tables(range(lo, hi + 1))
    fam = FillingFamily(template=template, n_lo=lo, n_hi=hi, tables=tables)
    classify_steps(fam)  # raises StepError on a step the cone does not allow
    return fam


# ---------------------------------------------------------------------------
# Step classification and the transition


def classify_steps(fam: FillingFamily) -> List[StepClass]:
    """Read each step map by the twist cone's one alignment (``_step``)."""
    return [
        _step(fam.table(n - 1), fam.table(n), n) for n in range(fam.n_lo + 1, fam.n_hi + 1)
    ]


def _split_bumps(steps: Sequence[StepClass]) -> Tuple[List[StepClass], List[int]]:
    """Drop reversed surjective/injective pairs flanking a dimension bump."""
    kept: List[StepClass] = []
    bumps: List[int] = []
    i = 0
    ordered = sorted(steps, key=lambda s: s.n)
    while i < len(ordered):
        cur = ordered[i]
        nxt = ordered[i + 1] if i + 1 < len(ordered) else None
        if (
            nxt is not None
            and nxt.n == cur.n + 1
            and cur.kind == SURJECTIVE
            and nxt.kind == INJECTIVE
        ):
            bumps.append(cur.n)
            i += 2
            continue
        kept.append(cur)
        i += 1
    return kept, bumps


def find_transition(fam: FillingFamily) -> TransitionProfile:
    """Locate the unique index with injective steps below, surjective above."""
    steps = classify_steps(fam)
    kept, bumps = _split_bumps(steps)
    inj = [s.n for s in kept if s.kind == INJECTIVE]
    sur = [s.n for s in kept if s.kind == SURJECTIVE]
    if not inj or not sur:
        missing = INJECTIVE if not inj else SURJECTIVE
        raise TransitionError(
            f"no {missing} step inside fills {fam.n_lo}..{fam.n_hi}; widen the range",
            missing=missing,
        )
    if max(inj) > min(sur):
        raise TransitionError(
            f"step pattern is not monotone (injective at {max(inj)} above "
            f"surjective at {min(sur)}); wrong template or grading bug"
        )
    return TransitionProfile(
        N=max(inj),
        evidence=tuple(steps),
        margin=(len(inj), len(sur)),
        bumps=tuple(bumps),
    )


# ---------------------------------------------------------------------------
# The invariant


def _step_kind(profile: TransitionProfile, n: int) -> Optional[str]:
    for s in profile.evidence:
        if s.n == n:
            return s.kind
    return None


def compute_kappa(fam: FillingFamily, profile: TransitionProfile) -> KappaTable:
    """Stable image at the transition, quoted in the zero-fill frame.

    The step out of fill N+1 is surjective, so the two-step image equals
    the image of the step out of fill N: a copy of table N when that step
    is injective, and all of table N-1 when it is surjective.  The source
    table, in the frame of its own fill, moves to the zero-fill frame by
    ``q -> q - frame``.
    """
    N = profile.N
    for n in (N - 1, N, N + 1):
        fam.table(n)
    if fam.n_lo > min(0, N - 1) or fam.n_hi < max(0, N + 1):
        raise StepError(
            f"family {fam.n_lo}..{fam.n_hi} does not reach the zero fill; "
            "normalization needs every step between"
        )
    if _step_kind(profile, N) == INJECTIVE:
        source, frame = fam.table(N), N
    else:
        source, frame = fam.table(N - 1), N - 1
    entries = {(h, q - frame): v for (h, q), v in source.entries.items()}
    table = KappaTable(
        entries=entries,
        template=fam.template.name,
        N=N,
        n_range=(fam.n_lo, fam.n_hi),
    )
    # the image embeds in every fill of the injective stretch below the
    # transition; a bump ends that stretch, so stop the check there
    floor = fam.n_lo
    for b in profile.bumps:
        if b < N:
            floor = max(floor, b + 1)
    for k in range(floor, N):
        for (h, q), v in table.entries.items():
            if fam.table(k).dim(h, q + k) < v:
                raise StepError(
                    f"stable image exceeds fill {k} at {(h, q)}; steps misaligned"
                )
    return table


def kappa_width(table: KappaTable) -> int:
    """Count of diagonals the invariant occupies."""
    return width(table.as_kh_table())


# ---------------------------------------------------------------------------
# Automatic driver


# monotone steps the driver wants on each side of the transition, and the
# most tables it computes before giving up
MARGIN = 4
MAX_FILLS = 120


def kappa_for_template(
    template: TangleTemplate,
    hint: int = 0,
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> KappaRun:
    """Widen a window around ``hint`` until the transition shows, then solve.

    The window starts five fills either side of the hint.  While one kind of
    step is missing altogether, the side that lacks it grows by an extension
    that doubles on each attempt (5, 10, 20, ...).  Once the transition
    shows, a side with fewer than ``MARGIN`` monotone steps grows by just the
    steps it lacks, since each new fill there adds at most one.  The final
    family always reaches the zero fill so the quantum normalization is
    anchored.  All fills come from one ``_TwistFamily``, so widening the
    window extends its edge complexes instead of sweeping the new fills from
    scratch.

    ``MAX_FILLS`` bounds the fill tables computed.  It counts every fill
    between 0 and the window, since the shared sweep passes each of them on
    its way out, so a window far from 0 costs its distance from 0.  A window
    that would take more raises ``BudgetError`` before any of it is computed.
    """
    lo, hi = hint - 5, hint + 5
    grow_lo = grow_hi = 5
    family = _TwistFamily(template, max_generators)
    while True:
        if family.fills_after(lo, hi) > MAX_FILLS:
            raise BudgetError(
                f"transition not found within {MAX_FILLS} fills of {template.name!r}"
            )
        fam = FillingFamily(template, lo, hi, family.tables(range(lo, hi + 1)))
        try:
            profile = find_transition(fam)  # classifies every step, or raises StepError
        except TransitionError as err:
            if err.missing == INJECTIVE:
                lo -= grow_lo
                grow_lo *= 2
                continue
            if err.missing == SURJECTIVE:
                hi += grow_hi
                grow_hi *= 2
                continue
            raise
        below, above = profile.margin
        if below < MARGIN or above < MARGIN:
            lo -= max(0, MARGIN - below)
            hi += max(0, MARGIN - above)
            continue
        if lo > min(0, profile.N - 1) or hi < max(0, profile.N + 1):
            lo = min(lo, min(0, profile.N - 1))
            hi = max(hi, max(0, profile.N + 1))
            continue
        return KappaRun(fam, profile, compute_kappa(fam, profile))
