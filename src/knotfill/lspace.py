"""Classical invariants: Alexander polynomial, determinant, formal semigroups.

The Alexander polynomial comes from Fox calculus on the Wirtinger
presentation read off the PD code; the determinant from a Goeritz matrix of
the checkerboard coloring.  Both are exact integer computations: the
Alexander determinant is evaluated at integer points with fraction-free
Bareiss elimination and recovered by Lagrange interpolation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .diagram import PlanarDiagram, faces, merge_classes
from .poly import LaurentPoly

__all__ = [
    "AlexanderPoly",
    "FormalSemigroup",
    "alexander",
    "determinant",
    "is_lspace_form",
    "formal_semigroup",
    "is_actual_semigroup",
    "semigroup_series_elements",
]


@dataclass(frozen=True)
class AlexanderPoly:
    """Symmetric normalized Alexander polynomial: p(t) = p(1/t), p(1) = 1."""

    poly: LaurentPoly

    def __post_init__(self):
        if self.poly.reverse() != self.poly:
            raise ValueError("not symmetric")
        if self.poly.evaluate_int(1) != 1:
            raise ValueError("value at 1 is not 1")

    @classmethod
    def from_raw(cls, raw: LaurentPoly) -> "AlexanderPoly":
        """Normalize a determinant-of-minor output (defined up to ±t^k)."""
        if not raw:
            raise ValueError("zero Alexander polynomial (is the input a knot?)")
        lo, hi = raw.min_exp, raw.max_exp
        values = [raw.coeffs.get(e, 0) for e in range(lo, hi + 1)]
        if values != values[::-1] and values != [-v for v in values[::-1]]:
            raise ValueError("Alexander output is not palindromic up to sign")
        if (hi - lo) % 2:
            raise ValueError("odd exponent span; cannot symmetrize")
        centered = raw.shift(-(lo + hi) // 2)
        at1 = centered.evaluate_int(1)
        if at1 not in (1, -1):
            raise ValueError(f"Alexander value at 1 is {at1}, expected +-1")
        return cls(centered * at1)

    @property
    def genus_bound(self) -> int:
        return self.poly.max_exp if self.poly.coeffs else 0

    def evaluate_abs(self, x: int) -> int:
        return abs(self.poly.evaluate_int(x))

    def to_json_dict(self) -> dict:
        return self.poly.to_json_dict()

    def __str__(self):
        return str(self.poly).replace("x", "t")


# ---------------------------------------------------------------------------
# exact integer linear algebra


def _det_int(rows: List[List[int]]) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _lagrange(points: List[Tuple[int, int]]) -> List[Fraction]:
    """Coefficients (ascending) of the interpolating polynomial."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        # basis polynomial prod_{j != i} (x - x_j) / (x_i - x_j)
        basis = [Fraction(1)]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] -= c * xj
                nxt[k + 1] += c
            basis = nxt
        scale = Fraction(yi, denom)
        for k, c in enumerate(basis):
            coeffs[k] += c * scale
    return coeffs


# ---------------------------------------------------------------------------
# Fox calculus


def _wirtinger_strands(d: PlanarDiagram) -> Dict[int, int]:
    """Map each arc to its over-strand id (arcs glued through over-passages)."""
    rep, _ = merge_classes(d.arcs, ((b, dd) for _, b, _, dd in d.crossings))
    reps = sorted(set(rep.values()))
    idx = {r: i for i, r in enumerate(reps)}
    return {a: idx[r] for a, r in rep.items()}


def alexander(d: PlanarDiagram) -> AlexanderPoly:
    """Alexander polynomial of a knot diagram via Fox calculus."""
    if d.n_components != 1:
        raise ValueError("Alexander polynomial implemented for knots only")
    if not d.crossings:
        return AlexanderPoly(LaurentPoly.one())
    strand = _wirtinger_strands(d)
    n_str = max(strand.values()) + 1
    if n_str == 1:
        return AlexanderPoly(LaurentPoly.one())
    # each matrix entry is linear in t; rows use Fox derivatives of the
    # relation at each crossing, scaled to stay polynomial:
    #   positive  x_c = x_o x_a x_o^{-1}:  (o, a, c) -> (1-t, t, -1)
    #   negative  x_c = x_o^{-1} x_a x_o:  (o, a, c) -> (t-1, 1, -t)
    size = n_str - 1
    rows_lin: List[List[Tuple[int, int]]] = []
    for (a, b, c, _), sign in zip(d.crossings, d.signs):
        row = [(0, 0)] * n_str
        over, sa, sc = strand[b], strand[a], strand[c]

        def bump(idx, const, lin):
            c0, c1 = row[idx]
            row[idx] = (c0 + const, c1 + lin)

        if sign > 0:
            bump(over, 1, -1)
            bump(sa, 0, 1)
            bump(sc, -1, 0)
        else:
            bump(over, -1, 1)
            bump(sa, 1, 0)
            bump(sc, 0, -1)
        rows_lin.append(row[:size])
        if len(rows_lin) == size:
            break
    # interpolate det(minor)(t) from integer evaluations
    xs = list(range(-(size // 2) - 1, size // 2 + 2))[: size + 1]
    pts = []
    for x in xs:
        mat = [[c0 + c1 * x for (c0, c1) in row] for row in rows_lin]
        pts.append((x, _det_int(mat)))
    coeffs = _lagrange(pts)
    ints: Dict[int, int] = {}
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        if c.denominator != 1:
            raise ArithmeticError("non-integer Alexander coefficient")
        ints[e] = int(c)
    raw = LaurentPoly(ints)
    if not raw:
        raise ValueError("vanishing Alexander determinant (diagram not a knot?)")
    return AlexanderPoly.from_raw(raw)


# ---------------------------------------------------------------------------
# Goeritz determinant


def _checkerboard(d: PlanarDiagram):
    """Faces, dart->face map and a 2-coloring of the faces (0/1)."""
    fs = faces(d)
    face_of: Dict[Tuple[int, int], int] = {}
    for fi, f in enumerate(fs):
        for dart in f:
            face_of[dart] = fi
    # the two sides of an arc are the faces through its two end-darts
    adj: Dict[int, set] = {i: set() for i in range(len(fs))}
    for e1, e2 in d.arc_ends.values():
        f1 = face_of[e1]
        f2 = face_of[e2]
        adj[f1].add(f2)
        adj[f2].add(f1)
    color = {0: 0}
    stack = [0]
    while stack:
        f = stack.pop()
        for g in adj[f]:
            if g not in color:
                color[g] = 1 - color[f]
                stack.append(g)
            elif color[g] == color[f]:
                raise ValueError("diagram is not checkerboard colorable")
    if len(color) != len(fs):
        raise ValueError("determinant needs a connected diagram")
    return fs, face_of, color


def determinant(d: PlanarDiagram) -> int:
    """Order of H1 of the double branched cover, via a Goeritz matrix.

    Returns 0 for links whose cover has infinite H1.
    """
    if not d.crossings:
        return 1 if d.n_components == 1 else 0
    fs, face_of, color = _checkerboard(d)
    whites = [f for f in range(len(fs)) if color[f] == 0]
    windex = {f: i for i, f in enumerate(whites)}
    m = len(whites)
    if m < 2:
        return 1
    g = [[0] * m for _ in range(m)]
    for ci in range(len(d.crossings)):
        # darts (ci,0..3) sit at the four corners; opposite corners are the
        # dart pairs {0,2} and {1,3}.  Corner pair {1,3} flanks the
        # A-smoothing channel, fixing the crossing type sign.
        fa1, fa2 = face_of[(ci, 1)], face_of[(ci, 3)]
        fb1, fb2 = face_of[(ci, 0)], face_of[(ci, 2)]
        if color[fa1] != color[fa2] or color[fb1] != color[fb2]:
            raise ValueError("inconsistent checkerboard coloring at a crossing")
        if color[fa1] == 0:
            eta, f1, f2 = 1, fa1, fa2
        else:
            eta, f1, f2 = -1, fb1, fb2
        i, j = windex[f1], windex[f2]
        if i == j:
            continue
        g[i][j] -= eta
        g[j][i] -= eta
        g[i][i] += eta
        g[j][j] += eta
    return abs(_det_int([row[1:] for row in g[1:]]))


# ---------------------------------------------------------------------------
# L-space form and formal semigroups


def is_lspace_form(p: AlexanderPoly) -> bool:
    """Necessary coefficient test: alternating ±1 with +1 at both ends."""
    items = p.poly.items()
    if not items:
        return False
    coeffs = [c for _, c in items]
    want = 1
    for c in reversed(coeffs):
        if c != want:
            return False
        want = -want
    return coeffs[0] == 1


@dataclass(frozen=True)
class FormalSemigroup:
    """Element set S with t^g * Delta(t)/(1-t) = sum over S of t^s.

    ``elements_below`` lists S ∩ [0, threshold); every integer >= threshold
    belongs to S.
    """

    elements_below: Tuple[int, ...]
    threshold: int

    def __contains__(self, x: int) -> bool:
        if x >= self.threshold:
            return True
        return x in self.elements_below

    def to_json_dict(self) -> dict:
        return {
            "elements_below": list(self.elements_below),
            "threshold": self.threshold,
            "is_semigroup": is_actual_semigroup(self),
        }


def formal_semigroup(p: AlexanderPoly) -> FormalSemigroup:
    """Interval extraction from the shifted polynomial (no series truncation)."""
    if not is_lspace_form(p):
        raise ValueError("Alexander polynomial is not of L-space form")
    g = p.poly.max_exp
    shifted = p.poly.shift(g)  # exponents a_0 = 0 < a_1 < ... < a_2k = 2g
    exps = [e for e, _ in shifted.items()]
    elements: List[int] = []
    for i in range(0, len(exps) - 1, 2):
        elements.extend(range(exps[i], exps[i + 1]))
    threshold = exps[-1]
    return FormalSemigroup(tuple(elements), threshold)


def is_actual_semigroup(s: FormalSemigroup) -> bool:
    """Closure under addition (sums at or above the threshold are automatic)."""
    if 0 not in s:
        return False
    elems = [e for e in s.elements_below if e > 0]
    for i, a in enumerate(elems):
        for b in elems[i:]:
            if a + b < s.threshold and (a + b) not in s:
                return False
    return True


def semigroup_series_elements(p: AlexanderPoly, up_to: int) -> List[int]:
    """Oracle: expand t^g * Delta(t)/(1-t) as a power series, collect exponents.

    Only valid for L-space-form polynomials (coefficients are then 0/1).
    """
    g = p.poly.max_exp
    shifted = p.poly.shift(g)
    out = []
    acc = 0
    for e in range(0, up_to + 1):
        acc += shifted.coeffs.get(e, 0)
        if acc == 1:
            out.append(e)
        elif acc != 0:
            raise ValueError("series coefficients not 0/1; not an L-space form")
    return out
