"""Reduced Khovanov homology over GF(2) via the cube of resolutions.

Gradings (absolute, reduced):

* ``h = |v| - n_minus`` for a cube vertex ``v``;
* ``q = (sum of circle degrees) + |v| + n_plus - 2*n_minus + 1`` where a
  circle labeled 1 contributes ``+1``, a circle labeled X contributes ``-1``,
  and the basepoint circle is always labeled X;
* the 0-crossing unknot sits at ``(0, 0)``.

This module is the brute-force reference engine: it materializes the whole
cube, so ``kh_table`` by default uses it only for diagrams of at most
``CUBE_CROSSING_LIMIT`` (10) crossings.  Larger diagrams go to the sweep
engine in ``scan``, which builds the complex one local event at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .diagram import PlanarDiagram, smoothing_circles
from .f2algebra import F2Matrix, GradedComplexF2
from .poly import LaurentPoly

__all__ = [
    "KhTable",
    "BudgetError",
    "build_reduced_complex",
    "kh_table",
    "kh_table_unreduced",
    "width",
    "jones_from_kh",
    "kauffman_jones",
    "DEFAULT_MAX_GENERATORS",
    "CUBE_CROSSING_LIMIT",
]

DEFAULT_MAX_GENERATORS = 4_000_000
CUBE_CROSSING_LIMIT = 10


class BudgetError(RuntimeError):
    """Raised when a computation would exceed its configured resource budget."""


@dataclass
class KhTable:
    """Bigraded dimensions of (reduced) Khovanov homology."""

    entries: Dict[Tuple[int, int], int]
    link: str = ""

    def __post_init__(self):
        self.entries = {
            (int(h), int(q)): int(v) for (h, q), v in self.entries.items() if v
        }
        if any(v < 0 for v in self.entries.values()):
            raise ValueError("dimensions must be positive")

    @property
    def total_dim(self) -> int:
        return sum(self.entries.values())

    def dim(self, h: int, q: int) -> int:
        return self.entries.get((h, q), 0)

    def delta_support(self) -> List[int]:
        return sorted({q - 2 * h for h, q in self.entries})

    def shifted(self, dh: int = 0, dq: int = 0) -> "KhTable":
        return KhTable(
            {(h + dh, q + dq): v for (h, q), v in self.entries.items()}, self.link
        )

    def mirrored(self) -> "KhTable":
        return KhTable(
            {(-h, -q): v for (h, q), v in self.entries.items()}, self.link
        )

    def to_json_dict(self) -> dict:
        return {
            "format": "kf-1",
            "link": self.link,
            "entries": [
                {"h": h, "q": q, "dim": v}
                for (h, q), v in sorted(self.entries.items())
            ],
            "width": width(self) if self.entries else 0,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "KhTable":
        return cls(
            {(e["h"], e["q"]): e["dim"] for e in d["entries"]},
            link=d.get("link", ""),
        )

    def to_text(self) -> str:
        """Grid with h along columns and delta rows (largest delta first)."""
        if not self.entries:
            return "(empty table)"
        hs = sorted({h for h, _ in self.entries})
        deltas = sorted(self.delta_support(), reverse=True)
        colw = max(3, *(len(str(h)) for h in hs))
        head = "delta\\h |" + "".join(f"{h:>{colw + 1}}" for h in hs)
        lines = [head, "-" * len(head)]
        for dl in deltas:
            row = f"{dl:>7} |"
            for h in hs:
                v = self.entries.get((h, dl + 2 * h), 0)
                row += f"{v if v else '.':>{colw + 1}}"
            lines.append(row)
        return "\n".join(lines)

    def to_latex(self) -> str:
        if not self.entries:
            return "\\begin{tabular}{c}empty\\end{tabular}"
        hs = sorted({h for h, _ in self.entries})
        deltas = sorted(self.delta_support(), reverse=True)
        cols = "r|" + "c" * len(hs)
        lines = [f"\\begin{{tabular}}{{{cols}}}"]
        lines.append(
            "$\\delta$ & " + " & ".join(f"${h}$" for h in hs) + " \\\\ \\hline"
        )
        for dl in deltas:
            cells = []
            for h in hs:
                v = self.entries.get((h, dl + 2 * h), 0)
                cells.append(str(v) if v else "$\\cdot$")
            lines.append(f"${dl}$ & " + " & ".join(cells) + " \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines)


def width(t: KhTable) -> int:
    if not t.entries:
        raise ValueError("width of an empty table")
    deltas = t.delta_support()
    span = deltas[-1] - deltas[0]
    if span % 2:
        raise ValueError("delta support has mixed parity")
    return span // 2 + 1


def jones_from_kh(t: KhTable) -> LaurentPoly:
    """Graded Euler characteristic: sum (-1)^h x^q dim."""
    out: Dict[int, int] = {}
    for (h, q), v in t.entries.items():
        out[q] = out.get(q, 0) + (v if h % 2 == 0 else -v)
    return LaurentPoly(out)


# ---------------------------------------------------------------------------
# Cube construction


def _tensor_unknot_factors(entries: Dict[Tuple[int, int], int], k: int):
    """Tensor a table with (q + 1/q)^k, for k disjoint crossingless loops."""
    for _ in range(k):
        nxt: Dict[Tuple[int, int], int] = {}
        for (h, q), v in entries.items():
            for dq in (1, -1):
                nxt[(h, q + dq)] = nxt.get((h, q + dq), 0) + v
        entries = nxt
    return entries


def _crossingless_reduced(d: PlanarDiagram) -> Dict[Tuple[int, int], int]:
    # one loop carries the basepoint and is fixed; the rest tensor freely
    return _tensor_unknot_factors({(0, 0): 1}, d.free_loops - 1)


def build_reduced_complex(
    d: PlanarDiagram, max_generators: int = DEFAULT_MAX_GENERATORS
) -> GradedComplexF2:
    """The reduced cube complex (basepoint circle fixed to X)."""
    return _build_cube(d, reduced=True, max_generators=max_generators)


def _build_cube(
    d: PlanarDiagram, reduced: bool, max_generators: int
) -> GradedComplexF2:
    n = len(d.crossings)
    if n == 0:
        raise ValueError("crossingless diagrams are handled separately")
    bp = d.default_basepoint()
    if reduced and bp is None:
        raise ValueError("reduced complex needs a basepoint")
    npos, nneg = d.n_plus, d.n_minus

    # circle data per vertex
    circles: List[Tuple[int, dict]] = []
    total = 0
    for v in range(1 << n):
        bits = [(v >> i) & 1 for i in range(n)]
        ncirc, assign = smoothing_circles(d, bits)
        ncirc -= d.free_loops  # free loops are tensored on at the end
        circles.append((ncirc, assign))
        total += 1 << (ncirc - 1 if reduced else ncirc)
        if total > max_generators:
            raise BudgetError(
                f"cube would exceed {max_generators} generators; "
                "raise --max-generators or use the scan engine"
            )

    # generator indexing: (vertex, label mask) -> position within its (h,q) block
    dims: Dict[Tuple[int, int], int] = {}
    index: Dict[Tuple[int, int], Dict[Tuple[int, int], int]] = {}
    bp_circle: List[int] = []
    for v in range(1 << n):
        ncirc, assign = circles[v]
        bpc = assign[bp] if reduced else -1
        bp_circle.append(bpc)
        hv = bin(v).count("1") - nneg
        base_q = bin(v).count("1") + npos - 2 * nneg + (1 if reduced else 0)
        for mask in range(1 << ncirc):
            if reduced and not (mask >> bpc) & 1:
                continue  # basepoint circle must be labeled X
            deg = ncirc - 2 * bin(mask).count("1")  # +1 per 1-label, -1 per X
            q = deg + base_q
            key = (hv, q)
            blk = index.setdefault(key, {})
            blk[(v, mask)] = dims.get(key, 0)
            dims[key] = dims.get(key, 0) + 1

    # differentials
    entries_by_block: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for v in range(1 << n):
        ncirc_v, assign_v = circles[v]
        # representative arc for each circle of v (its smallest arc)
        rep: List[Optional[int]] = [None] * ncirc_v
        for a in sorted(assign_v):
            c = assign_v[a]
            if rep[c] is None:
                rep[c] = a
        hv = bin(v).count("1") - nneg
        base_q = bin(v).count("1") + npos - 2 * nneg + (1 if reduced else 0)
        for i in range(n):
            if (v >> i) & 1:
                continue
            w = v | (1 << i)
            ncirc_w, assign_w = circles[w]
            a, b, c, dd = d.crossings[i]
            ca, cc = assign_v[a], assign_v[c]
            merging = ca != cc
            # circle correspondence for untouched circles
            corr = [assign_w[rep[j]] for j in range(ncirc_v)]
            for mask in range(1 << ncirc_v):
                deg = ncirc_v - 2 * bin(mask).count("1")
                key = (hv, deg + base_q)
                src_pos = index.get(key, {}).get((v, mask))
                if src_pos is None:
                    continue
                targets = []
                if merging:
                    la = (mask >> ca) & 1
                    lc = (mask >> cc) & 1
                    if la and lc:
                        pass  # X*X = 0
                    else:
                        tmask = 0
                        for j in range(ncirc_v):
                            if j in (ca, cc):
                                continue
                            if (mask >> j) & 1:
                                tmask |= 1 << corr[j]
                        if la or lc:
                            tmask |= 1 << assign_w[a]
                        targets.append(tmask)
                else:
                    # split: circle ca becomes circle(a) and circle(b) at w
                    c1, c2 = assign_w[a], assign_w[b]
                    tbase = 0
                    for j in range(ncirc_v):
                        if j == ca:
                            continue
                        if (mask >> j) & 1:
                            tbase |= 1 << corr[j]
                    if (mask >> ca) & 1:
                        targets.append(tbase | (1 << c1) | (1 << c2))
                    else:
                        targets.append(tbase | (1 << c1))
                        targets.append(tbase | (1 << c2))
                tkey = (hv + 1, key[1])
                for tmask in targets:
                    tpos = index.get(tkey, {}).get((w, tmask))
                    if tpos is None:
                        continue  # reduced restriction dropped it (bp went to 0)
                    entries_by_block.setdefault(key, []).append((tpos, src_pos))

    diffs: Dict[Tuple[int, int], F2Matrix] = {}
    for key, ent in entries_by_block.items():
        h, q = key
        m = F2Matrix.from_entries(dims.get((h + 1, q), 0), dims[key], [])
        for i, j in ent:
            m.add_to(i, j)
        diffs[key] = m
    return GradedComplexF2(dims=dims, diffs=diffs).validate()


def _cube_homology(
    d: PlanarDiagram, reduced: bool, max_generators: int
) -> Dict[Tuple[int, int], int]:
    cx = _build_cube(d, reduced=reduced, max_generators=max_generators)
    hom = cx.homology_dims()
    if d.free_loops and d.crossings:
        hom = _tensor_unknot_factors(hom, d.free_loops)
    return hom


def kh_table(
    d: PlanarDiagram,
    max_generators: int = DEFAULT_MAX_GENERATORS,
    engine: str = "auto",
) -> KhTable:
    """Reduced Khovanov homology dimensions of a diagram.

    ``engine`` is "cube" (full cube of resolutions), "scan" (sweep engine for
    large diagrams), or "auto" (pick by crossing count).
    """
    if not d.crossings:
        return KhTable(_crossingless_reduced(d), link=d.name)
    if engine == "auto":
        engine = "cube" if len(d.crossings) <= CUBE_CROSSING_LIMIT else "scan"
    if engine == "cube":
        return KhTable(_cube_homology(d, True, max_generators), link=d.name)
    if engine == "scan":
        from . import scan

        return KhTable(scan.scan_reduced_kh(d, max_generators), link=d.name)
    raise ValueError(f"unknown engine {engine!r}")


def kh_table_unreduced(
    d: PlanarDiagram, max_generators: int = DEFAULT_MAX_GENERATORS
) -> KhTable:
    """Unreduced table (internal cross-check; not part of the CLI surface)."""
    if not d.crossings:
        return KhTable(
            _tensor_unknot_factors({(0, 1): 1, (0, -1): 1}, d.free_loops - 1),
            link=d.name,
        )
    return KhTable(_cube_homology(d, False, max_generators), link=d.name)


# ---------------------------------------------------------------------------
# Kauffman bracket oracle


def kauffman_jones(d: PlanarDiagram, max_crossings: int = 20) -> LaurentPoly:
    """Jones polynomial by bracket state sum, emitted so that it equals
    ``jones_from_kh`` of the reduced table (variable x, exponent = q).
    """
    n = len(d.crossings)
    if n > max_crossings:
        raise BudgetError(f"{n} crossings exceeds the state-sum budget {max_crossings}")
    # bracket in A: sum over states of A^(n0 - n1) * delta^(circles - 1)
    states = []
    max_circ = 1
    for v in range(1 << n):
        bits = [(v >> i) & 1 for i in range(n)]
        ncirc, _ = smoothing_circles(d, bits)
        states.append((ncirc, bin(v).count("1")))
        max_circ = max(max_circ, ncirc)
    delta_pows: List[LaurentPoly] = [LaurentPoly.one()]
    delta = LaurentPoly({2: -1, -2: -1})
    for _ in range(max_circ):
        delta_pows.append(delta_pows[-1] * delta)
    acc = LaurentPoly.zero()
    for ncirc, ones in states:
        acc = acc + delta_pows[ncirc - 1].shift(n - 2 * ones)
    w = d.writhe
    # f = (-A)^(-3w) * bracket, then a (-1)^(comps-1) conversion so the result
    # is the reduced graded Euler characteristic rather than Kauffman's V
    f = acc.shift(-3 * w) * (1 if w % 2 == 0 else -1)
    f = f * (1 if d.n_components % 2 else -1)
    # substitute: x-exponent = -(A-exponent)/2  (t = A^-4, x^2 = t)
    out: Dict[int, int] = {}
    for e, c in f.coeffs.items():
        if e % 2:
            raise ArithmeticError("odd A-exponent after writhe correction")
        out[-e // 2] = out.get(-e // 2, 0) + c
    return LaurentPoly(out)
