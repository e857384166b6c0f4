"""Planar diagrams, braid words, and closures.

Conventions used throughout the package:

* A crossing is a 4-tuple ``(a, b, c, d)`` of arc labels, read
  counterclockwise starting from the incoming under-strand arc.  The under
  passage runs ``a -> c``.
* Crossing sign is ``+1`` when the over-strand runs ``d -> b`` (rotating the
  under direction counterclockwise by 90 degrees gives the over direction),
  ``-1`` when it runs ``b -> d``.
* A positive braid letter ``i`` crosses the strand in position ``i`` OVER the
  strand in position ``i+1`` (both moving upward).
* The 0-smoothing of ``(a, b, c, d)`` joins ``a~b`` and ``c~d`` (the over
  strand rotated counterclockwise onto the under strand); the 1-smoothing
  joins ``a~d`` and ``b~c``.
* Components are oriented by the lowest-arc rule: each component is traversed
  in the direction for which the successor of its lowest-labeled arc is the
  smaller of the two candidates.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "PlanarDiagram",
    "BraidWord",
    "DiagramError",
    "parse_pd",
    "parse_braid",
    "braid_closure",
    "plat_closure",
    "mirror",
    "resolve_crossing",
    "smoothing_circles",
    "unknot_diagram",
    "faces",
    "euler_check",
    "FORMAT_TAG",
]

FORMAT_TAG = "kf-1"

Crossing = Tuple[int, int, int, int]
Dart = Tuple[int, int]  # (crossing index, slot)


class DiagramError(ValueError):
    pass


def _rot(t: Crossing, k: int) -> Crossing:
    return (t[k % 4], t[(k + 1) % 4], t[(k + 2) % 4], t[(k + 3) % 4])


@dataclass(frozen=True)
class PlanarDiagram:
    """A closed link diagram: crossings plus crossing-free loops.

    ``crossings`` are normalized at construction so every stored tuple has its
    under-strand entering at slot 0 with respect to the chosen component
    orientations.  ``free_loops`` counts crossingless unknot components.
    """

    crossings: Tuple[Crossing, ...]
    free_loops: int = 0
    basepoint: Optional[int] = None
    name: str = ""

    def __post_init__(self):
        crossings = tuple(tuple(int(x) for x in c) for c in self.crossings)
        if any(len(c) != 4 for c in crossings):
            raise DiagramError("each crossing needs exactly 4 arc labels")
        occ: Dict[int, List[Dart]] = {}
        for ci, c in enumerate(crossings):
            for s, a in enumerate(c):
                occ.setdefault(a, []).append((ci, s))
        for a, ends in occ.items():
            if len(ends) != 2:
                raise DiagramError(
                    f"arc {a} appears {len(ends)} times; closed diagrams need exactly 2"
                )
        if self.free_loops < 0:
            raise DiagramError("free_loops must be >= 0")
        comps, flips, over_db = _orient(crossings, occ)
        if flips:
            crossings = tuple(
                _rot(c, 2) if i in flips else c for i, c in enumerate(crossings)
            )
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "_components", comps)
        object.__setattr__(self, "_over_db", over_db)
        if self.basepoint is not None and self.basepoint not in occ:
            raise DiagramError(f"basepoint {self.basepoint} is not an arc")

    # -- derived structure -------------------------------------------------

    @property
    def arcs(self) -> Tuple[int, ...]:
        return tuple(sorted({a for c in self.crossings for a in c}))

    @property
    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """Arc cycles, one per component, in traversal order."""
        return self._components  # type: ignore[attr-defined]

    @property
    def n_components(self) -> int:
        return len(self.components) + self.free_loops

    @property
    def signs(self) -> Tuple[int, ...]:
        """+1 where the over-strand runs d->b, -1 where it runs b->d."""
        return tuple(1 if db else -1 for db in self._over_db)  # type: ignore[attr-defined]

    @property
    def n_plus(self) -> int:
        return sum(1 for s in self.signs if s > 0)

    @property
    def n_minus(self) -> int:
        return sum(1 for s in self.signs if s < 0)

    @property
    def writhe(self) -> int:
        return self.n_plus - self.n_minus

    def default_basepoint(self) -> Optional[int]:
        if self.basepoint is not None:
            return self.basepoint
        arcs = self.arcs
        return arcs[0] if arcs else None

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "format": FORMAT_TAG,
            "name": self.name,
            "pd": [list(c) for c in self.crossings],
        }
        if self.free_loops:
            out["free_loops"] = self.free_loops
        if self.basepoint is not None:
            out["basepoint"] = self.basepoint
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _walk(start_arc: int, occ, crossings, end_choice: int):
    """Traverse the component of ``start_arc``.

    Returns ``(cycle, entries)``: the arcs in traversal order and the entry
    darts, one per crossing passage.  ``end_choice`` (0 or 1) selects which
    end of ``start_arc`` the walk heads toward first, i.e. the direction.
    """
    cycle: List[int] = []
    entries: List[Dart] = []
    arc = start_arc
    target = occ[start_arc][end_choice]
    start_state = (arc, target)
    while True:
        cycle.append(arc)
        entries.append(target)
        ci, s = target
        exit_slot = (s + 2) % 4
        arc = crossings[ci][exit_slot]
        e0, e1 = occ[arc]
        target = e1 if e0 == (ci, exit_slot) else e0
        if (arc, target) == start_state:
            break
    return cycle, entries


def _orient(crossings, occ):
    """Orient components by the lowest-arc rule.

    Returns ``(components, flips, over_db)`` where ``flips`` is the set of
    crossings traversed against their stored under-direction (to be rotated
    by 2) and ``over_db`` says, per *normalized* crossing, whether the
    over-strand runs d->b.
    """
    if not crossings:
        return (), set(), ()
    comps = []
    arc_done = set()
    flips = set()
    over_slot: Dict[int, int] = {}
    for start in sorted(occ):
        if start in arc_done:
            continue
        c0, e0 = _walk(start, occ, crossings, 0)
        c1, e1 = _walk(start, occ, crossings, 1)
        lo = min(c0)
        succ0 = c0[(c0.index(lo) + 1) % len(c0)]
        succ1 = c1[(c1.index(lo) + 1) % len(c1)]
        cycle, entries = (c0, e0) if succ0 <= succ1 else (c1, e1)
        comps.append(tuple(cycle))
        arc_done.update(cycle)
        for ci, s in entries:
            if s == 2:
                flips.add(ci)
            elif s in (1, 3):
                over_slot[ci] = s
    over_db = tuple(
        (over_slot[ci] == 3) != (ci in flips) for ci in range(len(crossings))
    )
    return tuple(comps), flips, over_db


# ---------------------------------------------------------------------------
# Braids


@dataclass(frozen=True)
class BraidWord:
    strands: int
    word: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(int(w) for w in self.word))
        if self.strands < 1:
            raise DiagramError("braid needs at least one strand")
        for w in self.word:
            if w == 0 or abs(w) >= self.strands:
                raise DiagramError(f"letter {w} out of range for {self.strands} strands")

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-w for w in reversed(self.word)))

    def permutation(self) -> Tuple[int, ...]:
        """0-indexed map: bottom endpoint i ends at position permutation()[i]."""
        pos = list(range(self.strands))  # pos[p] = bottom strand currently at p
        for w in self.word:
            i = abs(w) - 1
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        out = [0] * self.strands
        for p, b in enumerate(pos):
            out[b] = p
        return tuple(out)

    def n_closure_components(self) -> int:
        perm = self.permutation()
        seen = [False] * self.strands
        n = 0
        for i in range(self.strands):
            if not seen[i]:
                n += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        return n

    def to_json_dict(self) -> dict:
        return {"format": FORMAT_TAG, "strands": self.strands, "word": list(self.word)}


_GROUP_RE = re.compile(r"\(([^()]*)\)\s*\^\s*(-?\d+)")


def parse_braid(src) -> BraidWord:
    """Parse braid JSON or the compact string form ``(2,1,3,2)^3,1,2,3,3,2``."""
    if isinstance(src, dict):
        return BraidWord(int(src["strands"]), tuple(int(w) for w in src["word"]))
    text = src.strip()
    if text.startswith("{"):
        return parse_braid(json.loads(text))

    def expand(m: re.Match) -> str:
        inner = [int(t) for t in m.group(1).split(",") if t.strip()]
        k = int(m.group(2))
        if k < 0:
            inner = [-x for x in reversed(inner)]
            k = -k
        return ",".join(str(x) for x in inner * k)

    prev = None
    while prev != text:
        prev = text
        text = _GROUP_RE.sub(expand, text)
    letters = tuple(int(t) for t in text.split(",") if t.strip())
    strands = max((abs(w) for w in letters), default=0) + 1
    return BraidWord(max(strands, 1), letters)


def _emit_crossing(left_in, right_in, left_out, right_out, positive) -> Crossing:
    """PD tuple for two upward strands crossing (left passes over iff positive)."""
    if positive:
        return (right_in, left_out, right_out, left_in)
    return (left_in, right_in, left_out, right_out)


class _Sweep:
    """Incremental PD builder for diagrams swept upward by parallel wires."""

    def __init__(self):
        self.crossings: List[Crossing] = []
        self.next_arc = 1
        self.uf: Dict[int, int] = {}
        self.loops = 0

    def fresh(self) -> int:
        a = self.next_arc
        self.next_arc += 1
        self.uf[a] = a
        return a

    def find(self, x: int) -> int:
        r = x
        while self.uf[r] != r:
            r = self.uf[r]
        while self.uf[x] != r:
            self.uf[x], x = r, self.uf[x]
        return r

    def glue(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            self.loops += 1
        else:
            self.uf[max(rx, ry)] = min(rx, ry)

    def crossing(self, left_arc: int, right_arc: int, positive: bool):
        """Cross two adjacent wires; returns their outgoing arcs (left, right).

        The wires swap: the returned left arc continues the former right wire.
        """
        lo, ro = self.fresh(), self.fresh()
        self.crossings.append(_emit_crossing(left_arc, right_arc, lo, ro, positive))
        return ro, lo

    def finish(self, name="", basepoint_raw=None, extra_loops=0) -> PlanarDiagram:
        table: Dict[int, int] = {}

        def label(a: int) -> int:
            r = self.find(a)
            if r not in table:
                table[r] = len(table) + 1
            return table[r]

        out = tuple(tuple(label(a) for a in c) for c in self.crossings)
        bp = None
        if basepoint_raw is not None:
            bp = table.get(self.find(basepoint_raw))
        return PlanarDiagram(
            out, free_loops=self.loops + extra_loops, basepoint=bp, name=name
        )


def braid_closure(braid: BraidWord, name: str = "") -> PlanarDiagram:
    """Trace closure.  Basepoint = the arc entering the braid at position 1."""
    sw = _Sweep()
    bottom = [sw.fresh() for _ in range(braid.strands)]
    cur = list(bottom)
    for w in braid.word:
        i = abs(w) - 1
        cur[i], cur[i + 1] = sw.crossing(cur[i], cur[i + 1], w > 0)
    for i in range(braid.strands):
        sw.glue(cur[i], bottom[i])
    if not sw.crossings:
        return unknot_diagram(sw.loops, name=name)
    return sw.finish(name=name, basepoint_raw=bottom[0])


def plat_closure(
    strands: int,
    word: Sequence[int],
    caps_top: Sequence[Tuple[int, int]],
    caps_bottom: Sequence[Tuple[int, int]],
    name: str = "",
) -> PlanarDiagram:
    """Plat closure of a braid word (positions are 1-indexed in the caps)."""
    if strands % 2:
        raise DiagramError("plat closure needs an even number of strands")
    for caps in (caps_top, caps_bottom):
        seen = sorted(p for pair in caps for p in pair)
        if seen != list(range(1, strands + 1)):
            raise DiagramError(f"caps {caps} are not a perfect matching of 1..{strands}")
    sw = _Sweep()
    cur: List[int] = [0] * strands
    for p, q in caps_bottom:
        a = sw.fresh()
        cur[p - 1] = a
        cur[q - 1] = a
    for w in word:
        if w == 0 or abs(w) >= strands:
            raise DiagramError(f"letter {w} out of range")
        i = abs(w) - 1
        cur[i], cur[i + 1] = sw.crossing(cur[i], cur[i + 1], w > 0)
    for p, q in caps_top:
        sw.glue(cur[p - 1], cur[q - 1])
    if not sw.crossings:
        return unknot_diagram(sw.loops, name=name)
    return sw.finish(name=name)


def unknot_diagram(n_components: int = 1, name: str = "") -> PlanarDiagram:
    """The dedicated crossingless representation of an unlink."""
    if n_components < 1:
        raise DiagramError("need at least one component")
    default = "unknot" if n_components == 1 else f"unlink{n_components}"
    return PlanarDiagram((), free_loops=n_components, name=name or default)


# ---------------------------------------------------------------------------
# Operations


def parse_pd(src) -> PlanarDiagram:
    """Parse PD JSON (dict or string) into a PlanarDiagram.

    Raises DiagramError on a code that no planar diagram has.
    """
    if isinstance(src, str):
        src = json.loads(src)
    if not isinstance(src, dict):
        raise DiagramError("PD input must be a JSON object")
    d = PlanarDiagram(
        tuple(tuple(int(x) for x in c) for c in src.get("pd", [])),
        free_loops=int(src.get("free_loops", 0)),
        basepoint=src.get("basepoint"),
        name=src.get("name", ""),
    )
    if not euler_check(d):
        raise DiagramError("PD code is not planar: its faces fail the Euler characteristic check")
    return d


def mirror(d: PlanarDiagram) -> PlanarDiagram:
    """Switch every crossing.  Involutive up to tuple normalization."""
    out = []
    for c, db in zip(d.crossings, d._over_db):  # type: ignore[attr-defined]
        # New under-strand = old over-strand, keeping its direction; the new
        # tuple starts at the old over-strand's incoming arc.
        out.append(_rot(c, 3) if db else _rot(c, 1))
    if d.name:
        nm = d.name[:-1] if d.name.endswith("*") else d.name + "*"
    else:
        nm = ""
    return PlanarDiagram(
        tuple(out), free_loops=d.free_loops, basepoint=d.basepoint, name=nm
    )


def resolve_crossing(d: PlanarDiagram, index: int, kind: int) -> PlanarDiagram:
    """Replace crossing ``index`` by its 0- or 1-smoothing."""
    if kind not in (0, 1):
        raise DiagramError("smoothing kind must be 0 or 1")
    a, b, c, dd = d.crossings[index]
    pairs = ((a, b), (c, dd)) if kind == 0 else ((a, dd), (b, c))
    uf = {x: x for cr in d.crossings for x in cr}

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    loops = d.free_loops
    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx == ry:
            loops += 1
        else:
            uf[max(rx, ry)] = min(rx, ry)
    rest = tuple(
        tuple(find(x) for x in cr) for i, cr in enumerate(d.crossings) if i != index
    )
    bp = d.basepoint
    if bp is not None:
        bp = find(bp)
        if not any(bp in cr for cr in rest):
            bp = None
    return PlanarDiagram(rest, free_loops=loops, basepoint=bp, name=d.name)


def smoothing_circles(d: PlanarDiagram, v: Sequence[int]):
    """Circles of the full smoothing ``v`` (one bit per crossing).

    Returns ``(n_circles, assignment)`` where ``assignment`` maps each arc to
    a circle index; circles are numbered by their smallest contained arc,
    crossing-free loops appended after.
    """
    if len(v) != len(d.crossings):
        raise DiagramError("smoothing vector length must equal crossing count")
    uf = {a: a for a in d.arcs}

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            uf[max(rx, ry)] = min(rx, ry)

    for bit, (a, b, c, dd) in zip(v, d.crossings):
        if bit == 0:
            union(a, b)
            union(c, dd)
        else:
            union(a, dd)
            union(b, c)
    reps = sorted({find(a) for a in d.arcs})
    index = {r: i for i, r in enumerate(reps)}
    assignment = {a: index[find(a)] for a in d.arcs}
    return len(reps) + d.free_loops, assignment


# ---------------------------------------------------------------------------
# Faces (used for Goeritz forms and planarity checks)


def faces(d: PlanarDiagram) -> List[List[Dart]]:
    """Faces as dart cycles; dart = (crossing, slot).

    A face is an orbit of "jump to the arc's other end, then turn one slot
    counterclockwise".  For planar diagram data, V - E + F = 2 per connected
    piece of the underlying 4-valent graph.
    """
    occ: Dict[int, List[Dart]] = {}
    for ci, c in enumerate(d.crossings):
        for s, a in enumerate(c):
            occ.setdefault(a, []).append((ci, s))
    other: Dict[Dart, Dart] = {}
    for ends in occ.values():
        other[ends[0]] = ends[1]
        other[ends[1]] = ends[0]
    out = []
    seen = set()
    for ci in range(len(d.crossings)):
        for s in range(4):
            start = (ci, s)
            if start in seen:
                continue
            face = []
            cur = start
            while cur not in seen:
                seen.add(cur)
                face.append(cur)
                cj, t = other[cur]
                cur = (cj, (t + 1) % 4)
            out.append(face)
    return out


def euler_check(d: PlanarDiagram) -> bool:
    """Euler-characteristic planarity test of the stored combinatorics."""
    if not d.crossings:
        return True
    v = len(d.crossings)
    e = 2 * v
    f = len(faces(d))
    return v - e + f == 2 * _graph_components(d)


def _graph_components(d: PlanarDiagram) -> int:
    parent = list(range(len(d.crossings)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    occ: Dict[int, List[int]] = {}
    for ci, c in enumerate(d.crossings):
        for a in c:
            occ.setdefault(a, []).append(ci)
    for cs in occ.values():
        for other_c in cs[1:]:
            rx, ry = find(cs[0]), find(other_c)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
    return len({find(i) for i in range(len(d.crossings))})
