"""Local-rewriting Khovanov engine that sweeps a diagram one event at a time.

Instead of materializing the full resolution cube (2^n vertices), the diagram
is swept bottom to top as a word of elementary events: ``cap`` (a strand pair
is born), ``cross`` (a crossing on two adjacent strands), ``cup`` (two
adjacent strands join).  The partial chain complex lives over crossingless
matchings of the sweep frontier.  Circles are removed the moment they close,
splitting an object into two graded copies, and invertible differential
entries are cancelled immediately, so for braid-like diagrams the complex
stays near the size of its homology.

Morphisms are stored as GF(2) sums of dotted product cobordisms: one disk per
circle of the source/target overlay, each carrying at most one dot.  A
differential entry is one int, a bitset over the dot masks of its terms, so
adding entries is an XOR.  Gluing two such morphisms is Euler-characteristic
bookkeeping plus the usual local evaluation (a sphere needs exactly one dot,
two dots or any genus kill a term, an undotted connected piece neck-cuts
into a sum over its boundary circles).

The gluing itself depends only on the matchings involved, so each glued
"structure" is built once and cached, and each structure memoizes its
evaluations by one packed int key (its loop, f-circle and g-circle dots).
Sweeps of unrelated diagrams meet the same small matchings over and over:
over a long run of 11-25 crossing diagrams about 99.8% of evaluations are
memo hits.  The structure caches and their memos share one entry bound,
``CACHE_BOUND``, and are cleared together when they outgrow it, so a
long-lived process keeps bounded memory.

The sweep computes the unreduced theory; reduced groups are recovered at the
end by dividing off the free rank-two circle factor, which is an exact
operation over GF(2).

A tangle template is swept by ``template_word``, which stops with the
hole's four ends on the frontier.  The complex there is the template's
four-ended tangle complex: each integer fill continues it with one twist
crossing per half-twist and closes it with two cups, so a whole twist family
shares one sweep of the template (``kappa._TwistFamily``).
"""
from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .diagram import DiagramError, PlanarDiagram
from .khovanov import DEFAULT_MAX_GENERATORS, BudgetError, _tensor_unknot_factors
from .tangles import TangleTemplate, fill

Matching = Tuple[int, ...]
Event = Tuple


# ---------------------------------------------------------------------------
# matchings


def _insert_pair(m: Matching, i: int) -> Matching:
    """Insert a newly matched pair at positions i, i+1."""
    w = len(m)
    out = [0] * (w + 2)
    for p in range(w):
        np = p + 2 if p >= i else p
        nq = m[p] + 2 if m[p] >= i else m[p]
        out[np] = nq
    out[i], out[i + 1] = i + 1, i
    return tuple(out)


def _join(m: Matching, i: int) -> Tuple[Matching, bool]:
    """Join the strands at i, i+1; returns (matching, closed_a_circle)."""
    j = i + 1
    pi, pj = m[i], m[j]
    closed = pi == j

    def newpos(p: int) -> int:
        return p - (1 if p > i else 0) - (1 if p > j else 0)

    out = [0] * (len(m) - 2)
    for p in range(len(m)):
        if p in (i, j) or m[p] in (i, j) or p > m[p]:
            continue
        a, b = newpos(p), newpos(m[p])
        out[a], out[b] = b, a
    if not closed:
        a, b = newpos(pi), newpos(pj)
        out[a], out[b] = b, a
    return tuple(out), closed


def _apply_pairing(m: Matching, i: int, pairing: str) -> Tuple[Matching, bool]:
    """Resolve a crossing site: 'v' keeps strands parallel, 'h' is cup+cap."""
    if pairing == "v":
        return m, False
    joined, closed = _join(m, i)
    return _insert_pair(joined, i), closed


def _is_noncrossing(m: Matching) -> bool:
    stack: List[int] = []
    for p, q in enumerate(m):
        if q > p:
            stack.append(q)
        else:
            if not stack or stack[-1] != p:
                return False
            stack.pop()
    return True


def _overlay(ms: Matching, mt: Matching) -> List[Tuple[int, ...]]:
    """Circles of the union of two matchings on the same points."""
    w = len(ms)
    seen = [False] * w
    circles = []
    for start in range(w):
        if seen[start]:
            continue
        comp = []
        p = start
        while True:
            comp.append(p)
            seen[p] = True
            q = ms[p]
            if not seen[q]:
                comp.append(q)
                seen[q] = True
            p = mt[q]
            if p == start:
                break
        circles.append(tuple(sorted(comp)))
    circles.sort(key=lambda c: c[0])
    return circles


def _point_to_circle(circles: Sequence[Tuple[int, ...]]) -> Dict[int, int]:
    out = {}
    for idx, c in enumerate(circles):
        for p in c:
            out[p] = idx
    return out


# ---------------------------------------------------------------------------
# cobordism gluing: pieces, Euler characteristic, local evaluation

# A "structure" is the mask-independent part of a glued cobordism.  Which
# dots it carries is one int ``key``: bit 0 dots the source loop, bit 1 the
# target loop, bits 2.. the f-circles and the bits above those the
# g-circles.  Its components are stored flat, as (dot bits, final-circle
# bits) pairs over that packing.  Evaluating a key applies the local
# relations and gives the surviving terms as an int bitset over the
# final-circle dot masks (bit m set: the term with dot mask m).

_SRC_LOOP, _TGT_LOOP = 1, 2
_MASK_SHIFT = 2  # the f-circle bits start above the two loop bits

# a lone sphere that no dot can reach: evaluates to 0 under every key
_VANISHES = (0, 0)


class _Gluer:
    def __init__(self) -> None:
        self.parent: List[int] = []
        self.chi: List[int] = []
        self.dots: List[int] = []  # per piece: the key bit that dots it, or 0

    def piece(self, dot: int = 0) -> int:
        i = len(self.parent)
        self.parent.append(i)
        self.chi.append(1)
        self.dots.append(dot)
        return i

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def glue(self, a: int, b: int, interval: bool = True) -> None:
        ra, rb = self.find(a), self.find(b)
        drop = 1 if interval else 0
        if ra == rb:
            self.chi[ra] -= drop
        else:
            self.parent[rb] = ra
            self.chi[ra] = self.chi[ra] + self.chi[rb] - drop

    def components(self, circle_piece: Sequence[int]) -> Tuple[int, ...]:
        """Flat (dot bits, final-circle bits) per component, in root order."""
        dots: Dict[int, int] = {}
        for p in range(len(self.parent)):
            root = self.find(p)
            dots[root] = dots.get(root, 0) | self.dots[p]
        bounds: Dict[int, int] = {}
        for ci, piece in enumerate(circle_piece):
            root = self.find(piece)
            bounds[root] = bounds.get(root, 0) | (1 << ci)
        comps: List[int] = []
        for root in sorted(dots):
            bbits = bounds.get(root, 0)
            handles = 2 - self.chi[root] - bbits.bit_count()
            if handles < 0 or handles % 2:
                raise AssertionError("inconsistent surface bookkeeping")
            if handles:
                return _VANISHES  # positive genus kills every term
            comps += (dots[root], bbits)
        return tuple(comps)


def _evaluate(comps: Tuple[int, ...], key: int) -> int:
    """Terms of the glued cobordism dotted by ``key``, as a mask bitset.

    This is the direct evaluation; the sweep reaches it through
    ``_Structure.memo``, so each (structure, key) is evaluated once.
    """
    masks = [0]
    for j in range(0, len(comps), 2):
        dbits, bbits = comps[j], comps[j + 1]
        dots = (key & dbits).bit_count()
        if dots >= 2:
            return 0
        if not bbits:
            if dots == 1:
                continue  # a once-dotted sphere evaluates to 1
            return 0
        if dots == 1:
            masks = [m | bbits for m in masks]
        else:
            # neck-cut: one term per boundary circle left undotted
            bits = [c for c in range(bbits.bit_length()) if bbits >> c & 1]
            masks = [m | (bbits & ~(1 << c)) for m in masks for c in bits]
    out = 0
    for m in masks:
        out |= 1 << m
    return out


class _Structure:
    """Components of a glued cobordism and the memo of its evaluations.

    ``gshift`` is where the g-circle bits start in a key (composites only).
    """

    __slots__ = ("comps", "gshift", "memo")

    def __init__(self, comps: Tuple[int, ...], gshift: int = 0) -> None:
        self.comps = comps
        self.gshift = gshift
        self.memo: Dict[int, int] = {}


# Structure caches, keyed by the matchings involved.  They and the memos of
# the structures they hold share one entry bound (about 150 bytes an entry).
# They live as long as they fit, since later diagrams reuse the structures
# of earlier ones, and are cleared all at once when they outgrow it.  The
# bound holds a whole T1 or T2 family (about 93k and 111k entries) and a
# 36 s run of 11-25 crossing diagrams (about 51k).
CACHE_BOUND = 1 << 17
_COMPOSE_CACHE: Dict[Tuple, _Structure] = {}
_LIFT_CACHE: Dict[Tuple, _Structure] = {}
_SADDLE_CACHE: Dict[Tuple, _Structure] = {}
_entries = 0  # structures plus memo entries added since the last clear


def _clear_caches() -> None:
    """Empty the structure caches and, with them, every memo.

    Safe in the middle of an event: a structure the sweep still holds keeps
    its own memo, and only the caches forget it.
    """
    global _entries
    _COMPOSE_CACHE.clear()
    _LIFT_CACHE.clear()
    _SADDLE_CACHE.clear()
    _entries = 0


def _count_entry() -> None:
    global _entries
    _entries += 1
    if _entries > CACHE_BOUND:
        _clear_caches()


def _store(cache: Dict[Tuple, _Structure], key: Tuple, st: _Structure) -> _Structure:
    cache[key] = st
    _count_entry()
    return st


def _apply(st: _Structure, masks: int, low: int) -> int:
    """Sum of the structure's terms over the dot masks in bitset ``masks``.

    Mask m is evaluated at key ``m << _MASK_SHIFT | low``, where ``low``
    carries the loop dots or a composite's g-circle dots.
    """
    memo = st.memo
    acc = 0
    while masks:
        bit = masks & -masks
        masks ^= bit
        key = (bit.bit_length() - 1) << _MASK_SHIFT | low
        res = memo.get(key)
        if res is None:
            res = memo[key] = _evaluate(st.comps, key)
            _count_entry()
        acc ^= res
    return acc


def _compose_structure(mx: Matching, mmid: Matching, my: Matching) -> _Structure:
    key = (mx, mmid, my)
    hit = _COMPOSE_CACHE.get(key)
    if hit is not None:
        return hit
    fcircles = _overlay(mx, mmid)
    gcircles = _overlay(mmid, my)
    fof = _point_to_circle(fcircles)
    gof = _point_to_circle(gcircles)
    gshift = _MASK_SHIFT + len(fcircles)
    gl = _Gluer()
    fp = [gl.piece(1 << (_MASK_SHIFT + i)) for i in range(len(fcircles))]
    gp = [gl.piece(1 << (gshift + i)) for i in range(len(gcircles))]
    for p in range(len(mmid)):
        if p < mmid[p]:
            gl.glue(fp[fof[p]], gp[gof[p]])
    final = _overlay(mx, my)
    comps = gl.components([fp[fof[c[0]]] for c in final])
    return _store(_COMPOSE_CACHE, key, _Structure(comps, gshift))


def _lift_structure(kind: str, i: int, pairing: Optional[str], ma: Matching, mb: Matching) -> _Structure:
    """Structure for an existing edge carried through one event."""
    key = (kind, i, pairing, ma, mb)
    hit = _LIFT_CACHE.get(key)
    if hit is not None:
        return hit
    fcircles = _overlay(ma, mb)
    fof = _point_to_circle(fcircles)
    gl = _Gluer()
    fp = [gl.piece(1 << (_MASK_SHIFT + ci)) for ci in range(len(fcircles))]

    if kind == "cap":
        sheet = gl.piece()
        child_a, child_b = _insert_pair(ma, i), _insert_pair(mb, i)

        def piece_at(p: int) -> int:
            if p in (i, i + 1):
                return sheet
            return fp[fof[p - 2 if p > i + 1 else p]]

    elif kind == "cup":
        sheet = gl.piece()
        gl.glue(sheet, fp[fof[i]])
        gl.glue(sheet, fp[fof[i + 1]])
        child_a, src_loop = _join(ma, i)
        child_b, tgt_loop = _join(mb, i)
        if src_loop:
            gl.glue(gl.piece(_SRC_LOOP), sheet, interval=False)
        if tgt_loop:
            gl.glue(gl.piece(_TGT_LOOP), sheet, interval=False)

        def piece_at(p: int) -> int:
            return fp[fof[p + 2 if p >= i else p]]

    elif kind == "cross" and pairing == "v":
        left = gl.piece()
        right = gl.piece()
        gl.glue(left, fp[fof[i]])
        gl.glue(right, fp[fof[i + 1]])
        child_a, child_b = ma, mb

        def piece_at(p: int) -> int:
            if p == i:
                return left
            if p == i + 1:
                return right
            return fp[fof[p]]

    elif kind == "cross" and pairing == "h":
        cup = gl.piece()
        cap = gl.piece()
        gl.glue(cup, fp[fof[i]])
        gl.glue(cup, fp[fof[i + 1]])
        child_a, src_loop = _apply_pairing(ma, i, "h")
        child_b, tgt_loop = _apply_pairing(mb, i, "h")
        if src_loop:
            gl.glue(gl.piece(_SRC_LOOP), cup, interval=False)
        if tgt_loop:
            gl.glue(gl.piece(_TGT_LOOP), cup, interval=False)

        def piece_at(p: int) -> int:
            if p in (i, i + 1):
                return cap
            return fp[fof[p]]

    else:  # pragma: no cover
        raise ValueError(kind)

    final = _overlay(child_a, child_b)
    comps = gl.components([piece_at(c[0]) for c in final])
    return _store(_LIFT_CACHE, key, _Structure(comps))


def _saddle_structure(m: Matching, i: int, pairing0: str, pairing1: str) -> _Structure:
    """Structure of the new differential entry created by a crossing event."""
    key = (m, i, pairing0)
    hit = _SADDLE_CACHE.get(key)
    if hit is not None:
        return hit
    arcs = [(p, m[p]) for p in range(len(m)) if p < m[p]]
    arc_at = {}
    for idx, (p, q) in enumerate(arcs):
        arc_at[p] = idx
        arc_at[q] = idx
    gl = _Gluer()
    sheets = [gl.piece() for _ in arcs]
    saddle = gl.piece()
    gl.glue(saddle, sheets[arc_at[i]])
    gl.glue(saddle, sheets[arc_at[i + 1]])
    child0, src_loop = _apply_pairing(m, i, pairing0)
    child1, tgt_loop = _apply_pairing(m, i, pairing1)
    if src_loop:
        gl.glue(gl.piece(_SRC_LOOP), saddle, interval=False)
    if tgt_loop:
        gl.glue(gl.piece(_TGT_LOOP), saddle, interval=False)
    final = _overlay(child0, child1)

    def piece_at(p: int) -> int:
        if p in (i, i + 1):
            return saddle
        return sheets[arc_at[p]]

    comps = gl.components([piece_at(c[0]) for c in final])
    return _store(_SADDLE_CACHE, key, _Structure(comps))


# ---------------------------------------------------------------------------
# the sweeping complex


def _loop_dots(eps_src: int, eps_tgt: int) -> int:
    """Loop bits of a key, from the graded copies at the two ends of an entry.

    A copy split off a closed loop has eps = +-1 (eps = 0 when no loop
    closed).  A loop reborn from the q-1 copy enters through a dotted cup;
    projecting onto the q+1 copy caps the loop with a dotted disk.
    """
    return (_SRC_LOOP if eps_src < 0 else 0) | (_TGT_LOOP if eps_tgt > 0 else 0)


class _ScanComplex:
    def __init__(self, max_objects: int) -> None:
        self.obj: Dict[int, Tuple[Matching, int, int]] = {0: ((), 0, 0)}
        # differential: out[a][b] is the bitset of the dot masks of entry a -> b
        self.out: Dict[int, Dict[int, int]] = {}
        self.in_: Dict[int, Set[int]] = {}
        self.next_id = 1
        self.max_objects = max_objects

    def copy(self) -> "_ScanComplex":
        """An independent complex with the same objects and differential."""
        cx = _ScanComplex(self.max_objects)
        cx.obj = dict(self.obj)
        cx.out = {a: dict(row) for a, row in self.out.items()}
        cx.in_ = {b: set(srcs) for b, srcs in self.in_.items()}
        cx.next_id = self.next_id
        return cx

    # -- plumbing

    def _new_obj(self, m: Matching, h: int, q: int) -> int:
        oid = self.next_id
        self.next_id += 1
        self.obj[oid] = (m, h, q)
        return oid

    def _xor_edge(self, a: int, b: int, masks: int) -> None:
        if not masks:
            return
        row = self.out.setdefault(a, {})
        cur = row.get(b)
        if cur is None:
            row[b] = masks
            self.in_.setdefault(b, set()).add(a)
        elif cur == masks:
            del row[b]
            self.in_[b].discard(a)
        else:
            row[b] = cur ^ masks

    def _drop(self, o: int) -> None:
        for b in list(self.out.get(o, ())):
            self.in_[b].discard(o)
        self.out.pop(o, None)
        for a in list(self.in_.get(o, ())):
            self.out[a].pop(o, None)
        self.in_.pop(o, None)
        del self.obj[o]

    # -- events

    def apply(self, ev: Event) -> None:
        kind = ev[0]
        if kind == "cross":
            self._apply_cross(ev[1], ev[2])
        elif kind in ("cap", "cup"):
            self._apply_simple(kind, ev[1])
        else:  # pragma: no cover
            raise ValueError(f"unknown event {ev!r}")
        if len(self.obj) > self.max_objects:
            raise BudgetError(
                f"scan frontier grew past {self.max_objects} objects; "
                "raise max_generators to proceed"
            )
        self._eliminate()

    def _children(
        self, obj: Tuple[Matching, int, int], kind: str, i: int, pairing: Optional[str], dh: int, dq: int
    ):
        m, h, q = obj
        if kind == "cap":
            child, loop = _insert_pair(m, i), False
        elif kind == "cup":
            child, loop = _join(m, i)
        else:
            child, loop = _apply_pairing(m, i, pairing)
        if not loop:
            return [(self._new_obj(child, h + dh, q + dq), 0)]
        return [
            (self._new_obj(child, h + dh, q + dq + eps), eps)
            for eps in (1, -1)
        ]

    def _apply_simple(self, kind: str, i: int) -> None:
        old_obj = self.obj
        old_out = self.out
        self.obj, self.out, self.in_ = {}, {}, {}
        kids: Dict[int, List[Tuple[int, int]]] = {
            oid: self._children(old_obj[oid], kind, i, None, 0, 0) for oid in sorted(old_obj)
        }
        for a in sorted(old_out):
            ma = old_obj[a][0]
            for b in sorted(old_out[a]):
                masks = old_out[a][b]
                st = _lift_structure(kind, i, None, ma, old_obj[b][0])
                for na, epsa in kids[a]:
                    for nb, epsb in kids[b]:
                        self._xor_edge(na, nb, _apply(st, masks, _loop_dots(epsa, epsb)))

    def _apply_cross(self, i: int, pos_type: bool) -> None:
        p0, p1 = ("v", "h") if pos_type else ("h", "v")
        old_obj = self.obj
        old_out = self.out
        self.obj, self.out, self.in_ = {}, {}, {}
        kids: Dict[int, List[List[Tuple[int, int]]]] = {
            oid: [
                self._children(old_obj[oid], "cross", i, p0, 0, 0),
                self._children(old_obj[oid], "cross", i, p1, 1, 1),
            ]
            for oid in sorted(old_obj)
        }
        # saddle entries: one undotted term, the mask bitset {0}
        for oid in sorted(old_obj):
            st = _saddle_structure(old_obj[oid][0], i, p0, p1)
            for n0, eps0 in kids[oid][0]:
                for n1, eps1 in kids[oid][1]:
                    self._xor_edge(n0, n1, _apply(st, 1, _loop_dots(eps0, eps1)))
        # carried entries
        for a in sorted(old_out):
            ma = old_obj[a][0]
            for b in sorted(old_out[a]):
                masks = old_out[a][b]
                mb = old_obj[b][0]
                for r, pairing in ((0, p0), (1, p1)):
                    st = _lift_structure("cross", i, pairing, ma, mb)
                    for na, epsa in kids[a][r]:
                        for nb, epsb in kids[b][r]:
                            self._xor_edge(na, nb, _apply(st, masks, _loop_dots(epsa, epsb)))

    # -- cancellation

    def _is_identity(self, a: int, b: int, masks: int) -> bool:
        return bool(masks & 1) and self.obj[a][0] == self.obj[b][0]

    def _eliminate(self) -> None:
        stack = [
            (a, b)
            for a in sorted(self.out)
            for b in sorted(self.out[a])
            if self._is_identity(a, b, self.out[a][b])
        ]
        while stack:
            a, b = stack.pop()
            if a not in self.obj or b not in self.obj:
                continue
            masks = self.out.get(a, {}).get(b)
            if masks is None or not self._is_identity(a, b, masks):
                continue
            if masks != 1:
                raise AssertionError("identity entry with extra inhomogeneous terms")
            mmid = self.obj[a][0]
            ins = [(x, self.out[x][b]) for x in sorted(self.in_.get(b, ())) if x != a]
            outs = [(y, ms) for y, ms in sorted(self.out.get(a, {}).items()) if y != b]
            self._drop(a)
            self._drop(b)
            for x, bmasks in ins:
                mx = self.obj[x][0]
                for y, gmasks in outs:
                    st = _compose_structure(mx, mmid, self.obj[y][0])
                    acc = 0
                    while gmasks:
                        bit = gmasks & -gmasks
                        gmasks ^= bit
                        acc ^= _apply(st, bmasks, (bit.bit_length() - 1) << st.gshift)
                    if acc:
                        self._xor_edge(x, y, acc)
                        if self._is_identity(x, y, self.out[x].get(y, 0)):
                            stack.append((x, y))

    # -- output

    def table(self) -> Dict[Tuple[int, int], int]:
        if self.out:
            raise AssertionError("sweep finished with differentials left over")
        out: Dict[Tuple[int, int], int] = {}
        for m, h, q in self.obj.values():
            if m != ():
                raise AssertionError("sweep finished with open strands")
            out[(h, q)] = out.get((h, q), 0) + 1
        return out


def run_events(
    events: Sequence[Event],
    n_plus: int,
    n_minus: int,
    max_generators: int = DEFAULT_MAX_GENERATORS,
    free_loops: int = 0,
) -> Dict[Tuple[int, int], int]:
    """Sweep an event word; returns unreduced homology dims by (h, q)."""
    cx = _ScanComplex(max_generators)
    for ev in events:
        cx.apply(ev)
    return unreduced_dims(cx.table(), n_plus, n_minus, free_loops)


def unreduced_dims(
    raw: Dict[Tuple[int, int], int], n_plus: int, n_minus: int, free_loops: int = 0
) -> Dict[Tuple[int, int], int]:
    """Unreduced dims of a closed sweep, from ``_ScanComplex.table`` of its word.

    ``n_plus``/``n_minus`` are the diagram's crossing counts and
    ``free_loops`` its crossingless circles, which the word does not sweep.
    """
    entries = {
        (h - n_minus, q + n_plus - 2 * n_minus): dim
        for (h, q), dim in raw.items()
    }
    return _tensor_unknot_factors(entries, free_loops)


# ---------------------------------------------------------------------------
# compiling a planar diagram to an event word


_SWEEP_ATTEMPT_LIMIT = 300_000


def compile_events(d: PlanarDiagram) -> List[Event]:
    """Find a planar sweep of the diagram as a cap/cross/cup word.

    Crossings are attached to a growing frontier of open strand ends one at a
    time.  A crossing may consume two adjacent open ends, or one open end
    plus a freshly capped partner (the leftover cap end rejoins its strand at
    a later cup), and whenever two ends of the same arc become adjacent they
    are cupped off immediately.  The attachment order is found by depth-first
    search, preferring moves that keep the frontier narrow; any completed
    sweep realizes exactly the input diagram, so a wrong branch can only fail
    to close, never mislead.

    Raises DiagramError when no sweep is found (wildly tangled inputs); every
    diagram produced by the builders in this package compiles.
    """
    return _search_sweep(d)


def _search_sweep(
    d: PlanarDiagram, seeds: Optional[Sequence[Tuple]] = None, cap: Optional[int] = None
) -> List[Event]:
    """The depth-first sweep search of ``compile_events``.

    ``seeds`` replaces the candidates for the first crossing attached, and
    ``cap`` prunes every attachment whose events would make the frontier
    wider than ``cap`` strands.
    """
    n = len(d.crossings)
    if n == 0:
        return []
    all_done = (1 << n) - 1

    def attach(frontier: List[int], events: List[Event], cand: Tuple) -> Tuple[List[int], List[Event]]:
        ci, mode, p, k = cand
        arcs = d.crossings[ci]
        xk, xk1 = arcs[k], arcs[(k + 1) % 4]
        xk2, xk3 = arcs[(k + 2) % 4], arcs[(k + 3) % 4]
        f, ev = list(frontier), list(events)
        pos_type = k % 2 == 1
        if mode == 0:  # floating start: cap both inputs
            ev += [("cap", 0), ("cap", 1), ("cross", 0, pos_type)]
            f = [xk3, xk2, xk1, xk]
        elif mode == 1:  # both inputs already open and adjacent
            ev.append(("cross", p, pos_type))
            f[p : p + 2] = [xk3, xk2]
        elif mode == 2:  # left input open, cap the right one
            ev += [("cap", p + 1), ("cross", p, pos_type)]
            f[p : p + 1] = [xk3, xk2, xk1]
        else:  # right input open, cap the left one
            ev += [("cap", p), ("cross", p + 1, pos_type)]
            f[p : p + 1] = [xk, xk3, xk2]
        q = 0
        while q + 1 < len(f):
            if f[q] == f[q + 1]:
                ev.append(("cup", q))
                del f[q : q + 2]
                q = max(0, q - 1)
            else:
                q += 1
        return f, ev

    def candidates(frontier: List[int], done: int) -> List[Tuple]:
        if seeds is not None and not done:
            return list(seeds)
        out = []
        for ci in range(n):
            if done >> ci & 1:
                continue
            arcs = d.crossings[ci]
            if not frontier:
                out.extend((ci, 0, 0, k) for k in range(4))
                continue
            for k in range(4):
                xk, xk1 = arcs[k], arcs[(k + 1) % 4]
                for p, a in enumerate(frontier):
                    if a == xk and p + 1 < len(frontier) and frontier[p + 1] == xk1:
                        out.append((ci, 1, p, k))
                    if xk != xk1:
                        if a == xk:
                            out.append((ci, 2, p, k))
                        if a == xk1:
                            out.append((ci, 3, p, k))
        return out

    failed: Set[Tuple] = set()
    attempts = 0

    def search(frontier: List[int], events: List[Event], done: int) -> Optional[List[Event]]:
        nonlocal attempts
        if done == all_done:
            return events if not frontier else None
        key = (tuple(frontier), done)
        if key in failed:
            return None
        attempts += 1
        if attempts > _SWEEP_ATTEMPT_LIMIT:
            raise DiagramError("no planar sweep found (search budget exhausted)")
        scored = []
        for cand in candidates(frontier, done):
            if cap is not None and _attach_width(len(frontier), cand[1]) > cap:
                continue
            f2, ev2 = attach(frontier, events, cand)
            scored.append((len(f2), cand[0], cand[1], cand[2], cand[3], f2, ev2))
        # narrowest frontier first, then stored order: builders emit crossings
        # along the diagram spine, and sweeping in that order keeps the
        # intermediate complexes small (crossing a long cable sideways is
        # exponentially worse than walking along it)
        scored.sort(key=lambda t: t[:5])
        for _, ci, _, _, _, f2, ev2 in scored:
            res = search(f2, ev2, done | (1 << ci))
            if res is not None:
                return res
        failed.add(key)
        return None

    res = search([], [], 0)
    if res is None:
        raise DiagramError("no planar sweep found for this diagram")
    return res


def _attach_width(width: int, mode: int) -> int:
    """Widest frontier while a crossing is attached in ``mode`` (before cups)."""
    if mode == 0:
        return 4
    return width if mode == 1 else width + 2


def _widths(events: Sequence[Event], start: int = 0) -> List[int]:
    """Frontier width before each event, then after the last one."""
    out = [start]
    for ev in events:
        out.append(out[-1] + {"cap": 2, "cup": -2, "cross": 0}[ev[0]])
    return out


def peak_width(events: Sequence[Event]) -> int:
    """The widest frontier an event word sweeps through."""
    return max(_widths(events))


def _turn(events: Sequence[Event], start: int) -> List[Event]:
    """The same sweep turned through 180 degrees: run backwards, mirrored.

    ``start`` is the frontier width before ``events``; the turned word ends
    at that width.  A crossing keeps its type, since the half turn is a
    planar isotopy and maps each smoothing to itself.
    """
    widths = _widths(events, start)
    out: List[Event] = []
    for ev, w in zip(reversed(events), reversed(widths[:-1])):
        if ev[0] == "cap":
            out.append(("cup", w - ev[1]))
        elif ev[0] == "cup":
            out.append(("cap", w - 2 - ev[1]))
        else:
            out.append(("cross", w - 2 - ev[1], ev[2]))
    return out


# ---------------------------------------------------------------------------
# template words: a twist family from one sweep

# After ``template_word`` the frontier holds the hole's four ends, and the
# twist corridor of the fills runs between positions 2 and 3.  One more
# half-twist of sign s is the crossing ``TWIST[s]``; the cups ``CLOSE`` shut
# the hole with the identity tangle, and ``CLOSE_INF`` with the infinity
# tangle.  So the word of fill n is the template word, ``TWIST[sign(n)]``
# repeated |n| times, then ``CLOSE``.
TWIST = {1: ("cross", 2, True), -1: ("cross", 2, False)}
CLOSE = (("cup", 1), ("cup", 0))
CLOSE_INF = (("cup", 0), ("cup", 0))


def template_word(template: TangleTemplate) -> List[Event]:
    """Sweep of a template's crossings that stops at the hole's four ends.

    The search runs on fill 1 and attaches its one insert crossing first,
    in the rotation that puts the twist corridor at the pair the crossing
    consumes; turning that word through 180 degrees moves the insert
    crossing to the end, where it reads ``TWIST[1]`` then ``CLOSE``.

    A sweep that starts at the hole can wander through much wider frontiers
    than one that starts anywhere, and the sweep's cost grows steeply with
    the width.  So every attachment is capped, first at the peak width of
    ``compile_events`` on fill 1, and the cap widens two strands at a time
    only when no word fits under it.  On the short symmetric plat words
    (SymmetricPlat(3, w), len(w) <= 4) the cap widens for 20 of 1555, never
    past the peak of ``compile_events`` on fill 2.
    """
    d = fill(template, 1)
    insert = len(template.crossings)
    # rotations 1 and 3 consume one end of each strand of the corridor: the
    # insert crossing's arcs run (SE, NE, NW, SW) or, reoriented, (NW, SW,
    # SE, NE), and the corridor pairs NW with NE and SW with SE
    seeds = [(insert, 0, 0, 1), (insert, 0, 0, 3)]
    # a frontier never holds more than the 2n arcs, plus 2 while attaching
    for cap in range(peak_width(compile_events(d)), 2 * len(d.crossings) + 3, 2):
        try:
            word = _search_sweep(d, seeds=seeds, cap=cap)
        except DiagramError:
            continue
        # the word opens with the seed: cap 0, cap 1, ("cross", 0, True)
        return _turn(word[3:], 4)
    raise DiagramError(f"no sweep of {template.name!r} ends at its hole")


# ---------------------------------------------------------------------------
# public API


def divide_unit_circle(entries: Dict[Tuple[int, int], int]) -> Dict[Tuple[int, int], int]:
    """Invert tensoring with the rank-two circle factor (exact over GF(2))."""
    by_h: Dict[int, Dict[int, int]] = {}
    for (h, q), dim in entries.items():
        by_h.setdefault(h, {})[q] = dim
    out: Dict[Tuple[int, int], int] = {}
    for h, qd in by_h.items():
        qs = sorted(qd)
        if any((q - qs[0]) % 2 for q in qs):
            raise ArithmeticError("mixed q parity; not a circle multiple")
        prev = 0
        for q in range(qs[0], qs[-1] + 2, 2):
            r = qd.get(q, 0) - prev
            if r < 0:
                raise ArithmeticError("table is not divisible by the circle factor")
            if r:
                out[(h, q + 1)] = r
            prev = r
        if prev:
            raise ArithmeticError("nonzero remainder dividing by the circle factor")
    return out


def scan_unreduced_kh(
    d: PlanarDiagram, max_generators: int = DEFAULT_MAX_GENERATORS
) -> Dict[Tuple[int, int], int]:
    return run_events(compile_events(d), d.n_plus, d.n_minus, max_generators, d.free_loops)


def scan_reduced_kh(
    d: PlanarDiagram, max_generators: int = DEFAULT_MAX_GENERATORS
) -> Dict[Tuple[int, int], int]:
    return divide_unit_circle(scan_unreduced_kh(d, max_generators))
