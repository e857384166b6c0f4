"""Symmetric plats and closed braids, and their quotient tangle templates.

A knot drawn as a plat on ``2m`` strands is *transvergent* when the diagram
is carried to itself by a half-turn about a vertical axis between strands
``m`` and ``m+1``.  Such a word uses two kinds of letters:

* a **pair letter** ``j`` (``1 <= j < m``) stands for the symmetric pair of
  braid generators ``j`` and ``2m-j`` with a common sign;
* an **axis letter** (``j == m``) is the single middle generator, which the
  half-turn fixes.

Caps are the standard adjacent ones top and bottom, so the axis meets the
knot exactly twice, at the two middle caps; ``m`` must be odd for the side
caps to pair up symmetrically.

``quotient_template`` builds the associated filling family: fold the diagram
in half, keeping lanes ``1..m`` plus the image of the axis (an unknotted
circle drawn as a vertical chord at the right edge).  The folded knot becomes
an arc ending on the circle at the two branch points; thickening it to a band
yields a two-cable diagram in which

* each pair letter contributes the four crossings of a cabled crossing,
* each axis letter contributes a four-crossing clasp of the band around the
  axis circle,
* the branch points splice the band ends into the circle,

and the band keeps an open twist site just above the lower splice.  Filling
the site with slope ``n`` inserts ``n`` half-twists; the integer family
``fill(template, n)`` is the object the step/transition analysis consumes.
Slope infinity cuts the band, collapsing everything to an unknot, and the
determinants of integer fillings grow as ``|n - n0|`` for a template offset
``n0`` — both facts are pinned per template by the test suite.

A closed braid on an even number of strands is strongly invertible in a
second way: the rotation ``(z, theta) -> (conj(z), -theta)`` of the braid's
solid torus carries the closure of ``C . A . M . rev(A)`` to itself, where

* ``C`` (at ``theta = 0``) has one letter on each odd generator
  ``1, 3, ..., n-1``, so every strand sits in a crossing centred on the axis;
* ``A`` is any word, read back with the same signs on the far side;
* ``M`` (at ``theta = pi``) has ``n/2 - 1`` mutually commuting letters, which
  leaves exactly two strands lying on the axis: the branch points.

``braid_quotient_template`` sweeps the fundamental domain
``0 <= theta <= pi`` with the building blocks of ``quotient_template``: at
the bottom foot each centred crossing becomes a cabled cup clasped around
the axis chord, ``A`` becomes cabled crossings, the twist site sits in the
band of the last lane, and at the top foot a centred crossing becomes a
clasp followed by a cabled cap while a strand on the axis splices the band
into the chord.  A centred crossing of sign ``s`` clasps with lane flag
``-s``; the letters of ``A`` keep their signs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .diagram import BraidWord, DiagramError, PlanarDiagram, _Sweep, braid_closure, plat_closure
from .tangles import TangleTemplate

__all__ = [
    "SymmetricBraid",
    "SymmetricPlat",
    "braid_quotient_template",
    "quotient_template",
    "upstairs_diagram",
]


@dataclass(frozen=True)
class SymmetricPlat:
    """A transvergent plat word on ``2 * half_strands`` strands."""

    half_strands: int
    word: Tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        m = self.half_strands
        if m < 1 or m % 2 == 0:
            raise DiagramError("half_strands must be odd (side caps pair up)")
        word = tuple(int(x) for x in self.word)
        object.__setattr__(self, "word", word)
        for x in word:
            if x == 0 or abs(x) > m:
                raise DiagramError(f"letter {x} out of range for half_strands={m}")

    @property
    def axis_letter_count(self) -> int:
        m = self.half_strands
        return sum(1 for x in self.word if abs(x) == m)

    def mirror(self) -> "SymmetricPlat":
        return SymmetricPlat(
            self.half_strands,
            tuple(-x for x in self.word),
            name=f"{self.name}.mirror" if self.name else "",
        )


@dataclass(frozen=True)
class SymmetricBraid:
    """A closed braid ``centre . arm . middle . rev(arm)`` on even strands.

    ``centre`` holds the letters centred at ``theta = 0`` (one per odd
    generator) and ``middle`` the commuting letters centred at
    ``theta = pi``; both are stored sorted by generator.
    """

    strands: int
    centre: Tuple[int, ...]
    arm: Tuple[int, ...]
    middle: Tuple[int, ...] = ()
    name: str = ""

    def __post_init__(self):
        n = self.strands
        if n < 2 or n % 2:
            raise DiagramError("a symmetric closed braid needs an even number of strands")
        centre = tuple(sorted((int(x) for x in self.centre), key=abs))
        arm = tuple(int(x) for x in self.arm)
        middle = tuple(sorted((int(x) for x in self.middle), key=abs))
        for x in centre + arm + middle:
            if x == 0 or abs(x) >= n:
                raise DiagramError(f"letter {x} out of range for {n} strands")
        if tuple(abs(x) for x in centre) != tuple(range(1, n, 2)):
            raise DiagramError(
                f"centre {centre} must hold one letter on each of the generators "
                f"{tuple(range(1, n, 2))}"
            )
        gens = [abs(x) for x in middle]
        if len(gens) != n // 2 - 1 or any(b - a < 2 for a, b in zip(gens, gens[1:])):
            raise DiagramError(
                f"middle {middle} must hold {n // 2 - 1} commuting letters, "
                "leaving two strands on the axis"
            )
        object.__setattr__(self, "centre", centre)
        object.__setattr__(self, "arm", arm)
        object.__setattr__(self, "middle", middle)

    @property
    def word(self) -> Tuple[int, ...]:
        return self.centre + self.arm + self.middle + self.arm[::-1]

    @classmethod
    def from_word(cls, word: Sequence[int], name: str = "") -> "SymmetricBraid":
        """The first cyclic rotation of ``word`` that has the symmetric shape."""
        word = tuple(int(x) for x in word)
        n = max((abs(x) for x in word), default=0) + 1
        if n < 2 or n % 2:
            raise DiagramError("a symmetric closed braid needs an even number of strands")
        half, k = n // 2, n // 2 - 1
        for r in range(len(word)):
            w = word[r:] + word[:r]
            rest = w[half:]
            if sorted(abs(x) for x in w[:half]) != list(range(1, n, 2)):
                continue
            if (len(rest) - k) % 2:
                continue
            a = (len(rest) - k) // 2
            arm, middle, tail = rest[:a], rest[a:a + k], rest[a + k:]
            if tail != arm[::-1]:
                continue
            try:
                return cls(n, w[:half], arm, middle, name=name)
            except DiagramError:
                continue
        raise DiagramError(f"no rotation of {list(word)} is a symmetric closed braid")


def upstairs_diagram(plat: SymmetricPlat | SymmetricBraid, name: str = "") -> PlanarDiagram:
    """The symmetric knot itself: the plat on ``2m`` strands with standard
    caps, or the closure of a symmetric braid."""
    if isinstance(plat, SymmetricBraid):
        return braid_closure(BraidWord(plat.strands, plat.word), name=name or plat.name)
    m = plat.half_strands
    expanded: List[int] = []
    for x in plat.word:
        j, s = abs(x), (1 if x > 0 else -1)
        if j == m:
            expanded.append(s * m)
        else:
            expanded.extend((s * j, s * (2 * m - j)))
    caps = [(i, i + 1) for i in range(1, 2 * m, 2)]
    return plat_closure(
        2 * m,
        expanded,
        caps_top=caps,
        caps_bottom=caps,
        name=name or plat.name,
    )


class _CableSweep(_Sweep):
    """Wire positions of a two-cable diagram swept upward (0-based)."""

    def __init__(self):
        super().__init__()
        self.wires: List[int] = []

    def cross(self, pos: int, positive: bool) -> None:
        w = self.wires
        w[pos], w[pos + 1] = self.crossing(w[pos], w[pos + 1], positive)

    def cabled_crossing(self, lane: int, positive: bool) -> None:
        """The four crossings of lanes ``lane`` and ``lane + 1`` (1-based)."""
        base = 2 * lane - 2
        for pos in (base + 1, base, base + 2, base + 1):
            self.cross(pos, positive)

    def clasp(self, pos: int, positive: bool) -> None:
        """The band at ``pos, pos + 1`` rounds the wire at ``pos + 2``.

        The band goes over on the way out and under on the way back (or the
        reverse, by sign): all four crossings carry the same lane flag.
        """
        for p in (pos + 1, pos, pos, pos + 1):
            self.cross(p, positive)

    def cut_hole(self, pos: int) -> None:
        """Open the twist site: the band at ``pos, pos + 1`` stops here and
        fresh wires resume above it."""
        nw, ne = self.wires[pos], self.wires[pos + 1]
        self.wires[pos], self.wires[pos + 1] = self.fresh(), self.fresh()
        self.hole = (ne, nw, self.wires[pos], self.wires[pos + 1])

    def finish_template(self, name: str) -> TangleTemplate:
        # hole corners follow the knocked-out-crossing convention of the
        # filling layer, which reads the four stubs mirrored left-to-right
        rep, loops = self.classes()
        return TangleTemplate(
            name=name,
            crossings=tuple(tuple(rep[a] for a in c) for c in self.crossings),
            ends=tuple(rep[a] for a in self.hole),
            free_loops=loops,
        )


def quotient_template(plat: SymmetricPlat, name: str = "") -> TangleTemplate:
    """The two-cable filling template of the folded diagram.

    Wire lanes, left to right: two cable wires per folded strand lane
    (``2j-1``, ``2j`` for lane ``j``), then the axis-circle chord, then the
    circle's return wire at the far right.
    """
    m = plat.half_strands
    sw = _CableSweep()
    wire = sw.wires = [0] * (2 * m + 2)
    seg, ret = 2 * m, 2 * m + 1  # axis chord and its closing return wire

    # top boundary: cabled caps on the side lanes, band-into-circle splice at m
    for i in range(1, m - 1, 2):
        wire[2 * i - 2] = wire[2 * i + 1] = sw.fresh()
        wire[2 * i - 1] = wire[2 * i] = sw.fresh()
    wire[2 * m - 1] = wire[seg] = sw.fresh()
    wire[2 * m - 2] = wire[ret] = sw.fresh()

    # body: the folded strand rounds the axis chord at an axis letter,
    # entering on one sheet and returning on the other
    for x in plat.word:
        j, positive = abs(x), x > 0
        if j < m:
            sw.cabled_crossing(j, positive)
        else:
            sw.clasp(2 * m - 2, positive)

    # the twist site: the band's wires stop at the hole, fresh wires resume
    sw.cut_hole(2 * m - 2)

    # bottom boundary mirrors the top; cups merge arc labels
    for i in range(1, m - 1, 2):
        sw.glue(wire[2 * i - 1], wire[2 * i])
        sw.glue(wire[2 * i - 2], wire[2 * i + 1])
    sw.glue(wire[2 * m - 1], wire[seg])
    sw.glue(wire[2 * m - 2], wire[ret])
    return sw.finish_template(name or plat.name or f"plat{m}-template")


def braid_quotient_template(
    braid: SymmetricBraid, twists: int = 0, name: str = ""
) -> TangleTemplate:
    """The two-cable filling template of a symmetric closed braid.

    The sweep runs from ``theta = 0`` to ``theta = pi``.  Wires, left to
    right: two cable wires per strand lane, the axis chord, and the return
    wire that closes the axis circle around the far right.  ``twists`` band
    half-twists sit just below the hole, so ``fill(t, n)`` of the result is
    ``fill(t, n + twists)`` of the bare template.
    """
    n = braid.strands
    sw = _CableSweep()
    wire = sw.wires
    chord = sw.fresh()
    wire.extend((chord, chord))  # chord and return wire meet under everything

    # bottom foot: each centred crossing is a cup hung on the chord
    for x in braid.centre:
        outer, inner = sw.fresh(), sw.fresh()
        wire[-2:-2] = [outer, inner, inner, outer]
        sw.clasp(len(wire) - 4, x < 0)

    for x in braid.arm:
        sw.cabled_crossing(abs(x), x > 0)

    last = 2 * n - 2
    for _ in range(abs(twists)):
        sw.cross(last, twists > 0)
    sw.cut_hole(last)

    # top foot, consumed from the right; the chord is always the wire just
    # right of the lane at hand
    pairs = {abs(x) + 1: x for x in braid.middle}
    lane = n
    while lane:
        pos = 2 * lane - 2
        if lane in pairs:
            sw.clasp(pos, pairs[lane] < 0)
            sw.glue(wire[pos - 2], wire[pos + 1])
            sw.glue(wire[pos - 1], wire[pos])
            del wire[pos - 2:pos + 2]
            lane -= 2
        else:
            # splice: the right wire ends on the chord, the left wire
            # carries the chord on from the branch point
            sw.glue(wire[pos + 1], wire[pos + 2])
            del wire[pos + 1:pos + 3]
            lane -= 1
    sw.glue(wire[0], wire[1])
    return sw.finish_template(name or braid.name or f"braid{n}-template")
