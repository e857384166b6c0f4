"""Seeded input generation for the benchmark workloads.

Every generator takes the workload seed and returns a list of op specs:
plain JSON-able dicts that name how to build a diagram (or a template) from
the public API.  The worker receives only these specs; building the diagram
is part of the op it times.

The lists are drawn in blocks.  Each block has a fixed composition (which
kinds of input, at which sizes) and the seed picks the concrete words,
signs, slopes and the order inside the block.  That keeps the work per run
close to constant across seeds while no two seeds feed the same inputs.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from knotfill import diagram, symmetric, tangles

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("family", "kh-large", "query-small")

# blocks generated per run; a run that gets through them all starts over, and
# each list is several times what one run completes at the time of writing
STREAM_BLOCKS = {"family": 15, "kh-large": 110, "query-small": 150}


def load_family_pins() -> Dict[str, dict]:
    return json.loads((DATA / "family_pins.json").read_text(encoding="utf-8"))


def word_key(m: int, word: Sequence[int]) -> str:
    return f"{m}:" + ",".join(str(x) for x in word)


def braid_text(word: Sequence[int]) -> str:
    return ",".join(str(x) for x in word)


def build_template(spec: dict):
    return symmetric.quotient_template(symmetric.SymmetricPlat(spec["m"], tuple(spec["word"])))


def build_diagram(spec: dict, catalog: dict):
    """The diagram an op spec names.  Calls go through the package modules,
    so a traced worker records them in their layers."""
    kind = spec["kind"]
    if kind == "braid":
        return diagram.braid_closure(diagram.parse_braid(spec["braid"]))
    if kind == "upstairs":
        return symmetric.upstairs_diagram(symmetric.SymmetricPlat(spec["m"], tuple(spec["word"])))
    if kind == "fill":
        return tangles.fill(build_template(spec), spec["slope"])
    if kind == "catalog":
        return catalog[spec["name"]].diagram()
    raise ValueError(f"unknown op kind {kind!r}")


def _cf_crossings(p: int, q: int) -> int:
    """Crossings ``fill`` inserts for slope p/q: the twist counts of the
    expansion p/q = a0 + r/q, r/q = -1/(-q/r) that the filling layer uses."""
    total = 0
    while q:
        a0, r = divmod(p, q)
        total += abs(a0)
        p, q = -q, r
    return total


# ---------------------------------------------------------------------------
# family: one op is one kappa_for_template call

HINT_OFFSETS = (-2, -1, 0, 1, 2)


def family_ops(seed: int) -> List[dict]:
    """Blocks of every pool word once, with hints N-2..N+2 dealt in
    shuffled groups of five.

    The offset decides how far kappa_for_template has to widen its window:
    a hint at N+1 costs about half what the others do.  A family run may
    stop after any op, and the groups keep the mix of offsets in a run
    fixed to within one op.
    """
    rng = random.Random(f"family:{seed}")
    pins = load_family_pins()
    ops: List[dict] = []
    offsets: List[int] = []
    for _ in range(STREAM_BLOCKS["family"]):
        block = sorted(pins)
        rng.shuffle(block)
        for key in block:
            if not offsets:
                offsets = list(HINT_OFFSETS)
                rng.shuffle(offsets)
            pin = pins[key]
            ops.append({"kind": "family", "m": pin["m"], "word": pin["word"], "hint": pin["N"] + offsets.pop()})
    return ops


# ---------------------------------------------------------------------------
# kh-large: independent diagrams with more than ten crossings

# template words of the rational fills in one kh-large block.  The mirrored
# trefoil plat, whose fills take a steady ~0.1 s, fills the middle ranks so
# that the median does not fall between two kinds of input.
LARGE_FILLS: Tuple[Tuple[int, ...], ...] = (
    (2, 1, -3, 2), (2, 1, -3, 2),
    (-2, -1, 3, -2), (-2, -1, 3, -2), (-2, -1, 3, -2), (-2, -1, 3, -2),
    (-2, -2, -3, 2), (-2, -2, -3, 2),
    (2, 1, -3, 2, 1), (2, 1, -3, 2, 1),
)
# (strands, crossings, negative letters) of the braid closures in a block;
# the first two are small enough for the Kauffman state-sum check
LARGE_BRAIDS = ((4, 11, 2), (5, 11, 2), (4, 16, 4), (5, 16, 5))


def _random_fill_slope(rng: random.Random, budget: Tuple[int, int]) -> Tuple[int, int]:
    """A non-integer slope p/q (q >= 2) whose fill adds ``budget`` crossings."""
    lo, hi = budget
    while True:
        q = rng.randint(2, 7)
        p = rng.choice([-1, 1]) * rng.randint(1, 4 * q)
        if Fraction(p, q).denominator == q and lo <= _cf_crossings(p, q) <= hi:
            return p, q


def _positive_braid(rng: random.Random, strands: int, length: int, negatives: int) -> List[int]:
    """A braid word using every generator, positive but for ``negatives`` letters."""
    while True:
        word = [rng.randint(1, strands - 1) for _ in range(length)]
        for i in rng.sample(range(length), negatives):
            word[i] = -word[i]
        if {abs(x) for x in word} == set(range(1, strands)):
            return word


def kh_large_ops(seed: int) -> List[dict]:
    rng = random.Random(f"kh-large:{seed}")
    ops: List[dict] = []
    for block_no in range(STREAM_BLOCKS["kh-large"]):
        block: List[dict] = []
        for word in LARGE_FILLS:
            p, q = _random_fill_slope(rng, (4, 5))
            block.append({"kind": "fill", "m": 3, "word": list(word), "slope": f"{p}/{q}"})
        for strands, length, negatives in LARGE_BRAIDS:
            word = _positive_braid(rng, strands, length, negatives)
            block.append({"kind": "braid", "braid": braid_text(word)})
        # the two 17-crossing catalog knots take turns
        block.append({"kind": "catalog", "name": ("K1", "K2")[block_no % 2]})
        rng.shuffle(block)
        ops.extend(block)
    return ops


# ---------------------------------------------------------------------------
# query-small: lookups on diagrams of 3-9 crossings

# One block, cheapest first: (kind, strands or m or template word, length or
# fill budget[, negative letters]).  Costs rise steeply with the crossing
# count and with the signs, so a plain mix would put the median and the
# 90th percentile between two kinds of input.  Instead each of those ranks
# falls inside a band of alike inputs: ten queries under 20 ms, then five
# 2-strand 7-crossing closures with exactly two negative letters (12-22 ms)
# around the median, four of 20-150 ms, four 2-strand 8-crossing plats
# around the 90th percentile, and one 2-strand 9-crossing closure, the
# largest cube, whose size does not depend on the signs, so the peak memory
# of a run does not hang on one unlucky draw.
QUERY_BLOCK = (
    ("braid", 2, 3), ("braid", 3, 4), ("braid", 3, 6), ("braid", 4, 5),
    ("upstairs", 1, 3), ("upstairs", 3, 2), ("upstairs", 3, 3), ("upstairs", 3, 4),
    ("fill", (1,), 2), ("fill", (-1,), 2),
    ("braid", 2, 7, 2), ("braid", 2, 7, 2), ("braid", 2, 7, 2), ("braid", 2, 7, 2), ("braid", 2, 7, 2),
    ("braid", 3, 8), ("braid", 4, 8), ("braid", 3, 9), ("fill", (1, -1), 1),
    ("upstairs", 1, 8), ("upstairs", 1, 8), ("upstairs", 1, 8), ("upstairs", 1, 8),
    ("braid", 2, 9, 2),
)
# every CLI_EVERY-th braid query of a block goes through the CLI
CLI_EVERY = 2


def _mixed_braid(rng: random.Random, strands: int, length: int) -> List[int]:
    while True:
        word = [rng.choice([-1, 1]) * rng.randint(1, strands - 1) for _ in range(length)]
        if {abs(x) for x in word} == set(range(1, strands)):
            return word


def _plat_word(rng: random.Random, m: int, length: int) -> List[int]:
    """A symmetric plat word whose closure is connected (3-strand halves
    need the pair letter 2, which joins the caps)."""
    while True:
        word = [rng.choice([-1, 1]) * rng.randint(1, m) for _ in range(length)]
        if m == 1 or 2 in {abs(x) for x in word}:
            return word


def _small_fill_slope(rng: random.Random, room: int) -> str:
    while True:
        q = rng.randint(1, 3)
        p = rng.choice([-1, 1]) * rng.randint(1, 3 * q)
        if Fraction(p, q).denominator == q and 1 <= _cf_crossings(p, q) <= room:
            return f"{p}/{q}"


def query_small_ops(seed: int) -> List[dict]:
    rng = random.Random(f"query-small:{seed}")
    ops: List[dict] = []
    for _ in range(STREAM_BLOCKS["query-small"]):
        block: List[dict] = []
        braid_no = 0
        for kind, a, b, *negatives in QUERY_BLOCK:
            if kind == "braid":
                if negatives:
                    word = _positive_braid(rng, a, b, negatives[0])
                else:
                    word = _mixed_braid(rng, a, b)
                braid_no += 1
                via = "cli" if braid_no % CLI_EVERY == 0 else "library"
                block.append({"kind": "braid", "braid": braid_text(word), "via": via})
            elif kind == "upstairs":
                block.append({"kind": "upstairs", "m": a, "word": _plat_word(rng, a, b), "via": "library"})
            else:
                slope = _small_fill_slope(rng, b)
                block.append({"kind": "fill", "m": 1, "word": list(a), "slope": slope, "via": "library"})
        rng.shuffle(block)
        ops.extend(block)
    return ops


GENERATORS = {"family": family_ops, "kh-large": kh_large_ops, "query-small": query_small_ops}

# ops per block: a run stops only at the end of a block, so every run
# times whole blocks of the same make-up.  A family op takes seconds, so a
# family run may stop after any op.
BLOCK_OPS = {
    "family": 1,
    "kh-large": len(LARGE_FILLS) + len(LARGE_BRAIDS) + 1,
    "query-small": len(QUERY_BLOCK),
}


def generate(workload: str, seed: int) -> List[dict]:
    return GENERATORS[workload](seed)


def digest(ops: List[dict]) -> str:
    """Stable digest of an input list, printed with every run."""
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
