#!/usr/bin/env python3
"""Calibrate the framing of quotient templates.

A quotient template's integer fills have det(fill(n)) = |n - k0| for one
framing offset k0.  ``calibrate`` measures k0 of a symmetric plat word
(``--word``) and reports the axis-padded word, or of a symmetric closed braid
(``--braid``) and reports the band half-twists, whose filling family has
det(n) = |n|.

The headline templates T1 and T2 come from symmetric closed 4-braid forms,
sigma1 sigma3 . A . sigma2^(+-1) . rev(A) with A = 2,2,1,3,2,2,1 (see
``knotfill.symmetric.SymmetricBraid``); each form has the determinant,
Alexander polynomial and reduced Kh table of the catalog braid.  They could
not come from six-strand symmetric plats.  Such a plat is a 3-bridge
presentation, and K1 has bridge number at least 4: its group maps onto S5
with every meridian going to a transposition (found by backtracking over its
17 Wirtinger relations), and three transpositions never generate a
transitive subgroup of S5.  No such map was found for K2, so its bridge
number is open; an enumeration of plat words of lengths 4..11 found neither
knot (at length 11: 3,258,334 words, 2,171,128 knots, 201,018 of
determinant 7 or 9, none past an Alexander-at-2 filter).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Optional, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from knotfill.diagram import parse_braid
from knotfill.lspace import determinant
from knotfill.symmetric import (
    SymmetricBraid,
    SymmetricPlat,
    braid_quotient_template,
    quotient_template,
)
from knotfill.tangles import TangleTemplate, fill

HALF_STRANDS = 3  # default plat size: quotient of a 6-strand symmetric plat


def _det_line(t: TangleTemplate, lo: int, hi: int) -> Dict[int, int]:
    return {n: determinant(fill(t, n)) for n in range(lo, hi + 1)}


def _framing_zero(t: TangleTemplate, reach: int = 60) -> int:
    """The slope k0 with det(fill(n)) = |n - k0|, located by descent."""
    n = 0
    d0 = determinant(fill(t, n))
    if d0 == 0:
        return n
    # det is |n - k0|: one probe at n+1 gives the direction, then jump.
    d1 = determinant(fill(t, n + 1))
    step = 1 if d1 < d0 else -1
    guess = n + step * d0
    for probe in range(guess - 2, guess + 3):
        if abs(probe) <= reach and determinant(fill(t, probe)) == 0:
            return probe
    raise SystemExit(f"no framing zero near {guess}; det line is not a plain V")


def _calibrate_plat(word: Tuple[int, ...], m: int) -> TangleTemplate:
    k0 = _framing_zero(quotient_template(SymmetricPlat(m, word)))
    print(f"[calibrate] word={list(word)} framing zero k0={k0}")
    if k0 == 0:
        padded = word
    else:
        shift = _framing_zero(quotient_template(SymmetricPlat(m, word + (m,)))) - k0
        if abs(shift) != 2:
            raise SystemExit(f"axis twist moved k0 by {shift}, expected +-2")
        if k0 % 2:
            raise SystemExit(f"k0={k0} is odd; axis twists cannot zero it")
        sign = m if (shift > 0) == (k0 < 0) else -m
        padded = word + (sign,) * (abs(k0) // 2)
    print(f"[calibrate] padded word={list(padded)}")
    return quotient_template(SymmetricPlat(m, padded))


def _calibrate_braid(text: str) -> TangleTemplate:
    braid = SymmetricBraid.from_word(parse_braid(text).word)
    k0 = _framing_zero(braid_quotient_template(braid))
    print(f"[calibrate] symmetric form {list(braid.word)} framing zero k0={k0}: {k0} band half-twists")
    return braid_quotient_template(braid, twists=k0)


def cmd_calibrate(args: argparse.Namespace) -> int:
    if (args.word is None) == (args.braid is None):
        raise SystemExit("give exactly one of --word and --braid")
    if args.braid is not None:
        t = _calibrate_braid(args.braid)
    else:
        t = _calibrate_plat(tuple(int(x) for x in args.word.split(",")), args.half_strands)
    if _framing_zero(t) != 0:
        raise SystemExit("calibration failed to zero the framing")
    line = _det_line(t, args.lo, args.hi)
    print(f"[calibrate] det(fill(n)) for n in {args.lo}..{args.hi}:")
    print("  " + " ".join(f"{n}:{v}" for n, v in sorted(line.items())))
    bad = {n: v for n, v in line.items() if v != abs(n)}
    if bad:
        print(f"[calibrate] WARNING det line is not |n| at {bad}")
        return 1
    print("[calibrate] det(fill(n)) = |n| confirmed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("calibrate", help="zero the framing of a template")
    c.add_argument("--word", help="comma-separated plat letters")
    c.add_argument("--braid", help="symmetric closed braid word, e.g. 1,1,1,1,1")
    c.add_argument("--half-strands", type=int, default=HALF_STRANDS)
    c.add_argument("--lo", type=int, default=-6)
    c.add_argument("--hi", type=int, default=25)
    c.set_defaults(func=cmd_calibrate)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
