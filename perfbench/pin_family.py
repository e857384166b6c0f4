"""Regenerate ``data/family_pins.json``, the family workload's pool and pins.

For every pool word this computes the transition ``N`` and
the kappa table with ``kappa_for_template`` at every hint the workload can
draw (``N - 2 .. N + 2``), checks that all hints agree, and records the
result.  Where an independent value exists the pin must equal it:

* ``(2, 1, -3, 2)`` carries the frozen trefoil-plat table ``TREF_KAPPA`` of
  the kappa tests;
* 1-strand words have ``N = 2 * sum(word) - 1`` and a one-dimensional kappa.

Run from the repository root:  python3 perfbench/pin_family.py
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DATA, word_key  # noqa: E402

from knotfill import SymmetricPlat, kappa_for_template, quotient_template  # noqa: E402

# (half_strands, word) of the family pool.  Words were kept whose families
# take a similar time (about 2 s each on one Xeon core) at every hint the
# workload draws, so that one slow word does not swing a run's figures;
# the second word is the mirror of the first.
POOL = [
    (3, (2, 1, -3, 2)),
    (3, (-2, -1, 3, -2)),
    (3, (2, 2, 3, -2)),
    (3, (2, 1, -3, 2, 1)),
    (3, (-2, 1, -1, -2, -2)),
    (3, (-1, -3, -1, -2)),
    (3, (-2, 3, -2, 2)),
    (1, (1, 1, 1, -1, -1)),
]

TREF_WORD = (3, (2, 1, -3, 2))
TREF_KAPPA = [[-5, -15, 1], [-4, -11, 1], [-3, -11, 1], [-2, -9, 1], [0, -5, 1]]


def first_n(m: int, word) -> int:
    if m == 1:
        return 2 * sum(word) - 1
    return kappa_for_template(quotient_template(SymmetricPlat(m, word))).profile.N


def pin(m: int, word) -> dict:
    template = quotient_template(SymmetricPlat(m, word))
    N = first_n(m, word)
    seen = set()
    timings = []
    for d in range(-2, 3):
        t0 = time.perf_counter()
        run = kappa_for_template(template, hint=N + d)
        timings.append(round(time.perf_counter() - t0, 3))
        table = sorted([h, q, v] for (h, q), v in run.table.entries.items())
        seen.add((run.profile.N, json.dumps(table)))
    if len(seen) != 1:
        raise SystemExit(f"{word}: hints disagree: {seen}")
    (n, table), = seen
    table = json.loads(table)
    provenance = "computed"
    if (m, tuple(word)) == TREF_WORD:
        if n != -1 or table != TREF_KAPPA:
            raise SystemExit(f"{word}: disagrees with TREF_KAPPA")
        provenance = "test_kappa.TREF_KAPPA"
    if m == 1:
        if n != 2 * sum(word) - 1 or sum(v for _, _, v in table) != 1:
            raise SystemExit(f"{word}: breaks the 1-strand rule")
        provenance = "1-strand rule"
    print(f"{m} {word}: N={n} dim={sum(v for *_, v in table)} seconds by hint {timings}", file=sys.stderr)
    return {"m": m, "word": list(word), "N": n, "kappa": table, "provenance": provenance}


def main() -> None:
    pins = {}
    for m, word in POOL:
        pins[word_key(m, word)] = pin(m, word)
    path = DATA / "family_pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
