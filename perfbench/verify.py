"""Answer checks, run after the timed loop in the parent process.

Each check rebuilds the op's diagram from its spec and compares the
worker's answer with an oracle that does not share the code path timed:

* ``family``: ``N`` and the kappa table against ``data/family_pins.json``;
  1-strand words also against ``N = 2 * sum(word) - 1`` with a
  one-dimensional kappa.
* ``kh-large``: ``total_dim >= determinant`` with equal parity, the Jones
  polynomial of the table against the Kauffman state sum where the diagram
  has at most ``JONES_MAX_CROSSINGS`` crossings, and the catalog knots
  against their fixture tables.
* ``query-small``: the table against the scan engine, its Jones polynomial
  against the state sum, the Goeritz determinant against the Alexander
  polynomial at -1, and the CLI JSON against the library table.
"""
from __future__ import annotations

import json
from typing import Dict, Optional

from workloads import build_diagram, load_family_pins, word_key

from knotfill import KhTable, determinant, jones_from_kh, kauffman_jones, kh_table, width
from knotfill.catalog import load_catalog

JONES_MAX_CROSSINGS = 11


def _table(rows) -> KhTable:
    return KhTable({(h, q): v for h, q, v in rows})


def _rows(table: KhTable) -> list:
    return sorted([h, q, v] for (h, q), v in table.entries.items())


class Oracle:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.catalog = load_catalog()
        self.pins = load_family_pins() if workload == "family" else {}
        self.expected: Dict[str, dict] = {}

    def check(self, spec: dict, ans: Optional[dict]) -> Optional[str]:
        """None when the answer is right, else what is wrong with it."""
        if ans is None:
            return "op raised"
        return {"family": self._family, "kh-large": self._kh_large, "query-small": self._query}[
            self.workload
        ](spec, ans)

    def _family(self, spec: dict, ans: dict) -> Optional[str]:
        m, word = spec["m"], spec["word"]
        pin = self.pins[word_key(m, word)]
        if m == 1:
            if ans["N"] != 2 * sum(word) - 1:
                return f"N={ans['N']}, 1-strand rule gives {2 * sum(word) - 1}"
            if sum(v for *_, v in ans["kappa"]) != 1:
                return "1-strand kappa is not one-dimensional"
        if ans["N"] != pin["N"]:
            return f"N={ans['N']}, pinned {pin['N']}"
        if ans["kappa"] != pin["kappa"]:
            return f"kappa {ans['kappa']} differs from pinned {pin['kappa']}"
        return None

    def _expected(self, spec: dict) -> dict:
        key = json.dumps({k: v for k, v in spec.items() if k != "via"}, sort_keys=True)
        if key not in self.expected:
            d = build_diagram(spec, self.catalog)
            exp = {"crossings": len(d.crossings), "det": determinant(d)}
            if len(d.crossings) <= JONES_MAX_CROSSINGS:
                exp["jones"] = kauffman_jones(d)
            if self.workload == "query-small":
                exp["scan"] = _rows(kh_table(d, engine="scan"))
            if spec["kind"] == "catalog":
                exp["fixture"] = sorted(self.catalog[spec["name"]].fixture("kh_table").value)
            self.expected[key] = exp
        return self.expected[key]

    def _common(self, exp: dict, rows: list) -> Optional[str]:
        total = sum(v for *_, v in rows)
        if total < exp["det"] or (total - exp["det"]) % 2:
            return f"total_dim {total} against determinant {exp['det']}"
        if "jones" in exp and jones_from_kh(_table(rows)) != exp["jones"]:
            return "Jones polynomial of the table differs from the state sum"
        return None

    def _kh_large(self, spec: dict, ans: dict) -> Optional[str]:
        exp = self._expected(spec)
        if "fixture" in exp and ans["kh"] != exp["fixture"]:
            return f"{spec['name']} table differs from its catalog fixture"
        return self._common(exp, ans["kh"])

    def _query(self, spec: dict, ans: dict) -> Optional[str]:
        exp = self._expected(spec)
        if ans["kh"] != exp["scan"]:
            source = "CLI JSON" if spec["via"] == "cli" else "table"
            return f"{source} differs from the scan engine"
        if ans["width"] != width(_table(exp["scan"])):
            return "width differs from the scan table's"
        if ans["det"] != exp["det"]:
            return "determinant differs"
        if "alexander_det" in ans and ans["alexander_det"] != ans["det"]:
            return "Alexander polynomial at -1 differs from the Goeritz determinant"
        return self._common(exp, ans["kh"])
