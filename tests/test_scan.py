from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from knotfill import scan
from knotfill.catalog import get_entry
from knotfill.diagram import (
    DiagramError,
    PlanarDiagram,
    braid_closure,
    mirror,
    parse_braid,
    plat_closure,
    unknot_diagram,
)
from knotfill.khovanov import (
    BudgetError,
    KhTable,
    jones_from_kh,
    kauffman_jones,
    kh_table,
    kh_table_unreduced,
)
from knotfill.scan import (
    _insert_pair,
    _is_noncrossing,
    _join,
    _overlay,
    compile_events,
    divide_unit_circle,
    run_events,
    scan_reduced_kh,
    scan_unreduced_kh,
)


def closure(braid_text):
    return braid_closure(parse_braid(braid_text))


# -- matching plumbing --------------------------------------------------------


class TestMatchings:
    def test_insert_pair_nested(self):
        assert _insert_pair((), 0) == (1, 0)
        assert _insert_pair((1, 0), 1) == (3, 2, 1, 0)
        assert _insert_pair((1, 0), 0) == (1, 0, 3, 2)
        assert _insert_pair((1, 0), 2) == (1, 0, 3, 2)

    def test_join_adjacent_pair_closes(self):
        m, closed = _join((1, 0), 0)
        assert m == () and closed

    def test_join_across_pairs_rewires(self):
        m, closed = _join((1, 0, 3, 2), 1)
        assert m == (1, 0) and not closed

    def test_join_nested_keeps_outer(self):
        m, closed = _join((3, 2, 1, 0), 1)
        assert m == (1, 0) and closed is True

    def test_noncrossing_check(self):
        assert _is_noncrossing((1, 0, 3, 2))
        assert _is_noncrossing((3, 2, 1, 0))
        assert not _is_noncrossing((2, 3, 0, 1))

    def test_overlay_identity_gives_one_circle_per_arc(self):
        m = (1, 0, 3, 2)
        assert _overlay(m, m) == [(0, 1), (2, 3)]

    def test_overlay_mixed_is_single_circle(self):
        assert _overlay((1, 0, 3, 2), (3, 2, 1, 0)) == [(0, 1, 2, 3)]


# -- dividing off the circle factor -------------------------------------------


class TestCircleDivision:
    def test_roundtrip(self):
        reduced = {(0, 0): 1, (2, 4): 3, (-1, -3): 2}
        doubled = {}
        for (h, q), dim in reduced.items():
            for dq in (1, -1):
                doubled[(h, q + dq)] = doubled.get((h, q + dq), 0) + dim
        assert divide_unit_circle(doubled) == reduced

    def test_rejects_odd_table(self):
        with pytest.raises(ArithmeticError):
            divide_unit_circle({(0, 1): 1})

    def test_rejects_nonmultiple(self):
        with pytest.raises(ArithmeticError):
            divide_unit_circle({(0, -1): 1, (0, 1): 2})

    def test_rejects_mixed_parity(self):
        with pytest.raises(ArithmeticError):
            divide_unit_circle({(0, 0): 1, (0, 1): 1})


# -- sweep compiler ------------------------------------------------------------


class TestCompiler:
    def test_event_word_is_balanced(self):
        d = closure("1,1,1")
        events = compile_events(d)
        caps = sum(1 for e in events if e[0] == "cap")
        cups = sum(1 for e in events if e[0] == "cup")
        crossings = sum(1 for e in events if e[0] == "cross")
        assert caps == cups
        assert crossings == 3

    def test_crossingless_diagram_compiles_to_nothing(self):
        assert compile_events(unknot_diagram()) == []

    def test_every_crossing_becomes_one_event(self):
        d = closure("1,-2,1,-2")
        events = compile_events(d)
        assert sum(1 for e in events if e[0] == "cross") == len(d.crossings)

    def test_awkward_attachment_order_needs_backtracking(self):
        # the middle letter's strands sit reversed in a greedy frontier
        d = braid_closure(parse_braid({"strands": 4, "word": [1, 3, 2, 1]}))
        events = compile_events(d)
        assert sum(1 for e in events if e[0] == "cross") == 4

    def test_events_replay_to_the_same_homology(self):
        d = closure("1,1,1")
        events = compile_events(d)
        entries = run_events(events, d.n_plus, d.n_minus)
        assert divide_unit_circle(entries) == {(0, 2): 1, (2, 6): 1, (3, 8): 1}


# -- agreement with the cube engine -------------------------------------------

CUBE_CORPUS = [
    "1",
    "-1",
    "1,1",
    "1,1,1",
    "-1,-1,-1",
    "1,1,1,1",
    "1,1,1,1,1",
    "1,-2,1,-2",
    "1,2,1,2,1,2,1,2",
    "1,1,1,2,2,2",
    "1,1,1,-2,-2,-2",
    "1,2,-1,2",
    "1,3,2,1",
    "-1,3,-1,2,1,2",
]


@pytest.mark.parametrize("word", CUBE_CORPUS)
def test_scan_reduced_matches_cube(word):
    d = closure(word)
    assert scan_reduced_kh(d) == kh_table(d, engine="cube").entries


@pytest.mark.parametrize("word", CUBE_CORPUS)
def test_scan_unreduced_matches_cube(word):
    d = closure(word)
    assert scan_unreduced_kh(d) == kh_table_unreduced(d).entries


def test_scan_on_plats():
    d = plat_closure(4, [1, 2, 2, 2], caps_top=[(1, 2), (3, 4)], caps_bottom=[(1, 2), (3, 4)])
    assert scan_reduced_kh(d) == kh_table(d, engine="cube").entries


def test_scan_pretzel_plat():
    d = plat_closure(
        6,
        [-1, -1, 3, 3, 3, 5, 5, 5],
        caps_top=[(2, 3), (4, 5), (1, 6)],
        caps_bottom=[(2, 3), (4, 5), (1, 6)],
    )
    assert scan_reduced_kh(d) == kh_table(d, engine="cube").entries


def test_scan_split_diagram_with_free_loop():
    tref = closure("1,1,1")
    d = PlanarDiagram(tref.crossings, free_loops=1)
    assert scan_unreduced_kh(d) == kh_table_unreduced(d).entries


def test_scan_split_union_of_two_knots():
    # sigma_1 and sigma_3 on four strands never interact: split double trefoil
    d = braid_closure(parse_braid({"strands": 4, "word": [1, 1, 1, 3, 3, 3]}))
    assert scan_reduced_kh(d) == kh_table(d, engine="cube").entries


def test_scan_crossingless_unlinks():
    assert scan_unreduced_kh(unknot_diagram()) == {(0, 1): 1, (0, -1): 1}
    assert scan_reduced_kh(unknot_diagram()) == {(0, 0): 1}
    assert scan_unreduced_kh(unknot_diagram(2)) == {(0, 2): 1, (0, 0): 2, (0, -2): 1}


def test_scan_respects_mirror():
    d = closure("1,1,1,-2,1,-2")
    entries = scan_reduced_kh(d)
    flipped = {(-h, -q): dim for (h, q), dim in entries.items()}
    assert scan_reduced_kh(mirror(d)) == flipped


@st.composite
def braid_words(draw):
    strands = draw(st.integers(min_value=2, max_value=4))
    length = draw(st.integers(min_value=1, max_value=9))
    letters = st.integers(min_value=1, max_value=strands - 1).flatmap(
        lambda j: st.sampled_from([j, -j])
    )
    return {"strands": strands, "word": [draw(letters) for _ in range(length)]}


@settings(max_examples=40, deadline=None)
@given(braid_words())
def test_scan_matches_cube_property(spec):
    d = braid_closure(parse_braid(spec))
    assert scan_reduced_kh(d) == kh_table(d, engine="cube").entries


# -- regression pins at sizes the cube cannot reach ---------------------------


def test_seventeen_crossing_pair():
    k1 = closure("(2,1,3,2)^3,1,2,3,3,2")
    k2 = closure("(2,1,3,2)^3,-1,2,1,1,2")
    t1 = scan_reduced_kh(k1)
    t2 = scan_reduced_kh(k2)
    assert sum(t1.values()) == 31
    assert sum(t2.values()) == 33
    # both are homologically thick: four diagonals each
    assert len({q - 2 * h for (h, q) in t1}) == 4
    assert len({q - 2 * h for (h, q) in t2}) == 4


@pytest.mark.slow
def test_seventeen_crossing_pair_euler_characteristic():
    # the bracket state sum is a fully independent route to the Jones polynomial
    for word in ("(2,1,3,2)^3,1,2,3,3,2", "(2,1,3,2)^3,-1,2,1,1,2"):
        d = closure(word)
        t = KhTable(scan_reduced_kh(d), link=word)
        assert jones_from_kh(t) == kauffman_jones(d)


def test_torus_5_4_table_shape():
    d = closure("1,2,3,1,2,3,1,2,3,1,2,3,1,2,3")
    entries = scan_reduced_kh(d)
    assert sum(entries.values()) == 13
    assert min(h for h, _ in entries) == 0


def test_fifteen_crossing_knot_under_a_minute():
    d = closure("1,2,3,1,2,3,1,2,3,1,2,3,1,2,3")
    start = time.monotonic()
    scan_reduced_kh(d)
    assert time.monotonic() - start < 60.0


def test_scan_is_deterministic():
    d = closure("1,1,1,-2,1,-2,3,3")
    scan._clear_caches()
    cold = scan_reduced_kh(d)
    assert scan._entries > 0
    # the second sweep finds every structure and evaluation cached
    assert scan_reduced_kh(d) == cold
    assert compile_events(d) == compile_events(d)


# -- the evaluation memo and the structure caches -----------------------------


def cached_entries():
    caches = (scan._COMPOSE_CACHE, scan._LIFT_CACHE)
    return sum(len(c) + sum(len(st.memo) for st in c.values()) for c in caches)


def reduced_kh_against_direct_evaluation(d):
    """Sweep ``d``, checking every memoized evaluation against a direct one."""
    memoized = scan._apply

    def checked(st, masks, low):
        got = memoized(st, masks, low)
        want = 0
        for m in range(masks.bit_length()):
            if masks >> m & 1:
                want ^= scan._evaluate(st.comps, m << scan._MASK_SHIFT | low)
        assert got == want, (st.comps, masks, low)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "_apply", checked)
        return scan_reduced_kh(d)


def test_memo_matches_direct_evaluation_on_k1_and_t34():
    k1 = get_entry("K1")
    pinned = {(h, q): dim for h, q, dim in k1.fixture("kh_table").value}
    assert reduced_kh_against_direct_evaluation(k1.diagram()) == pinned
    t34 = closure("1,2,1,2,1,2,1,2")
    assert reduced_kh_against_direct_evaluation(t34) == kh_table(t34, engine="cube").entries


@settings(max_examples=15, deadline=None)
@given(braid_words())
def test_memo_matches_direct_evaluation_property(spec):
    d = braid_closure(parse_braid(spec))
    assert reduced_kh_against_direct_evaluation(d) == kh_table(d, engine="cube").entries


def test_straight_strands_carry_entries_unchanged(monkeypatch):
    # the sweep builds no (v, v) lift, since that lift is the identity
    lift = scan._lift_structure
    carried = set()

    def recorded(i, move_a, move_b, ma, mb):
        assert (move_a, move_b) != ("v", "v")
        if move_a == move_b == "h":
            carried.add((i, ma, mb))
        return lift(i, move_a, move_b, ma, mb)

    monkeypatch.setattr(scan, "_lift_structure", recorded)
    d = closure("1,1,1,-2,1,-2,3,3")
    assert scan_reduced_kh(d) == kh_table(d, engine="cube").entries
    assert carried
    for i, ma, mb in carried:
        st = lift(i, "v", "v", ma, mb)
        for m in range(1 << len(_overlay(ma, mb))):
            assert scan._apply(st, 1 << m, 0) == 1 << m


def test_cache_bound_holds_and_tables_survive_clears(monkeypatch):
    clears = []
    clear = scan._clear_caches

    def counted_clear():
        clears.append(scan._entries)
        clear()

    monkeypatch.setattr(scan, "CACHE_BOUND", 200)
    monkeypatch.setattr(scan, "_clear_caches", counted_clear)
    clear()
    for word in CUBE_CORPUS:
        d = closure(word)
        assert scan_reduced_kh(d) == kh_table(d, engine="cube").entries
        assert cached_entries() <= scan._entries <= 200
    # the corpus needs several times the bound
    assert len(clears) >= 2


def test_scan_budget_enforced():
    d = closure("1,1,1")
    with pytest.raises(BudgetError):
        scan_reduced_kh(d, max_generators=1)
