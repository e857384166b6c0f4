from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from knotfill.diagram import (
    BraidWord,
    DiagramError,
    PlanarDiagram,
    braid_closure,
    euler_check,
    faces,
    merge_classes,
    mirror,
    parse_braid,
    parse_pd,
    plat_closure,
    resolve_crossing,
    smoothing_circles,
    unknot_diagram,
)


def trefoil():
    return braid_closure(parse_braid("1,1,1"), name="trefoil")


def figure8():
    return braid_closure(parse_braid("1,-2,1,-2"), name="fig8")


# -- parsing ---------------------------------------------------------------


def test_parse_braid_compact_groups():
    b = parse_braid("(2,1,3,2)^3,1,2,3,3,2")
    assert b.strands == 4
    assert b.word == (2, 1, 3, 2) * 3 + (1, 2, 3, 3, 2)


def test_parse_braid_negative_exponent_inverts():
    b = parse_braid("(1,2)^-2")
    assert b.word == (-2, -1, -2, -1)


def test_parse_braid_json_roundtrip():
    b = parse_braid("1,-2,1,-2")
    again = parse_braid(json.dumps(b.to_json_dict()))
    assert again == b


def test_braid_letter_out_of_range():
    with pytest.raises(DiagramError):
        BraidWord(2, (2,))
    with pytest.raises(DiagramError):
        BraidWord(3, (0,))


def test_parse_pd_roundtrip():
    d = trefoil()
    d2 = parse_pd(d.to_json())
    assert d2.crossings == d.crossings
    assert d2.basepoint == d.basepoint
    assert d2.name == "trefoil"


def test_parse_pd_rejects_open_arcs():
    with pytest.raises(DiagramError):
        parse_pd({"pd": [[1, 2, 3, 4]]})


def test_parse_pd_rejects_nonplanar_code():
    # every arc pairs up, but the faces give V - E + F = 0, not 2
    with pytest.raises(DiagramError, match="not planar"):
        parse_pd({"pd": [[2, 2, 3, 1], [4, 1, 4, 3]]})


# -- closures and orientation ----------------------------------------------


def test_trefoil_closure_is_positive_knot():
    d = trefoil()
    assert len(d.crossings) == 3
    assert d.n_components == 1
    assert d.signs == (1, 1, 1)
    assert d.writhe == 3
    assert d.basepoint == d.components[0][0] or d.basepoint in d.arcs
    assert euler_check(d)


def test_figure8_writhe_zero():
    d = figure8()
    assert d.n_components == 1
    assert d.writhe == 0
    assert d.n_plus == 2 and d.n_minus == 2


def test_hopf_from_square_of_generator():
    d = braid_closure(parse_braid("1,1"))
    assert d.n_components == 2
    assert len(d.signs) == 2


def test_closure_component_count_matches_permutation():
    for text in ["1,1,1", "1,-2,1,-2", "2,2", "1,2,1", "(1,2)^3"]:
        b = parse_braid(text)
        assert braid_closure(b).n_components == b.n_closure_components()


def test_empty_braid_closure_is_unlink():
    d = braid_closure(BraidWord(3, ()))
    assert d.n_components == 3
    assert d.crossings == ()


def test_plat_trefoil():
    d = plat_closure(4, [2, 2, 2], [(2, 3), (1, 4)], [(1, 2), (3, 4)])
    assert d.n_components == 1
    assert len(d.crossings) == 3
    assert euler_check(d)
    # plat strands are antiparallel, so positive letters give writhe -3 here
    assert d.writhe == -3


def test_plat_empty_word_unknot():
    d = plat_closure(2, [], [(1, 2)], [(1, 2)])
    assert d.n_components == 1
    assert d.free_loops == 1


def test_plat_cap_validation():
    with pytest.raises(DiagramError):
        plat_closure(4, [], [(1, 2), (2, 3)], [(1, 2), (3, 4)])


# -- mirror ------------------------------------------------------------------


def test_mirror_flips_signs():
    d = trefoil()
    assert mirror(d).signs == (-1, -1, -1)


def test_mirror_involution():
    for text in ["1,1,1", "1,-2,1,-2", "1,1", "2,-1,2,-1"]:
        d = braid_closure(parse_braid(text))
        assert mirror(mirror(d)).crossings == d.crossings


# -- smoothings ---------------------------------------------------------------


def test_trefoil_smoothing_circle_counts():
    d = trefoil()
    assert smoothing_circles(d, (0, 0, 0))[0] == 2
    assert smoothing_circles(d, (1, 1, 1))[0] == 3
    assert smoothing_circles(d, (1, 0, 0))[0] == 1


def test_smoothing_assignment_numbers_circles_by_smallest_arc():
    d = trefoil()
    n, assign = smoothing_circles(d, (0, 0, 0))
    assert n == 2
    assert assign[min(assign)] == 0
    assert sorted(set(assign.values())) == [0, 1]


def test_resolve_kink_both_ways():
    kink = braid_closure(parse_braid("1"))
    vertical = resolve_crossing(kink, 0, 0)
    horizontal = resolve_crossing(kink, 0, 1)
    assert vertical.crossings == () and vertical.n_components == 2
    assert horizontal.crossings == () and horizontal.n_components == 1


def test_resolve_trefoil_crossing_keeps_closed():
    d = trefoil()
    for kind in (0, 1):
        r = resolve_crossing(d, 1, kind)
        assert len(r.crossings) == 2
        # every arc still appears exactly twice
        occ = {}
        for c in r.crossings:
            for a in c:
                occ[a] = occ.get(a, 0) + 1
        assert all(v == 2 for v in occ.values())


def test_resolve_matches_full_smoothing_counts():
    d = figure8()
    for v in [(0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 0, 0)]:
        step = d
        # resolve crossings one at a time, highest index first
        for i in reversed(range(4)):
            step = resolve_crossing(step, i, v[i])
        assert step.n_components == smoothing_circles(d, v)[0]


def test_merge_classes_names_classes_by_smallest_label_and_counts_loops():
    pairs = [(5, 3), (3, 1), (6, 7), (1, 5), (7, 6), (9, 2)]
    classes, closed = merge_classes(range(1, 10), pairs)
    # 4 and 8 join nothing
    assert classes == {1: 1, 2: 2, 3: 1, 4: 4, 5: 1, 6: 6, 7: 6, 8: 8, 9: 2}
    # (1, 5) and (7, 6) join labels that are already joined
    assert closed == 2
    assert merge_classes(range(1, 10), reversed(pairs)) == (classes, closed)
    # a pair of one label closes a loop on its own
    assert merge_classes([4], [(4, 4)]) == ({4: 4}, 1)


# -- faces ---------------------------------------------------------------------


def test_faces_euler_formula():
    for text in ["1,1,1", "1,-2,1,-2", "1,1", "(1,2)^3", "1,2,-1,2,2"]:
        d = braid_closure(parse_braid(text))
        assert euler_check(d)
        # 4-valent planar connected: F = E - V + 2 = V + 2
        assert len(faces(d)) == len(d.crossings) + 2


# -- properties -------------------------------------------------------------


@st.composite
def braid_words(draw):
    strands = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=1, max_value=12))
    letters = draw(
        st.lists(
            st.integers(min_value=1, max_value=strands - 1).flatmap(
                lambda i: st.sampled_from([i, -i])
            ),
            min_size=n,
            max_size=n,
        )
    )
    return BraidWord(strands, tuple(letters))


@settings(deadline=None, max_examples=60)
@given(braid_words())
def test_closure_invariants(b):
    d = braid_closure(b)
    assert d.n_components == b.n_closure_components()
    if d.n_components == 1:
        # for knots the writhe is orientation-independent and matches the braid
        assert d.writhe == sum(1 if w > 0 else -1 for w in b.word)
    assert euler_check(d)
    # relabeling arcs must not change smoothing circle counts
    v = tuple(i % 2 for i in range(len(d.crossings)))
    n1 = smoothing_circles(d, v)[0]
    shift = {a: a + 17 for a in d.arcs}
    relabeled = parse_pd(
        {"pd": [[shift[a] for a in c] for c in d.crossings], "free_loops": d.free_loops}
    )
    assert smoothing_circles(relabeled, v)[0] == n1


@settings(deadline=None, max_examples=40)
@given(braid_words())
def test_mirror_involution_property(b):
    d = braid_closure(b)
    mm = mirror(mirror(d))
    assert mm.signs == d.signs
    assert mirror(d).writhe == -d.writhe
    if all(len(comp) >= 3 for comp in d.components):
        # 2-arc components are only recovered up to an arc relabeling
        assert mm.crossings == d.crossings


@settings(deadline=None, max_examples=40)
@given(braid_words())
def test_total_smoothing_degrees(b):
    d = braid_closure(b)
    if not d.crossings:
        return
    n = len(d.crossings)
    all0 = smoothing_circles(d, (0,) * n)[0]
    all1 = smoothing_circles(d, (1,) * n)[0]
    # flipping one bit changes the circle count by exactly 1
    for i in range(min(n, 3)):
        v = [0] * n
        v[i] = 1
        assert abs(smoothing_circles(d, tuple(v))[0] - all0) == 1


def scanned_arc_ends(crossings):
    out = {}
    for ci, c in enumerate(crossings):
        for s, a in enumerate(c):
            out.setdefault(a, []).append((ci, s))
    return out


@settings(deadline=None, max_examples=40)
@given(braid_words())
def test_stored_arc_ends_match_a_rescan_of_the_normalized_crossings(b):
    d = braid_closure(b)
    # every tuple turned half way round names its under-strand's exit first,
    # so the orientation flips each crossing back on construction
    turned_tuples = tuple(c[2:] + c[:2] for c in d.crossings)
    turned = PlanarDiagram(turned_tuples, free_loops=d.free_loops)
    for e in (d, turned):
        assert list(e.arc_ends.items()) == list(scanned_arc_ends(e.crossings).items())
        assert e.arcs == tuple(sorted({a for c in e.crossings for a in c}))
    if d.crossings and all(len(comp) >= 3 for comp in d.components):
        # 2-arc components may keep either direction; all others flip back
        assert turned.crossings == d.crossings
        assert turned.arc_ends != scanned_arc_ends(turned_tuples)


def test_unknot_diagram_defaults():
    u = unknot_diagram()
    assert u.n_components == 1
    assert u.crossings == ()
    assert u.name == "unknot"
    assert unknot_diagram(3).free_loops == 3
