from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

from knotfill.diagram import DiagramError, euler_check
from knotfill.khovanov import kh_table
from knotfill.lspace import determinant
from knotfill.tangles import (
    INFINITY,
    TangleTemplate,
    fill,
    mirror_template,
    parse_slope,
    slope_text,
    template_from_json,
    template_to_json,
)

# two straight rails past the hole: NW-SW is one strand, NE-SE the other
RAILS = TangleTemplate(name="rails", crossings=(), ends=(1, 2, 2, 1))

# a positive trefoil with one crossing knocked out; slope +1 restores it
TREFOIL_HOLE = TangleTemplate(
    name="trefoil-hole",
    crossings=((1, 2, 3, 4), (2, 5, 6, 3)),
    ends=(5, 6, 4, 1),
)

POS_TREFOIL_KH = {(0, 2): 1, (2, 6): 1, (3, 8): 1}
FIG8_KH = {(-2, -4): 1, (-1, -2): 1, (0, 0): 1, (1, 2): 1, (2, 4): 1}


class TestParseSlope:
    def test_integers_and_strings(self):
        assert parse_slope(5) == (5, 1)
        assert parse_slope(-2) == (-2, 1)
        assert parse_slope("7") == (7, 1)
        assert parse_slope("-3/2") == (-3, 2)

    def test_infinity_spellings(self):
        for text in ("inf", "Infinity", "1/0", float("inf")):
            assert parse_slope(text) == INFINITY

    def test_fraction_and_pair_reduce(self):
        assert parse_slope(Fraction(6, 4)) == (3, 2)
        assert parse_slope((6, -4)) == (-3, 2)
        assert parse_slope((0, 7)) == (0, 1)

    def test_rejects_zero_over_zero(self):
        for value in ((0, 0), "0/0"):
            with pytest.raises(DiagramError, match="slope 0/0 is not a tangle"):
                parse_slope(value)

    def test_text_reads_like_its_pair(self):
        for text, pair in [("2/0", (2, 0)), ("-1/0", (-1, 0)), ("6/-4", (6, -4)), ("0/7", (0, 7))]:
            assert parse_slope(text) == parse_slope(pair)

    def test_rejects_non_numeric_text(self):
        for text in ("x", "1.5", "3/", "/2", "1/2/3", ""):
            with pytest.raises(DiagramError, match=re.escape(repr(text))):
                parse_slope(text)

    def test_rejects_plain_floats(self):
        with pytest.raises(DiagramError):
            parse_slope(1.5)

    def test_text_roundtrip(self):
        for s in ["inf", "0", "4", "-3/2", "7/5"]:
            assert slope_text(parse_slope(s)) == s


class TestTemplateValidation:
    def test_accepts_straight_rails(self):
        assert RAILS.arc_count == 2

    def test_rejects_wrong_end_count(self):
        with pytest.raises(DiagramError):
            TangleTemplate(name="bad", crossings=(), ends=(1, 2, 2))

    def test_rejects_dangling_arc(self):
        with pytest.raises(DiagramError):
            TangleTemplate(name="bad", crossings=((1, 2, 3, 4), (2, 5, 6, 3)), ends=(5, 6, 4, 7))

    def test_rejects_negative_free_loops(self):
        with pytest.raises(DiagramError):
            TangleTemplate(name="bad", crossings=(), ends=(1, 2, 2, 1), free_loops=-1)

    def test_mirror_is_an_involution(self):
        # tuples come back rotated by two slots, which names the same crossing
        back = mirror_template(mirror_template(TREFOIL_HOLE))
        for got, want in zip(back.crossings, TREFOIL_HOLE.crossings):
            assert got in (want, want[2:] + want[:2])

    def test_json_roundtrip(self):
        payload = json.dumps(template_to_json(TREFOIL_HOLE))
        again = template_from_json(payload)
        assert again == TangleTemplate(
            name=TREFOIL_HOLE.name,
            crossings=TREFOIL_HOLE.crossings,
            ends=TREFOIL_HOLE.ends,
        )

    def test_json_rejects_other_formats(self):
        with pytest.raises(DiagramError):
            template_from_json({"format": "something-else", "name": "x"})


class TestRailsFills:
    def test_slope_zero_is_the_two_component_unlink(self):
        d = fill(RAILS, 0)
        assert d.n_components == 2
        assert determinant(d) == 0

    def test_slope_infinity_is_the_unknot(self):
        d = fill(RAILS, "inf")
        assert d.n_components == 1
        assert kh_table(d).entries == {(0, 0): 1}

    def test_positive_integer_slopes_are_positive_torus_links(self):
        assert kh_table(fill(RAILS, 3)).entries == POS_TREFOIL_KH
        d2 = fill(RAILS, 2)
        assert determinant(d2) == 2 and d2.n_components == 2

    @pytest.mark.parametrize(
        "p,q",
        [(3, 2), (2, 3), (5, 3), (7, 5), (12, 5), (-8, 3), (13, 8), (21, 13), (11, 4)],
    )
    def test_two_bridge_determinants(self, p, q):
        d = fill(RAILS, Fraction(p, q))
        assert euler_check(d)
        assert determinant(d) == abs(p)

    def test_b53_is_the_figure_eight(self):
        assert kh_table(fill(RAILS, Fraction(5, 3))).entries == FIG8_KH

    def test_b32_is_the_left_trefoil(self):
        entries = kh_table(fill(RAILS, Fraction(3, 2))).entries
        assert entries == {(-h, -q): d for (h, q), d in POS_TREFOIL_KH.items()}

    def test_integral_fraction_matches_integer_fill(self):
        assert fill(RAILS, Fraction(4, 1)).crossings == fill(RAILS, 4).crossings


class TestHoleRefilling:
    def test_slope_one_restores_the_trefoil(self):
        assert kh_table(fill(TREFOIL_HOLE, 1)).entries == POS_TREFOIL_KH

    def test_slope_minus_one_unknots(self):
        assert kh_table(fill(TREFOIL_HOLE, -1)).entries == {(0, 0): 1}

    def test_smoothing_slopes(self):
        assert determinant(fill(TREFOIL_HOLE, 0)) == 2  # Hopf link
        assert determinant(fill(TREFOIL_HOLE, "inf")) == 1  # unknot

    def test_twist_family_determinants_are_affine(self):
        dets = [determinant(fill(TREFOIL_HOLE, n)) for n in range(-5, 9)]
        assert dets == [abs(n + 2) for n in range(-5, 9)]

    def test_rational_fills_follow_the_same_line(self):
        # det(fill(p/q)) = |p - k0*q| with the framing offset k0 = -2
        assert determinant(fill(TREFOIL_HOLE, Fraction(5, 2))) == 9
        assert determinant(fill(TREFOIL_HOLE, Fraction(-5, 2))) == 1

    def test_mirrored_template_fills_mirror(self):
        entries = kh_table(fill(mirror_template(TREFOIL_HOLE), -1)).entries
        assert entries == {(-h, -q): d for (h, q), d in POS_TREFOIL_KH.items()}

    def test_fill_names_mention_template_and_slope(self):
        assert fill(TREFOIL_HOLE, Fraction(3, 2)).name == "trefoil-hole(3/2)"
        assert fill(TREFOIL_HOLE, "inf").name == "trefoil-hole(inf)"
