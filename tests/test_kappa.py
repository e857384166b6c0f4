from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotfill import kappa as kappa_module
from knotfill.diagram import DiagramError
from knotfill.khovanov import DEFAULT_MAX_GENERATORS, BudgetError, KhTable, kh_table
from knotfill.kappa import (
    INJECTIVE,
    SURJECTIVE,
    StepError,
    FillingFamily,
    TransitionError,
    _TwistFamily,
    classify_steps,
    compute_family,
    compute_kappa,
    fill_table,
    find_transition,
    kappa_for_template,
    kappa_width,
)
from knotfill.symmetric import (
    SymmetricBraid,
    SymmetricPlat,
    braid_quotient_template,
    quotient_template,
)
from knotfill.scan import compile_events, peak_width, template_word
from knotfill.tangles import fill, mirror_template

RAILS = quotient_template(SymmetricPlat(1, ()), name="rails")
TREF = quotient_template(SymmetricPlat(3, (2, 1, -3, 2)), name="tref")

# frozen by an oracle run: the family of the positive-trefoil plat settles
# one step below the thin side, picking up the width-two table of fill -1
TREF_KAPPA = {(-5, -15): 1, (-4, -11): 1, (-3, -11): 1, (-2, -9): 1, (0, -5): 1}

# the closed-braid quotient of T(2,5), framed so that fill 0 has determinant
# zero; the orientation its two-component fills pick for themselves reverses
# one component against the knot fills, so their raw gradings drift with n
T25_BRAID = braid_quotient_template(
    SymmetricBraid.from_word((1, 1, 1, 1, 1)), twists=-6, name="t25-braid"
)
# frozen by an oracle run on the plat quotient of the same knot,
# SymmetricPlat(3, (-2, -3, 2, 1, 1, -2, 3, 3)), whose fills already come
# out in the family orientation
T25_KAPPA = {
    (-2, -13): 1, (-1, -11): 1, (0, -9): 1, (0, -7): 1,
    (1, -7): 2, (2, -5): 1, (3, -3): 1, (4, -1): 1,
}


# the words of the benchmark's family pool (SymmetricPlat(m, word))
FAMILY_PIN_WORDS = [
    (1, (1, 1, 1, -1, -1)),
    (3, (-1, -3, -1, -2)),
    (3, (-2, -1, 3, -2)),
    (3, (-2, 1, -1, -2, -2)),
    (3, (-2, 3, -2, 2)),
    (3, (2, 1, -3, 2)),
    (3, (2, 1, -3, 2, 1)),
    (3, (2, 2, 3, -2)),
]


def assert_family_matches_fills(t, lo=-8, hi=8):
    """Every table of the shared sweep against ``fill_table`` of its fill,
    which computes the fill on its own (by the cube when it is small, else
    by a full sweep).  Every step must also read at the one alignment the
    twist cone fixes."""
    # an uncapped sweep from the hole can be much wider than a fill's own
    assert peak_width(template_word(t)) <= peak_width(compile_events(fill(t, 2)))
    tables = _TwistFamily(t, DEFAULT_MAX_GENERATORS).tables(range(lo, hi + 1))
    for n in range(lo, hi + 1):
        assert tables[n].entries == fill_table(t, n).entries, n
    assert len(classify_steps(FillingFamily(t, lo, hi, tables))) == hi - lo


def staircase_family(dims, name="steps"):
    """Synthetic family with thin staircase tables of the given sizes, each
    one q higher than the last, as the twist cone puts real fills."""
    lo = 0
    tables = {
        lo + i: KhTable({(j, 2 * j + lo + i): 1 for j in range(d)})
        for i, d in enumerate(dims)
    }
    fam = FillingFamily(RAILS, lo, lo + len(dims) - 1, tables)
    classify_steps(fam)
    return fam


class TestComputeFamily:
    def test_empty_range_is_an_error(self):
        with pytest.raises(DiagramError):
            compute_family(RAILS, (3, 2))

    def test_rails_window(self):
        fam = compute_family(RAILS, (-3, 3))
        assert fam.dims() == {-3: 3, -2: 2, -1: 1, 0: 2, 1: 1, 2: 2, 3: 3}

    def test_window_of_ambiguous_steps_is_classified(self):
        # both tables fit each other under several q-shifts; the cone's
        # shift is the one that counts
        fam = compute_family(RAILS, (0, 1))
        assert [(s.n, s.kind) for s in classify_steps(fam)] == [(1, INJECTIVE)]

    def test_unit_step_violation_is_an_error(self):
        tables = {
            0: KhTable({(0, 0): 1}),
            1: KhTable({(0, 2): 1, (1, 4): 1, (2, 6): 1}),
        }
        with pytest.raises(StepError):
            classify_steps(FillingFamily(RAILS, 0, 1, tables))

    def test_unalignable_tables_are_an_error(self):
        tables = {
            0: KhTable({(0, 0): 1, (5, 20): 1}),
            1: KhTable({(0, 0): 1, (1, 2): 1, (2, 4): 1}),
        }
        with pytest.raises(StepError):
            classify_steps(FillingFamily(RAILS, 0, 1, tables))

    def test_tables_aligned_only_by_another_shift_are_an_error(self):
        # {(j, 2j)} of 4 then 3 generators differ in one entry unshifted,
        # not under the cone's q -> q - 1
        tables = {n: KhTable({(j, 2 * j): 1 for j in range(d)}) for n, d in ((0, 4), (1, 3))}
        with pytest.raises(StepError):
            classify_steps(FillingFamily(RAILS, 0, 1, tables))


class TestSharedSweep:
    @pytest.mark.parametrize(
        "template",
        [RAILS, TREF, mirror_template(TREF), T25_BRAID],
        ids=["rails", "tref", "tref-mirror", "t25-braid"],
    )
    def test_tables_equal_their_fills(self, template):
        assert_family_matches_fills(template)

    @pytest.mark.parametrize("m,word", FAMILY_PIN_WORDS)
    def test_family_pool_tables_equal_their_fills(self, m, word):
        assert_family_matches_fills(quotient_template(SymmetricPlat(m, word)))

    @given(
        st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=4).map(tuple)
    )
    @settings(max_examples=5, deadline=None)
    def test_symmetric_plat_tables_equal_their_fills(self, word):
        # the cone needs the other resolution of a twist, the infinity
        # fill, to be an unknot; (1,) for one closes to a larger link
        t = quotient_template(SymmetricPlat(3, word))
        if kh_table(fill(t, "inf")).total_dim == 1:
            assert_family_matches_fills(t)
        else:
            with pytest.raises(DiagramError, match="no twist family"):
                _TwistFamily(t, DEFAULT_MAX_GENERATORS).table(0)

    def test_template_without_unknotted_infinity_fill_is_rejected(self):
        # the infinity fill closes to a 3-component link of reduced dimension 4
        t = quotient_template(SymmetricPlat(3, (1,)))
        with pytest.raises(DiagramError, match="reduced dimension 4"):
            compute_family(t, (-8, 8))

    def test_family_builds_one_fill_besides_the_template_word(self, monkeypatch):
        # the knot fill that fixes the crossing counts, and fill 1 inside
        # ``template_word``; no fill is built per table
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return fill(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("knotfill") and getattr(module, "fill", None) is fill:
                monkeypatch.setattr(module, "fill", counted)
        compute_family(TREF, (-8, 8))
        assert len(calls) <= 2, calls


class TestClassifySteps:
    def test_rails_kinds(self):
        fam = compute_family(RAILS, (-4, 4))
        kinds = {s.n: s.kind for s in classify_steps(fam)}
        assert kinds == {
            -3: INJECTIVE,
            -2: INJECTIVE,
            -1: INJECTIVE,
            0: SURJECTIVE,
            1: INJECTIVE,
            2: SURJECTIVE,
            3: SURJECTIVE,
            4: SURJECTIVE,
        }

    def test_defects_are_single_bigradings(self):
        fam = compute_family(RAILS, (-3, 3))
        for step in classify_steps(fam):
            h, q = step.defect_bigrading
            assert isinstance(h, int) and isinstance(q, int)


class TestFindTransition:
    def test_rails_transition(self):
        fam = compute_family(RAILS, (-6, 6))
        prof = find_transition(fam)
        assert prof.N == -1
        assert prof.bumps == (0,)
        assert prof.margin >= (4, 4)

    @pytest.mark.parametrize(
        "word,expected_n,bump",
        [((1,), 1, 2), ((-1,), -3, -2), ((1, 1, 1), 5, 6)],
    )
    def test_unknotted_cores_transition_below_the_bump(self, word, expected_n, bump):
        # the two extra generators sit at the determinant-zero fill, and the
        # transition lands one step under it
        t = quotient_template(SymmetricPlat(1, word))
        run = kappa_for_template(t)
        assert run.profile.N == expected_n
        assert bump in run.profile.bumps

    def test_one_sided_window_asks_to_widen(self):
        fam = compute_family(RAILS, (-8, -2))
        with pytest.raises(TransitionError, match="widen"):
            find_transition(fam)

    @pytest.mark.parametrize(
        "n_range,missing", [((-8, -2), SURJECTIVE), ((2, 8), INJECTIVE)]
    )
    def test_missing_step_kind_is_named(self, n_range, missing):
        with pytest.raises(TransitionError) as err:
            find_transition(compute_family(RAILS, n_range))
        assert err.value.missing == missing

    def test_non_monotone_pattern_is_an_error(self):
        fam = staircase_family([2, 3, 4, 3, 2])
        with pytest.raises(TransitionError, match="monotone") as err:
            find_transition(fam)
        assert err.value.missing is None

    def test_interior_bump_is_excluded_not_fatal(self):
        fam = staircase_family([4, 3, 2, 3, 2, 3, 4])
        prof = find_transition(fam)
        assert prof.N == 2
        assert prof.bumps == (3,)


class TestComputeKappa:
    def test_rails_kappa_is_one_dimensional(self):
        fam = compute_family(RAILS, (-6, 6))
        table = compute_kappa(fam, find_transition(fam))
        assert table.entries == {(0, 1): 1}
        assert kappa_width(table) == 1
        assert table.N == -1

    def test_trefoil_kappa_table(self):
        run = kappa_for_template(TREF)
        assert run.profile.N == -1
        assert run.table.entries == TREF_KAPPA
        assert run.table.total_dim == 5
        assert kappa_width(run.table) == 2

    def test_mirror_template_reads_the_thin_flank(self):
        # the mirrored family transitions against the other side of its
        # bump, so the two-step image picks up the thin table instead
        run = kappa_for_template(quotient_template(SymmetricPlat(3, (2, 1, 3, -2))))
        assert run.table.total_dim == 5
        assert kappa_width(run.table) == 1

    @pytest.mark.slow
    def test_wider_window_is_stable(self):
        fam = compute_family(TREF, (-9, 8))
        prof = find_transition(fam)
        table = compute_kappa(fam, prof)
        assert prof.N == -1
        assert table.entries == TREF_KAPPA

    def test_json_shape(self):
        run = kappa_for_template(RAILS)
        data = run.table.to_json_dict()
        assert data["format"] == "kf-1"
        assert data["N"] == -1
        assert data["entries"] == [{"h": 0, "q": 1, "dim": 1}]

    def test_missing_zero_anchor_is_an_error(self):
        fam = compute_family(RAILS, (-6, 6))
        prof = find_transition(fam)
        clipped = compute_family(RAILS, (1, 6))
        with pytest.raises(StepError):
            compute_kappa(clipped, prof)


class TestDriver:
    def test_far_hint_still_converges(self):
        run = kappa_for_template(RAILS, hint=6)
        assert run.profile.N == -1
        assert run.table.entries == {(0, 1): 1}

    @pytest.mark.parametrize("hint", [-12, 12])
    def test_window_widens_on_the_lacking_side(self, hint):
        # the first window holds only injective (hint -12) or only
        # surjective (hint 12) steps
        run = kappa_for_template(RAILS, hint=hint)
        assert run.profile.N == -1
        assert run.family.n_lo <= -5 and run.family.n_hi >= 3
        if hint < 0:
            assert run.family.n_lo == hint - 5
        else:
            assert run.family.n_hi == hint + 5

    def test_margin_grows_only_by_the_steps_it_lacks(self):
        # fills -5..10 show the transition at 5 with three surjective steps
        # (8, 9, 10) above the bump at 6; the fourth needs one more fill
        run = kappa_for_template(quotient_template(SymmetricPlat(1, (1, 1, 1))), hint=0)
        assert run.profile.N == 5 and run.profile.bumps == (6,)
        assert (run.family.n_lo, run.family.n_hi) == (-5, 11)
        assert run.profile.margin == (10, 4)

    def test_fill_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(kappa_module, "MAX_FILLS", 3)
        with pytest.raises(BudgetError):
            kappa_for_template(RAILS)

    def test_reported_widths_cover_the_window(self):
        run = kappa_for_template(RAILS)
        widths = run.family.widths()
        assert set(widths) == set(range(run.family.n_lo, run.family.n_hi + 1))
        assert all(w >= 1 for w in widths.values())

    @given(st.lists(st.sampled_from([1, -1]), max_size=3).map(tuple))
    @settings(max_examples=6, deadline=None)
    def test_unknotted_cores_have_trivial_kappa(self, word):
        t = quotient_template(SymmetricPlat(1, word))
        run = kappa_for_template(t)
        assert run.table.total_dim == 1
        assert run.profile.N == 2 * sum(word) - 1


class TestTwoComponentOrientation:
    def test_two_component_fills_are_regraded(self):
        # fill 4 has two components; reversing one moves it by (dh, 3 dh)
        raw = kh_table(fill(T25_BRAID, 4))
        assert fill(T25_BRAID, 4).n_components == 2
        assert fill_table(T25_BRAID, 4).entries == raw.shifted(-4, -12).entries

    def test_knot_fills_keep_absolute_gradings(self):
        for n in (-3, 1, 5):
            assert fill_table(T25_BRAID, n).entries == kh_table(fill(T25_BRAID, n)).entries

    def test_drifting_family_aligns_and_matches_the_plat_oracle(self):
        run = kappa_for_template(T25_BRAID)
        assert run.profile.N == 7
        assert run.profile.bumps == (8,)
        assert run.table.entries == T25_KAPPA
        assert all(
            step.defect_bigrading is not None for step in classify_steps(run.family)
        )
