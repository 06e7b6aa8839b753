"""Duality (explicit and closed-form) and minor operations."""

from fractions import Fraction
from itertools import product

import pytest

from hiergames import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    Coalition,
    EnumerationCapError,
    ExplicitGame,
    HierSpec,
    MinorStep,
    Multiset,
    canon_check,
    dual_explicit,
    dual_spec,
    hier_is_winning,
    is_winning,
    iter_coalitions,
    k_star,
    minor,
    named_minors,
    realize,
    truncate,
)


def game(counts, winning):
    u = Multiset(counts)
    return ExplicitGame(u, frozenset(Coalition(w) for w in winning))


class TestDualExplicit:
    def test_complement_semantics(self):
        g = game((2, 2), [(2, 0), (1, 2)])
        d = dual_explicit(g)
        assert d.universe == g.universe
        for x in iter_coalitions(g.universe):
            comp = g.universe.complement(x)
            assert is_winning(d, x) == (not is_winning(g, comp))

    @pytest.mark.parametrize(
        "counts,winning",
        [
            ((2, 2), [(2, 0), (1, 2)]),
            ((3,), [(2,)]),
            ((1, 1, 1, 1), [(1, 1, 0, 0), (0, 0, 1, 1)]),
            ((2, 3), [(2, 0), (1, 1), (0, 2)]),
        ],
    )
    def test_involution(self, counts, winning):
        g = game(counts, winning)
        assert dual_explicit(dual_explicit(g)) == g

    def test_dual_of_unanimity_is_any_single_player(self):
        g = game((3,), [(3,)])
        assert dual_explicit(g).min_winning == frozenset({Coalition((1,))})

    def test_cap_limits_enumeration(self, monkeypatch):
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "3")
        g = game((2, 2), [(2, 0)])
        with pytest.raises(EnumerationCapError):
            dual_explicit(g)


class TestDualSpec:
    def test_kind_swaps_and_thresholds_reflect(self):
        d = dual_spec(HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5)))
        assert d.kind == CONJUNCTIVE
        assert (d.n, d.k) == ((3, 3, 3), (2, 4, 5))

    def test_two_level_example(self):
        d = dual_spec(HierSpec(DISJUNCTIVE, (2, 4), (2, 4)))
        assert (d.kind, d.n, d.k) == (CONJUNCTIVE, (2, 4), (1, 3))

    @pytest.mark.parametrize(
        "spec",
        [
            HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5)),
            HierSpec(CONJUNCTIVE, (3, 3), (2, 4)),
            HierSpec(DISJUNCTIVE, (1, 2, 4), (1, 2, 4)),
            HierSpec(CONJUNCTIVE, (2, 2, 2), (1, 2, 3)),
        ],
    )
    def test_involution(self, spec):
        assert dual_spec(dual_spec(spec)) == spec

    @pytest.mark.parametrize(
        "spec",
        [
            HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5)),
            HierSpec(CONJUNCTIVE, (3, 3), (2, 4)),
            HierSpec(DISJUNCTIVE, (2, 4), (2, 4)),
        ],
    )
    def test_matches_explicit_dual(self, spec):
        assert realize(dual_spec(spec)) == dual_explicit(realize(spec))


    @pytest.mark.parametrize(
        "spec",
        [HierSpec(CONJUNCTIVE, (2, 2), (2, 4)), HierSpec(DISJUNCTIVE, (2, 2), (2, 5))],
        ids=str,
    )
    def test_non_canonical_spec_names_the_cause(self, spec):
        with pytest.raises(ValueError) as err:
            dual_spec(spec)
        assert str(err.value) == (
            f"{spec} is not canonical, so it has no dual spec on its levels; "
            "canon gives its canonical form"
        )

    def test_defined_exactly_on_canonical_specs(self):
        valid = defined = 0
        for m in (1, 2, 3):
            for kind, n, k in product(
                (DISJUNCTIVE, CONJUNCTIVE),
                product(range(1, 4), repeat=m),
                product(range(1, 3 * m + 2), repeat=m),
            ):
                try:
                    spec = HierSpec(kind, n, k)
                except ValueError:
                    continue
                valid += 1
                try:
                    dual_spec(spec)
                except ValueError:
                    assert not canon_check(spec).canonical, spec
                else:
                    assert canon_check(spec).canonical, spec
                    defined += 1
        assert (valid, defined) == (2715, 300)


class TestKStar:
    def test_reflection_formula(self):
        # k*_i = N_i - k_i + 1 with N_i the prefix population
        assert k_star((3, 3, 3), (2, 3, 5)) == (2, 4, 5)
        assert k_star((2, 4), (2, 4)) == (1, 3)

    def test_involution(self):
        n, k = (3, 1, 2), (2, 3, 4)
        assert k_star(n, k_star(n, k)) == k

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            k_star((3, 3), (2, 3, 5))

    @pytest.mark.parametrize(
        "n,k,error,message",
        [
            ((3, 3), (2, 3, 5), ValueError, "n and k must be equal length, got (3, 3) / (2, 3, 5)"),
            ((), (), ValueError, "universe needs at least one level"),
            ((3, 0), (2, 3), ValueError, "universe count entries must be >= 1, got 0"),
            ((3, True), (2, 3), TypeError,
             "universe count entries must be ints, got True of type bool"),
            ((3, 3), (4, 7), ValueError, "thresholds (4, 7) exceed prefixes (3, 6), no conjugate"),
            ((3, 3), (1, "a"), TypeError, "threshold entries must be ints, got 'a' of type str"),
            ((2,), (1.5,), TypeError, "threshold entries must be ints, got 1.5 of type float"),
            ((2,), (True,), TypeError, "threshold entries must be ints, got True of type bool"),
            ((2,), (Fraction(1, 2),), TypeError,
             "threshold entries must be ints, got Fraction(1, 2) of type Fraction"),
            ((2,), (0,), ValueError, "threshold entries must be >= 1, got 0"),
            ((2,), (-1,), ValueError, "threshold entries must be >= 1, got -1"),
        ],
    )
    def test_rejections(self, n, k, error, message):
        with pytest.raises(error) as caught:
            k_star(n, k)
        assert str(caught.value) == message


class TestMinor:
    def test_subgame_keeps_contained_winners(self):
        g = game((2, 2), [(2, 0), (1, 2)])
        sub = minor(g, MinorStep("subgame", Coalition((0, 1))))
        assert sub.universe == Multiset((2, 1))
        assert sub.min_winning == frozenset({Coalition((2, 0))})

    def test_reduced_hands_removed_players_in(self):
        g = game((2, 2), [(2, 0), (1, 2)])
        red = minor(g, MinorStep("reduced", Coalition((0, 1))))
        assert red.min_winning == frozenset({Coalition((2, 0)), Coalition((1, 1))})

    def test_emptied_level_is_dropped(self):
        g = game((2, 2), [(2, 0), (1, 2)])
        sub = minor(g, MinorStep("subgame", Coalition((0, 2))))
        assert sub.universe == Multiset((2,))
        assert sub.min_winning == frozenset({Coalition((2,))})
        red = minor(g, MinorStep("reduced", Coalition((0, 2))))
        assert red.min_winning == frozenset({Coalition((1,))})

    def test_subgame_semantics_exhaustive(self):
        spec = HierSpec(DISJUNCTIVE, (2, 2, 2), (2, 3, 4))
        g = realize(spec)
        sub = minor(g, MinorStep("subgame", Coalition((1, 0, 1))))
        for x in iter_coalitions(sub.universe):
            assert is_winning(sub, x) == hier_is_winning(spec, x)

    def test_reduced_semantics_exhaustive(self):
        spec = HierSpec(DISJUNCTIVE, (2, 2, 2), (2, 3, 4))
        g = realize(spec)
        removed = (1, 0, 1)
        red = minor(g, MinorStep("reduced", Coalition(removed)))
        for x in iter_coalitions(red.universe):
            joint = tuple(a + b for a, b in zip(x.counts, removed))
            assert is_winning(red, x) == hier_is_winning(spec, Coalition(joint))

    def test_removal_guards(self):
        g = game((2, 2), [(2, 0)])
        with pytest.raises(ValueError):
            minor(g, MinorStep("subgame", Coalition((1,))))
        with pytest.raises(ValueError):
            minor(g, MinorStep("subgame", Coalition((3, 0))))
        with pytest.raises(ValueError):
            minor(g, MinorStep("subgame", Coalition((2, 2))))


class TestNamedMinors:
    def test_example_catalog(self):
        spec = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))
        got = {nm.name: (nm.spec.n, nm.spec.k) for nm in named_minors(spec)}
        assert got == {
            "cut_tail": ((3, 3), (2, 3)),
            "cut_head": ((4, 3), (3, 5)),
            "remove_one(1)": ((2, 3, 3), (1, 2, 4)),
            "remove_one(3)": ((3, 3, 2), (2, 3, 4)),
        }

    def test_cut_tail_agrees_with_truncate(self):
        spec = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))
        nm = next(x for x in named_minors(spec) if x.name == "cut_tail")
        assert nm.spec == truncate(spec)
        assert minor(realize(spec), nm.step) == realize(nm.spec)

    def test_remove_one_steps_realize_their_specs(self):
        spec = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))
        g = realize(spec)
        for nm in named_minors(spec):
            if not nm.name.startswith("remove_one"):
                continue
            assert minor(g, nm.step) == realize(nm.spec)

    def test_cut_head_survivors_match_merged_level(self):
        # the k_1 - 1 surviving top players act like level-2 players, so the
        # closed form lives on (n_2 + k_1 - 1, n_3, ...)
        spec = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))
        nm = next(x for x in named_minors(spec) if x.name == "cut_head")
        cut = minor(realize(spec), nm.step)
        assert cut.universe == Multiset((1, 3, 3))
        merged = realize(nm.spec)
        for x in iter_coalitions(cut.universe):
            image = (x.counts[0] + x.counts[1], x.counts[2])
            assert is_winning(cut, x) == is_winning(merged, Coalition(image))

    def test_requires_canonical_disjunctive(self):
        with pytest.raises(ValueError):
            named_minors(HierSpec(CONJUNCTIVE, (3, 3), (2, 4)))
        with pytest.raises(ValueError):
            named_minors(HierSpec(DISJUNCTIVE, (2, 4), (3, 4)))
