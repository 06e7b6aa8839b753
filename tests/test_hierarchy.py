"""Hierarchical specs: validation, realization, canonicity, recovery, shifts."""

import ast
from itertools import product
from pathlib import Path

import pytest

import hiergames.hierarchy
from hiergames.core import (
    Coalition,
    ExplicitGame,
    Multiset,
    _shift_extremal_points,
    _strict_games,
    is_winning,
    iter_coalitions,
    special_players,
)
from hiergames.hierarchy import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    HierSpec,
    _spec_of_rows,
    canon_check,
    canonicalize_semantic,
    hier_is_winning,
    merge_levels,
    realize,
    recover_conjunctive,
    recover_disjunctive,
    shift_extremal,
    shift_maximal_losing,
    truncate,
)


class TestValidation:
    def test_good_specs(self):
        HierSpec(DISJUNCTIVE, (3, 3), (2, 3))
        HierSpec(CONJUNCTIVE, (3, 3), (2, 2))  # last pair may tie
        HierSpec(DISJUNCTIVE, (5,), (3,))

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            HierSpec("majority", (3,), (2,))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            HierSpec(DISJUNCTIVE, (3, 3), (2,))

    def test_monotonicity(self):
        with pytest.raises(ValueError):
            HierSpec(DISJUNCTIVE, (3, 3), (2, 2))  # strict throughout
        with pytest.raises(ValueError):
            HierSpec(CONJUNCTIVE, (3, 3, 3), (2, 2, 3))  # strict below the top

    def test_degenerate_rejected(self):
        # full coalition loses: nothing wins
        with pytest.raises(ValueError):
            HierSpec(DISJUNCTIVE, (2, 2), (3, 9))
        with pytest.raises(ValueError):
            HierSpec(CONJUNCTIVE, (2, 2), (1, 5))
        with pytest.raises(ValueError):
            HierSpec(DISJUNCTIVE, (2, 2), (0, 2))  # k_i >= 1

    def test_accessors(self):
        spec = HierSpec(DISJUNCTIVE, (3, 1, 2), (2, 3, 4))
        assert spec.m == 3
        assert spec.universe() == Multiset((3, 1, 2))
        assert spec.deltas() == (2, 1, 1)
        assert str(spec) == "H_E(n=(3, 1, 2), k=(2, 3, 4))"


class TestSemantics:
    def test_disjunctive_prefix_rule(self):
        spec = HierSpec(DISJUNCTIVE, (3, 3), (2, 3))
        assert hier_is_winning(spec, Coalition((2, 0)))
        assert hier_is_winning(spec, Coalition((1, 2)))
        assert not hier_is_winning(spec, Coalition((1, 1)))

    def test_conjunctive_prefix_rule(self):
        spec = HierSpec(CONJUNCTIVE, (3, 3), (2, 4))
        assert hier_is_winning(spec, Coalition((2, 2)))
        assert not hier_is_winning(spec, Coalition((1, 3)))  # prefix_1 short
        assert not hier_is_winning(spec, Coalition((3, 0)))  # prefix_2 short

    @pytest.mark.parametrize(
        "kind,n,k",
        [
            (DISJUNCTIVE, (3, 3), (2, 3)),
            (DISJUNCTIVE, (3, 3, 3), (2, 3, 5)),
            (CONJUNCTIVE, (3, 3), (2, 4)),
            (CONJUNCTIVE, (2, 2, 3), (1, 3, 4)),
        ],
    )
    def test_realize_matches_predicate(self, kind, n, k):
        spec = HierSpec(kind, n, k)
        g = realize(spec)
        for c in iter_coalitions(spec.universe()):
            assert is_winning(g, c) == hier_is_winning(spec, c)

    def test_example_min_winning(self):
        # frozen from exact enumeration of all 64 coalitions
        g = realize(HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5)))
        assert {c.counts for c in g.min_winning} == {
            (2, 0, 0),
            (1, 2, 0),
            (0, 3, 0),
            (1, 1, 3),
            (0, 2, 3),
        }


class TestCanonicity:
    def test_canonical_spec(self):
        rep = canon_check(HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5)))
        assert rep.canonical
        assert rep.condition_a
        assert rep.condition_b == (True, True)
        assert not rep.dummy_last_level
        assert not rep.passer_first_level

    def test_condition_a_fails(self):
        rep = canon_check(HierSpec(DISJUNCTIVE, (2, 4), (3, 4)))
        assert not rep.canonical
        assert not rep.condition_a

    def test_disjunctive_dummy_boundary_still_canonical(self):
        # k_2 = k_1 + n_2 keeps the level, as the canonical dummy form
        rep = canon_check(HierSpec(DISJUNCTIVE, (2, 2), (2, 4)))
        assert rep.canonical
        assert rep.dummy_last_level

    def test_disjunctive_beyond_boundary(self):
        rep = canon_check(HierSpec(DISJUNCTIVE, (2, 2), (2, 5)))
        assert not rep.canonical
        assert rep.dummy_last_level

    def test_conjunctive_collapse_not_canonical(self):
        # levels collapse: the game is unanimity on four players
        rep = canon_check(HierSpec(CONJUNCTIVE, (2, 2), (2, 4)))
        assert not rep.canonical

    def test_conjunctive_dummy(self):
        rep = canon_check(HierSpec(CONJUNCTIVE, (3, 3), (2, 2)))
        assert rep.canonical
        assert rep.dummy_last_level

    def test_dummy_read_off_the_canonical_form(self):
        # k_2 = 3 >= k_1 + n_2 makes the second condition idle; levels 2 and 3
        # merge into H_E((1,3),(1,4)), whose last class is a dummy
        rep = canon_check(HierSpec(DISJUNCTIVE, (1, 1, 2), (1, 3, 4)))
        assert not rep.canonical
        assert rep.dummy_last_level

    def test_flags(self):
        assert canon_check(HierSpec(DISJUNCTIVE, (3, 3), (1, 3))).passer_first_level
        assert canon_check(HierSpec(CONJUNCTIVE, (3, 3), (3, 4))).blocker_first_level
        # a lone top player meets both thresholds of k = (1, 1)
        assert canon_check(HierSpec(CONJUNCTIVE, (2, 3), (1, 1))).passer_first_level

    def test_flags_against_the_realized_game(self):
        # passer, blocker and dummy on every valid spec, canonical or not
        valid = 0
        for kind in (DISJUNCTIVE, CONJUNCTIVE):
            for m in (1, 2, 3):
                for n in product(range(1, 4), repeat=m):
                    for k in product(range(1, 10), repeat=m):
                        try:
                            spec = HierSpec(kind, n, k)
                        except ValueError:
                            continue
                        valid += 1
                        rep = canon_check(spec)
                        game = realize(spec)
                        lone = Coalition((1,) + (0,) * (m - 1))
                        less_one = Coalition((n[0] - 1,) + n[1:])
                        assert rep.passer_first_level == is_winning(game, lone), spec
                        assert rep.blocker_first_level != is_winning(game, less_one), spec
                        dummy = m >= 2 and m - 1 in special_players(game).dummies
                        assert rep.dummy_last_level == dummy, spec
        assert valid == 2319


class TestTransformsOfLevels:
    def test_truncate(self):
        spec = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))
        assert truncate(spec) == HierSpec(DISJUNCTIVE, (3, 3), (2, 3))
        with pytest.raises(ValueError):
            truncate(HierSpec(DISJUNCTIVE, (3,), (2,)))

    def test_merge_levels(self):
        g = realize(HierSpec(CONJUNCTIVE, (2, 2), (2, 4)))
        merged = merge_levels(g)
        assert merged.universe == Multiset((4,))
        assert {c.counts for c in merged.min_winning} == {(4,)}
        # two disjoint pairs win: levels 0 and 2 are incomparable
        pairs = ExplicitGame(
            Multiset((1, 1, 1, 1)), frozenset({Coalition((1, 1, 0, 0)), Coalition((0, 0, 1, 1))})
        )
        with pytest.raises(ValueError, match="incomparable"):
            merge_levels(pairs)
        # strictly ordered levels: nothing to merge
        strict = realize(HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5)))
        assert merge_levels(strict) == strict

    def test_canonicalize_semantic_clamps_dummy(self):
        spec = HierSpec(DISJUNCTIVE, (2, 2), (2, 5))
        canon, mapping = canonicalize_semantic(spec)
        assert canon == HierSpec(DISJUNCTIVE, (2, 2), (2, 4))
        assert mapping == (0, 1)

    def test_canonicalize_semantic_merges(self):
        spec = HierSpec(CONJUNCTIVE, (2, 2), (2, 4))
        canon, mapping = canonicalize_semantic(spec)
        assert canon == HierSpec(CONJUNCTIVE, (4,), (4,))
        assert mapping == (0, 0)

    def test_canonicalize_is_identity_on_canonical(self):
        spec = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))
        canon, mapping = canonicalize_semantic(spec)
        assert canon == spec
        assert mapping == (0, 1, 2)


class TestRecovery:
    @pytest.mark.parametrize(
        "kind,n,k",
        [
            (DISJUNCTIVE, (3, 3), (2, 3)),
            (DISJUNCTIVE, (2, 4), (2, 4)),
            (DISJUNCTIVE, (1, 2, 4), (1, 2, 4)),
            (CONJUNCTIVE, (3, 3), (2, 4)),
            (CONJUNCTIVE, (2, 2, 2), (2, 3, 3)),
        ],
    )
    def test_round_trip(self, kind, n, k):
        spec = HierSpec(kind, n, k)
        recover = recover_disjunctive if kind == DISJUNCTIVE else recover_conjunctive
        assert recover(realize(spec)) == spec

    def test_non_hierarchical_recovers_nothing(self):
        g = realize(HierSpec(DISJUNCTIVE, (3, 3), (2, 3)))
        assert recover_conjunctive(g) is None


# the class-size tuples of criterion 7's universes (a, b), a + b <= 6
CRITERION_7_SIZES = [(a, b) for a in range(1, 6) for b in range(1, 6) if a + b <= 6]
CRITERION_7_SIZES += [(n,) for n in range(2, 7)]


@pytest.fixture(scope="module")
def strict_rows():
    """(sizes, shift-extremal rows, recover_disjunctive, recover_conjunctive)
    of every strictly ordered game of the criterion-7 class sizes, read on
    the lattice before any test's own fixtures are entered."""
    return [
        (sizes, _shift_extremal_points(game), recover_disjunctive(game), recover_conjunctive(game))
        for sizes in CRITERION_7_SIZES
        for game in _strict_games(sizes)
    ]


class TestRecoversOnRows:
    """Below its public functions recovery reads rows, never the game:
    _recover refuses what no spec describes and reads the rows, and the
    rows rule _spec_of_rows turns them into a spec."""

    @staticmethod
    def functions():
        tree = ast.parse(Path(hiergames.hierarchy.__file__).read_text(encoding="utf-8"))
        return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def test_only_the_game_side_takes_a_game(self):
        takers = set()
        for name, node in self.functions().items():
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            notes = [ast.unparse(a.annotation) if a.annotation else "" for a in args]
            if any(a.arg == "game" or "ExplicitGame" in t for a, t in zip(args, notes)):
                takers.add(name)
        public = {"merge_levels", "recover_disjunctive", "recover_conjunctive", "shift_extremal"}
        assert takers == {"_recover", *public}
        assert "_spec_of_rows" in self.functions()

    def test_rule_recovers_off_the_lattice(self, strict_rows, off_lattice):
        # what recover_* returns, from the rows alone; each spec is
        # canonical, though the rule never checks canonicity
        recovered = {DISJUNCTIVE: 0, CONJUNCTIVE: 0}
        for sizes, (wins, losses), *expected in strict_rows:
            for kind, spec in zip((DISJUNCTIVE, CONJUNCTIVE), expected):
                assert _spec_of_rows(kind, sizes, wins, losses) == spec, (kind, wins, losses)
                if spec is not None:
                    assert canon_check(spec).canonical, spec
                    recovered[kind] += 1
        assert len(strict_rows) == 153
        assert recovered == {DISJUNCTIVE: 90, CONJUNCTIVE: 90}


class TestShifts:
    def test_example_shift_extremal(self):
        spec = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))
        ext = shift_extremal(realize(spec))
        # frozen from exact enumeration: M = (1,1,2) is the unique
        # shift-maximal losing coalition
        assert {c.counts for c in ext.shift_max_losing} == {(1, 1, 2)}
        assert shift_maximal_losing(spec) == Coalition((1, 1, 2))

    def test_closed_form_matches_enumeration(self):
        for n, k in [((3, 3), (2, 3)), ((2, 4), (2, 4)), ((4, 2, 3), (2, 3, 5))]:
            spec = HierSpec(DISJUNCTIVE, n, k)
            ext = shift_extremal(realize(spec))
            assert ext.shift_max_losing == frozenset({shift_maximal_losing(spec)})

    def test_conjunctive_unique_shift_minimal_winning(self):
        spec = HierSpec(CONJUNCTIVE, (3, 3), (2, 4))
        ext = shift_extremal(realize(spec))
        assert len(ext.shift_min_winning) == 1

    def test_levels_must_be_strictly_ordered(self):
        # a game not built by merge_levels has its order derived and checked
        collapsed = realize(HierSpec(CONJUNCTIVE, (2, 2), (2, 4)))
        upside_down = ExplicitGame(Multiset((2, 2)), frozenset({Coalition((0, 1))}))
        for game in (collapsed, upside_down):
            with pytest.raises(ValueError):
                shift_extremal(game)
            merged = shift_extremal(merge_levels(game))
            assert len(merged.shift_min_winning) == 1

    def test_closed_form_guards(self):
        with pytest.raises(ValueError):
            shift_maximal_losing(HierSpec(DISJUNCTIVE, (3, 3), (1, 3)))  # passer
        with pytest.raises(ValueError):
            shift_maximal_losing(HierSpec(CONJUNCTIVE, (3, 3), (2, 4)))
