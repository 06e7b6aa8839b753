"""LP-backed classification oracle: certificates, verification, and
extremal weights."""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import hiergames.certificates
import hiergames.feasibility
import hiergames.oracle
from hiergames import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    Coalition,
    ExplicitGame,
    HierSpec,
    LinearSystem,
    Multiset,
    RoughCert,
    classify,
    dual_spec,
    extremal_weight,
    load_document,
    maximal_losing,
    oracle_classify,
    oracle_rough,
    oracle_weighted,
    oracle_witness,
    realize,
    run_sweep,
    special_players,
    sweep_specs,
    verify_representation,
)
from hiergames.oracle import _rows, _separating_system
from test_golden import DATA, oracle_games


def game(counts, winning):
    u = Multiset(counts)
    return ExplicitGame(u, frozenset(Coalition(w) for w in winning))


EXAMPLE = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))


class TestOracleWeighted:
    def test_two_level_weighted(self):
        g = realize(HierSpec(DISJUNCTIVE, (3, 3), (2, 3)))
        cert = oracle_weighted(g)
        assert cert is not None
        assert verify_representation(g, cert, "weighted")

    def test_simple_majority(self):
        g = realize(HierSpec(DISJUNCTIVE, (5,), (3,)))
        cert = oracle_weighted(g)
        assert cert is not None
        assert verify_representation(g, cert, "weighted")
        assert verify_representation(g, RoughCert(3, (1,)), "weighted")

    def test_veto_committee_weighted(self):
        # five permanent members with veto plus ten others, nine votes to pass
        g = realize(HierSpec(CONJUNCTIVE, (5, 10), (5, 9)))
        assert verify_representation(g, RoughCert(39, (7, 1)), "weighted")
        cert = oracle_weighted(g)
        assert cert is not None
        assert verify_representation(g, cert, "weighted")

    def test_example_not_weighted(self):
        assert oracle_weighted(realize(EXAMPLE)) is None

    def test_quota_below_one_is_a_bug(self, monkeypatch):
        # the empty coalition loses, so a weighted witness with quota 0 can
        # only come from a broken solver
        def quota_zero(system):
            return 1, (1,) * (system.num_vars - 1) + (0,)

        monkeypatch.setattr(LinearSystem, "_feasible_ints", quota_zero)
        with pytest.raises(RuntimeError, match="weighted witness has quota 0 < 1"):
            oracle_weighted(realize(HierSpec(DISJUNCTIVE, (2,), (1,))))

    def test_pairing_obstruction(self):
        # {1,2} and {3,4} win, their cross swaps lose: no weights can do that
        g = game((1, 1, 1, 1), [(1, 1, 0, 0), (0, 0, 1, 1)])
        assert oracle_weighted(g) is None


class TestOracleRough:
    def test_example_rough_cert(self):
        g = realize(EXAMPLE)
        cert = oracle_rough(g)
        assert cert == RoughCert(1, (Fraction(1, 2), Fraction(1, 2), 0))
        assert verify_representation(g, cert, "rough")
        assert not verify_representation(g, cert, "weighted")

    def test_pairing_game_is_rough(self):
        g = game((1, 1, 1, 1), [(1, 1, 0, 0), (0, 0, 1, 1)])
        half = Fraction(1, 2)
        assert verify_representation(g, RoughCert(1, (half,) * 4), "rough")
        cert = oracle_rough(g)
        assert cert is not None
        assert verify_representation(g, cert, "rough")

    def test_passer_gives_zero_quota_option(self):
        g = realize(HierSpec(DISJUNCTIVE, (1, 2, 4), (1, 2, 4)))
        assert verify_representation(g, RoughCert(0, (1, 0, 0)), "rough")
        cert = oracle_rough(g)
        assert cert is not None
        assert verify_representation(g, cert, "rough")

    def test_zero_quota_picks_the_lowest_passer_level(self):
        # two passer levels above a not-rough game on levels 3-5: the
        # quota-1 system is infeasible, so branch B certifies with level 1
        g = game(
            (1, 1, 2, 2, 2),
            [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 2, 0), (0, 0, 0, 0, 2)],
        )
        assert oracle_rough(g) == RoughCert(0, (1, 0, 0, 0, 0))
        assert oracle_witness(g) == ("rough_not_weighted", RoughCert(0, (1, 0, 0, 0, 0)))

    def test_not_even_rough(self):
        g = realize(HierSpec(DISJUNCTIVE, (2, 2, 2, 2, 2), (2, 3, 4, 5, 6)))
        assert oracle_rough(g) is None


class TestOracleClassify:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (HierSpec(DISJUNCTIVE, (3, 3), (2, 3)), "weighted"),
            (EXAMPLE, "rough_not_weighted"),
            (HierSpec(DISJUNCTIVE, (2, 2, 2, 2, 2), (2, 3, 4, 5, 6)), "not_rough"),
            (HierSpec(CONJUNCTIVE, (5, 10), (5, 9)), "weighted"),
        ],
    )
    def test_three_way(self, spec, expected):
        assert oracle_classify(realize(spec)) == expected


class TestOracleWitness:
    """The cascade behind oracle_classify returns the class with its witness."""

    @staticmethod
    def check(g):
        game_class, cert = oracle_witness(g)
        assert game_class == oracle_classify(g)
        assert (cert is None) == (game_class == "not_rough")
        if cert is not None:
            mode = "weighted" if game_class == "weighted" else "rough"
            assert verify_representation(g, cert, mode)
        return game_class

    @pytest.mark.parametrize(
        "name,expected",
        [("weighted", "weighted"), ("rough", "rough_not_weighted"), ("not_rough", "not_rough")],
    )
    def test_explicit_golden_documents(self, name, expected):
        path = Path(__file__).parent / "data" / f"explicit_{name}.json"
        assert self.check(load_document(str(path)).to_game()) == expected

    def test_seeded_explicit_games(self):
        # games on 1-4 levels of 1-3 players, minimal winning coalitions
        # drawn at random (the constructor minimizes them)
        rng = random.Random(16)
        seen = set()
        for _ in range(120):
            counts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            draws = [tuple(rng.randint(0, c) for c in counts) for _ in range(rng.randint(1, 4))]
            winning = frozenset(Coalition(x) for x in draws if any(x))
            if winning:
                seen.add(self.check(ExplicitGame(Multiset(counts), winning)))
        assert seen == {"weighted", "rough_not_weighted", "not_rough"}


class TestVerifyRepresentation:
    def test_rejects_wrong_dimension_and_mode(self):
        g = realize(HierSpec(DISJUNCTIVE, (3, 3), (2, 3)))
        with pytest.raises(ValueError):
            verify_representation(g, RoughCert(1, (1, 1, 1)), "rough")
        with pytest.raises(ValueError):
            verify_representation(g, RoughCert(1, (1, 1)), "sharp")

    @pytest.mark.parametrize(
        "counts,winning,quota,weights,weighted,rough",
        [
            # everything wins: no maximal losing coalition, so the check is
            # w({}) >= q, which only a zero quota passes; one level has
            # shift-extremal rows, two equivalent levels have none
            ((2,), [(0,)], 0, (1,), True, True),
            ((2,), [(0,)], 1, (1,), False, False),
            ((2, 1), [(0, 0)], 0, (1, 1), True, True),
            ((2, 1), [(0, 0)], 0, (1, 2), True, True),
            ((2, 1), [(0, 0)], Fraction(1, 2), (1, 1), False, False),
            # nothing wins: no minimal winning coalition, so the check is
            # the full coalition's weight against the quota
            ((2,), [], 3, (1,), True, True),
            ((2,), [], 2, (1,), False, True),
            ((2,), [], 1, (1,), False, False),
            ((2, 1), [], 4, (1, 1), True, True),
            ((2, 1), [], 3, (1, 1), False, True),
            ((2, 1), [], 3, (Fraction(1, 2), 2), False, True),
            ((2, 1), [], Fraction(5, 2), (Fraction(1, 2), 2), False, False),
        ],
    )
    def test_everything_or_nothing_wins(self, counts, winning, quota, weights, weighted, rough):
        g = game(counts, winning)
        cert = RoughCert(quota, weights)
        assert verify_representation(g, cert, "weighted") is weighted
        assert verify_representation(g, cert, "rough") is rough

    def test_near_miss_cert_fails(self):
        # third weight must be zero over this polytope; any positive slack
        # lets a maximal losing coalition tip over the quota
        g = realize(EXAMPLE)
        bad = RoughCert(1, (Fraction(1, 2), Fraction(1, 2), Fraction(1, 10)))
        assert not verify_representation(g, bad, "rough")


class TestExtremalWeight:
    def test_bottom_weight_pinned_to_zero(self):
        assert extremal_weight(realize(EXAMPLE), (0, 0, 1), "max") == 0

    def test_interval_collapses_for_tight_polytope(self):
        g = realize(HierSpec(DISJUNCTIVE, (2, 4), (2, 4)))
        assert extremal_weight(g, (1, 0), "min") == Fraction(1, 2)
        assert extremal_weight(g, (1, 0), "max") == Fraction(1, 2)

    def test_empty_polytope_raises(self):
        g = realize(HierSpec(DISJUNCTIVE, (2, 2, 2, 2, 2), (2, 3, 4, 5, 6)))
        with pytest.raises(ValueError):
            extremal_weight(g, (1, 0, 0, 0, 0), "max")

    def test_guards(self):
        g = realize(EXAMPLE)
        with pytest.raises(ValueError):
            extremal_weight(g, (1, 0, 0), "sup")
        with pytest.raises(ValueError):
            extremal_weight(g, (1, 0), "max")

    @pytest.mark.parametrize("bad", [Fraction(1), Fraction(1, 2), 0.5, True])
    def test_objective_must_be_ints(self, bad):
        with pytest.raises(TypeError):
            extremal_weight(realize(EXAMPLE), (bad, 0, 0), "max")


class TestSeparatingSystemRows:
    """Row j of an oracle system is the j-th row the builder added, unscaled
    and never merged: sorted minimal winning, sorted maximal losing, then the
    unit rows w_i >= 0 (add_ge rows stored negated). A Farkas ray read off
    the simplex indexes coalitions in this order."""

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "rough"])
    @pytest.mark.parametrize(
        "spec",
        [
            EXAMPLE,
            HierSpec(CONJUNCTIVE, (5, 10), (5, 9)),
            HierSpec(DISJUNCTIVE, (1, 2, 4), (1, 2, 4)),
            HierSpec(DISJUNCTIVE, (2, 2, 2, 2, 2), (2, 3, 4, 5, 6)),
        ],
        ids=str,
    )
    def test_rows_in_builder_order(self, spec, weighted):
        g = realize(spec)
        m = g.universe.m
        tail, win, lose = ((-1,), 0, -1) if weighted else ((), 1, 1)
        wins = sorted(w.counts for w in g.min_winning)
        losses = sorted(x.counts for x in maximal_losing(g))
        units = [tuple(-int(j == i) for j in range(m + len(tail))) for i in range(m)]
        rows = _separating_system(m, _rows(g, False), weighted)._rows
        assert len(rows) == len(wins) + len(losses) + m
        assert rows == (
            [(tuple(-c for c in w + tail), -win) for w in wins]
            + [(x + tail, lose) for x in losses]
            + [(u, 0) for u in units]
        )

    def test_constant_row_of_the_empty_losing_coalition(self):
        # every single player wins alone, so the only maximal losing
        # coalition is the empty one: its rough row reads 0 <= 1 as given
        g = game((1, 1), [(1, 0), (0, 1)])
        assert maximal_losing(g) == {Coalition((0, 0))}
        assert _separating_system(2, _rows(g, False), False)._rows == [
            ((0, -1), -1), ((-1, 0), -1), ((0, 0), 1), ((-1, 0), 0), ((0, -1), 0),
        ]
        assert _separating_system(2, _rows(g, False), True)._rows == [
            ((0, -1, 1), 0), ((-1, 0, 1), 0), ((0, 0, -1), -1),
            ((-1, 0, 0), 0), ((0, -1, 0), 0),
        ]


class TestDecidesOnRows:
    """Below its public functions the oracle reads rows, never the game:
    _rows alone chooses them, and _cascade's caller picks the row set."""

    @staticmethod
    def functions():
        tree = ast.parse(Path(hiergames.oracle.__file__).read_text(encoding="utf-8"))
        return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    @staticmethod
    def params(node):
        """(name, annotation text) of each parameter."""
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        return [(a.arg, ast.unparse(a.annotation) if a.annotation else "") for a in args]

    def test_only_the_entry_points_take_a_game(self):
        functions = self.functions()
        takers = {
            name
            for name, node in functions.items()
            if any(p == "game" or "ExplicitGame" in t for p, t in self.params(node))
        }
        assert takers == {"_checked", "_rows", *hiergames.oracle.__all__}
        assert "_full_rows" not in functions

    def test_cascade_has_no_flag(self):
        cascade = self.functions()["_cascade"]
        assert all(t != "bool" for _, t in self.params(cascade))
        defaults = cascade.args.defaults + [d for d in cascade.args.kw_defaults if d]
        assert not any(isinstance(d, ast.Constant) and isinstance(d.value, bool) for d in defaults)


class TestIntegerCrossCheck:
    """The LP engine hands the oracle int numerators over one denominator,
    and the oracle builds its certificates from them: deciding a game
    builds no Fraction, while the public LinearSystem verbs still return
    the same point as Fractions."""

    @staticmethod
    def criterion_6_subset():
        # every 3rd passer/dummy-free spec on 4 and 5 levels, n_i <= 3, and
        # its dual: a fixed slice of acceptance criterion 6's pool
        pool = []
        for levels in (4, 5):
            for spec in sweep_specs(DISJUNCTIVE, levels, 3):
                special = special_players(realize(spec))
                if not special.passers and not special.dummies:
                    pool.append(spec)
        return [side for spec in pool[::3] for side in (spec, dual_spec(spec))]

    def test_sweep_and_oracle_build_no_fraction(self, monkeypatch):
        specs = self.criterion_6_subset()
        expected = [classify(spec).game_class for spec in specs]
        games = [realize(spec) for spec in specs]

        def refuse(*args):
            raise AssertionError("a Fraction was built")

        for module in (hiergames.feasibility, hiergames.oracle, hiergames.certificates):
            monkeypatch.setattr(module, "Fraction", refuse)
        reports = [run_sweep(kind, 3, 3) for kind in (DISJUNCTIVE, CONJUNCTIVE)]
        classes = [oracle_classify(g) for g in games]
        monkeypatch.undo()
        assert len(specs) == 216
        assert classes == expected
        for report in reports:
            golden = json.loads(
                (DATA / f"sweep_{report.kind}_l3_n3.golden.json").read_text(encoding="utf-8")
            )["records"]
            assert [
                (
                    list(r.spec.n),
                    list(r.spec.k),
                    r.verdict.game_class,
                    r.oracle_class,
                    r.cert_verified,
                )
                for r in report.records
            ] == [
                (g["n"], g["k"], g["class"], g["oracle_class"], g["certificate_verified"])
                for g in golden
            ]

    def test_int_witness_is_the_fraction_witness(self):
        # on the full and reduced systems of both modes, for every game whose
        # witnesses the oracle golden file pins
        solved = 0
        for label, g in oracle_games():
            for reduced in (False, True):
                rows = _rows(g, reduced)
                for weighted in (True, False):
                    system = _separating_system(g.m, rows, weighted)
                    found = system._feasible_ints()
                    point = system.feasible_point()
                    if found is None:
                        assert point is None, label
                        continue
                    denom, pi = found
                    assert type(denom) is int and denom > 0, label
                    assert all(type(p) is int for p in pi), label
                    assert tuple(Fraction(p, denom) for p in pi) == point, label
                    solved += 1
        assert solved > 1000
