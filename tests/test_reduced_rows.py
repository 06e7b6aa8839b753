"""The oracle's reduced rows against the full-row reference: a strictly
ordered game is decided on its shift-extremal rows, and its witness is the
full rows' vertex, so every class and every witness equals
oracle_reference's. The certificate check reads the same rows when the
weights are non-increasing, and every answer equals the reference's. A
2-trade among those rows refutes weightedness: wherever one is found it is
checked coalition by coalition, and oracle_classify then makes one LP run."""

import random
from fractions import Fraction
from itertools import accumulate
from operator import ge

import pytest
from hypothesis import given, settings, strategies as st

import lattice_reference as ref
import oracle_reference as oref
from hiergames import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    Coalition,
    ExplicitGame,
    HierSpec,
    Multiset,
    RoughCert,
    canon_check,
    classify,
    dual_explicit,
    dual_spec,
    is_winning,
    level_classes,
    oracle_classify,
    oracle_weighted,
    oracle_witness,
    realize,
    special_players,
    sweep_specs,
    verify_representation,
)
from hiergames import feasibility
from hiergames.core import _shift_extremal_points
from hiergames.oracle import _rough, _rows, _separating_system, _two_trade
from test_lattice import valid_specs

# canonical grids of both kinds, (levels, nmax): 2,790 specs in all
GRIDS = [(1, 6), (2, 6), (3, 4), (4, 3), (5, 2)]


def assert_same_as_reference(game):
    """oracle_witness equals the full-row reference, class and vertex, and
    oracle_classify its class; a 2-trade, where one is found, refutes
    weightedness. Returns the class."""
    expected = oref.witness(game)
    assert oracle_witness(game) == expected, game
    assert oracle_classify(game) == expected[0], game
    assert_trade_refutes(game)
    return expected[0]


def trade_of(game):
    return _two_trade(_rows(game, reduced=True))


def assert_trade_refutes(game):
    """Where _two_trade finds X_1, X_2, Y_1, Y_2: the X win, the Y lose, the
    prefix sums of X_1 + X_2 are at most those of Y_1 + Y_2 on every level,
    and the full weighted system has no solution."""
    trade = trade_of(game)
    if trade is None:
        return
    x_1, x_2, y_1, y_2 = trade
    assert [is_winning(game, Coalition(c)) for c in trade] == [True, True, False, False], game
    for j in range(1, game.m + 1):
        assert sum(x_1[:j]) + sum(x_2[:j]) <= sum(y_1[:j]) + sum(y_2[:j]), (game, trade)
    assert oracle_weighted(game) is None, game


def draw_game(data):
    """1-5 levels of 1-3 players; half the games are closed under moving a
    unit up a level (X wins when its prefix sums reach a member's), which
    orders levels 1 >= ... >= m and often strictly."""
    m = data.draw(st.integers(1, 5))
    universe = Multiset(tuple(data.draw(st.integers(1, 3)) for _ in range(m)))
    pool = [c for c in ref.lattice(universe) if c.size > 0]
    members = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        prefixes = [tuple(accumulate(y.counts)) for y in members]
        members = [
            x for x in pool
            if any(all(map(ge, accumulate(x.counts), p)) for p in prefixes)
        ]
    return ExplicitGame(universe, frozenset(members))


def non_increasing(cert):
    return all(map(ge, cert.weights, cert.weights[1:]))


def mutants(cert, rng):
    """Six seeded variations of a certificate, each moving the quota or one
    weight up or down by 1, 1/2 or 1/3; a variation that would be negative
    or identically zero is left out."""
    out = []
    for _ in range(6):
        values = [cert.quota, *cert.weights]
        at = rng.randrange(len(values))
        values[at] += rng.choice((1, -1)) * rng.choice((1, Fraction(1, 2), Fraction(1, 3)))
        if min(values) >= 0 and any(values):
            out.append(RoughCert(values[0], tuple(values[1:])))
    return out


def assert_check_as_reference(game, cert):
    """verify_representation equals the reference check in both modes;
    returns the answers."""
    answers = []
    for mode in ("weighted", "rough"):
        expected = oref.verify_representation(game, cert, mode)
        assert verify_representation(game, cert, mode) == expected, (game, cert, mode)
        answers.append(expected)
    return answers


def no_passers_or_dummies(spec):
    players = special_players(realize(spec))
    return not players.passers and not players.dummies


def criterion_games(criterion):
    """The games acceptance criteria 3 and 6 give the oracle. (Criterion
    2's are those of the disjunctive (3, 4) grid.)"""
    if criterion == 3:
        pool = list(sweep_specs(DISJUNCTIVE, 2, 6)) + list(sweep_specs(DISJUNCTIVE, 3, 4))
        return [dual_explicit(realize(spec)) for spec in pool]
    return [
        realize(side)
        for levels in (4, 5)
        for spec in sweep_specs(DISJUNCTIVE, levels, 3)
        if no_passers_or_dummies(spec)
        for side in (spec, dual_spec(spec))
    ]


class TestAgainstFullRows:
    @pytest.mark.parametrize("kind", [DISJUNCTIVE, CONJUNCTIVE])
    @pytest.mark.parametrize("levels,nmax", GRIDS)
    def test_canonical_grids(self, kind, levels, nmax):
        # canonical specs have strictly ordered levels: every one is decided
        # on the reduced rows (the disjunctive (3, 4) grid is criterion 2's)
        for spec in sweep_specs(kind, levels, nmax):
            game = realize(spec)
            assert _shift_extremal_points(game) is not None, spec
            game_class = assert_same_as_reference(game)
            # found for every spec that is not weighted, never for one that is
            assert (trade_of(game) is not None) == (game_class != "weighted"), spec

    @pytest.mark.parametrize("criterion,count", [(3, 1041), (6, 648)])
    def test_acceptance_pools(self, criterion, count):
        games = criterion_games(criterion)
        assert len(games) == count
        for game in games:
            assert _shift_extremal_points(game) is not None, game
            assert_same_as_reference(game)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_valid_specs_canonical_or_not(self, levels):
        # n_i <= 3, k_i up to N + 1: a spec whose canonical form merges
        # levels has equivalent levels, and the full rows decide its game
        ordered = 0
        for spec in valid_specs(levels, 3, 3 * levels + 1):
            game = realize(spec)
            strict = level_classes(game) == [[i] for i in range(levels)]
            assert (_shift_extremal_points(game) is not None) == strict, spec
            # strict order is canonicity of the normalized spec, not of the
            # spec: a disjunctive k_m past k_{m-1} + n_m still orders strictly
            assert canon_check(canon_check(spec).normalized_spec).canonical == strict, spec
            ordered += strict
            assert_same_as_reference(game)
        assert ordered == {1: 12, 2: 132, 3: 486}[levels]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_explicit_games(self, data):
        game = draw_game(data)
        strict = level_classes(game) == [[i] for i in range(game.m)]
        assert (_shift_extremal_points(game) is not None) == strict
        assert_same_as_reference(game)
        for weighted in (True, False):
            rows = _separating_system(game.m, _rows(game, False), weighted)._rows
            assert rows == oref.separating_system(game, weighted)._rows


class TestPasserBranch:
    """Branch B on the reduced rows: some shift-minimal winning row is a
    unit exactly when a single player wins alone, and the certificate is
    then e_1, the full rows' lexicographically largest winning unit."""

    @pytest.mark.parametrize("kind", [DISJUNCTIVE, CONJUNCTIVE])
    @pytest.mark.parametrize("levels,nmax", GRIDS)
    def test_canonical_grids(self, kind, levels, nmax, monkeypatch):
        games = [realize(spec) for spec in sweep_specs(kind, levels, nmax)]
        passer = [bool(special_players(game).passers) for game in games]
        for game, has_passer in zip(games, passer):
            if not has_passer:
                continue
            reduced, full = _rough(game.m, _rows(game, True)), _rough(game.m, _rows(game, False))
            # branch A solves on both row sets or on neither (the lemma),
            # though at different vertices; branch B gives one certificate
            assert (reduced.quota == 0) == (full.quota == 0), game
            assert full.quota != 0 or reduced == full, game
            assert oracle_witness(game) == oref.witness(game), game
        # with branch A refused, every game with a passer takes branch B on
        # both row sets, and every other game finds no certificate
        monkeypatch.setattr(feasibility.LinearSystem, "_feasible_ints", lambda system: None)
        for game, has_passer in zip(games, passer):
            reduced = _rough(game.m, _rows(game, True))
            assert reduced == _rough(game.m, _rows(game, False)), game
            assert (reduced is not None) == has_passer, game
        # a canonical conjunctive game on m >= 3 levels needs k_{m-1} >= 2 players
        assert any(passer) == (kind == DISJUNCTIVE or levels < 3)


class TestCertificateCheck:
    @pytest.mark.parametrize("kind", [DISJUNCTIVE, CONJUNCTIVE])
    @pytest.mark.parametrize("levels,nmax", GRIDS)
    def test_canonical_grids(self, kind, levels, nmax):
        # the classifier's certificates are non-increasing and checked on the
        # shift-extremal rows; mutants that break the order take the full
        # rows, and both accepting and rejecting answers occur
        rng = random.Random(18)
        answers, fallbacks = set(), 0
        for spec in sweep_specs(kind, levels, nmax):
            cert = classify(spec).certificate
            if cert is None:
                continue
            assert non_increasing(cert), spec
            game = realize(spec)
            for checked in [cert, *mutants(cert, rng)]:
                answers.update(assert_check_as_reference(game, checked))
                fallbacks += not non_increasing(checked)
        assert answers == {True, False}
        assert (fallbacks > 0) == (levels > 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_explicit_games(self, data):
        # the oracle's witness, its mutants and a drawn certificate, whose
        # weights are sorted into non-increasing order half the time, on
        # games with strictly ordered levels or not
        game = draw_game(data)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        cert = oracle_witness(game)[1]
        certs = [cert, *mutants(cert, rng)] if cert is not None else []
        den = data.draw(st.integers(1, 3))
        weights = [Fraction(data.draw(st.integers(0, 4)), den) for _ in range(game.m)]
        if data.draw(st.booleans()):
            weights.sort(reverse=True)
        quota = Fraction(data.draw(st.integers(0, 4 * game.m)), den)
        if quota or any(weights):
            certs.append(RoughCert(quota, tuple(weights)))
        for checked in certs:
            assert_check_as_reference(game, checked)


class TestOneRunPerStrictlyOrderedGame:
    """oracle_classify makes one _simplex_cone run on a strictly ordered
    game: the reduced weighted system on a weighted one, the reduced rough
    system once a 2-trade refutes weightedness. oracle_witness still solves
    the full rows, weighted first."""

    @pytest.mark.parametrize(
        "spec,game_class",
        [
            (HierSpec(DISJUNCTIVE, (3, 3), (2, 3)), "weighted"),
            (HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5)), "rough_not_weighted"),
            (HierSpec(DISJUNCTIVE, (3, 2, 2, 3), (3, 4, 5, 7)), "not_rough"),
        ],
    )
    def test_runs(self, spec, game_class, monkeypatch):
        game = realize(spec)
        rows = _rows(game, reduced=True)
        assert rows.reduced
        solved = []
        simplex = feasibility._simplex_cone

        def counted(rows, target):
            solved.append(rows)
            return simplex(rows, target)

        monkeypatch.setattr(feasibility, "_simplex_cone", counted)
        weighted = game_class == "weighted"
        assert oracle_classify(game) == game_class
        assert solved == [_separating_system(game.m, rows, weighted)._rows]
        solved.clear()
        assert oracle_witness(game)[0] == game_class
        full = _rows(game, reduced=False)
        systems = [_separating_system(game.m, full, w)._rows for w in (True, False)]
        assert solved == (systems[:1] if weighted else systems)
