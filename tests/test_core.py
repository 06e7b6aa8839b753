"""Multiset/coalition lattice, antichains, and derived game structure."""

import pytest

import hiergames
from hiergames import core
from hiergames.core import (
    Coalition,
    EnumerationCapError,
    ExplicitGame,
    LevelRelation,
    Multiset,
    enumeration_cap,
    is_complete,
    is_winning,
    iter_coalitions,
    level_classes,
    level_relation,
    maximal_losing,
    special_players,
)


def game(counts, winning):
    ms = Multiset(counts)
    return ExplicitGame(ms, frozenset(Coalition(w) for w in winning))


class TestMultiset:
    def test_basic_accessors(self):
        ms = Multiset((3, 1, 2))
        assert ms.m == 3
        assert ms.prefix_totals() == (3, 4, 6)
        assert ms.coalition_count() == 4 * 2 * 3
        assert ms.full() == Coalition((3, 1, 2))
        assert str(ms) == "{1^3,2^1,3^2}"

    def test_fits(self):
        ms = Multiset((2, 2))
        assert ms.fits(Coalition((2, 0)))
        assert not ms.fits(Coalition((3, 0)))
        assert not ms.fits(Coalition((1, 1, 1)))

    def test_complement(self):
        ms = Multiset((2, 3))
        assert ms.complement(Coalition((1, 2))) == Coalition((1, 1))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            Multiset((0, 2))
        with pytest.raises(ValueError):
            Multiset(())
        with pytest.raises(TypeError):
            Multiset((1.5, 2))


class TestCoalition:
    def test_size(self):
        assert Coalition((1, 0, 2)).size == 3
        assert Coalition((0, 0)).size == 0

    def test_contains_is_pointwise(self):
        assert Coalition((2, 1)).contains(Coalition((1, 1)))
        assert not Coalition((2, 0)).contains(Coalition((1, 1)))
        with pytest.raises(ValueError):
            Coalition((2, 0)).contains(Coalition((1,)))

    def test_with_unit(self):
        c = Coalition((1, 1))
        assert c.with_unit(0) == Coalition((2, 1))
        assert c.with_unit(1, -1) == Coalition((1, 0))

    def test_str_forms(self):
        assert str(Coalition((0, 2, 1))) == "{2^2,3^1}"
        assert str(Coalition((0, 0))) == "{}"


class TestEnumeration:
    def test_iter_coalitions_counts(self):
        ms = Multiset((2, 1))
        got = list(iter_coalitions(ms))
        assert len(got) == ms.coalition_count() == 6
        assert got[0] == Coalition((0, 0))
        assert got[-1] == Coalition((2, 1))

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "100")
        ms = Multiset((9, 9, 9, 9))
        with pytest.raises(EnumerationCapError):
            list(iter_coalitions(ms))

    def test_cap_raised_at_the_call(self, monkeypatch):
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "5")
        with pytest.raises(EnumerationCapError, match="has 6 coalitions, cap is 5"):
            iter_coalitions(Multiset((2, 1)))

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "5")
        assert enumeration_cap() == 5
        with pytest.raises(EnumerationCapError):
            list(iter_coalitions(Multiset((2, 1))))

    def test_cap_env_spaces_allowed(self, monkeypatch):
        monkeypatch.setenv("HIERGAME_ENUM_CAP", " 12 ")
        assert enumeration_cap() == 12

    # "1_0", "+5" and an Arabic-Indic nine were once read by int() as 10, 5, 9
    @pytest.mark.parametrize("raw", ["many", "", "1_0", "+5", "\u0669", "1 0", "0", "-3"])
    def test_cap_env_garbage_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("HIERGAME_ENUM_CAP", raw)
        with pytest.raises(ValueError, match="HIERGAME_ENUM_CAP must be"):
            enumeration_cap()


class TestExplicitGame:
    def test_constructor_minimizes(self):
        g = game((2, 2), [(2, 0), (2, 1), (1, 2)])
        # (2,1) contains (2,0), so it drops out
        assert g.min_winning == frozenset({Coalition((2, 0)), Coalition((1, 2))})

    def test_rejects_oversized_coalition(self):
        with pytest.raises(ValueError):
            game((1, 1), [(2, 0)])

    def test_is_winning_monotone(self):
        g = game((2, 2), [(2, 0), (1, 2)])
        assert is_winning(g, Coalition((2, 2)))
        assert is_winning(g, Coalition((1, 2)))
        assert not is_winning(g, Coalition((1, 1)))
        assert not is_winning(g, Coalition((0, 0)))

    def test_equality_is_game_equality(self):
        a = game((2, 2), [(2, 0), (2, 2)])
        b = game((2, 2), [(2, 0)])
        assert a == b

    def test_maximal_losing(self):
        g = game((2, 2), [(2, 0), (1, 2)])
        # frozen by direct enumeration of all 9 coalitions
        assert {c.counts for c in maximal_losing(g)} == {(0, 2), (1, 1)}

    def test_maximal_losing_everything_wins(self):
        g = game((2, 1), [(0, 0)])
        assert maximal_losing(g) == frozenset()


class TestLevelStructure:
    def test_level_relation_strict(self):
        g = game((2, 2), [(2, 0), (1, 2)])
        assert level_relation(g, 0, 1) is LevelRelation.STRICTLY_ABOVE
        assert level_relation(g, 1, 0) is LevelRelation.STRICTLY_BELOW

    def test_level_relation_equivalent(self):
        # any two members win, regardless of level
        g = game((2, 3), [(2, 0), (1, 1), (0, 2)])
        assert level_relation(g, 0, 1) is LevelRelation.EQUIVALENT

    def test_level_relation_incomparable(self):
        # two disjoint pairs: {1,2} wins, {3,4} wins
        g = game((1, 1, 1, 1), [(1, 1, 0, 0), (0, 0, 1, 1)])
        assert level_relation(g, 0, 2) is LevelRelation.INCOMPARABLE
        assert not is_complete(g)

    def test_is_complete(self):
        assert is_complete(game((2, 2), [(2, 0), (1, 2)]))
        assert is_complete(game((3,), [(2,)]))


class TestLevelClasses:
    @pytest.fixture
    def relations(self, monkeypatch):
        # level_classes compares each pair of levels through _relation
        calls = []
        real = core._relation

        def counting(wmin, n, i, j):
            calls.append((i, j))
            return real(wmin, n, i, j)

        monkeypatch.setattr(core, "_relation", counting)
        return calls

    def test_is_complete_then_level_classes(self, relations):
        g = game((2, 2), [(2, 0), (1, 2)])
        assert is_complete(g)
        assert relations
        assert level_classes(g) == [[0], [1]]

    def test_exported_from_the_package(self):
        assert hiergames.level_classes is core.level_classes

    def test_returns_fresh_lists(self):
        g = game((2, 3), [(2, 0), (1, 1), (0, 2)])
        classes = level_classes(g)
        assert classes == [[0, 1]]
        classes[0].append(5)
        classes.append([2])
        assert level_classes(g) == [[0, 1]]

    def test_incomparable_gives_none(self):
        g = game((1, 1, 1, 1), [(1, 1, 0, 0), (0, 0, 1, 1)])
        assert level_classes(g) is None
        assert level_classes(g) is None
        assert not is_complete(g)

    def test_memo_outside_equality_and_hash(self):
        g = game((2, 2), [(2, 0), (1, 2)])
        before = hash(g)
        level_classes(g)
        fresh = ExplicitGame(g.universe, g.min_winning)
        assert g == fresh
        assert hash(g) == before == hash(fresh)


class TestSpecialPlayers:
    def test_dummy_passer_blocker(self):
        # level 1 passes alone; level 3 appears in no minimal winner
        g = game((1, 2, 2), [(1, 0, 0), (0, 2, 0)])
        sp = special_players(g)
        assert sp.passers == frozenset({0})
        assert sp.dummies == frozenset({2})
        assert sp.blockers == frozenset()

    def test_blocker(self):
        g = game((2, 2), [(2, 1)])
        sp = special_players(g)
        assert sp.blockers == frozenset({0, 1})
        assert sp.passers == frozenset()
