"""The lean lattice layer, the level desirability order, level merging,
threshold recovery and the canonical form against the coalition-by-coalition
reference scans, the enumeration cap, how often the oracle paths scan a game's
lattice, and how often recognition realizes a spec."""

import ast
import copy
import dataclasses
import importlib
import inspect
import json
import pickle
import pkgutil
import tracemalloc
from itertools import accumulate, combinations, product
from operator import attrgetter, ge
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hiergames
import lattice_reference as ref
from hiergames import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    Coalition,
    EnumerationCapError,
    ExplicitGame,
    HierSpec,
    Multiset,
    LevelRelation,
    RoughCert,
    canon_check,
    canonicalize_semantic,
    classify,
    dual_spec,
    hier_is_winning,
    is_complete,
    iter_coalitions,
    level_classes,
    level_relation,
    maximal_losing,
    merge_levels,
    oracle_classify,
    oracle_witness,
    realize,
    recover_conjunctive,
    recover_disjunctive,
    run_sweep,
    shift_extremal,
    structural_scan,
    sweep_specs,
    verify_representation,
)
from hiergames.cli import main
from hiergames.core import _explicit_game, _shift_extremal_points, _strict_games
from hiergames.feasibility import LinearSystem
from lattice_reference import _antichains
from hiergames.oracle import _rows, _separating_system

GRIDS = [(levels, 3) for levels in (1, 2, 3, 4)] + [(5, 2)]

# universe -> (complete games, games whose levels are strictly ordered as given)
COMPLETE_AND_ORDERED = {
    (2, 2, 2): (378, 44),
    (1, 2, 3): (278, 60),
    (3, 3): (46, 20),
    (2, 1, 2): (125, 4),
}


def valid_specs(levels, nmax, kmax):
    """Every spec HierSpec accepts, of both kinds, with the given number of
    levels, n_i <= nmax and k_i <= kmax."""
    for kind in (DISJUNCTIVE, CONJUNCTIVE):
        ks = list(combinations(range(1, kmax + 1), levels))
        if kind == CONJUNCTIVE and levels > 1:  # the last pair may tie
            ks += [k + k[-1:] for k in combinations(range(1, kmax + 1), levels - 1)]
        for n in product(range(1, nmax + 1), repeat=levels):
            for k in ks:
                try:
                    yield HierSpec(kind, n, k)
                except ValueError:  # degenerate: the full coalition loses
                    pass


# the level_order golden grid: 1-3 levels, n_i <= 3, k_i <= 9
GOLDEN_SPECS = [spec for levels in (1, 2, 3) for spec in valid_specs(levels, 3, 9)]


def assert_same_level_order(game):
    """level_relation on every ordered pair of levels, and is_complete,
    equal the reference walk."""
    m = game.universe.m
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    got = [level_relation(game, i, j) for i, j in pairs]
    wins = ref.winning(game)
    assert got == [ref.level_relation(game, i, j, wins) for i, j in pairs], game
    assert is_complete(game) == (LevelRelation.INCOMPARABLE not in got), game


def sorted_counts(extremal):
    """Both shift-extremal antichains as sorted count lists, the kernel's form."""
    return (
        sorted(c.counts for c in extremal.shift_min_winning),
        sorted(c.counts for c in extremal.shift_max_losing),
    )


def assert_same_recovery(game):
    """Both threshold recoveries equal the realize-and-compare reference."""
    assert recover_disjunctive(game) == ref.recover(game, DISJUNCTIVE), game
    assert recover_conjunctive(game) == ref.recover(game, CONJUNCTIVE), game


class TestAgainstReference:
    @pytest.mark.parametrize("kind", [DISJUNCTIVE, CONJUNCTIVE])
    @pytest.mark.parametrize("levels,nmax", GRIDS)
    def test_sweep_grids(self, kind, levels, nmax):
        specs = list(sweep_specs(kind, levels, nmax))
        assert specs
        for spec in specs:
            game = realize(spec)
            expected = ref.realize(spec)
            assert game.min_winning == expected.min_winning, spec
            assert maximal_losing(game) == ref.maximal_losing(expected), spec
            assert_same_level_order(game)

    @pytest.mark.parametrize("kind", [DISJUNCTIVE, CONJUNCTIVE])
    @pytest.mark.parametrize("levels,nmax", GRIDS)
    def test_decoded_antichain_is_invisible(self, kind, levels, nmax):
        # a realized game holds its win mask alone until min_winning is
        # read; equality, hashing and repr read it, deepcopy and pickle carry
        # the mask-only game, and replace builds a game from the antichain,
        # so each reads as a game built with the reference antichain in
        # index order, the order in which the decoder yields it
        duplicates = {
            "realize": lambda game: game,
            "deepcopy": copy.deepcopy,
            "pickle": lambda game: pickle.loads(pickle.dumps(game)),
        }
        looks = {"eq": lambda game: game, "hash": hash, "repr": repr}
        for spec in sweep_specs(kind, levels, nmax):
            reference = ref.realize(spec)
            in_order = sorted(reference.min_winning, key=attrgetter("counts"))
            expected = _explicit_game(reference.universe, frozenset(in_order))
            assert expected == reference, spec
            for (how, duplicate), (name, look) in product(duplicates.items(), looks.items()):
                game = duplicate(realize(spec))
                assert "min_winning" not in vars(game), (spec, how)
                assert look(game) == look(expected), (spec, how, name)
                assert "min_winning" in vars(game), (spec, how)
                assert look(game) == look(expected), (spec, how, name)
            # the constructor re-minimizes, so the set order is replace's own
            replaced, rebuilt = dataclasses.replace(realize(spec)), dataclasses.replace(expected)
            assert "min_winning" in vars(replaced), spec
            assert [look(replaced) for look in looks.values()] == [
                look(rebuilt) for look in looks.values()
            ], spec

    def test_built_games_never_reach_the_descriptor(self, monkeypatch):
        # every game that ExplicitGame(...) or a lattice scan builds holds
        # its own antichain, so the min_winning fallback, ExplicitGame's
        # __getattr__, never runs for it
        def unreachable(game, name):
            if name == "min_winning":
                raise AssertionError("min_winning was decoded")
            raise AttributeError(name)

        spec = HierSpec(DISJUNCTIVE, (2, 2, 2), (1, 3, 4))
        expected = ref.realize(spec)
        monkeypatch.setattr(ExplicitGame, "__getattr__", unreachable)
        built = ExplicitGame(expected.universe, expected.min_winning)
        for game in (
            built,
            dataclasses.replace(built),
            copy.deepcopy(built),
            pickle.loads(pickle.dumps(built)),
        ):
            assert game == expected and hash(game) == hash(expected)
            assert repr(game) == repr(expected)
            assert oracle_witness(game) == oracle_witness(expected)
        assert oracle_witness(merge_levels(built))[0] == "weighted"
        assert structural_scan(Multiset((2, 2, 2))).holds
        with pytest.raises(AssertionError, match="min_winning was decoded"):
            realize(spec).min_winning

    def test_other_missing_attributes_raise_attribute_error(self):
        # the fallback answers min_winning alone, and only on a game that
        # holds its win mask; read or not, the mask-only game has no other
        spec = HierSpec(DISJUNCTIVE, (2, 2, 2), (1, 3, 4))
        built = ExplicitGame(spec.universe(), ref.realize(spec).min_winning)
        unread, read = realize(spec), realize(spec)
        assert read.min_winning == built.min_winning
        for source in (built, unread, read):
            for game in (
                source,
                copy.copy(source),
                copy.deepcopy(source),
                pickle.loads(pickle.dumps(source)),
            ):
                for name in ("max_winning", "minwinning", "_maximal_losing", "__setstate__"):
                    with pytest.raises(AttributeError, match=name):
                        getattr(game, name)
        # a bare instance holds no mask, so min_winning is missing too
        with pytest.raises(AttributeError, match="min_winning"):
            object.__new__(ExplicitGame).min_winning

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_explicit_games(self, data):
        m = data.draw(st.integers(1, 4))
        universe = Multiset(tuple(data.draw(st.integers(1, 3)) for _ in range(m)))
        pool = ref.lattice(universe)
        members = data.draw(st.lists(st.sampled_from(pool), max_size=6))
        game = ExplicitGame(universe, frozenset(members))
        assert game.min_winning == ref.minimal_antichain(members)
        assert maximal_losing(game) == ref.maximal_losing(game)
        assert maximal_losing(game) == ref.maximal_losing(game)  # memoized copy
        assert_same_level_order(game)
        assert_same_recovery(game)

    @pytest.mark.parametrize("counts", [(2, 2, 2), (1, 2, 3), (3, 3), (2, 1, 2)], ids=str)
    def test_shift_extremal_on_every_complete_game(self, counts):
        # the kernel's order test is "level_classes is strict" on every game,
        # and its antichains are the reference shift test's, on every game
        # whose levels are strictly ordered as given and after every merge
        universe = Multiset(counts)
        strict = [[i] for i in range(universe.m)]
        coalitions = [c for c in iter_coalitions(universe) if c.size > 0]
        complete = ordered_as_given = 0
        for members in _antichains(coalitions):
            game = ExplicitGame(universe, members)
            classes = level_classes(game)
            points = _shift_extremal_points(game)
            assert (points is not None) == (classes == strict), members
            if points is not None:
                ordered_as_given += 1
                assert points == sorted_counts(ref.shift_extremal(game)), members
            if classes is None:
                continue
            complete += 1
            ordered = merge_levels(game)
            assert ordered == ref.merge_levels(game, classes), members
            # the merged levels are strictly ordered as merged
            assert level_classes(ordered) == [[i] for i in range(ordered.m)], members
            assert shift_extremal(ordered) == ref.shift_extremal(ordered), members
        assert (complete, ordered_as_given) == COMPLETE_AND_ORDERED[counts]

    @pytest.mark.parametrize(
        "counts", [(2, 2, 2), (1, 2, 3), (3, 3), (2, 1, 2), (1, 1, 1, 1)], ids=str
    )
    def test_recovery_on_every_game(self, counts):
        # complete or not, and for the complete ones also after the merge
        # structural_scan applies before it recovers; the level order too,
        # on every game
        universe = Multiset(counts)
        coalitions = [c for c in iter_coalitions(universe) if c.size > 0]
        recovered = 0
        for members in _antichains(coalitions):
            game = ExplicitGame(universe, members)
            assert_same_level_order(game)
            assert_same_recovery(game)
            if is_complete(game):
                merged = merge_levels(game)
                assert_same_recovery(merged)
                recovered += recover_disjunctive(merged) is not None
        assert recovered > 10

    @pytest.mark.parametrize("counts", [(1,), (3,), (2, 2), (1, 2, 1), (2, 2, 2)], ids=str)
    def test_recovery_on_trivial_games(self, counts):
        # the walk above builds neither the empty antichain (nothing wins)
        # nor {empty coalition} (everything wins)
        universe = Multiset(counts)
        for members in (frozenset(), frozenset({Coalition((0,) * universe.m)})):
            assert_same_recovery(ExplicitGame(universe, members))

    @pytest.mark.parametrize(
        "counts", [(2, 2, 2), (1, 2, 3), (3, 3), (2, 1, 2), (1, 1, 1, 1), (2, 3, 2)], ids=str
    )
    def test_antichains(self, counts):
        # the walk the tests enumerate every game with: each set must be an
        # antichain of nonempty coalitions; structural_scan counts these
        # antichains without building them
        coalitions = [c for c in iter_coalitions(Multiset(counts)) if c.size > 0]
        got = list(_antichains(coalitions))
        assert got == list(ref.antichains(coalitions))
        for members in got:
            assert members and all(c.size > 0 for c in members)
            assert ref.minimal_antichain(members) == members
        assert structural_scan(Multiset(counts)).total_games == len(got)

    @pytest.mark.parametrize(
        "counts", [(2, 2), (3, 3), (1, 1, 1), (1, 1, 1, 1), (1, 2, 3), (2, 2, 2)], ids=str
    )
    def test_structural_scan(self, counts):
        # the scan checks each distinct merged game once; the reference
        # merges, searches and recovers every complete game on its own
        universe = Multiset(counts)
        assert structural_scan(universe) == ref.structural_report(universe)

    @pytest.mark.parametrize(
        "levels,nmax,kmax,count", [(4, 2, 8, 1127), (2, 6, 12, 2163), (5, 2, 10, 7345)]
    )
    def test_canonical_form(self, levels, nmax, kmax, count):
        # the arithmetic canonical form equals realize -> merge -> recover
        specs = list(valid_specs(levels, nmax, kmax))
        assert len(specs) == count
        for spec in specs:
            assert canonicalize_semantic(spec) == ref.canonicalize(spec), spec

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_realize_on_valid_specs(self, levels):
        # canonical or not, both kinds: n_i <= 3 and k_i up to N + 1, one
        # past the largest total; realize's preset antichain and a scan of
        # the same game rebuilt from its minimal winning coalitions included
        specs = list(valid_specs(levels, 3, 3 * levels + 1))
        assert len(specs) == {1: 12, 2: 174, 3: 2529}[levels]
        for spec in specs:
            game = realize(spec)
            expected = ref.realize(spec)
            assert game.min_winning == expected.min_winning, spec
            assert maximal_losing(game) == ref.maximal_losing(expected), spec
            rebuilt = ExplicitGame(game.universe, game.min_winning)
            assert maximal_losing(rebuilt) == maximal_losing(game), spec

    def test_realize_at_any_size(self):
        # 101^3 = 1,030,301 lattice points; each coalition of both antichains
        # is checked against the prefix rule on its unit neighbours
        spec = HierSpec(CONJUNCTIVE, (100, 100, 100), (50, 150, 250))
        game = realize(spec)
        losing = maximal_losing(game)
        assert (len(game.min_winning), len(losing)) == (1326, 1378)

        def wins(counts):
            return hier_is_winning(spec, Coalition(counts))

        def moved(x, i, delta):
            return x[:i] + (x[i] + delta,) + x[i + 1 :]

        for w in game.min_winning:
            x = w.counts
            assert wins(x) and not any(wins(moved(x, i, -1)) for i in range(3) if x[i]), x
        for c in losing:
            x = c.counts
            assert not wins(x) and all(wins(moved(x, i, 1)) for i in range(3) if x[i] < 100), x
        # the scan of an explicit game closes the same winning set upward
        assert maximal_losing(ExplicitGame(game.universe, game.min_winning)) == losing

    def test_returned_coalitions_are_plain_values(self):
        game = realize(HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5)))
        for c in game.min_winning | maximal_losing(game):
            assert type(c) is Coalition and type(c.counts) is tuple
            assert all(type(v) is int for v in c.counts)
            assert c == Coalition(c.counts) and hash(c) == hash(Coalition(c.counts))


class TestCanonicalFormOffLattice:
    def test_canonical_form_never_touches_the_lattice(self, off_lattice):
        assert len(GOLDEN_SPECS) == 2319
        for spec in GOLDEN_SPECS:
            canonical, _ = canonicalize_semantic(spec)
            rep = canon_check(spec)
            assert canon_check(canonical).canonical, spec
            assert rep.dummy_last_level == canon_check(canonical).dummy_last_level, spec
        big = HierSpec(DISJUNCTIVE, (10**6,) * 3, (10**6 + 5, 2 * 10**6, 3 * 10**6 + 7))
        assert canonicalize_semantic(big) == (
            HierSpec(DISJUNCTIVE, (2 * 10**6, 10**6), (2 * 10**6, 3 * 10**6)),
            (0, 0, 1),
        )
        assert canon_check(big).dummy_last_level


class TestCap:
    SPEC = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))  # 64 lattice points

    def test_realize_and_maximal_losing_cap_boundary(self, monkeypatch):
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "63")
        with pytest.raises(EnumerationCapError, match="has 64 coalitions, cap is 63"):
            realize(self.SPEC)
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "64")
        game = realize(self.SPEC)
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "63")
        with pytest.raises(EnumerationCapError):
            maximal_losing(game)
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "64")
        maximal_losing(game)
        # a memoized antichain is still refused under a smaller cap
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "63")
        with pytest.raises(EnumerationCapError):
            maximal_losing(game)
        # threshold recovery reads the game's maximal losing antichain, and
        # with it the cap
        with pytest.raises(EnumerationCapError):
            recover_disjunctive(game)
        with pytest.raises(EnumerationCapError):
            recover_conjunctive(game)

    def test_realize_and_maximal_losing_honour_env_cap(self, monkeypatch):
        game = realize(self.SPEC)
        maximal_losing(game)
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "63")
        with pytest.raises(EnumerationCapError):
            realize(self.SPEC)
        with pytest.raises(EnumerationCapError):
            maximal_losing(game)

    def test_refused_before_the_table_is_allocated(self, monkeypatch):
        # 201^3 = 8,120,601 points: a winning table for them would take 8 MB
        spec = HierSpec(DISJUNCTIVE, (200, 200, 200), (1, 2, 3))
        game = ExplicitGame(spec.universe(), frozenset({Coalition((1, 0, 0))}))
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "100")
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapError):
                realize(spec)
            with pytest.raises(EnumerationCapError):
                maximal_losing(game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_no_public_callable_takes_a_cap(self):
        # HIERGAME_ENUM_CAP is the one way to set the cap; only core._check_cap reads it
        checked = []
        for info in pkgutil.iter_modules(hiergames.__path__):
            module = importlib.import_module(f"hiergames.{info.name}")
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if not callable(obj):
                    continue
                routines = [(name, obj)]
                if inspect.isclass(obj):
                    routines += inspect.getmembers(
                        obj, lambda v: inspect.isfunction(v) or inspect.ismethod(v)
                    )
                for attr, routine in routines:
                    where = f"hiergames.{info.name}.{name}" + ("" if routine is obj else f".{attr}")
                    try:
                        params = inspect.signature(routine).parameters
                    except ValueError:  # a builtin-derived class such as EnumerationCapError
                        continue
                    assert "cap" not in params, where
                    checked.append(where)
        assert "hiergames.documents.GameDocument.to_game" in checked
        assert "hiergames.core.maximal_losing" in checked

    def test_run_sweep_records_skipped_specs(self, monkeypatch):
        # n = (1, 2, 1) has 12 lattice points; every other 3-level universe
        # with n_i <= 2 has more
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "12")
        report = run_sweep(DISJUNCTIVE, 3, 2)
        skipped = [r for r in report.records if r.skipped is not None]
        checked = [r for r in report.records if r.skipped is None]
        assert skipped and checked
        for r in report.records:
            assert r.verdict == classify(r.spec)
        for r in skipped:
            assert r.skipped.startswith("universe {")
            assert (r.oracle_class, r.cert_verified, r.agree) == (None, None, True)
        for r in checked:
            assert r.spec.universe().coalition_count() <= 12
            assert r.oracle_class == r.verdict.game_class and r.cert_verified
        assert report.all_agree


class TestCapWithMemos:
    """The cap gates every read of a game's lattice, memoized or not."""

    FALLING = RoughCert(5, (3, 2, 1))  # checked on the shift-extremal rows
    RISING = RoughCert(5, (1, 2, 3))  # checked on the full rows

    @pytest.mark.parametrize(
        "read",
        [
            _shift_extremal_points,
            oracle_classify,
            oracle_witness,
            lambda game: verify_representation(game, TestCapWithMemos.FALLING, "weighted"),
            lambda game: verify_representation(game, TestCapWithMemos.RISING, "weighted"),
        ],
        ids=["shift_extremal_points", "oracle_classify", "oracle_witness", "falling", "rising"],
    )
    def test_memoized_game_refused_under_a_smaller_cap(self, read, monkeypatch):
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "64")
        game = realize(TestCap.SPEC)
        assert oracle_classify(game) == "rough_not_weighted"
        read(game)  # sets what this read memoizes, if anything
        assert {"_win", "_lattice"} <= set(game.__dict__)
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "63")
        with pytest.raises(EnumerationCapError, match="has 64 coalitions, cap is 63"):
            read(game)

    def test_each_read_checks_the_cap_once(self, monkeypatch):
        # a cold read runs the kernel on the mask its own check let through
        game = realize(TestCap.SPEC)
        reads = []
        cap = hiergames.core.enumeration_cap

        def counting():
            reads.append(cap())
            return reads[-1]

        monkeypatch.setattr(hiergames.core, "enumeration_cap", counting)
        for _ in range(2):
            assert _shift_extremal_points(game) is not None
        assert "_lattice" in game.__dict__ and len(reads) == 2


class TestBitLayoutStaysInCore:
    """Only core writes and reads the lattice bitset and checks the cap;
    hierarchy.realize alone hands core a prefix rule to write."""

    CORE_ONLY = {
        "_check_cap",
        "_strides",
        "_lattice",
        "_read_lattice",
        "_bit_levels",
        "_antichain_bits",
        "_points",
        "_scan_win",
        "_scan_shift_extremal",
    }
    REALIZE_ONLY = {"_prefix_game"}

    @staticmethod
    def _tree(name):
        module = importlib.import_module(f"hiergames.{name}")
        return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))

    def test_no_module_outside_core_knows_the_bits(self):
        modules = [info.name for info in pkgutil.iter_modules(hiergames.__path__)]
        assert {"core", "hierarchy", "oracle"} <= set(modules)
        for name in modules:
            if name == "core":
                continue
            from_core, used = set(), set()
            for node in ast.walk(self._tree(name)):
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "core":
                    from_core.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
            used |= from_core
            assert not used & self.CORE_ONLY, name
            if name != "hierarchy":
                assert not used & self.REALIZE_ONLY, name
            if name == "oracle":
                assert from_core == {"ExplicitGame", "_shift_extremal_points", "maximal_losing"}
            if name == "hierarchy":
                assert "maximal_losing" not in from_core

    def test_one_gate_and_one_decoder(self):
        # _lattice is the one gate and _read_lattice the one pass: no
        # separate win-mask gate, antichain decoder or class-level
        # min_winning descriptor
        names = {
            node.name
            for node in self._tree("core").body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert self.CORE_ONLY <= names
        assert not names & {"_win_bits", "_decode", "_DecodedOnRead"}
        assert "min_winning" not in vars(ExplicitGame)

    ONE_UNIT = ExplicitGame(Multiset((2, 2)), frozenset({Coalition((1, 0))}))

    @pytest.mark.parametrize(
        "reach",
        [
            lambda: realize(HierSpec(DISJUNCTIVE, (2, 2), (1, 2))),
            lambda: iter_coalitions(Multiset((2, 2))),
            lambda: maximal_losing(TestBitLayoutStaysInCore.ONE_UNIT),
            lambda: oracle_classify(TestBitLayoutStaysInCore.ONE_UNIT),
        ],
        ids=["realize", "iter_coalitions", "maximal_losing", "oracle_classify"],
    )
    def test_off_lattice_stops_every_access(self, reach, off_lattice):
        with pytest.raises(AssertionError, match="the coalition lattice was reached"):
            reach()

    def test_hierarchy_uses_the_layout_in_realize_alone(self):
        readers = {
            node.name
            for node in self._tree("hierarchy").body
            if isinstance(node, ast.FunctionDef)
            for inner in ast.walk(node)
            if isinstance(inner, ast.Name) and inner.id in self.REALIZE_ONLY
        }
        assert readers == {"realize"}


@pytest.fixture
def scanned(monkeypatch):
    """Every game whose win mask is computed by a lattice scan."""
    log = []
    scan = hiergames.core._scan_win

    def counting(game, strides, levels):
        log.append(game)
        return scan(game, strides, levels)

    monkeypatch.setattr(hiergames.core, "_scan_win", counting)
    return log


@pytest.fixture
def kernel_runs(monkeypatch):
    """Every game the lattice pass, and with it the shift-extremal kernel,
    runs on."""
    log = []
    run = hiergames.core._read_lattice

    def counting(game):
        log.append(game)
        return run(game)

    monkeypatch.setattr(hiergames.core, "_read_lattice", counting)
    return log


@pytest.fixture
def pass_steps(monkeypatch):
    """How often core builds the level masks (_bit_levels) and reads the
    antichain bits off a win mask (_antichain_bits)."""
    calls = {"_bit_levels": 0, "_antichain_bits": 0}

    def counted(name):
        real = getattr(hiergames.core, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        return counting

    for name in calls:
        monkeypatch.setattr(hiergames.core, name, counted(name))
    return calls


def assert_pass_record(game):
    """The memoized pass holds (strides, minimal bits, losing bits, points
    or None) and no level masks."""
    strides, minimal, losing, points = game.__dict__["_lattice"]
    assert strides == hiergames.core._strides(game.universe.counts)
    assert type(minimal) is int and type(losing) is int
    assert points is None or all(
        type(rows) is list and all(type(x) is tuple for x in rows) for rows in points
    )


@pytest.fixture
def realized(monkeypatch):
    """(game, its win mask, its maximal losing memo) for every game realize
    returns, as realize returns it, with realize replaced in every hiergames
    module that binds it."""
    log = []
    real = hiergames.hierarchy.realize

    def logging(spec):
        game = real(spec)
        log.append((game, game.__dict__.get("_win"), game.__dict__.get("_maximal_losing")))
        return game

    for info in pkgutil.iter_modules(hiergames.__path__):
        module = importlib.import_module(f"hiergames.{info.name}")
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, logging)
    return log


def assert_memo_kept(realized):
    """realize set each game's win mask and decoded no maximal losing
    antichain; the first read decoded it from those same bits (the callers
    assert that no scan happened), and every later read got that same
    object."""
    for game, win, memo in realized:
        assert win is not None and memo is None
        losing = maximal_losing(game)
        assert game.__dict__["_win"] is win
        assert losing == ref.maximal_losing(game)
        assert maximal_losing(game) is losing


class TestStrictGames:
    """core._strict_games against the games of every antichain of the
    lattice whose levels are strictly ordered as given."""

    @pytest.mark.parametrize(
        "sizes",
        [(6,), (2, 4), (4, 2), (3, 3), (2, 2, 2), (1, 2, 3), (2, 3, 2), (1, 1, 1, 1)],
        ids=str,
    )
    def test_against_every_antichain(self, sizes):
        universe = Multiset(sizes)
        strict = [[i] for i in range(universe.m)]
        games = (
            ExplicitGame(universe, members)
            for members in ref.antichains([c for c in ref.lattice(universe) if c.size > 0])
        )
        expected = {game for game in games if level_classes(game) == strict}
        got = list(_strict_games(sizes))
        assert len(set(got)) == len(got) == len(expected)
        assert set(got) == expected
        for game in got:
            # the generating antichain: the winners no other winner lies
            # below in prefix dominance
            prefixes = {x: tuple(accumulate(x)) for x in ref.winning(game)}
            generating = {
                x
                for x, p in prefixes.items()
                if not any(y != x and all(map(ge, p, q)) for y, q in prefixes.items())
            }
            rows = ref.shift_extremal(game).shift_min_winning
            assert {w.counts for w in rows} == generating, game

    @pytest.mark.parametrize(
        "sizes,count", [((3, 3, 3), 1253), ((2, 2, 2, 2), 3670), ((4, 4, 3), 7714)], ids=str
    )
    def test_counts_past_the_scan(self, sizes, count):
        # strictly ordered complete games on universes the lattice scan
        # never reached, counted independently before the generator existed
        assert sum(1 for _ in _strict_games(sizes)) == count

    def test_cap_checked_at_the_call(self, monkeypatch):
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "26")
        with pytest.raises(EnumerationCapError, match="has 27 coalitions, cap is 26"):
            _strict_games((2, 2, 2))


# the systems `classify` solves on each explicit document of TestScanCounts,
# in order, then those `oracle_classify` solves: a witness is read off the
# full rows alone; the weighted document has strictly ordered levels, so
# oracle_classify decides it on the reduced weighted system; the other two
# have equivalent levels, and the full rows decide
_FULL_CASCADE = [("weighted", "full"), ("rough", "full")]
SOLVED_SYSTEMS = {
    "weighted": ([("weighted", "full")], [("weighted", "reduced")]),
    "rough_not_weighted": (_FULL_CASCADE, _FULL_CASCADE),
    "not_rough": (_FULL_CASCADE, _FULL_CASCADE),
}


class TestScanCounts:
    def test_recognition_realizes_no_candidate(self, realized):
        # a recovered candidate is checked on the game's shift-extremal
        # rows, never rebuilt as a whole game, and the canonical form is
        # arithmetic
        report = structural_scan(Multiset((2, 2, 2)))
        assert report.complete_games == 378 and report.holds
        assert realized == []
        spec = HierSpec(CONJUNCTIVE, (2, 2), (2, 4))
        assert canonicalize_semantic(spec) == (HierSpec(CONJUNCTIVE, (4,), (4,)), (0, 0))
        assert realized == []

    def test_recovery_decodes_neither_antichain(self):
        # both recoveries read the shift-extremal rows off the realized
        # game's win mask alone
        spec = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))
        game = realize(spec)
        assert (recover_disjunctive(game), recover_conjunctive(game)) == (spec, None)
        assert not {"min_winning", "_maximal_losing"} & set(game.__dict__)

    def test_run_sweep_scans_each_game_once(self, scanned, realized, kernel_runs):
        # realize hands its game over with the win mask already set, so the
        # oracle scans no realized game at all; the oracle and the
        # certificate check share one shift-extremal kernel run per game,
        # and neither decodes a maximal losing antichain
        report = run_sweep(DISJUNCTIVE, 2, 3)
        assert len(report.records) == 36 and report.all_agree
        assert sum(r.cert_verified is not None for r in report.records) > 0
        games = [g for g, *_ in realized]
        assert [g.universe.counts for g in games] == [r.spec.n for r in report.records]
        assert scanned == []
        assert len(kernel_runs) == len(games)
        assert all(ran is game for ran, game in zip(kernel_runs, games))
        assert not any("_maximal_losing" in game.__dict__ for game in games)
        # nor the minimal winning antichain, which realize no longer decodes
        assert not any("min_winning" in game.__dict__ for game in games)
        assert_memo_kept(realized)

    def test_structural_scan_runs_one_pass_per_game(self, pass_steps, kernel_runs):
        # the scan generates each distinct merged game once; its
        # shift-extremal antichains and both recoveries read the one pass
        # over it
        universe = Multiset((2, 2, 2))
        merged = {merge_levels(game) for game, _ in ref.complete_games(universe)}
        assert len(merged) == 86
        # merging reads the minimal winning coalitions, not the lattice
        assert pass_steps == {"_bit_levels": 0, "_antichain_bits": 0} and kernel_runs == []
        report = structural_scan(universe)
        assert report.complete_games == 378 and report.holds
        assert pass_steps == {"_bit_levels": len(merged), "_antichain_bits": len(merged)}
        assert len(kernel_runs) == len({id(game) for game in kernel_runs}) == len(merged)
        assert set(kernel_runs) == merged
        for game in kernel_runs:
            assert_pass_record(game)

    def test_explicit_classify_runs_one_pass(self, pass_steps, kernel_runs, scanned, capsys):
        path = Path(__file__).parent / "data" / "explicit_weighted.json"
        assert main(["classify", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "weighted"
        assert pass_steps == {"_bit_levels": 1, "_antichain_bits": 1}
        assert len(kernel_runs) == len(scanned) == 1
        assert_pass_record(kernel_runs[0])

    def test_oracle_m45_item_builds_the_level_masks_once(self, monkeypatch):
        # classify, realize and oracle_classify on a 5-level criterion-6 spec
        # and its dual: the oracle's shift-extremal kernel builds the level
        # masks once per game, and nothing decodes min_winning
        calls = []
        bit_levels = hiergames.core._bit_levels

        def counting(counts):
            calls.append(counts)
            return bit_levels(counts)

        monkeypatch.setattr(hiergames.core, "_bit_levels", counting)
        spec = HierSpec(DISJUNCTIVE, (2, 2, 3, 3, 2), (2, 3, 4, 5, 6))
        games = []
        for side in (spec, dual_spec(spec)):
            games.append(realize(side))
            assert classify(side).game_class == oracle_classify(games[-1]) == "not_rough"
        assert calls == [game.universe.counts for game in games]
        assert not any("min_winning" in game.__dict__ for game in games)

    def test_classify_oracle_scans_once(self, scanned, realized, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": DISJUNCTIVE, "n": [3, 3, 3], "k": [2, 3, 5]}))
        assert main(["classify", str(path), "--oracle", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["agree"] is True
        assert len(realized) == 1 and scanned == []
        assert_memo_kept(realized)

    @pytest.mark.parametrize(
        "doc,game_class,solves",
        [
            ({"universe": [3, 3], "min_winning": [[2, 0], [1, 2]]}, "weighted", 1),
            ({"universe": [2, 2], "min_winning": [[1, 1]]}, "rough_not_weighted", 2),
            (
                {"universe": [2, 2, 2], "min_winning": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]},
                "not_rough",
                2,
            ),
        ],
    )
    def test_explicit_classify_solves_each_lp_once(
        self, doc, game_class, solves, scanned, tmp_path, capsys, monkeypatch
    ):
        solved = []
        solve = LinearSystem._feasible_ints

        def counting(system):
            solved.append(system)
            return solve(system)

        monkeypatch.setattr(LinearSystem, "_feasible_ints", counting)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == game_class
        assert len(scanned) == 1
        game = scanned[0]

        def kind(system):
            weighted = system.num_vars == game.universe.m + 1
            full = system._rows == _separating_system(game.m, _rows(game, False), weighted)._rows
            return ("weighted" if weighted else "rough"), ("full" if full else "reduced")

        # no system solved twice, and only the full rows for a witness
        witness, decide = SOLVED_SYSTEMS[game_class]
        assert len(solved) == solves == len(witness)
        assert [kind(system) for system in solved] == witness
        assert len({id(system) for system in solved}) == len(solved)
        solved.clear()
        assert oracle_classify(game) == game_class
        assert [kind(system) for system in solved] == decide
        assert len(scanned) == 1
