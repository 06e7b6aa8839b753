"""Exact linear feasibility/optimization: the dual-cone simplex, and its
agreement with the Fourier-Motzkin reference engine in fm_reference."""

import ast
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import fm_reference
from hiergames import feasibility
from hiergames.feasibility import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearSystem


def satisfies(rows, point):
    return all(
        sum(c * x for c, x in zip(coeffs, point)) <= rhs for coeffs, rhs in rows
    )


class TestFeasiblePoint:
    def test_simple_box(self):
        sys = LinearSystem(2)
        sys.add_ge([1, 0], 1)
        sys.add_ge([0, 1], 2)
        sys.add_le([1, 1], 5)
        pt = sys.feasible_point()
        assert pt is not None
        assert pt[0] >= 1 and pt[1] >= 2 and pt[0] + pt[1] <= 5

    def test_contradiction(self):
        sys = LinearSystem(1)
        sys.add_ge([1], 2)
        sys.add_le([1], 1)
        assert sys.feasible_point() is None

    def test_equality_pins_value(self):
        sys = LinearSystem(2)
        sys.add_eq([1, 1], 4)
        sys.add_eq([1, -1], 2)
        pt = sys.feasible_point()
        assert pt == (Fraction(3), Fraction(1))

    def test_zero_variable_system(self):
        sys = LinearSystem(1)
        sys.add_le([0], 1)
        assert sys.feasible_point() is not None
        sys.add_le([0], -1)
        assert sys.feasible_point() is None

    def test_exactness_no_float_drift(self):
        sys = LinearSystem(1)
        sys.add_ge([3], 1)
        sys.add_le([3], 1)
        assert sys.feasible_point() == (Fraction(1, 3),)


class TestOptimize:
    def test_maximize_on_polytope(self):
        sys = LinearSystem(2)
        sys.add_ge([1, 0], 0)
        sys.add_ge([0, 1], 0)
        sys.add_le([1, 2], 4)
        sys.add_le([3, 1], 6)
        res = sys.maximize([1, 1])
        assert res.status == OPTIMAL
        # vertex of x+2y=4, 3x+y=6
        assert res.value == Fraction(14, 5)
        assert res.point == (Fraction(8, 5), Fraction(6, 5))

    def test_minimize_mirrors_maximize(self):
        sys = LinearSystem(2)
        sys.add_ge([1, 0], 1)
        sys.add_ge([0, 1], 1)
        res = sys.minimize([2, 3])
        assert res.status == OPTIMAL
        assert res.value == Fraction(5)
        assert res.point == (Fraction(1), Fraction(1))

    def test_unbounded(self):
        sys = LinearSystem(1)
        sys.add_ge([1], 0)
        res = sys.maximize([1])
        assert res.status == UNBOUNDED
        assert res.value is None and res.point is None

    def test_infeasible(self):
        sys = LinearSystem(1)
        sys.add_ge([1], 2)
        sys.add_le([1], 1)
        assert sys.maximize([1]).status == INFEASIBLE

    def test_objective_length_checked(self):
        sys = LinearSystem(2)
        sys.add_le([1, 1], 1)
        with pytest.raises(ValueError):
            sys.maximize([1])


class TestExactBoundary:
    """Only ints enter a system; bools, floats and Fractions raise
    TypeError, which the CLI reports as an input error."""

    VERBS = pytest.mark.parametrize("verb", ["add_le", "add_ge", "add_eq"])

    @staticmethod
    def assert_rows_reject(verb, bad):
        sys = LinearSystem(2)
        with pytest.raises(TypeError):
            getattr(sys, verb)([1, bad], 1)
        with pytest.raises(TypeError):
            getattr(sys, verb)([1, 1], bad)
        assert sys._rows == []

    @pytest.mark.parametrize("bad", [0.5, 1.0, True], ids=["float", "float-int", "bool"])
    @VERBS
    def test_rows_reject_non_rationals(self, verb, bad):
        self.assert_rows_reject(verb, bad)

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1)], ids=["half", "one"])
    @VERBS
    def test_rows_reject_fractions(self, verb, bad):
        self.assert_rows_reject(verb, bad)

    def test_objective_rejects_float(self):
        sys = LinearSystem(2)
        sys.add_le([1, 1], 1)
        with pytest.raises(TypeError):
            sys.maximize([1, 0.5])

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1)], ids=["half", "one"])
    @pytest.mark.parametrize("verb", ["minimize", "maximize"])
    def test_objective_rejects_fractions(self, verb, bad):
        sys = LinearSystem(2)
        sys.add_le([1, 1], 1)
        with pytest.raises(TypeError):
            getattr(sys, verb)([1, bad])


class TestRowsKeptAsGiven:
    """Row j of a system is the j-th constraint added, unscaled: a Farkas
    ray read off the tableau indexes the caller's own rows."""

    def test_duplicates_and_common_factors_stay(self):
        sys = LinearSystem(2)
        sys.add_le([2, 4], 6)
        sys.add_le([2, 4], 6)
        sys.add_ge([3, 0], 3)
        sys.add_le([0, 0], 5)
        sys.add_eq([1, -1], 2)
        assert sys._rows == [
            ((2, 4), 6),
            ((2, 4), 6),
            ((-3, 0), -3),
            ((0, 0), 5),
            ((1, -1), 2),
            ((-1, 1), -2),
        ]
        assert all(type(v) is int for coeffs, rhs in sys._rows for v in (*coeffs, rhs))
        assert satisfies(sys._rows, sys.feasible_point())


class TestRuntimeGuards:
    """The guards on the simplex and its output fire, and still under -O:
    they are checks that raise, not asserts. The phase-1 guard ("phase 1
    unbounded") is not forced here: only patching run(), an inner function
    of _simplex_cone, could reach it."""

    def test_pivot_limit(self, monkeypatch):
        # with no pivot allowed, the first one trips the cycling guard
        monkeypatch.setattr(feasibility, "_PIVOT_SAFETY", 0)
        sys = LinearSystem(1)
        sys.add_ge([1], 1)
        with pytest.raises(RuntimeError, match="simplex pivot limit hit; cycling bug"):
            sys.feasible_point()

    def test_unbounded_dual_cone_on_a_feasible_system(self, monkeypatch):
        # the objective's run reports the dual cone unbounded, which means
        # no primal point, while the zero-target run finds one
        real = feasibility._solve

        def fake(rows, target):
            return (UNBOUNDED, None, None, 1) if any(target) else real(rows, target)

        monkeypatch.setattr(feasibility, "_solve", fake)
        sys = LinearSystem(1)
        sys.add_le([1], 3)
        with pytest.raises(RuntimeError, match="dual cone unbounded although the system is"):
            sys.maximize([1])

    def test_witness_that_breaks_a_row(self, monkeypatch):
        sys = LinearSystem(1)
        sys.add_ge([1], 1)

        def fake(rows, target):
            # x = 1/2 breaks x >= 1, which only the bound scaled by denom
            # shows: -1 > -1 * 2
            return OPTIMAL, 0, (1,), 2

        monkeypatch.setattr(feasibility, "_simplex_cone", fake)
        with pytest.raises(RuntimeError, match="violates"):
            sys.feasible_point()
        with pytest.raises(RuntimeError, match="violates"):
            sys.maximize([1])

    def test_value_off_the_dual_optimum(self, monkeypatch):
        sys = LinearSystem(1)
        sys.add_ge([1], 1)
        sys.add_le([1], 3)

        def fake(rows, target):
            # a true witness x = 4/2 for feasibility, then the value 7/2
            # where pi . target is 4/2
            return (OPTIMAL, 0 if target == (0,) else 7, (4,), 2)

        monkeypatch.setattr(feasibility, "_simplex_cone", fake)
        assert sys.feasible_point() == (Fraction(2),)
        with pytest.raises(RuntimeError, match="dual optimum"):
            sys.maximize([1])

    def test_optimum_that_breaks_a_row(self, monkeypatch):
        sys = LinearSystem(1)
        sys.add_ge([1], 1)
        sys.add_le([1], 3)

        def fake(rows, target):
            # a true witness x = 4/2 for feasibility, then x = 8/2 breaks
            # x <= 3 although it attains its value 8/2 = target . pi
            return (OPTIMAL, 0, (4,), 2) if target == (0,) else (OPTIMAL, 8, (8,), 2)

        monkeypatch.setattr(feasibility, "_simplex_cone", fake)
        assert sys.feasible_point() == (Fraction(2),)
        with pytest.raises(RuntimeError, match="violates"):
            sys.maximize([1])


class TestOneRunPerQuestion:
    """An optimum costs one simplex run; only an objective with no optimum
    takes a second, zero-target run to tell infeasible from unbounded."""

    def runs(self, monkeypatch, sys, objective):
        targets = []
        simplex = feasibility._simplex_cone

        def counted(rows, target):
            targets.append(target)
            return simplex(rows, target)

        monkeypatch.setattr(feasibility, "_simplex_cone", counted)
        return sys.maximize(objective), sys.minimize(objective), targets

    def test_bounded_optimum_takes_one_run(self, monkeypatch):
        sys = LinearSystem(2)
        sys.add_ge([1, 0], 0)
        sys.add_ge([0, 1], 0)
        sys.add_le([1, 2], 4)
        sys.add_le([3, 1], 6)
        top, bottom, targets = self.runs(monkeypatch, sys, [1, 1])
        assert (top.status, top.value) == (OPTIMAL, Fraction(14, 5))
        assert (bottom.status, bottom.value) == (OPTIMAL, 0)
        assert targets == [(1, 1), (-1, -1)]

    def test_unbounded_takes_two_runs(self, monkeypatch):
        sys = LinearSystem(2)
        sys.add_ge([1, -1], 0)
        top, bottom, targets = self.runs(monkeypatch, sys, [1, 0])
        assert top.status == bottom.status == UNBOUNDED
        assert targets == [(1, 0), (0, 0), (-1, 0), (0, 0)]

    def test_infeasible_takes_two_runs(self, monkeypatch):
        sys = LinearSystem(1)
        sys.add_ge([1], 2)
        sys.add_le([1], 1)
        top, bottom, targets = self.runs(monkeypatch, sys, [1])
        assert top == bottom == feasibility.OptResult(INFEASIBLE, None, None)
        assert targets == [(1,), (0,), (-1,), (0,)]


class TestStandsAlone:
    def test_no_package_imports_and_no_fraction_in_the_simplex(self):
        tree = ast.parse(Path(feasibility.__file__).read_text(encoding="utf-8"))
        modules = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules.append("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                modules += [alias.name for alias in node.names]
        assert not [m for m in modules if m.startswith(".") or m.split(".")[0] == "hiergames"]
        simplex = next(
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_simplex_cone"
        )
        names = {node.id for node in ast.walk(simplex) if isinstance(node, ast.Name)}
        assert "Fraction" not in names

    def test_only_the_guarded_solve_runs_the_simplex(self):
        # every run's witness passes _solve's guard: no entry point may
        # reach _simplex_cone around it
        tree = ast.parse(Path(feasibility.__file__).read_text(encoding="utf-8"))
        callers = {
            getattr(top, "name", "<module>")
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id == "_simplex_cone"
        }
        assert callers == {"_solve"}


class TestPivotEngine:
    """Direct checks of the dual-cone simplex on systems with known answers."""

    def test_feasible_matches_elimination(self):
        sys = LinearSystem(2)
        sys.add_ge([1, 0], 1)
        sys.add_ge([0, 1], 2)
        sys.add_le([1, 1], 5)
        pt = sys.feasible_point()
        assert pt is not None
        assert satisfies(sys._rows, pt)
        assert satisfies(sys._rows, fm_reference.feasible_point(sys._rows, 2))

    def test_infeasible_detected(self):
        sys = LinearSystem(1)
        sys.add_ge([1], 2)
        sys.add_le([1], 1)
        assert sys.feasible_point() is None

    def test_maximize_vertex(self):
        sys = LinearSystem(2)
        sys.add_ge([1, 0], 0)
        sys.add_ge([0, 1], 0)
        sys.add_le([1, 2], 4)
        sys.add_le([3, 1], 6)
        res = sys.maximize([1, 1])
        assert res.status == OPTIMAL
        assert res.value == Fraction(14, 5)

    def test_unbounded_ray(self):
        sys = LinearSystem(2)
        sys.add_ge([1, -1], 0)
        res = sys.maximize([1, 0])
        assert res.status == UNBOUNDED

    def test_redundant_equalities_survive_phase_one(self):
        # duplicated equality rows leave artificials basic at zero; the
        # kick-out step must not let them fake an unbounded ray
        sys = LinearSystem(2)
        for _ in range(3):
            sys.add_eq([1, 1], 2)
        sys.add_ge([1, 0], 0)
        sys.add_ge([0, 1], 0)
        res = sys.maximize([1, 0])
        assert res.status == OPTIMAL
        assert res.value == Fraction(2)
        assert res.point == (Fraction(2), Fraction(0))

    def test_dependent_equalities_pin_a_line(self):
        # x = y is two opposite rows of rank 1 in two variables: the
        # kick-out step drops the dependent one and still finds a witness
        sys = LinearSystem(2)
        sys.add_eq([1, -1], 0)
        pt = sys.feasible_point()
        assert pt is not None and pt[0] == pt[1]
        assert sys.maximize([1, 0]).status == UNBOUNDED
        res = sys.maximize([1, -1])
        assert (res.status, res.value) == (OPTIMAL, 0)


class TestEnginesAgree:
    """The simplex against the Fourier-Motzkin reference on random systems
    with 1-5 variables, up to 13 rows, some of them equalities."""

    def random_system(self, rng, num_vars):
        sys = LinearSystem(num_vars)
        for _ in range(rng.randrange(1, 14)):
            coeffs = [rng.randrange(-3, 4) for _ in range(num_vars)]
            rhs = rng.randrange(-4, 7)
            if rng.random() < 0.15:
                sys.add_eq(coeffs, rhs)
            else:
                sys.add_le(coeffs, rhs)
        return sys

    def test_feasibility_agreement_fuzz(self):
        rng = random.Random(20260815)
        for trial in range(300):
            sys = self.random_system(rng, rng.randrange(1, 6))
            via_pivot = sys.feasible_point()
            via_fm = fm_reference.feasible_point(sys._rows, sys.num_vars)
            assert (via_fm is None) == (via_pivot is None), f"trial {trial}"
            if via_fm is not None:
                assert satisfies(sys._rows, via_fm)
                assert satisfies(sys._rows, via_pivot)

    def test_optimum_agreement_fuzz(self):
        rng = random.Random(99)
        for trial in range(300):
            num_vars = rng.randrange(1, 6)
            sys = self.random_system(rng, num_vars)
            drawn = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in range(num_vars)]
            # a rational objective cleared to ints, the only objectives the
            # engine takes
            scale = lcm(*(c.denominator for c in drawn))
            obj = [int(c * scale) for c in drawn]
            sense = rng.choice(["min", "max"])
            res = sys.minimize(obj) if sense == "min" else sys.maximize(obj)
            status, value, _ = fm_reference.optimize(sys._rows, num_vars, obj, sense)
            assert (res.status, res.value) == (status, value), f"trial {trial}"
            if res.status == OPTIMAL:
                assert satisfies(sys._rows, res.point), f"trial {trial}"
                assert sum(c * x for c, x in zip(obj, res.point)) == res.value
            else:
                assert res.value is None and res.point is None

    def test_blands_rule_from_the_first_pivot(self, monkeypatch):
        # the entering rule turns from Dantzig's to Bland's once the pivot
        # count looks cyclic, which no other system here reaches; at 0 every
        # pivot is Bland's, and both fuzz runs still match the reference
        monkeypatch.setattr(feasibility, "_BLAND_AFTER", 0)
        self.test_feasibility_agreement_fuzz()
        self.test_optimum_agreement_fuzz()


class TestBlowupHandoff:
    def test_wide_system_still_answers(self):
        sys = LinearSystem(3)
        sys.add_ge([1, 0, 0], 1)
        sys.add_ge([0, 1, 0], 1)
        sys.add_ge([0, 0, 1], 1)
        sys.add_le([1, 1, 1], 10)
        sys.add_le([2, 1, 1], 12)
        pt = sys.feasible_point()
        assert pt is not None
        assert satisfies(sys._rows, pt)
        res = sys.maximize([1, 1, 1])
        assert res.status == OPTIMAL
        assert res.value == Fraction(10)
