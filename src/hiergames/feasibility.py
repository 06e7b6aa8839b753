"""Exact linear feasibility and optimization over the rationals.

Small systems of linear inequalities a.x <= b with int coefficients and
bounds, decided by one exact simplex on the dual cone program (below). No
floating point anywhere: the answers here certify mathematical claims, so
"feasible up to 1e-9" is not feasible. Each row is stored exactly as it was
added (add_ge negates it), with no scaling and no dedupe, so row j is the
j-th constraint the caller added. The tableau stays integral through
integer-preserving pivots (Edmonds 1967; Bareiss 1968): the simplex returns
integer numerators over one positive denominator, and so does _solve, its
one guarded entry. The public verbs build Fractions from those ints; the
library's own callers read the numerators through
LinearSystem._feasible_ints and build no Fraction.

Provided verbs, each one guarded simplex run (_solve):

  feasible_point()       -> a rational point satisfying all constraints, or None
  minimize / maximize    -> exact optimum of a linear objective with witness;
                            an objective with no optimum takes a second,
                            zero-target run to tell unbounded from infeasible

Witnesses are the simplex multipliers of the final basis: a basic solution
of the system (a vertex whenever the polyhedron has one), reached by a fixed
pivoting rule, so results are deterministic. When an optimum is attained on
a whole face, the witness is one of its vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

__all__ = ["LinearSystem", "OptResult"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

# internal constraint form: (coeffs, rhs) meaning coeffs . x <= rhs, all ints,
# kept as added (only add_ge's negation applied)
_Row = tuple[tuple[int, ...], int]


def _ints(values: Sequence[int], what: str) -> tuple[int, ...]:
    """The values as a tuple; anything but an int, bools, floats and
    Fractions included, raises TypeError."""
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{what} must be ints, got {type(v).__name__}")
    return tuple(values)


@dataclass(frozen=True)
class OptResult:
    """Outcome of an exact linear program.

    status: 'optimal', 'unbounded', or 'infeasible'.
    value:  the optimum (None unless optimal).
    point:  a witness attaining the optimum (None unless optimal).
    """

    status: str
    value: Optional[Fraction]
    point: Optional[tuple[Fraction, ...]]


class LinearSystem:
    """A mutable list of exact integer linear constraints over num_vars
    variables."""

    def __init__(self, num_vars: int) -> None:
        if num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {num_vars}")
        self.num_vars = num_vars
        self._rows: list[_Row] = []

    @classmethod
    def _of_rows(cls, num_vars: int, rows: list[_Row]) -> LinearSystem:
        """The system on `rows`, each already in the stored form (coeffs,
        rhs), coeffs . x <= rhs, with num_vars int coefficients and an int
        rhs: rows the library built itself, so add_le's per-row checks are
        skipped. The list is taken over, not copied."""
        system = cls(num_vars)
        system._rows = rows
        return system

    def _add(self, coeffs: Sequence[int], rhs: int, negate: bool) -> None:
        if len(coeffs) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} coefficients, got {len(coeffs)}")
        row = _ints((*coeffs, rhs), "coefficients and bound")
        if negate:
            row = tuple([-v for v in row])
        self._rows.append((row[:-1], row[-1]))

    def add_le(self, coeffs: Sequence[int], rhs: int) -> None:
        """coeffs . x <= rhs"""
        self._add(coeffs, rhs, negate=False)

    def add_ge(self, coeffs: Sequence[int], rhs: int) -> None:
        """coeffs . x >= rhs, stored negated as -coeffs . x <= -rhs"""
        self._add(coeffs, rhs, negate=True)

    def add_eq(self, coeffs: Sequence[int], rhs: int) -> None:
        """coeffs . x = rhs (both inequalities)"""
        self._add(coeffs, rhs, negate=False)
        self._add(coeffs, rhs, negate=True)

    def _feasible_ints(self) -> Optional[tuple[int, tuple[int, ...]]]:
        """feasible_point as (denom, pi): the point pi / denom as int
        numerators over one denominator denom > 0, or None."""
        _, _, pi, denom = _solve(self._rows, (0,) * self.num_vars)
        return None if pi is None else (denom, pi)

    def feasible_point(self) -> Optional[tuple[Fraction, ...]]:
        """Some exact solution of the system, or None if there is none."""
        found = self._feasible_ints()
        if found is None:
            return None
        denom, pi = found
        return tuple([Fraction(p, denom) for p in pi])

    def minimize(self, objective: Sequence[int]) -> OptResult:
        return self._optimize(objective, sense=-1)

    def maximize(self, objective: Sequence[int]) -> OptResult:
        return self._optimize(objective, sense=+1)

    def _optimize(self, objective: Sequence[int], sense: int) -> OptResult:
        """Maximize sense * objective . x: by strong duality its optimum is
        that of the dual cone with target sense * objective, and the cone's
        multipliers are the witness."""
        if len(objective) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} objective coefficients")
        target = tuple(sense * c for c in _ints(objective, "objective"))
        status, value, pi, denom = _solve(self._rows, target)
        if status == OPTIMAL:
            point = tuple([Fraction(p, denom) for p in pi])
            return OptResult(OPTIMAL, Fraction(sense * value, denom), point)
        if self._feasible_ints() is None:
            return OptResult(INFEASIBLE, None, None)
        if status != INFEASIBLE:
            raise RuntimeError("dual cone unbounded although the system is feasible")
        return OptResult(UNBOUNDED, None, None)  # no dual multipliers: nothing caps it


# ===== the dual-cone simplex =====
#
# Both questions about {a.x <= b} are answered through the dual cone program
#
#     min  y . b   subject to   sum_j y_j a_j = c,   y >= 0
#
# with c = 0 for feasibility (an improving ray is a Farkas certificate that
# no x exists) and c = objective for maximization (strong duality). Either
# way the tableau has num_vars rows, one per primal variable, so its size is
# fixed no matter how many constraints pile up. At an optimal basis the
# simplex multipliers pi satisfy b_j - pi . a_j >= 0 for every j, which is
# precisely primal feasibility: pi itself is the witness point.

# hard stop on pivot count; Bland's rule prevents cycling, so reaching this
# means a bug, not a hard instance
_PIVOT_SAFETY = 50_000
# Dantzig entering until the pivot count reaches this times (n + d), then Bland
_BLAND_AFTER = 4


def _simplex_cone(
    rows: list[_Row], target: tuple[int, ...]
) -> tuple[str, Optional[int], Optional[tuple[int, ...]], int]:
    """min b.y with sum_j y_j * a_j = target, y >= 0, over rows (a_j, b_j).

    Returns (status, value, pi, denom): pi are the multipliers of the final
    basis, i.e. the unique solution of pi . a_j = b_j over basic columns.
    value and pi are integer numerators over denom > 0, |det| of the final
    basis; both are None unless status is optimal."""
    d = len(target)
    n = len(rows)
    rhs_col = n + d
    # The rational tableau T is kept as integers tab = T * denom, where
    # denom > 0 is |det| of the current basis. Rows are flipped to make the
    # rhs column nonnegative; artificial i lives in column n+i and stands
    # for the coordinate-i equality at cost 0.
    sign = [1 if t >= 0 else -1 for t in target]
    tab: list[list[int]] = []
    columns = zip(*[coeffs for coeffs, _ in rows]) if rows else [()] * d
    for i, column in enumerate(columns):
        row = list(column) if sign[i] > 0 else [-a for a in column]
        row.extend(1 if t == i else 0 for t in range(d))
        row.append(abs(target[i]))
        tab.append(row)
    basis = list(range(n, n + d))
    denom = 1
    pivots = 0

    def pivot(leave: int, entering: int) -> None:
        # fraction-free Gauss-Jordan step: every other row becomes
        # (piv * row - f * pivot_row) / denom, an exact division (Sylvester's
        # identity); a negative pivot flips all signs to keep denom > 0
        nonlocal denom, pivots
        prow = tab[leave]
        piv = prow[entering]
        div = denom if piv > 0 else -denom
        for i, row in enumerate(tab):
            if i == leave:
                continue
            f = row[entering]
            if f:
                tab[i] = [(piv * a - f * b) // div for a, b in zip(row, prow)]
            elif piv != div:  # f == 0: the row is only rescaled
                tab[i] = [piv * a // div for a in row]
        if piv < 0:
            tab[leave] = [-v for v in prow]
        denom = abs(piv)
        basis[leave] = entering
        pivots += 1
        if pivots > _PIVOT_SAFETY:
            raise RuntimeError("simplex pivot limit hit; cycling bug")

    def run(cost: list[int], stop_at_zero: bool) -> str:
        while True:
            ybar = [cost[b] for b in basis]
            if stop_at_zero and sum(
                y * row[rhs_col] for y, row in zip(ybar, tab)
            ) == 0:
                return OPTIMAL
            # Dantzig entering normally (the first most negative reduced
            # cost), Bland entering (the first negative one) once the pivot
            # count looks cyclic; artificials never re-enter. Reduced costs
            # are scaled by denom, one row for all real columns; a basic
            # column prices exactly 0, so it never enters.
            red = [c * denom for c in cost[:n]]
            for y, row in zip(ybar, tab):
                if y:
                    red = [r - y * a for r, a in zip(red, row)]
            if pivots >= _BLAND_AFTER * (n + d):
                entering = next((j for j, r in enumerate(red) if r < 0), -1)
            else:
                best = min(red, default=0)
                entering = red.index(best) if best < 0 else -1
            if entering < 0:
                return OPTIMAL
            # ratio test by cross-multiplying: rhs_i / t_i < rhs_l / t_l
            leave = -1
            for i, row in enumerate(tab):
                t = row[entering]
                if t > 0:
                    if leave < 0:
                        leave = i
                        continue
                    lhs = row[rhs_col] * tab[leave][entering]
                    rhs = tab[leave][rhs_col] * t
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return UNBOUNDED
            pivot(leave, entering)

    # phase 1: drive the artificial variables to zero. A zero target starts
    # them all at zero, so phase 1 would stop at its first check and the
    # infeasibility test below would read 0: both are skipped
    if any(target):
        phase1 = [0] * n + [1] * d
        if run(phase1, stop_at_zero=True) != OPTIMAL:
            raise RuntimeError("phase 1 unbounded although its objective is >= 0")
        if sum(phase1[b] * row[rhs_col] for b, row in zip(basis, tab)) != 0:
            return INFEASIBLE, None, None, denom
    # An artificial still sitting in the basis (at value zero) would poison
    # phase 2: a column whose ray only inflates artificials is not a real
    # ray. Kick each one out with a degenerate pivot (its rhs is zero, so
    # the pivot entry's sign does not matter); a row with no real entry left
    # is a dependent equality and is dropped, its multiplier pinned to 0.
    coords = list(range(d))
    for i in range(d - 1, -1, -1):
        if basis[i] < n:
            continue
        entering = next((j for j in range(n) if tab[i][j] != 0), None)
        if entering is not None:
            pivot(i, entering)
        else:
            del tab[i], basis[i], coords[i]
    # phase 2: the real costs
    phase2 = [rhs for _, rhs in rows] + [0] * d
    if run(phase2, stop_at_zero=False) == UNBOUNDED:
        return UNBOUNDED, None, None, denom
    cost_b = [phase2[b] for b in basis]
    value = sum(c * row[rhs_col] for c, row in zip(cost_b, tab))
    # multipliers pi = cost_B . B^-1, read off the artificial columns (they
    # hold B^-1 of the flipped rows, hence the sign)
    pi = [0] * d
    for c in coords:
        pi[c] = sign[c] * sum(cb * row[n + c] for cb, row in zip(cost_b, tab))
    return OPTIMAL, value, tuple(pi), denom


def _solve(
    rows: list[_Row], target: tuple[int, ...]
) -> tuple[str, Optional[int], Optional[tuple[int, ...]], int]:
    """One guarded _simplex_cone run, as ints: (status, value, pi, denom),
    the optimum value / denom at the point pi / denom, denom > 0; value and
    pi are None unless optimal."""
    result = _simplex_cone(rows, target)
    status, value, pi, denom = result
    if status != OPTIMAL:
        return result
    # run-time guard on numerators: missing a row or the optimum means a bad pivot
    if any(sum(map(mul, pi, coeffs)) > rhs * denom for coeffs, rhs in rows):
        raise RuntimeError("simplex witness violates the system; inexact pivot")
    if sum(map(mul, target, pi)) != value:
        raise RuntimeError("simplex multipliers miss the dual optimum; inexact pivot")
    return result
