"""Fourier-Motzkin elimination: the reference engine the simplex is checked against.

Works on the integer rows of a LinearSystem (coeffs . x <= rhs), which
the system keeps as they were added. Each elimination step combines every
lower bound on a variable with every upper bound, so the row count can
square per step; the engine is kept for small test systems only, where its
independence from the simplex is what matters. The rows it derives are
normalized here (_normalize), so that equal constraints compare equal.

Witness construction replays the eliminations in reverse, picking for each
variable a value inside its final interval (preferring the lower end, then
zero).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from hiergames.feasibility import INFEASIBLE, OPTIMAL, UNBOUNDED

Row = tuple[tuple[int, ...], int]


def _normalize(coeffs: Sequence[int], rhs: int) -> Row:
    """The row divided by the gcd of its entries; a constant row keeps only
    the sign of its bound (0 <= rhs), so equal constraints compare equal."""
    g = gcd(*coeffs, rhs)
    if g > 1:
        coeffs = [v // g for v in coeffs]
        rhs //= g
    if all(v == 0 for v in coeffs):
        rhs = 0 if rhs >= 0 else -1
    return tuple(coeffs), rhs


def feasible_point(rows: list[Row], num_vars: int) -> Optional[tuple[Fraction, ...]]:
    """Some exact solution of the rows, or None if there is none."""
    stages = _eliminate_all(list(rows), list(range(num_vars)))
    if stages is None:
        return None
    values: dict[int, Fraction] = {}
    _back_substitute(stages, values)
    return tuple(values[i] for i in range(num_vars))


def optimize(
    rows: list[Row], num_vars: int, objective: Sequence[int], sense: str
) -> tuple[str, Optional[Fraction], Optional[tuple[Fraction, ...]]]:
    """(status, value, point) of min/max objective . x over the rows, for an
    int objective.

    Introduces z = objective . x, eliminates everything but z, reads off the
    exact interval of z, then rebuilds a witness for the optimum."""
    z = num_vars
    extended: list[Row] = []
    seen: set[Row] = set()
    obj = [*objective, -1]
    candidates = [(coeffs + (0,), rhs) for coeffs, rhs in rows]
    candidates += [_normalize(obj, 0), _normalize([-c for c in obj], 0)]
    for row in candidates:
        if row not in seen:
            seen.add(row)
            extended.append(row)
    stages = _eliminate_all(extended, list(range(num_vars)), keep_last=z)
    if stages is None:
        return INFEASIBLE, None, None
    lo, hi = _bounds(stages[-1][1], z, {})
    bound = lo if sense == "min" else hi
    if bound is None:
        return UNBOUNDED, None, None
    values = {z: bound}
    _back_substitute(stages, values)
    return OPTIMAL, bound, tuple(values[i] for i in range(num_vars))


def _eliminate_all(
    rows: list[Row], vars_to_drop: list[int], keep_last: Optional[int] = None
) -> Optional[list[tuple[int, list[Row]]]]:
    """Eliminate variables one by one, greedily picking the cheapest next.

    Returns the stage list [(var, rows_before_its_elimination), ...] followed
    by a sentinel stage (-1 or keep_last, final_rows), or None if a
    contradictory constant row ever appears.

    Each row carries its history, the bit set of input rows it combines.
    After k eliminations a row whose history holds more than k + 1 input rows
    is redundant (Chernikov's rule), and so is a row already derived from a
    subset of its history; dropping both keeps every stage an exact
    description of the projection while bounding the row count."""
    if any(all(c == 0 for c in coeffs) and rhs < 0 for coeffs, rhs in rows):
        return None
    pending = list(vars_to_drop)
    stages: list[tuple[int, list[Row]]] = []
    current = [(row, 1 << i) for i, row in enumerate(rows)]
    while pending:
        var = min(pending, key=lambda v: _pair_cost(current, v))
        pending.remove(var)
        stages.append((var, [row for row, _ in current]))
        current = _eliminate(current, var, max_history=len(stages) + 1)
        if current is None:
            return None
    stages.append((-1 if keep_last is None else keep_last, [row for row, _ in current]))
    return stages


def _pair_cost(rows: list[tuple[Row, int]], var: int) -> int:
    lowers = sum(1 for (coeffs, _), _ in rows if coeffs[var] < 0)
    uppers = sum(1 for (coeffs, _), _ in rows if coeffs[var] > 0)
    return lowers * uppers


def _eliminate(
    rows: list[tuple[Row, int]], var: int, max_history: int
) -> Optional[list[tuple[Row, int]]]:
    """One FM step: combine each lower bound on var with each upper bound."""
    lowers = [r for r in rows if r[0][0][var] < 0]
    uppers = [r for r in rows if r[0][0][var] > 0]
    out: list[tuple[Row, int]] = []
    histories: dict[Row, list[int]] = {}

    def keep(row: Row, hist: int) -> None:
        known = histories.setdefault(row, [])
        if not any(h | hist == hist for h in known):
            known.append(hist)
            out.append((row, hist))

    for row, hist in rows:
        if row[0][var] == 0:
            keep(row, hist)
    for (lc, lb), lh in lowers:
        for (uc, ub), uh in uppers:
            hist = lh | uh
            if bin(hist).count("1") > max_history:
                continue
            scale_l, scale_u = uc[var], -lc[var]
            coeffs = [scale_l * a + scale_u * b for a, b in zip(lc, uc)]
            row = _normalize(coeffs, scale_l * lb + scale_u * ub)
            if all(v == 0 for v in row[0]) and row[1] < 0:
                return None
            keep(row, hist)
    return out


def _bounds(
    rows: list[Row], var: int, values: dict[int, Fraction]
) -> tuple[Optional[Fraction], Optional[Fraction]]:
    """Interval for `var` after substituting known values into `rows`."""
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for coeffs, rhs in rows:
        c = coeffs[var]
        if c == 0:
            continue
        acc = Fraction(rhs)
        for idx, a in enumerate(coeffs):
            if idx != var and a != 0:
                acc -= a * values[idx]
        bound = acc / c
        if c > 0:
            if hi is None or bound < hi:
                hi = bound
        elif lo is None or bound > lo:
            lo = bound
    return lo, hi


def _back_substitute(stages: list[tuple[int, list[Row]]], values: dict[int, Fraction]) -> None:
    """Assign each eliminated variable a value inside its valid interval,
    walking the stages last-to-first; pre-seeded values stay."""
    for var, rows in reversed(stages[:-1]):
        if var in values:
            continue
        lo, hi = _bounds(rows, var, values)
        if lo is not None:
            values[var] = lo
        elif hi is not None:
            values[var] = hi if hi < 0 else Fraction(0)
        else:
            values[var] = Fraction(0)
