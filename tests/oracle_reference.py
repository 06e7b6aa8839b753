"""The full-row oracle: the reference the reduced rows are checked against.

This is the decision route the oracle used before it decided strictly
ordered games on their shift-extremal rows: the weighted and the quota-1
rough system on every minimal winning and every maximal losing coalition,
with w >= 0, each row added through LinearSystem's checked add_ge/add_le,
and the zero-quota branch tested with is_winning on each singleton. It never
reads the win mask's order test or the shift-extremal kernel, so a wrong
reduction shows up as a class or a witness that differs from this one.

verify_representation is the certificate check as it was before it read
the shift-extremal rows: Fraction sums on every minimal winning and every
maximal losing coalition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from hiergames.certificates import RoughCert
from hiergames.core import Coalition, ExplicitGame, is_winning, maximal_losing
from hiergames.feasibility import LinearSystem


def separating_system(game: ExplicitGame, weighted: bool) -> LinearSystem:
    """The weighted system (quota last) or the quota-1 rough system: sorted
    minimal winning rows, sorted maximal losing rows, then w_i >= 0."""
    m = game.universe.m
    # weighted: w(W) - q >= 0 and w(L) - q <= -1; rough: w(W) >= 1, w(L) <= 1
    tail, win, lose = ((-1,), 0, -1) if weighted else ((), 1, 1)
    system = LinearSystem(m + len(tail))
    for w in sorted(x.counts for x in game.min_winning):
        system.add_ge(w + tail, win)
    for x in sorted(x.counts for x in maximal_losing(game)):
        system.add_le(x + tail, lose)
    for i in range(m):
        system.add_ge(tuple(int(j == i) for j in range(system.num_vars)), 0)
    return system


def witness(game: ExplicitGame) -> tuple[str, Optional[RoughCert]]:
    """The class of the game with its witness, the weighted system deciding
    first, every system solved on the full rows."""
    m = game.universe.m
    point = separating_system(game, True).feasible_point()
    if point is not None:
        return "weighted", RoughCert(point[m], point[:m])
    point = separating_system(game, False).feasible_point()
    if point is not None:
        return "rough_not_weighted", RoughCert(1, point)
    zero = Coalition((0,) * m)
    for i in range(m):
        if is_winning(game, zero.with_unit(i)):
            weights = tuple(Fraction(int(j == i)) for j in range(m))
            return "rough_not_weighted", RoughCert(0, weights)
    return "not_rough", None


def verify_representation(game: ExplicitGame, cert: RoughCert, mode: str) -> bool:
    """Every minimal winning coalition weighs >= quota, and every maximal
    losing one < quota (mode 'weighted') or <= quota (mode 'rough')."""
    if not all(cert.weight_of(w) >= cert.quota for w in game.min_winning):
        return False
    lmax = maximal_losing(game)
    if mode == "weighted":
        return all(cert.weight_of(x) < cert.quota for x in lmax)
    return all(cert.weight_of(x) <= cert.quota for x in lmax)
