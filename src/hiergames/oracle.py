"""Independent exact oracle for weightedness and rough weightedness.

No structural case law here, on purpose: this module decides representability
straight from the definitions, as linear feasibility over exact rationals on
the minimal winning / maximal losing antichains of the explicit game. The
classifier and this oracle must be able to disagree for cross-validation to
mean anything.

Weighted test: find w >= 0 and a quota q with

    w(W) >= q          for every minimal winning W,
    w(L) <= q - 1      for every maximal losing L.

A strict separation w(L) < q can always be scaled so the gap is at least 1
(the empty coalition is losing, so any solution has q >= 1), hence the gap
form is equivalent and keeps the system purely linear.

Rough test: a representation with quota q > 0 scales to quota exactly 1, so
branch A solves

    w(W) >= 1,  w(L) <= 1,  w >= 0.

The only representations not covered are those with q = 0, which exist iff
some level's single player wins alone (a zero-quota certificate must give
losing coalitions weight zero; a positive weight on level i then forces the
singleton {i} to win). Branch B scans for such a level and certifies with its
indicator weighting. The two branches together are complete.

Reduced rows. When every level i is strictly more desirable than level
i + 1 (core._shift_extremal_points reads that order off the win mask), every
weighted or quota-1 rough representation has w_1 >= ... >= w_m:

    if w_j > w_i for some i < j, take a winner Y with y_i > 0 and y_j < n_j
    that loses once a unit moves from i to j (i > j strictly): the loser
    weighs more than w(Y) >= q, where every loser weighs at most q.

Weights that fall along the levels never fall along a shift up or a
superset, and every minimal winning (maximal losing) coalition lies above
(below) a shift-minimal winning (shift-maximal losing) one in that order.
So the system on those two antichains, the monotone rows w_i - w_{i+1} >= 0
and w_m >= 0 has exactly the full system's solutions, the full system's
being monotone already (Carreras & Freixas 1996, "Complete simple games",
Math. Soc. Sci. 32; Freixas & Molinero 2009, Ann. Oper. Res. 166). The
reduced rows decide feasibility, and extremal_weight optimizes over them;
any other game is decided on the full rows, every minimal winning and
maximal losing coalition with w >= 0.

Witnesses come from the full rows alone. By the lemma the full system is
infeasible exactly when the reduced one is, so oracle_weighted,
oracle_rough and oracle_witness solve only the full system, whose vertex
the golden files pin; oracle_classify never builds it for a strictly
ordered game. A Farkas ray of the reduced system would carry multipliers
on the monotone rows, so a refutation (a trading transform) is read off
the full rows, solved only when one is asked for. The LP engine hands a
witness back as int numerators over one positive denominator, and the
certificate is built from those ints (RoughCert._of_ints), so deciding a
game builds no Fraction.

Verification, a corollary. Weights w >= 0 with w_1 >= ... >= w_m lose no
weight by adding a unit or moving one up a level. Removing a unit or
moving one down strictly lowers sum_i (m - i) x_i, so from any winning X
such steps through winning coalitions end at a shift-minimal winning one
that weighs at most w(X); dually, from any losing X they end at a
shift-maximal losing one that weighs at least w(X). For such weights on a
strictly ordered game those two antichains decide verify_representation;
any other certificate or game is checked on every minimal winning and
maximal losing coalition. Either way the comparisons are made in
integers, the certificate's numerators over its one denominator.

Passers, a corollary. On a strictly ordered game only e_1 can be a
winning unit: were e_i winning for some i > 1, every winner would still
win with a level-1 unit moved to level i, so level i would be at least
level 1. A winning e_1 is shift-minimal, every e_j with j > 1 losing, so
branch B finds on the reduced rows the unit it finds on the full ones.

Trades, a corollary. Write P(X) for the prefix sums (X_1, X_1 + X_2,
...) of a count vector and w_{m+1} = 0. Then w(X) = sum_j (w_j -
w_{j+1}) P(X)_j, each coefficient >= 0 for weights w >= 0 with w_1 >=
... >= w_m, so winning X_1, X_2 and losing Y_1, Y_2 with P(X_1) + P(X_2)
<= P(Y_1) + P(Y_2) level by level give w(X_1) + w(X_2) <= w(Y_1) +
w(Y_2). A weighted representation would make that 2q <= 2(q - 1), so by
the lemma such a 2-trade refutes weightedness of a strictly ordered game
without any LP. _two_trade looks for one among the shift-extremal rows,
and oracle_classify goes straight to the rough system when it finds one
(a canonical spec that is not weighted has one on every grid tested).

Every question reads one row set, chosen once by _rows: the reduced rows
when they are asked for and the levels are strictly ordered, else the
full rows. Below the public functions no helper sees the game: each takes
m and those rows, so rows built some other way run the same code. A
system's rows are the count vectors as ints (the weighted system appends
the quota variable), and the LP engine keeps every row as built: row j of
the system is the j-th row the builder writes, never rescaled or merged.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations_with_replacement
from operator import add, ge, le, mul
from typing import NamedTuple, Optional, Sequence

from .certificates import RoughCert
from .core import ExplicitGame, _shift_extremal_points, maximal_losing
from .feasibility import INFEASIBLE, UNBOUNDED, LinearSystem

__all__ = [
    "oracle_weighted",
    "oracle_rough",
    "oracle_classify",
    "oracle_witness",
    "verify_representation",
    "extremal_weight",
]


class _Rows(NamedTuple):
    """Sorted winning and losing count vectors: shift-extremal or the antichains."""

    wins: list[tuple[int, ...]]
    losses: list[tuple[int, ...]]
    reduced: bool


def _checked(game: ExplicitGame) -> None:
    """ValueError for a game no system here can separate."""
    empty_wins, full_wins = game._ends_win()
    if not full_wins:
        raise ValueError("game has no winning coalitions")
    if empty_wins:
        raise ValueError("game declares the empty coalition winning")


def _rows(game: ExplicitGame, reduced: bool) -> _Rows:
    """Reduced rows if asked for and the levels are strictly ordered, else full rows."""
    extremal = _shift_extremal_points(game) if reduced else None
    if extremal is not None:
        return _Rows(*extremal, True)
    wins, losses = game.min_winning, maximal_losing(game)
    return _Rows(sorted(w.counts for w in wins), sorted(x.counts for x in losses), False)


def _separating_system(m: int, rows: _Rows, weighted: bool) -> LinearSystem:
    """The weighted system (quota as the last variable) or the quota-1 rough
    system on `rows` over m levels, with w >= 0.

    Full rows: sorted minimal winning, sorted maximal losing, then the unit
    rows w_i >= 0. Reduced rows: sorted shift-minimal winning, sorted
    shift-maximal losing, the monotone rows w_i - w_{i+1} >= 0, then
    w_m >= 0. The order fixes the simplex's pivots, and so the witnesses.
    """
    v = m + 1 if weighted else m
    if rows.reduced:
        signs = [(0,) * i + (-1, 1) + (0,) * (v - i - 2) for i in range(m - 1)]
        signs.append((0,) * (m - 1) + (-1,) + (0,) * (v - m))
    else:
        signs = [(0,) * i + (-1,) + (0,) * (v - i - 1) for i in range(m)]
    # stored as rows <= rhs: weighted -w(W) + q <= 0 and w(L) - q <= -1;
    # rough -w(W) <= -1 and w(L) <= 1
    (win_tail, lose_tail, win, lose) = ((1,), (-1,), 0, -1) if weighted else ((), (), -1, 1)
    built = [(tuple([-c for c in w]) + win_tail, win) for w in rows.wins]
    built += [(x + lose_tail, lose) for x in rows.losses]
    built += [(u, 0) for u in signs]
    return LinearSystem._of_rows(v, built)


def _weighted(m: int, rows: _Rows) -> Optional[RoughCert]:
    found = _separating_system(m, rows, True)._feasible_ints()
    if found is None:
        return None
    denom, pi = found
    # the empty coalition is losing, so its maximal superset forces q >= 1
    if pi[m] < denom:
        raise RuntimeError(f"weighted witness has quota {Fraction(pi[m], denom)} < 1")
    return RoughCert._of_ints(denom, pi[m], pi[:m])


def _rough(m: int, rows: _Rows) -> Optional[RoughCert]:
    found = _separating_system(m, rows, False)._feasible_ints()
    if found is not None:
        denom, pi = found
        return RoughCert._of_ints(denom, denom, pi)
    # branch B: the lowest level whose single player wins alone; the empty
    # coalition loses (_checked), so that player is minimal winning, and its
    # count vector, lexicographically the largest, is the indicator weighting.
    # Among reduced rows it is e_1 or none (the module docstring's corollary)
    units = [w for w in rows.wins if sum(w) == 1]
    return RoughCert._of_ints(1, 0, max(units)) if units else None


def _two_trade(rows: _Rows) -> Optional[tuple[tuple[int, ...], ...]]:
    """Winning X_1, X_2 and losing Y_1, Y_2 among reduced rows, repeats
    allowed, whose prefix sums satisfy P(X_1) + P(X_2) <= P(Y_1) + P(Y_2)
    level by level, or None: the module docstring's refutation of
    weightedness. A trade rests on the lemma, so full rows give None."""
    if not rows.reduced:
        return None
    pairs = combinations_with_replacement
    ceilings = [(list(accumulate(map(add, a, b))), a, b) for a, b in pairs(rows.losses, 2)]
    for x_1, x_2 in pairs(rows.wins, 2):
        floor = list(accumulate(map(add, x_1, x_2)))
        for ceiling, y_1, y_2 in ceilings:
            if all(map(le, floor, ceiling)):
                return x_1, x_2, y_1, y_2
    return None


def _cascade(m: int, rows: _Rows) -> tuple[str, Optional[RoughCert]]:
    if _two_trade(rows) is None:
        cert = _weighted(m, rows)
        if cert is not None:
            return "weighted", cert
    cert = _rough(m, rows)
    return ("not_rough" if cert is None else "rough_not_weighted"), cert


def oracle_weighted(game: ExplicitGame) -> Optional[RoughCert]:
    """Exact weighted representation of the game, or None.

    The returned certificate satisfies w(W) >= q for minimal winning W and
    w(L) <= q - 1 < q for maximal losing L.
    """
    _checked(game)
    return _weighted(game.universe.m, _rows(game, reduced=False))


def oracle_rough(game: ExplicitGame) -> Optional[RoughCert]:
    """Exact rough representation of the game, or None.

    Tries the quota-1 polytope first (branch A), then the zero-quota passer
    certificates (branch B). See the module docstring for why these two
    branches are exhaustive.
    """
    _checked(game)
    return _rough(game.universe.m, _rows(game, reduced=False))


def oracle_witness(game: ExplicitGame) -> tuple[str, Optional[RoughCert]]:
    """The game's class by pure feasibility, the weighted LP deciding first,
    with the witness of that class (None for 'not_rough')."""
    _checked(game)
    return _cascade(game.universe.m, _rows(game, reduced=False))


def oracle_classify(game: ExplicitGame) -> str:
    """'weighted', 'rough_not_weighted', or 'not_rough': oracle_witness's
    class, decided without solving the full rows of a game whose levels are
    strictly ordered, and without its weighted LP when a 2-trade refutes
    weightedness."""
    _checked(game)
    return _cascade(game.universe.m, _rows(game, reduced=True))[0]


def verify_representation(game: ExplicitGame, cert: RoughCert, mode: str) -> bool:
    """Check a certificate against the game's antichains, exactly.

    mode 'weighted': every minimal winning coalition weighs >= quota and
    every maximal losing coalition weighs strictly below it.
    mode 'rough': losing side relaxed to <= quota.

    Sound for monotone games because weights are nonnegative: supersets only
    gain weight, subsets only lose it. Non-increasing weights on a strictly
    ordered game are checked on its shift-extremal rows alone (the module
    docstring's corollary), anything else on both antichains; a game where
    everything wins has no losing row, one where nothing wins no winning
    row. All arithmetic is on the certificate's int numerators over its one
    denominator d > 0: w(X) < q iff d w(X) <= d q - 1.
    Raises EnumerationCapError when the game's lattice exceeds the cap.
    """
    if mode not in ("weighted", "rough"):
        raise ValueError(f"mode must be 'weighted' or 'rough', got {mode!r}")
    if cert.m != game.universe.m:
        raise ValueError(f"certificate has {cert.m} weights for {game.universe}")
    weights, quota = cert._w, cert._q
    rows = _rows(game, reduced=all(map(ge, weights, weights[1:])))
    top = quota - 1 if mode == "weighted" else quota
    return all(sum(map(mul, weights, w)) >= quota for w in rows.wins) and all(
        sum(map(mul, weights, x)) <= top for x in rows.losses
    )


def extremal_weight(
    game: ExplicitGame,
    objective: Sequence[int],
    sense: str,
) -> Optional[Fraction]:
    """Exact optimum of objective . w over the quota-1 rough polytope.

    objective holds one int per level (a count vector, say); anything else
    raises TypeError. sense is 'min' or 'max'. Returns None when the
    objective is unbounded over the polytope; raises ValueError when the
    polytope is empty (the game has no quota-1 rough representation) or on
    bad arguments.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    m = game.universe.m
    if len(objective) != m:
        raise ValueError(f"objective needs {m} coefficients, got {len(objective)}")
    _checked(game)
    sys = _separating_system(m, _rows(game, reduced=True), False)
    result = sys.minimize(objective) if sense == "min" else sys.maximize(objective)
    if result.status == INFEASIBLE:
        raise ValueError("game has no rough representation with quota 1")
    if result.status == UNBOUNDED:
        return None
    return result.value
