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

Both systems come from one builder, _separating_system. Its rows are the
game's own count vectors as ints (the weighted system appends -1 for the
quota variable), and the LP engine keeps every row as added: row j of the
system is the j-th row the builder adds, never rescaled or merged.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .certificates import RoughCert
from .core import Coalition, ExplicitGame, is_winning, maximal_losing
from .feasibility import INFEASIBLE, UNBOUNDED, LinearSystem

__all__ = [
    "oracle_weighted",
    "oracle_rough",
    "oracle_classify",
    "oracle_witness",
    "verify_representation",
    "extremal_weight",
]


def _separating_system(game: ExplicitGame, weighted: bool) -> LinearSystem:
    """The weighted system (quota as the last variable) or the quota-1 rough
    system of `game`, with w >= 0.

    Rows come in a fixed order, sorted minimal winning, sorted maximal
    losing, then the unit rows: the order fixes the simplex's pivots, and so
    the witnesses.
    """
    if not game.min_winning:
        raise ValueError("game has no winning coalitions")
    if any(w.size == 0 for w in game.min_winning):
        raise ValueError("game declares the empty coalition winning")
    m = game.universe.m
    # weighted: w(W) - q >= 0 and w(L) - q <= -1; rough: w(W) >= 1, w(L) <= 1
    tail, win, lose = ((-1,), 0, -1) if weighted else ((), 1, 1)
    sys = LinearSystem(m + len(tail))
    for w in sorted(x.counts for x in game.min_winning):
        sys.add_ge(w + tail, win)
    for x in sorted(x.counts for x in maximal_losing(game)):
        sys.add_le(x + tail, lose)
    for i in range(m):
        sys.add_ge(tuple(int(j == i) for j in range(sys.num_vars)), 0)
    return sys


def oracle_weighted(game: ExplicitGame) -> Optional[RoughCert]:
    """Exact weighted representation of the game, or None.

    The returned certificate satisfies w(W) >= q for minimal winning W and
    w(L) <= q - 1 < q for maximal losing L.
    """
    point = _separating_system(game, True).feasible_point()
    if point is None:
        return None
    m = game.universe.m
    weights, quota = point[:m], point[m]
    # the empty coalition is losing, so its maximal superset forces q >= 1
    if quota < 1:
        raise RuntimeError(f"weighted witness has quota {quota} < 1")
    return RoughCert(quota, weights)


def oracle_rough(game: ExplicitGame) -> Optional[RoughCert]:
    """Exact rough representation of the game, or None.

    Tries the quota-1 polytope first (branch A), then the zero-quota passer
    certificates (branch B). See the module docstring for why these two
    branches are exhaustive.
    """
    point = _separating_system(game, False).feasible_point()
    if point is not None:
        return RoughCert(Fraction(1), point)
    m = game.universe.m
    zero = Coalition((0,) * m)
    for i in range(m):
        if is_winning(game, zero.with_unit(i)):
            weights = tuple(Fraction(1 if j == i else 0) for j in range(m))
            return RoughCert(Fraction(0), weights)
    return None


def oracle_witness(game: ExplicitGame) -> tuple[str, Optional[RoughCert]]:
    """The game's class by pure feasibility, the weighted LP deciding first,
    with the witness of that class (None for 'not_rough')."""
    cert = oracle_weighted(game)
    if cert is not None:
        return "weighted", cert
    cert = oracle_rough(game)
    return ("not_rough" if cert is None else "rough_not_weighted"), cert


def oracle_classify(game: ExplicitGame) -> str:
    """'weighted', 'rough_not_weighted', or 'not_rough': oracle_witness's class."""
    return oracle_witness(game)[0]


def verify_representation(game: ExplicitGame, cert: RoughCert, mode: str) -> bool:
    """Check a certificate against the game's antichains.

    mode 'weighted': every minimal winning coalition weighs >= quota and
    every maximal losing coalition weighs strictly below it.
    mode 'rough': losing side relaxed to <= quota.

    Sound for monotone games because weights are nonnegative: supersets only
    gain weight, subsets only lose it.
    """
    if mode not in ("weighted", "rough"):
        raise ValueError(f"mode must be 'weighted' or 'rough', got {mode!r}")
    if cert.m != game.universe.m:
        raise ValueError(f"certificate has {cert.m} weights for {game.universe}")
    if not all(cert.weight_of(w) >= cert.quota for w in game.min_winning):
        return False
    lmax = maximal_losing(game)
    if mode == "weighted":
        return all(cert.weight_of(x) < cert.quota for x in lmax)
    return all(cert.weight_of(x) <= cert.quota for x in lmax)


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
    sys = _separating_system(game, False)
    result = sys.minimize(objective) if sense == "min" else sys.maximize(objective)
    if result.status == INFEASIBLE:
        raise ValueError("game has no rough representation with quota 1")
    if result.status == UNBOUNDED:
        return None
    return result.value
