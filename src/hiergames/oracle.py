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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .certificates import Rational, RoughCert, as_rational
from .core import Coalition, ExplicitGame, is_winning, maximal_losing
from .feasibility import INFEASIBLE, UNBOUNDED, LinearSystem

__all__ = [
    "SeparationSystem",
    "separation_system",
    "oracle_weighted",
    "oracle_rough",
    "oracle_classify",
    "verify_representation",
    "extremal_weight",
]


@dataclass(frozen=True)
class SeparationSystem:
    """The two antichain-driven constraint families at a fixed quota.

    ge_rows: (coalition counts, bound) meaning w . counts >= bound, one row
    per minimal winning coalition. le_rows likewise with <=, one row per
    maximal losing coalition. Nonnegativity of w is implied.
    """

    num_levels: int
    ge_rows: tuple[tuple[tuple[int, ...], Fraction], ...]
    le_rows: tuple[tuple[tuple[int, ...], Fraction], ...]

    def to_linear_system(self) -> LinearSystem:
        sys = LinearSystem(self.num_levels)
        for counts, bound in self.ge_rows:
            sys.add_ge(counts, bound)
        for counts, bound in self.le_rows:
            sys.add_le(counts, bound)
        for i in range(self.num_levels):
            unit = tuple(1 if j == i else 0 for j in range(self.num_levels))
            sys.add_ge(unit, 0)
        return sys


def _require_proper(game: ExplicitGame) -> None:
    if not game.min_winning:
        raise ValueError("game has no winning coalitions")
    if any(w.size == 0 for w in game.min_winning):
        raise ValueError("game declares the empty coalition winning")


def separation_system(
    game: ExplicitGame, quota: Rational = 1, cap: int | None = None
) -> SeparationSystem:
    """Antichain rows of `game` at a fixed quota (default 1, the rough form)."""
    _require_proper(game)
    q = as_rational(quota, "quota")
    ge = tuple(sorted((w.counts, q) for w in game.min_winning))
    le = tuple(sorted((x.counts, q) for x in maximal_losing(game, cap)))
    return SeparationSystem(game.universe.m, ge, le)


def oracle_weighted(game: ExplicitGame, cap: int | None = None) -> Optional[RoughCert]:
    """Exact weighted representation of the game, or None.

    The returned certificate satisfies w(W) >= q for minimal winning W and
    w(L) <= q - 1 < q for maximal losing L.
    """
    _require_proper(game)
    m = game.universe.m
    sys = LinearSystem(m + 1)  # variables w_1..w_m, q
    for w in sorted(x.counts for x in game.min_winning):
        sys.add_ge(w + (-1,), 0)
    for x in sorted(x.counts for x in maximal_losing(game, cap)):
        sys.add_le(x + (-1,), -1)
    for i in range(m):
        sys.add_ge(tuple(1 if j == i else 0 for j in range(m)) + (0,), 0)
    point = sys.feasible_point()
    if point is None:
        return None
    weights, quota = point[:m], point[m]
    # the empty coalition is losing, so its maximal superset forces q >= 1
    if quota < 1:
        raise RuntimeError(f"weighted witness has quota {quota} < 1")
    return RoughCert(quota, weights)


def oracle_rough(game: ExplicitGame, cap: int | None = None) -> Optional[RoughCert]:
    """Exact rough representation of the game, or None.

    Tries the quota-1 polytope first (branch A), then the zero-quota passer
    certificates (branch B). See the module docstring for why these two
    branches are exhaustive.
    """
    point = separation_system(game, 1, cap).to_linear_system().feasible_point()
    if point is not None:
        return RoughCert(Fraction(1), point)
    m = game.universe.m
    zero = Coalition((0,) * m)
    for i in range(m):
        if is_winning(game, zero.with_unit(i)):
            weights = tuple(Fraction(1 if j == i else 0) for j in range(m))
            return RoughCert(Fraction(0), weights)
    return None


def oracle_classify(game: ExplicitGame, cap: int | None = None) -> str:
    """'weighted', 'rough_not_weighted', or 'not_rough', by pure feasibility."""
    if oracle_weighted(game, cap) is not None:
        return "weighted"
    if oracle_rough(game, cap) is not None:
        return "rough_not_weighted"
    return "not_rough"


def verify_representation(
    game: ExplicitGame,
    cert: RoughCert,
    mode: str,
    cap: int | None = None,
) -> bool:
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
    lmax = maximal_losing(game, cap)
    if mode == "weighted":
        return all(cert.weight_of(x) < cert.quota for x in lmax)
    return all(cert.weight_of(x) <= cert.quota for x in lmax)


def extremal_weight(
    game: ExplicitGame,
    objective: Sequence[Rational],
    sense: str,
    cap: int | None = None,
) -> Optional[Fraction]:
    """Exact optimum of objective . w over the quota-1 rough polytope.

    sense is 'min' or 'max'. Returns None when the objective is unbounded
    over the polytope; raises ValueError when the polytope is empty (the
    game has no quota-1 rough representation) or on bad arguments.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    m = game.universe.m
    if len(objective) != m:
        raise ValueError(f"objective needs {m} coefficients, got {len(objective)}")
    sys = separation_system(game, 1, cap).to_linear_system()
    result = sys.minimize(objective) if sense == "min" else sys.maximize(objective)
    if result.status == INFEASIBLE:
        raise ValueError("game has no rough representation with quota 1")
    if result.status == UNBOUNDED:
        return None
    return result.value
