"""Hierarchical game specs: prefix-threshold games on leveled universes.

A spec (kind, n, k) describes a game on the universe {1^n1, ..., m^nm}:

  disjunctive: X wins iff SOME i has x_1 + ... + x_i >= k_i,
  conjunctive: X wins iff EVERY i has x_1 + ... + x_i >= k_i,

with k strictly increasing (conjunctive: the last pair may be equal). Distinct
specs can describe the same game; canon_check tests the canonical-form
conditions (the m levels are strictly ordered by desirability iff the spec's
normalized form meets them), and canonicalize_semantic computes the one
canonical spec of any spec's game from (n, k) alone, dropping the thresholds
that never decide the game and merging the levels they separated, without
realizing the game.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import ge, sub
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    Coalition,
    ExplicitGame,
    Multiset,
    _coalition,
    _int_tuple,
    _prefix_game,
    _shift_extremal_points,
    level_classes,
)

__all__ = [
    "DISJUNCTIVE",
    "CONJUNCTIVE",
    "HierSpec",
    "CanonReport",
    "ShiftExtremal",
    "hier_is_winning",
    "realize",
    "canon_check",
    "canonicalize_semantic",
    "merge_levels",
    "truncate",
    "shift_maximal_losing",
    "shift_extremal",
    "recover_disjunctive",
    "recover_conjunctive",
]

DISJUNCTIVE = "disjunctive"
CONJUNCTIVE = "conjunctive"


@dataclass(frozen=True)
class HierSpec:
    """A disjunctive or conjunctive prefix-threshold spec.

    Validation enforces positive counts and thresholds, the kind's
    monotonicity law on k, and non-degeneracy: the full coalition must win
    (otherwise the spec describes a game with no winning coalitions at all,
    which no amount of thresholds can make interesting).
    """

    kind: str
    n: tuple[int, ...]
    k: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in (DISJUNCTIVE, CONJUNCTIVE):
            raise ValueError(f"kind must be {DISJUNCTIVE!r} or {CONJUNCTIVE!r}, got {self.kind!r}")
        n = _int_tuple(self.n, "level count", 1)
        k = _int_tuple(self.k, "threshold", 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        if len(n) != len(k) or not n:
            raise ValueError(f"n and k must be equal-length and nonempty, got {n} / {k}")
        m = len(k)
        for i in range(1, m):
            strict = self.kind == DISJUNCTIVE or i < m - 1
            if k[i] < k[i - 1] or (strict and k[i] == k[i - 1]):
                raise ValueError(f"thresholds must increase ({self.kind}), got {k}")
        if not _prefix_wins(self.kind, k, n):
            raise ValueError(f"degenerate spec, full coalition loses: n={n} k={k}")

    @property
    def m(self) -> int:
        return len(self.n)

    def universe(self) -> Multiset:
        return Multiset(self.n)

    def deltas(self) -> tuple[int, ...]:
        """(k_1, k_2 - k_1, ..., k_m - k_{m-1})."""
        return tuple(b - a for a, b in zip((0,) + self.k, self.k))

    def __str__(self) -> str:
        tag = "E" if self.kind == DISJUNCTIVE else "A"
        return f"H_{tag}(n={self.n}, k={self.k})"


def _prefix_wins(kind: str, k: tuple[int, ...], counts: Iterable[int]) -> bool:
    """The prefix-threshold rule on a count vector of len(k) levels, O(m)."""
    test = any if kind == DISJUNCTIVE else all
    return test(map(ge, accumulate(counts), k))


def hier_is_winning(spec: HierSpec, coalition: Coalition) -> bool:
    """Prefix-threshold test, O(m)."""
    if not spec.universe().fits(coalition):
        raise ValueError(f"{coalition} does not fit in universe {spec.universe()}")
    return _prefix_wins(spec.kind, spec.k, coalition.counts)


def realize(spec: HierSpec) -> ExplicitGame:
    """Explicit game of a spec, with its win mask memoized.

    realize states the _prefix_wins rule level by level and core writes
    the bits (core._prefix_game). At level i, after prefix sum p, x_i < cut
    leaves X_i below k_i, so the bounds are (0, cut) disjunctive, (cut,
    n_i + 1) conjunctive and (cut, cut) on the last level, where the
    condition decides it all. Guarded by the enumeration cap.
    """
    n, k, disjunctive = spec.n, spec.k, spec.kind == DISJUNCTIVE

    def bounds(i: int, p: int) -> tuple[int, int]:
        cut = min(max(k[i] - p, 0), n[i] + 1)
        if i == len(n) - 1:
            return cut, cut
        return (0, cut) if disjunctive else (cut, n[i] + 1)

    return _prefix_game(spec.universe(), bounds)


@dataclass(frozen=True)
class CanonReport:
    """Canonical-form report for a spec.

    condition_a: k_1 <= n_1.
    condition_b: one flag per level 2..m. Middle levels require
        k_i < k_{i-1} + n_i for both kinds. The last level allows equality for
        the disjunctive kind (that boundary is the canonical form of games
        whose last level is dummy) and stays strict for the conjunctive kind
        (equality there collapses the last two levels into one class).
    canonical: condition_a and all of condition_b. The m levels of the
        realized game are strictly ordered by desirability iff
        normalized_spec is canonical (a disjunctive k_m past its bound is not).
    dummy_last_level: level m is a dummy, read off the canonical form, where
        that is m >= 2 and k_m = k_{m-1} + n_m (disjunctive) or k_m = k_{m-1}.
    passer_first_level: a lone first-level player wins.
    blocker_first_level: the full coalition less one first-level player
        loses, so every first-level player is a vetoer.
    normalized_spec: same game, with an out-of-range disjunctive k_m clamped
        to k_{m-1} + n_m; other specs pass through unchanged.
    """

    canonical: bool
    condition_a: bool
    condition_b: tuple[bool, ...]
    dummy_last_level: bool
    passer_first_level: bool
    blocker_first_level: bool
    normalized_spec: HierSpec


def _condition_b(spec: HierSpec) -> Iterator[bool]:
    """canon_check's condition b, one flag per level 2..m."""
    n, k, last = spec.n, spec.k, spec.m - 1
    tie = spec.kind == DISJUNCTIVE  # a disjunctive last level may meet its bound
    for i in range(1, last + 1):
        bound = k[i - 1] + n[i]
        yield k[i] <= bound if tie and i == last else k[i] < bound


def _is_canonical(spec: HierSpec) -> bool:
    """canon_check(spec).canonical, without the rest of the report."""
    return spec.k[0] <= spec.n[0] and all(_condition_b(spec))


def canon_check(spec: HierSpec) -> CanonReport:
    n, k, m = spec.n, spec.k, spec.m
    cond_a = k[0] <= n[0]
    cond_b = tuple(_condition_b(spec))
    canonical = cond_a and all(cond_b)
    # level m is a dummy iff its class is; in canonical form k_m is then on its bound
    form = spec if canonical else canonicalize_semantic(spec)[0]
    slack = form.n[-1] if form.kind == DISJUNCTIVE else 0
    dummy = form.m >= 2 and form.k[-1] == form.k[-2] + slack
    passer = _prefix_wins(spec.kind, k, (1,) + (0,) * (m - 1))
    blocker = not _prefix_wins(spec.kind, k, (n[0] - 1,) + n[1:])
    normalized = spec
    if spec.kind == DISJUNCTIVE and m >= 2 and k[-1] > k[-2] + n[-1]:
        normalized = HierSpec(spec.kind, n, k[:-1] + (k[-2] + n[-1],))
    return CanonReport(
        canonical=canonical,
        condition_a=cond_a,
        condition_b=cond_b,
        dummy_last_level=dummy,
        passer_first_level=passer,
        blocker_first_level=blocker,
        normalized_spec=normalized,
    )


def truncate(spec: HierSpec) -> HierSpec:
    """Drop the last level: ((n_1..n_{m-1}), (k_1..k_{m-1})), same kind."""
    if spec.m < 2:
        raise ValueError("cannot truncate a one-level spec")
    return HierSpec(spec.kind, spec.n[:-1], spec.k[:-1])


def merge_levels(game: ExplicitGame) -> ExplicitGame:
    """Collapse each class of equally desirable levels (core.level_classes,
    most desirable first) into one level; ValueError on incomparable levels.

    Levels in one class are interchangeable, so a merged coalition wins iff
    any (equally, every) spread of it over the class's levels wins, and the
    classwise sums of the minimal winning coalitions generate the merged
    game: a winning spread contains some minimal winning w, so its squash
    contains sum(w). The constructor keeps their minimal members.

    Class c becomes level c, each strictly above the next, which is what
    shift_extremal needs. Merged levels inherit the class order: trading a
    lower-class unit for a higher-class one inside a winning spread keeps
    it winning. The order is strict: where that trade's reverse makes a
    winning spread lose, the merged trade makes its squash lose, as all
    spreads of one merged coalition win or lose together.
    """
    classes = level_classes(game)
    if classes is None:
        raise ValueError(f"game on {game.universe} has incomparable levels")

    def squash(counts: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(counts[i] for i in cls) for cls in classes)

    merged_wmin = frozenset(_coalition(squash(w.counts)) for w in game.min_winning)
    return ExplicitGame(Multiset(squash(game.universe.counts)), merged_wmin)


def canonicalize_semantic(spec: HierSpec) -> tuple[HierSpec, tuple[int, ...]]:
    """Canonical spec of the game described by `spec`, plus the level mapping.

    O(m^2) arithmetic on (n, k), at any size. With X_i = x_1 + ... + x_i,
    k_i >= k_{i-1} + n_i makes X_i >= k_i imply X_{i-1} >= k_{i-1}. So a
    disjunctive condition i < m implied by condition i-1 adds no winner (nor
    does the first when k_1 > n_1: it never holds), and a conjunctive
    condition i-1 implied by condition i excludes none. Each such condition
    is dropped and the two levels it separated merge into one of n_i +
    n_{i+1} players: every remaining prefix counts both or neither. Then a
    disjunctive k_m above k_{m-1} + n_m (a dummy last level) is clamped to
    it. The result meets canon_check's conditions, so it is the game's one
    canonical spec. mapping[i] is the class index of level i.
    """
    n, k, width = list(spec.n), list(spec.k), [1] * spec.m
    while True:
        if spec.kind == DISJUNCTIVE:
            # the sentinel k_0 = 1, which the empty prefix never reaches,
            # turns k_1 > n_1 into the middle rule
            drops = (i for i in range(len(k) - 1) if k[i] >= (k[i - 1] if i else 1) + n[i])
        else:
            drops = (i - 1 for i in range(1, len(k)) if k[i] >= k[i - 1] + n[i])
        i = next(drops, None)
        if i is None:
            break
        del k[i]
        n[i : i + 2] = [n[i] + n[i + 1]]
        width[i : i + 2] = [width[i] + width[i + 1]]
    if spec.kind == DISJUNCTIVE and len(k) > 1:
        k[-1] = min(k[-1], k[-2] + n[-1])
    mapping = tuple(c for c, w in enumerate(width) for _ in range(w))
    return HierSpec(spec.kind, tuple(n), tuple(k)), mapping


def recover_disjunctive(game: ExplicitGame) -> Optional[HierSpec]:
    """Canonical disjunctive spec describing `game`, or None: None for a
    trivial game or one whose levels are not strictly ordered as given
    (merge equivalent levels first), else the rows rule's answer
    (_spec_of_rows) on the game's shift-extremal rows."""
    return _recover(game, DISJUNCTIVE)


def recover_conjunctive(game: ExplicitGame) -> Optional[HierSpec]:
    """Canonical conjunctive spec describing `game`, or None; as
    recover_disjunctive."""
    return _recover(game, CONJUNCTIVE)


def _recover(game: ExplicitGame, kind: str) -> Optional[HierSpec]:
    empty_wins, full_wins = game._ends_win()
    if empty_wins or not full_wins:
        return None  # trivial, so no spec: refused before the cap is checked
    rows = _shift_extremal_points(game)  # the cap error comes before any threshold
    if rows is None:
        return None  # a canonical spec's game has strictly ordered levels
    return _spec_of_rows(kind, game.universe.counts, *rows)


def _spec_of_rows(
    kind: str,
    counts: tuple[int, ...],
    wins: Sequence[tuple[int, ...]],
    losses: Sequence[tuple[int, ...]],
) -> Optional[HierSpec]:
    """The spec of `kind` on level sizes `counts` whose game has these
    shift-minimal winning and shift-maximal losing rows, or None; the rows
    must be those of a game with strictly ordered levels, which this rule
    never sees.

    Disjunctive k_i is 1 + the largest i-prefix of a losing row,
    conjunctive k_i the smallest i-prefix of a winning row. The spec stands
    iff it is valid, every winning row wins and every losing row loses.
    Then it realizes the game: on strictly ordered levels every winner
    prefix-dominates a winning row and every loser is prefix-dominated by a
    losing one (the oracle's verification corollary), and the prefix rule
    is monotone in the prefix sums. So its levels are strictly ordered, and
    by CanonReport's rule its normalized form is canonical. That form is
    the spec itself: a disjunctive k_m is at most k_{m-1} + n_m, as every
    losing row has X_m = X_{m-1} + x_m <= k_{m-1} - 1 + n_m.
    """
    if kind == DISJUNCTIVE:
        k = tuple(1 + max(p) for p in zip(*map(accumulate, losses)))
    else:
        k = tuple(min(p) for p in zip(*map(accumulate, wins)))
    try:
        spec = HierSpec(kind, counts, k)
    except ValueError:
        return None
    winning = all(_prefix_wins(kind, k, x) for x in wins)
    return spec if winning and not any(_prefix_wins(kind, k, x) for x in losses) else None


@dataclass(frozen=True)
class ShiftExtremal:
    """Shift-minimal winning and shift-maximal losing coalitions of a game.

    A shift moves one unit from a level to a strictly less desirable level.
    Shift-minimal winning: minimal winning, and every shift of it loses.
    Shift-maximal losing: maximal losing, and every inverse shift of it wins.
    """

    shift_min_winning: frozenset[Coalition]
    shift_max_losing: frozenset[Coalition]


def shift_extremal(game: ExplicitGame) -> ShiftExtremal:
    """Both shift-extremal antichains of a game with strictly ordered levels.

    Raises ValueError unless level i is strictly more desirable than level j
    for every i < j (merge equivalent levels first; shifts between equally
    desirable levels would not change the game). Both the order and the
    antichains are read off the game's win mask (core._shift_extremal_points).
    """
    points = _shift_extremal_points(game)
    if points is None:
        m = game.universe.m
        raise ValueError(f"levels 0..{m - 1} are not strictly ordered by desirability")
    smw, sml = points
    return ShiftExtremal(
        shift_min_winning=frozenset(map(_coalition, smw)),
        shift_max_losing=frozenset(map(_coalition, sml)),
    )


def shift_maximal_losing(spec: HierSpec) -> Coalition:
    """The unique shift-maximal losing coalition of a canonical disjunctive
    spec without passers or dummies: (k_1 - 1, k_2 - k_1, ..., k_m - k_{m-1}),
    _spec_rows' one losing row.

    Raises ValueError for conjunctive specs, non-canonical specs, passers
    (k_1 = 1), or a dummy last level, where this closed form does not apply.
    """
    if spec.kind != DISJUNCTIVE:
        raise ValueError("closed form applies to disjunctive specs")
    report = canon_check(spec)
    if not report.canonical:
        raise ValueError(f"{spec} is not canonical")
    if report.passer_first_level:
        raise ValueError(f"{spec} has passers (k_1 = 1)")
    if report.dummy_last_level:
        raise ValueError(f"{spec} has a dummy last level")
    return Coalition(_spec_rows(spec)[1][0])


def _k_star(n: tuple[int, ...], k: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate thresholds k*_i = N_i - k_i + 1, N_i the i-th prefix
    of n, for (n, k) already known valid: a canonical spec's dual's
    thresholds (transforms.dual_spec, which checks them)."""
    return tuple(p - t + 1 for p, t in zip(accumulate(n), k))


def _spec_rows(spec: HierSpec) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The shift-minimal winning and shift-maximal losing rows of a
    canonical spec's game, each sorted: core._shift_extremal_points of
    realize(spec), from (kind, n, k) alone in O(m^2), at any size.

    Write P_s(X) for the s-th prefix sum of a count vector, N for the full
    coalition, and X <= Y when P_s(X) <= P_s(Y) for every s. On levels
    ordered 1 >= ... >= m, <= is the order generated by adding a unit and
    moving one up (core._strict_games, fact (a)), so the game, whose levels
    are strictly ordered (CanonReport), is an up-set of <=; its
    shift-minimal winning rows are its prefix-minimal winners, and its
    shift-maximal losing rows its prefix-maximal losers.

    Disjunctive winners. W_i puts k_i units on level i, what is left on
    level i - 1, and so on upward; they fit, as k_1 <= n_1 and k_i <=
    k_{i-1} + n_i give k_i <= P_i(N). W_i is the prefix-minimum of {X :
    P_i(X) >= k_i}: for s >= i, P_s(W_i) = k_i <= P_i(X) <= P_s(X), and for
    s < i, P_s(W_i) = max(0, k_i - (n_{s+1} + ... + n_i)) <= P_s(X) =
    P_i(X) - (x_{s+1} + ... + x_i). The winners are the union of these
    sets, so the prefix-minimal winners are the prefix-minimal W_i. For
    i < j, P_j(W_i) = k_i < k_j = P_j(W_j), so W_j is not below W_i, and
    W_i <= W_j needs P_i(W_j) >= k_i, that is k_j - k_i >= n_{i+1} + ... +
    n_j. Canonical form allows that only for i = m - 1, j = m and k_m =
    k_{m-1} + n_m, a dummy last level, where W_m is dropped.

    Disjunctive loser. L = (k_1 - 1, k_2 - k_1, ..., k_m - k_{m-1}) fits
    (k_1 <= n_1, 0 < k_i - k_{i-1} <= n_i) and has P_j(L) = k_j - 1 for
    every j, so it loses, and every loser X has P_j(X) <= k_j - 1 = P_j(L):
    L is the prefix-maximum under P_j <= k_j - 1, the one shift-maximal
    losing row.

    Conjunctive. X wins iff N - X loses in the dual, the disjunctive game
    of the conjugate thresholds (_k_star), canonical as the spec is
    (transforms.dual_spec). P(N - X) = P(N) - P(X), so complementing
    reverses <=: the prefix-minimal winners are the complements of the
    dual's prefix-maximal losers, and the prefix-maximal losers the
    complements of the dual's prefix-minimal winners.
    """
    n, m = spec.n, spec.m
    k = spec.k if spec.kind == DISJUNCTIVE else _k_star(n, spec.k)
    dummy = m > 1 and k[-1] == k[-2] + n[-1]
    wins = []
    for i in range(m - dummy):
        x, left = [0] * m, k[i]
        for j in range(i, -1, -1):
            x[j] = min(n[j], left)
            left -= x[j]
        wins.append(tuple(x))
    losses = [(k[0] - 1,) + tuple(map(sub, k[1:], k))]
    if spec.kind != DISJUNCTIVE:
        wins, losses = ([tuple(map(sub, n, x)) for x in rows] for rows in (losses, wins))
    return sorted(wins), sorted(losses)
