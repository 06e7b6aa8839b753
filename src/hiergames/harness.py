"""Verification harness: classifier-vs-oracle sweeps and the structural scan.

run_sweep walks a canonical grid of specs, classifies each one structurally,
verifies its certificate arithmetically, asks the LP oracle what that
certificate leaves open (cross_check), and reports every disagreement. A
canonical spec's levels are strictly ordered, so both the check and the
oracle read only the game's shift-extremal rows, and those are closed
forms in (kind, n, k) (hierarchy._spec_rows): no spec's game is realized
and no spec is skipped, at any size. The classifier and the oracle share
no decision logic (the rows share only the threshold conjugation of a
conjunctive spec, and tests check them on the prefix rule alone), so
agreement across a grid is real evidence, not an echo.

structural_scan tests the structural equivalences on every complete game
of a small universe:

  unique shift-maximal losing coalition  <=>  disjunctive hierarchical,
  unique shift-minimal winning coalition <=>  conjunctive hierarchical,

after reordering levels by desirability and merging equivalent levels, which
is what "hierarchical" means for a game rather than a spec. Every check reads
only that merged game, a complete game whose levels are strictly ordered, and
a complete game is exactly an ordered partition of the levels into classes
together with such a game on the class sizes. So the scan generates the
strictly ordered games of each distinct class-size tuple directly
(core._strict_games), checks each once on its shift-extremal rows, and
counts it once per partition with those sizes. It never builds a game that
is not complete, and recovers each kind's spec from the rows alone
(hierarchy._spec_of_rows).

The count of all games, nonempty antichains of nonempty coalitions, is
not a walk over them: it is |J(L)| - 2, J(L) being the down-sets of the
lattice L of count vectors, counted as multichains of down-sets of a
smaller lattice (_count_down_sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate, product
from typing import Callable, Iterator, Optional

from .certificates import RoughCert
from .classifier import ROUGH_NOT_WEIGHTED, WEIGHTED, Verdict, classify_rough
from .core import (
    ExplicitGame,
    Multiset,
    _require_int,
    _shift_extremal_points,
    _strict_games,
    iter_coalitions,
)
from .hierarchy import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    HierSpec,
    _is_canonical,
    _spec_of_rows,
    _spec_rows,
    realize,
)
from .oracle import _cascade, _holds, _rows, _Rows, _weighted, verify_representation

__all__ = [
    "SweepRecord",
    "SweepReport",
    "StructuralReport",
    "sweep_specs",
    "agrees",
    "certificate_holds",
    "cross_check",
    "run_sweep",
    "structural_scan",
]


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: structural verdict, oracle verdict, certificate check."""

    spec: HierSpec
    verdict: Verdict
    oracle_class: Optional[str]
    cert_verified: Optional[bool]

    @property
    def agree(self) -> bool:
        return agrees(self.verdict, self.oracle_class, self.cert_verified)


@dataclass(frozen=True)
class SweepReport:
    kind: str
    levels: int
    nmax: int
    kmax: Optional[int]
    records: tuple[SweepRecord, ...]

    @property
    def disagreements(self) -> tuple[SweepRecord, ...]:
        return tuple(r for r in self.records if not r.agree)

    @property
    def all_agree(self) -> bool:
        return not self.disagreements

    def class_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.verdict.game_class] = counts.get(r.verdict.game_class, 0) + 1
        return counts


def sweep_specs(
    kind: str, levels: int, nmax: int, kmax: Optional[int] = None
) -> Iterator[HierSpec]:
    """All canonical specs of a kind on `levels` levels with n_i <= nmax.

    Canonical by construction: k_1 ranges over 1..n_1 and each increment
    k_i - k_{i-1} over the canonical band (1..n_i-1 for middle levels;
    1..n_m disjunctive / 0..n_m-1 conjunctive for the last). kmax, when
    given, must be >= 1 and drops specs whose largest threshold exceeds it.
    Deterministic lexicographic order. The arguments are checked at the
    call, before the first spec is asked for.
    """
    if kind not in (DISJUNCTIVE, CONJUNCTIVE):
        raise ValueError(f"unknown kind {kind!r}")
    _require_int(levels=levels, nmax=nmax)
    if levels < 1 or nmax < 1:
        raise ValueError("levels and nmax must be >= 1")
    if kmax is not None:
        _require_int(kmax=kmax)
        if kmax < 1:
            # no canonical threshold is below 1, so the sweep would be empty
            raise ValueError(f"kmax must be >= 1, got {kmax}")
    return _grid(kind, levels, nmax, kmax)


def _grid(kind: str, levels: int, nmax: int, kmax: Optional[int]) -> Iterator[HierSpec]:
    """sweep_specs' specs, its arguments already checked."""
    for n in product(range(1, nmax + 1), repeat=levels):
        ranges = [range(1, n[0] + 1), *(range(1, c) for c in n[1:-1])]
        if levels > 1:
            ranges.append(range(1, n[-1] + 1) if kind == DISJUNCTIVE else range(n[-1]))
        for deltas in product(*ranges):
            k = tuple(accumulate(deltas))
            if kmax is not None and k[-1] > kmax:
                continue
            spec = HierSpec(kind, n, k)
            if not _is_canonical(spec):
                raise RuntimeError(f"sweep grid produced non-canonical {spec}")
            yield spec


def agrees(verdict: Verdict, oracle_class: Optional[str], cert_ok: Optional[bool]) -> bool:
    """The agreement rule: the oracle's class, when there is one, equals the
    verdict's, and the verdict's certificate, when checked, holds."""
    return oracle_class in (None, verdict.game_class) and cert_ok is not False


def certificate_holds(game: ExplicitGame, verdict: Verdict) -> Optional[bool]:
    """Whether the verdict's certificate represents the game in its class's
    mode ('weighted' for the weighted class, 'rough' otherwise); None when
    the verdict has none."""
    return _in_mode(verdict, partial(verify_representation, game))


def _in_mode(verdict: Verdict, check: Callable[[RoughCert, str], bool]) -> Optional[bool]:
    """check(certificate, mode) in the verdict's class's mode, or None when
    the verdict has no certificate: the one place a class picks its mode."""
    if verdict.certificate is None:
        return None
    return check(verdict.certificate, "weighted" if verdict.game_class == WEIGHTED else "rough")


def cross_check(spec: HierSpec, verdict: Verdict) -> tuple[str, Optional[bool]]:
    """The oracle's class of the spec's game, and whether the verdict's
    certificate holds on that game (None when the verdict has none).

    Both questions read the game's shift-extremal rows. A canonical spec's
    come in closed form (hierarchy._spec_rows), at any size: no lattice is
    built and no cap is read. Any other spec is realized and its rows read
    as oracle_classify reads them (oracle._rows with reduced=True), under
    the enumeration cap. The certificate is checked on those rows by
    verify_representation's own body (oracle._holds), in certificate_holds'
    mode.

    The certificate is checked first, and the oracle is asked only what it
    leaves open. One that holds in weighted mode is, scaled, a point of the
    oracle's weighted system, so the class is weighted without asking it.
    With no certificate, or one that fails, the class is oracle._cascade's,
    which is oracle_classify's. One that holds in rough mode proves rough:
    it scales to a point of the quota-1 system, or at quota 0 its nonzero
    weight (RoughCert refuses all zeros) marks a unit that wins alone,
    branch B's passer. Only the weighted question is then open, and
    oracle._weighted answers it. A spec's game is never trivial, its empty
    coalition losing and its full one winning, so nothing is checked before
    the rows.

    So whenever the LP is correct the class is oracle_classify's, and the
    disagreements are those of asking it every time: a wrong weighted
    verdict's certificate cannot hold; a rough verdict on a weighted game
    still meets the weighted question; a rough verdict on a game that is
    not rough has a certificate that cannot hold, and a not-rough verdict
    has none. What is given up is the LP's own run on a half that a
    certificate has proved. The LP is tested there elsewhere: by its
    run-time witness guards, the oracle certificates golden file, its
    agreement with the Fourier-Motzkin reference and the reduced-rows tests.

    Raises ValueError for a certificate whose number of weights is not the
    spec's, and EnumerationCapError when a non-canonical spec's lattice
    exceeds the cap.
    """
    canonical = _is_canonical(spec)
    rows = _Rows(*_spec_rows(spec), True) if canonical else _rows(realize(spec), reduced=True)
    holds = _in_mode(verdict, partial(_holds, spec.m, rows))
    if holds and verdict.game_class == WEIGHTED:
        return WEIGHTED, True
    if not holds:
        return _cascade(spec.m, rows)[0], holds
    return (WEIGHTED if _weighted(spec.m, rows) is not None else ROUGH_NOT_WEIGHTED), True


def run_sweep(
    kind: str,
    levels: int,
    nmax: int,
    kmax: Optional[int] = None,
    oracle: bool = True,
) -> SweepReport:
    """Classify a whole grid, cross-validating each spec against the oracle
    (cross_check) unless oracle is False. The grid is canonical, so every
    spec is checked on its closed-form rows, whatever its size."""
    records = []
    for spec in sweep_specs(kind, levels, nmax, kmax):
        verdict = classify_rough(spec)
        oracle_class, cert_verified = cross_check(spec, verdict) if oracle else (None, None)
        records.append(SweepRecord(spec, verdict, oracle_class, cert_verified))
    return SweepReport(kind, levels, nmax, kmax, tuple(records))


@dataclass(frozen=True)
class StructuralReport:
    """Outcome of the antichain scan on one universe."""

    universe: Multiset
    total_games: int
    complete_games: int
    unique_shift_max_losing: int
    disjunctive_hierarchical: int
    unique_shift_min_winning: int
    conjunctive_hierarchical: int
    mismatches: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return not self.mismatches


def structural_scan(universe: Multiset) -> StructuralReport:
    """Test the shift-extremal uniqueness equivalences over one universe.

    Counts every game and checks both directions of both equivalences on
    every complete one. Any failure lands in mismatches with enough detail
    to replay it. The universe's type and the enumeration cap are checked
    at the call (iter_coalitions), before anything is counted.

    Each generated game's shift-extremal rows are read once
    (core._shift_extremal_points); the uniqueness counts and one call of
    the rows rule per kind (hierarchy._spec_of_rows) read those rows alone.
    The game is strictly ordered and nontrivial, which is all that
    recover_* would check first. Each ordered partition of the levels
    whose class sizes are that game's levels adds the outcome once, as one
    complete game (core._strict_games, fact (c)). Only a mismatch rebuilds that
    complete game: its minimal winning coalitions are the points whose
    class sums are minimal winning in the generated game. The lines come
    in the order of the walk that once built every game: by the tuple of
    -rank(w) over the game's minimal winning coalitions w in lexicographic
    order, rank(w) being w's position in that order among all points.
    """
    coalitions = iter_coalitions(universe)
    points: list[tuple[int, ...]] = []  # the nonzero points, listed for a mismatch only
    m = universe.m
    partitions: dict[tuple[int, ...], list[list[list[int]]]] = {}
    for label in product(range(m), repeat=m):
        classes = [[i for i in range(m) if label[i] == c] for c in range(max(label) + 1)]
        if all(classes):  # an ordered partition: every class index in use
            sizes = tuple(sum(universe.counts[i] for i in cls) for cls in classes)
            partitions.setdefault(sizes, []).append(classes)
    complete = usml = disj = usmw = conj = 0
    failed: list[tuple[tuple[int, ...], str]] = []  # (the walk's sort key, line)
    for sizes, expansions in partitions.items():
        for game in _strict_games(sizes):
            wins, losses = _shift_extremal_points(game)  # never None: the levels are strict
            unique_max = len(losses) == 1
            unique_min = len(wins) == 1
            d = _spec_of_rows(DISJUNCTIVE, sizes, wins, losses)
            c = _spec_of_rows(CONJUNCTIVE, sizes, wins, losses)
            times = len(expansions)
            complete += times
            usml += times * unique_max
            usmw += times * unique_min
            disj += times * (d is not None)
            conj += times * (c is not None)
            lines = []
            if unique_max != (d is not None):
                lines.append(f"unique shift-max losing={unique_max} but disjunctive recovery={d}")
            if unique_min != (c is not None):
                lines.append(f"unique shift-min winning={unique_min} but conjunctive recovery={c}")
            if lines:
                points = points or [x.counts for x in coalitions][1:]
                merged = {w.counts for w in game.min_winning}
                for classes in expansions:
                    wins = [
                        (j, x)
                        for j, x in enumerate(points)
                        if tuple(sum(x[i] for i in cls) for cls in classes) in merged
                    ]
                    detail = f"universe={universe} min_winning={[x for _, x in wins]}"
                    failed += [(tuple(-j for j, _ in wins), f"{detail}: {line}") for line in lines]
    failed.sort(key=lambda pair: pair[0])
    return StructuralReport(
        universe=universe,
        total_games=_count_down_sets(universe.counts) - 2,
        complete_games=complete,
        unique_shift_max_losing=usml,
        disjunctive_hierarchical=disj,
        unique_shift_min_winning=usmw,
        conjunctive_hierarchical=conj,
        mismatches=tuple(line for _, line in failed),
    )


def _count_down_sets(counts: tuple[int, ...]) -> int:
    """|J(L)|, the number of down-sets of the lattice L of count vectors
    x <= counts, from count vectors alone: no lattice of L is built.

    The games are the nonempty antichains of nonzero points. Each generates
    an up-set that is neither empty nor, lacking the zero point, all of L,
    and each such up-set is generated by its minimal points alone. Up-sets
    are the complements of down-sets, so there are |J(L)| - 2 games.

    Chains. Put the level p with the most players first: L = [0..n] x L',
    n = n_p, L' the product of the other levels ([0..0], one point, when
    there are none). For a down-set D of L, D_a = {y : (a, y) in D} is a
    down-set of L', and D_a contains D_{a+1}, since (a, y) <= (a + 1, y).
    Conversely, if D_0 >= ... >= D_n are down-sets of L', then
    D = {(a, y) : y in D_a} is a down-set: (b, z) <= (a, y) with y in D_a
    puts z in D_a, which D_b contains. The two maps are inverse, so
    |J(L)| is the number of such chains of n + 1 down-sets of L'. With
    (zeta f)(E) = sum of f(F) over the down-sets F contained in E, and f = 1,
    (zeta^k f)(E) counts the chains of k down-sets inside E, so |J(L)| is
    (zeta^(n+1) f)(L').

    Down-sets of L'. Split L' as C x [0..t], t its last level: D is a
    down-set iff each fibre {z : (y, z) in D} is an initial segment
    [0..h(y) - 1] and the height h is non-increasing on C. D gains a point
    x = (y, h(y)) iff h(y) <= t and h(y - e_i) > h(y) for every i with
    y_i > 0; those steps D -> D + x, from the empty down-set, reach all of
    J(L'), and each pairs a down-set with one of its maximal points.

    The zeta step runs in place over the points x of L' in lexicographic
    order, a linear extension. Once the points before x are done, g(E)
    sums f(F) over the down-sets F in E that agree with E from x on. A
    down-set F in E lacking x but agreeing with E after x exists only when
    x is maximal in E, since the points above x come after it; those F are
    the ones g(E - x) sums, and E - x is not itself updated at x. So the
    step adds g(E - x) into g(E) once per step E - x -> E: at most
    |J(L')| x |L'| additions, and n + 1 steps in all, after one search
    over J(L') that tries each of its |C| columns per down-set. On
    (2,2,2,2), L' = [0..2]^3 has 27 points and 980 down-sets.
    """
    p = counts.index(max(counts))
    *heads, t = counts[:p] + counts[p + 1 :] or (0,)
    cells = list(product(*(range(c + 1) for c in heads)))
    column = {y: j for j, y in enumerate(cells)}
    lower = [[column[y[:i] + (a - 1,) + y[i + 1 :]] for i, a in enumerate(y) if a] for y in cells]
    found = [(0,) * len(cells)]  # heights, the empty down-set first
    index = {found[0]: 0}
    steps = []  # (column, height, E - x, E) for x = (cells[column], height)
    for src, h in enumerate(found):  # found grows as the search goes
        for j, z in enumerate(h):
            if z <= t and all(h[k] > z for k in lower[j]):
                grown = h[:j] + (z + 1,) + h[j + 1 :]
                dst = index.setdefault(grown, len(found))
                if dst == len(found):
                    found.append(grown)
                steps.append((j, z, src, dst))
    steps.sort()
    ways = [1] * len(found)
    for _ in range(counts[p] + 1):
        for _, _, src, dst in steps:
            ways[dst] += ways[src]
    return ways[index[(t + 1,) * len(cells)]]
