"""Verification harness: classifier-vs-oracle sweeps and the structural scan.

run_sweep walks a canonical grid of specs, classifies each one structurally,
reclassifies it with the LP oracle on the realized game, verifies any
certificate arithmetically, and reports every disagreement. The classifier
and the oracle share no decision logic, so agreement across a grid is real
evidence, not an echo.

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
(core._strict_games), checks each once, and counts it once per partition
with those sizes. It never builds a game that is not complete.

The count of all games, nonempty antichains of nonempty coalitions, comes
from a walk that builds nothing per antichain (_count_antichains).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from typing import Iterator, Optional

from .classifier import WEIGHTED, Verdict, classify_rough
from .core import (
    EnumerationCapError,
    ExplicitGame,
    Multiset,
    _covers,
    _require_int,
    _strict_games,
    iter_coalitions,
)
from .hierarchy import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    HierSpec,
    _is_canonical,
    realize,
    recover_conjunctive,
    recover_disjunctive,
    shift_extremal,
)
from .oracle import oracle_classify, verify_representation

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
    skipped: Optional[str] = None

    @property
    def agree(self) -> bool:
        # a skipped spec has no oracle class and no check, so it agrees
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
    if verdict.certificate is None:
        return None
    mode = "weighted" if verdict.game_class == WEIGHTED else "rough"
    return verify_representation(game, verdict.certificate, mode)


def cross_check(spec: HierSpec, verdict: Verdict) -> tuple[str, Optional[bool]]:
    """The oracle's class of the realized spec, and whether the verdict's
    certificate holds on that game (None when the verdict has none).

    Raises EnumerationCapError when the spec's lattice exceeds the cap.
    """
    game = realize(spec)
    return oracle_classify(game), certificate_holds(game, verdict)


def run_sweep(
    kind: str,
    levels: int,
    nmax: int,
    kmax: Optional[int] = None,
    oracle: bool = True,
) -> SweepReport:
    """Classify a whole grid, cross-validating against the oracle.

    Specs whose realization overflows the enumeration cap are recorded as
    skipped (with the structural verdict kept, certificate unverified).
    """
    records = []
    for spec in sweep_specs(kind, levels, nmax, kmax):
        verdict = classify_rough(spec)
        oracle_class: Optional[str] = None
        cert_verified: Optional[bool] = None
        skipped: Optional[str] = None
        if oracle:
            try:
                oracle_class, cert_verified = cross_check(spec, verdict)
            except EnumerationCapError as exc:
                skipped = str(exc)
        records.append(SweepRecord(spec, verdict, oracle_class, cert_verified, skipped))
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
    to replay it.

    shift_extremal and both recoveries run once per generated game, which
    is all they read. Each ordered partition of the levels whose class
    sizes are that game's levels adds the outcome once, as one complete
    game (core._strict_games, fact (c)). Only a mismatch rebuilds that
    complete game: its minimal winning coalitions are the points whose
    class sums are minimal winning in the generated game. The lines come
    in the order of the walk that once built every game: by the tuple of
    -rank(w) over the game's minimal winning coalitions w in lexicographic
    order, rank(w) being w's position in that order among all points.
    """
    points = [c.counts for c in iter_coalitions(universe)][1:]
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
            extremal = shift_extremal(game)
            unique_max = len(extremal.shift_max_losing) == 1
            unique_min = len(extremal.shift_min_winning) == 1
            d = recover_disjunctive(game)
            c = recover_conjunctive(game)
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
        total_games=_count_antichains(points),
        complete_games=complete,
        unique_shift_max_losing=usml,
        disjunctive_hierarchical=disj,
        unique_shift_min_winning=usmw,
        conjunctive_hierarchical=conj,
        mismatches=tuple(line for _, line in failed),
    )


def _count_antichains(points: list[tuple[int, ...]]) -> int:
    """The number of nonempty antichains of the points under containment.

    Each point has an int bitmask of the points comparable to it. An
    antichain is counted from its last point: the walk takes each free
    point in turn, from the last one back, and counts the antichains that
    extend it by the free points before it, those whose bit is clear in
    the OR of the taken points' masks. The recursion is as deep as the
    antichain it counts.
    """
    comparable = [
        sum(1 << k for k, y in enumerate(points) if _covers(x, y) or _covers(y, x))
        for x in points
    ]

    def count(free: int) -> int:
        total = 0
        while free:
            j = free.bit_length() - 1
            free ^= 1 << j
            total += 1 + count(free & ~comparable[j])
        return total

    return count((1 << len(points)) - 1)
