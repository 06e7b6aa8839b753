"""Verification harness: classifier-vs-oracle sweeps and the structural scan.

run_sweep walks a canonical grid of specs, classifies each one structurally,
reclassifies it with the LP oracle on the realized game, verifies any
certificate arithmetically, and reports every disagreement. The classifier
and the oracle share no decision logic, so agreement across a grid is real
evidence, not an echo.

structural_scan enumerates every monotone game on a small universe (as
nonempty antichains of nonempty coalitions) and tests the structural
equivalences on the complete ones:

  unique shift-maximal losing coalition  <=>  disjunctive hierarchical,
  unique shift-minimal winning coalition <=>  conjunctive hierarchical,

after reordering levels by desirability and merging equivalent levels, which
is what "hierarchical" means for a game rather than a spec. Every check reads
only that merged game, and games that differ by a relabelling of equal-size
levels merge to the same one, so the scan checks each distinct merged game
once per call and hands the outcome to every complete game that merges to it.

The antichains come from a walk over the lattice points sorted in
lexicographic order. Each point has an int bitmask of the points comparable
to it. The walk branches only on the free points after the last point
taken: those whose bit is clear in the OR of the taken points' masks. It
takes each free point in turn, from the last one back, yields the antichain
with it, and recurses on the points after it. The order is that of a walk
that skips or takes every point in turn, skip before take: read as
indicator strings over the sorted points, an antichain comes before every
antichain that extends it, and of two extensions the one whose next point
comes later has a 0 where the other has a 1, so it comes first. Each call
yields one antichain, so the recursion is as deep as the antichain it
builds, not one level per lattice point. Every yielded set is an antichain
of lattice members, already the minimal winning coalitions of its game, so
the scan builds each game without validating or minimizing it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from typing import Iterator, Optional

from .classifier import WEIGHTED, Verdict, classify_rough
from .core import (
    Coalition,
    EnumerationCapError,
    ExplicitGame,
    Multiset,
    _covers,
    _explicit_game,
    _require_int,
    is_complete,
    iter_coalitions,
)
from .hierarchy import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    HierSpec,
    _is_canonical,
    merge_levels,
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


def _antichains(coalitions: list[Coalition]) -> Iterator[frozenset[Coalition]]:
    items = sorted(coalitions, key=lambda c: c.counts)
    points = [c.counts for c in items]
    comparable = [
        sum(1 << k for k, y in enumerate(points) if _covers(x, y) or _covers(y, x))
        for x in points
    ]
    last = len(items) - 1

    def rec(idx: int, chosen: list[Coalition], blocked: int) -> Iterator[frozenset[Coalition]]:
        for j in range(last, idx - 1, -1):
            if not blocked >> j & 1:
                chosen.append(items[j])
                yield frozenset(chosen)
                yield from rec(j + 1, chosen, blocked | comparable[j])
                chosen.pop()

    return rec(0, [], 0)


def structural_scan(universe: Multiset) -> StructuralReport:
    """Test the shift-extremal uniqueness equivalences over one universe.

    Enumerates every game (nonempty antichain of nonempty coalitions), keeps
    the complete ones, and for each checks both directions of both
    equivalences. Any failure lands in mismatches with enough detail to
    replay it.

    shift_extremal and both recoveries run once per distinct merged game,
    kept in a dict local to the call. That is exact: they read the merged
    game alone, and ExplicitGame equality and hashing read only its universe
    and minimal winning antichain, so equal keys are the same game. Each
    complete game still adds its own counts and, on a mismatch, its own
    replay line with its own minimal winning coalitions.
    """
    coalitions = [c for c in iter_coalitions(universe) if c.size > 0]
    total = 0
    complete = 0
    usml = 0
    disj = 0
    usmw = 0
    conj = 0
    mismatches: list[str] = []
    # merged game -> (unique_max, unique_min, d, c)
    seen: dict[ExplicitGame, tuple[bool, bool, Optional[HierSpec], Optional[HierSpec]]] = {}

    def detail(members: frozenset[Coalition]) -> str:
        # the replay text, built only for a mismatch
        return f"universe={universe} min_winning={sorted(w.counts for w in members)}"

    for members in _antichains(coalitions):
        total += 1
        game = _explicit_game(universe, members)
        if not is_complete(game):
            continue
        complete += 1
        ordered = merge_levels(game)
        checked = seen.get(ordered)
        if checked is None:
            extremal = shift_extremal(ordered)
            checked = seen[ordered] = (
                len(extremal.shift_max_losing) == 1,
                len(extremal.shift_min_winning) == 1,
                recover_disjunctive(ordered),
                recover_conjunctive(ordered),
            )
        unique_max, unique_min, d, c = checked
        usml += unique_max
        usmw += unique_min
        disj += d is not None
        conj += c is not None
        if unique_max != (d is not None):
            mismatches.append(
                f"{detail(members)}: unique shift-max losing={unique_max} but disjunctive recovery={d}"
            )
        if unique_min != (c is not None):
            mismatches.append(
                f"{detail(members)}: unique shift-min winning={unique_min} but conjunctive recovery={c}"
            )
    return StructuralReport(
        universe=universe,
        total_games=total,
        complete_games=complete,
        unique_shift_max_losing=usml,
        disjunctive_hierarchical=disj,
        unique_shift_min_winning=usmw,
        conjunctive_hierarchical=conj,
        mismatches=tuple(mismatches),
    )
