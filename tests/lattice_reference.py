"""Coalition-by-coalition lattice scans: the reference the lean lattice layer
is checked against.

These are the definition-level scans the library used before it moved to
plain count tuples and flat winning tables: every lattice point is a
validated Coalition, and winning is decided on it by hier_is_winning or by
Coalition.contains against each minimal winning coalition. Slow, but each
step reads straight off a definition. level_relation is the sub-lattice
walk the library used before it read desirability off the minimal winning
coalitions. shift_extremal is the shift test the library used before it
tested shifted count tuples against the minimal winning counts. antichains
is the enumeration structural_scan used before it carried a bitmask of the
points comparable to those taken, and _antichains the bitmask walk it used
before it generated the complete games directly; count_antichains is the
walk that counted every game, building none, before structural_scan counted
the down-sets of the lattice instead. merge_levels is the merge
the library used before it read the classes off the game itself: it takes
them from the caller and rebuilds the merged game through the validating
constructors. recover is
the threshold recovery the library used before it checked a candidate on the
game's two antichains: it realizes the candidate and compares whole games
(here with the scans above). canonicalize is the canonical form the library
computed before it read it off (n, k): it realizes the spec, merges the
level classes of the game and recovers the thresholds of the merged game.
structural_report is the structural scan as it ran before it checked each
distinct merged game once: every complete game is merged, searched for
shift-extremal coalitions and recovered on its own, with the scans above.
"""

from __future__ import annotations

from itertools import accumulate, product
from typing import Iterable, Iterator, Optional

from hiergames.core import (
    Coalition,
    ExplicitGame,
    LevelRelation,
    Multiset,
    _covers,
    is_winning,
    level_classes,
)
import hiergames.hierarchy as hierarchy
from hiergames.harness import StructuralReport
from hiergames.hierarchy import (
    DISJUNCTIVE,
    HierSpec,
    ShiftExtremal,
    canon_check,
    hier_is_winning,
)


def lattice(universe: Multiset) -> list[Coalition]:
    """Every submultiset of the universe, each built through the validating
    Coalition constructor."""
    out = [()]
    for n in universe.counts:
        out = [x + (c,) for x in out for c in range(n + 1)]
    return [Coalition(x) for x in out]


def realize(spec: HierSpec) -> ExplicitGame:
    """Minimal winning coalitions: winning, and removing any one unit loses."""
    universe = spec.universe()
    minimal = []
    for x in lattice(universe):
        if not hier_is_winning(spec, x):
            continue
        if all(
            x.counts[i] == 0 or not hier_is_winning(spec, x.with_unit(i, -1))
            for i in range(spec.m)
        ):
            minimal.append(x)
    return ExplicitGame(universe, frozenset(minimal))


def minimal_antichain(members: Iterable[Coalition]) -> frozenset[Coalition]:
    """The members that contain no other member."""
    pool = set(members)
    return frozenset(x for x in pool if not any(x != y and x.contains(y) for y in pool))


def maximal_losing(game: ExplicitGame) -> frozenset[Coalition]:
    """Losing coalitions whose every single-unit extension wins."""
    n = game.universe.counts
    losing = {
        x
        for x in lattice(game.universe)
        if not any(x.contains(w) for w in game.min_winning)
    }
    return frozenset(
        x
        for x in losing
        if all(x.counts[i] == n[i] or x.with_unit(i) not in losing for i in range(len(n)))
    )


def winning(game: ExplicitGame) -> frozenset[tuple[int, ...]]:
    """Count vectors of the coalitions that contain a minimal winning one."""
    return frozenset(
        x.counts for x in lattice(game.universe) if any(x.contains(w) for w in game.min_winning)
    )


def level_relation(
    game: ExplicitGame, i: int, j: int, wins: frozenset[tuple[int, ...]] | None = None
) -> LevelRelation:
    """Desirability of level i against level j, by definition: for every X
    with x_i < n_i and x_j < n_j, X + {j} winning implies X + {i} winning
    (and the other way round for j against i). `wins` is winning(game),
    passed in to share it between pairs."""
    wins = winning(game) if wins is None else wins
    caps = list(game.universe.counts)
    caps[i] -= 1
    caps[j] -= 1
    i_ge_j = j_ge_i = True
    for x in product(*(range(c + 1) for c in caps)):
        wi = x[:i] + (x[i] + 1,) + x[i + 1 :] in wins
        wj = x[:j] + (x[j] + 1,) + x[j + 1 :] in wins
        i_ge_j = i_ge_j and (wi or not wj)
        j_ge_i = j_ge_i and (wj or not wi)
    if i_ge_j and j_ge_i:
        return LevelRelation.EQUIVALENT
    if i_ge_j:
        return LevelRelation.STRICTLY_ABOVE
    return LevelRelation.STRICTLY_BELOW if j_ge_i else LevelRelation.INCOMPARABLE


def shift_extremal(game: ExplicitGame) -> ShiftExtremal:
    """Shift-extremal antichains of a game with strictly ordered levels, each
    shift built by two validating Coalition.with_unit calls and tested with
    the validating is_winning."""
    m = game.universe.m
    n = game.universe.counts
    if level_classes(game) != [[i] for i in range(m)]:
        raise ValueError(f"levels 0..{m - 1} are not strictly ordered by desirability")

    def shifts(x: Coalition, weakening: bool):
        for i in range(m):
            for j in range(i + 1, m):
                src, dst = (i, j) if weakening else (j, i)
                if x.counts[src] >= 1 and x.counts[dst] < n[dst]:
                    yield x.with_unit(src, -1).with_unit(dst, 1)

    smw = frozenset(
        w
        for w in game.min_winning
        if not any(is_winning(game, y) for y in shifts(w, weakening=True))
    )
    sml = frozenset(
        x
        for x in maximal_losing(game)
        if all(is_winning(game, y) for y in shifts(x, weakening=False))
    )
    return ShiftExtremal(shift_min_winning=smw, shift_max_losing=sml)


def antichains(coalitions: list[Coalition]) -> Iterator[frozenset[Coalition]]:
    """Every nonempty antichain of the coalitions: skip or take each one in
    count order, taking it only when Coalition.contains relates it to none
    of those already taken."""
    items = sorted(coalitions, key=lambda c: c.counts)

    def rec(idx: int, chosen: list[Coalition]) -> Iterator[frozenset[Coalition]]:
        if idx == len(items):
            if chosen:
                yield frozenset(chosen)
            return
        yield from rec(idx + 1, chosen)
        cand = items[idx]
        if all(
            not cand.contains(other) and not other.contains(cand) for other in chosen
        ):
            chosen.append(cand)
            yield from rec(idx + 1, chosen)
            chosen.pop()

    yield from rec(0, [])


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


def count_antichains(points: list[tuple[int, ...]]) -> int:
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


def merge_levels(game: ExplicitGame, classes: list[list[int]]) -> ExplicitGame:
    """Collapse each listed class of levels into one level by summing the
    minimal winning coalitions classwise. Sound only when the levels inside
    each class really are interchangeable."""

    def squash(counts: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(counts[i] for i in cls) for cls in classes)

    merged_universe = Multiset(squash(game.universe.counts))
    merged_wmin = frozenset(Coalition(squash(w.counts)) for w in game.min_winning)
    return ExplicitGame(merged_universe, merged_wmin)


def recover(game: ExplicitGame, kind: str) -> Optional[HierSpec]:
    """Canonical spec of the kind describing `game`, or None: thresholds read
    off the maximal losing (disjunctive) or minimal winning (conjunctive)
    prefixes, then the candidate realized and compared with the game."""
    if not game.min_winning or any(w.size == 0 for w in game.min_winning):
        return None
    if kind == DISJUNCTIVE:
        prefixes = zip(*(accumulate(x.counts) for x in maximal_losing(game)))
        k = tuple(1 + max(p) for p in prefixes)
    else:
        prefixes = zip(*(accumulate(w.counts) for w in game.min_winning))
        k = tuple(min(p) for p in prefixes)
    try:
        spec = HierSpec(kind, game.universe.counts, k)
    except ValueError:
        return None
    if not canon_check(spec).canonical or realize(spec) != game:
        return None
    return spec


def canonicalize(spec: HierSpec) -> tuple[HierSpec, tuple[int, ...]]:
    """Canonical spec of the spec's game and the class index of each level:
    the library's realize, level_classes, merge_levels and threshold recovery."""
    game = hierarchy.realize(spec)
    classes = level_classes(game)
    if classes is None:
        raise RuntimeError(f"realized game of {spec} has incomparable levels")
    if spec.kind == DISJUNCTIVE:
        canonical = hierarchy.recover_disjunctive(hierarchy.merge_levels(game))
    else:
        canonical = hierarchy.recover_conjunctive(hierarchy.merge_levels(game))
    if canonical is None:
        raise RuntimeError(f"merged game of {spec} failed threshold recovery")
    mapping = [0] * spec.m
    for cls_index, cls in enumerate(classes):
        for lvl in cls:
            mapping[lvl] = cls_index
    return canonical, tuple(mapping)


def complete_games(universe: Multiset) -> Iterator[tuple[ExplicitGame, list[list[int]]]]:
    """Every complete game on the universe, in the scan's order, with its
    level classes: the antichains of nonempty coalitions whose levels are
    totally ordered by desirability."""
    for members in antichains([c for c in lattice(universe) if c.size > 0]):
        game = ExplicitGame(universe, members)
        classes = level_classes(game)
        if classes is not None:
            yield game, classes


def structural_report(universe: Multiset) -> StructuralReport:
    """The structural scan, every complete game checked on its own merged
    game, with no memo."""
    total = sum(1 for _ in antichains([c for c in lattice(universe) if c.size > 0]))
    complete = usml = disj = usmw = conj = 0
    mismatches = []
    for game, classes in complete_games(universe):
        complete += 1
        merged = merge_levels(game, classes)
        extremal = shift_extremal(merged)
        unique_max = len(extremal.shift_max_losing) == 1
        unique_min = len(extremal.shift_min_winning) == 1
        d = recover(merged, DISJUNCTIVE)
        c = recover(merged, hierarchy.CONJUNCTIVE)
        usml += unique_max
        usmw += unique_min
        disj += d is not None
        conj += c is not None
        detail = f"universe={universe} min_winning={sorted(w.counts for w in game.min_winning)}"
        if unique_max != (d is not None):
            mismatches.append(
                f"{detail}: unique shift-max losing={unique_max} but disjunctive recovery={d}"
            )
        if unique_min != (c is not None):
            mismatches.append(
                f"{detail}: unique shift-min winning={unique_min} but conjunctive recovery={c}"
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
