"""Coalition-by-coalition lattice scans: the reference the lean lattice layer
is checked against.

These are the definition-level scans the library used before it moved to
plain count tuples and flat winning tables: every lattice point is a
validated Coalition, and winning is decided on it by hier_is_winning or by
Coalition.contains against each minimal winning coalition. Slow, but each
step reads straight off a definition.
"""

from __future__ import annotations

from typing import Iterable

from hiergames.core import Coalition, ExplicitGame, Multiset
from hiergames.hierarchy import HierSpec, hier_is_winning


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
