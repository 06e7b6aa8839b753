"""Duality and minors (subgames and reduced games).

The dual of a game has the same universe; a coalition wins in the dual iff
its complement loses in the original. On minimal winning antichains this
reads: min_winning(dual) = complements of the maximal losing coalitions.

On hierarchical specs duality is the threshold conjugation
k*_i = N_i - k_i + 1 (N_i the i-th prefix of n), which also swaps the kinds:
the dual of a disjunctive spec's game is the conjunctive spec's game with
conjugated thresholds, and vice versa.

Minors remove a fixed multiset A of players. A subgame deletes A from the
table entirely (winning coalitions must avoid A); a reduced game hands A's
seats to every coalition for free. Levels whose player count drops to zero
disappear from the minor's universe.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Coalition, ExplicitGame, Multiset, _int_tuple, maximal_losing
from .hierarchy import DISJUNCTIVE, HierSpec, _is_canonical, _k_star, truncate

__all__ = [
    "MinorStep",
    "NamedMinor",
    "dual_explicit",
    "k_star",
    "dual_spec",
    "minor",
    "named_minors",
]

SUBGAME = "subgame"
REDUCED = "reduced"


@dataclass(frozen=True)
class MinorStep:
    """One minor operation: remove the multiset `removed` via `op`."""

    op: str
    removed: Coalition

    def __post_init__(self) -> None:
        if self.op not in (SUBGAME, REDUCED):
            raise ValueError(f"op must be {SUBGAME!r} or {REDUCED!r}, got {self.op!r}")
        if not isinstance(self.removed, Coalition):
            raise TypeError(f"removed must be Coalition, got {self.removed!r}")


@dataclass(frozen=True)
class NamedMinor:
    """A named minor of a hierarchical spec: the step plus its closed form."""

    name: str
    step: MinorStep
    spec: HierSpec


def dual_explicit(game: ExplicitGame) -> ExplicitGame:
    """Dual game on the same universe. Involution: dual(dual(G)) = G."""
    u = game.universe
    return ExplicitGame(u, frozenset(u.complement(x) for x in maximal_losing(game)))


def k_star(n: tuple[int, ...], k: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugated thresholds k*_i = N_i - k_i + 1. Involution for fixed n.
    n and k are checked as HierSpec checks them: positive int entries."""
    if len(n) != len(k):
        raise ValueError(f"n and k must be equal length, got {n} / {k}")
    prefixes = Multiset(n).prefix_totals()
    out = _k_star(n, _int_tuple(k, "threshold", 1))
    if any(v < 1 for v in out):
        raise ValueError(f"thresholds {k} exceed prefixes {prefixes}, no conjugate")
    return out


def dual_spec(spec: HierSpec) -> HierSpec:
    """Spec of the dual game: conjugated thresholds, opposite kind.

    Defined exactly on canonical specs: any other spec's conjugate is no
    valid spec on its levels, so it raises ValueError. Normalizing only
    clamps a disjunctive k_m; canonicalize_semantic gives the canonical form.
    """
    if not _is_canonical(spec):
        raise ValueError(
            f"{spec} is not canonical, so it has no dual spec on its levels; "
            "canon gives its canonical form"
        )
    other = "conjunctive" if spec.kind == DISJUNCTIVE else "disjunctive"
    return HierSpec(other, spec.n, k_star(spec.n, spec.k))


def minor(game: ExplicitGame, step: MinorStep) -> ExplicitGame:
    """Apply one minor step to an explicit game.

    Raises ValueError if the removal does not fit the universe or removes
    every player. Levels emptied by the removal are dropped, so the result
    may live on a universe with fewer levels.
    """
    remaining = game.universe.complement(step.removed).counts
    keep = [i for i, c in enumerate(remaining) if c > 0]
    if not keep:
        raise ValueError("minor removes every player")

    def project(counts: tuple[int, ...]) -> Coalition:
        return Coalition(tuple(counts[i] for i in keep))

    if step.op == SUBGAME:
        members = [
            project(w.counts)
            for w in game.min_winning
            if all(a <= b for a, b in zip(w.counts, remaining))
        ]
    else:
        members = [
            project(tuple(max(0, a - b) for a, b in zip(w.counts, step.removed.counts)))
            for w in game.min_winning
        ]
    return ExplicitGame(Multiset(project(remaining).counts), frozenset(members))


def named_minors(spec: HierSpec) -> tuple[NamedMinor, ...]:
    """Closed-form minors of a canonical disjunctive spec.

    cut_tail: subgame removing all of the last level; thresholds truncate.
    cut_head: subgame removing n_1 - k_1 + 1 first-level players; the k_1 - 1
        survivors become equivalent to level 2, so the closed form lives on
        the universe (n_2 + k_1 - 1, n_3, ..., n_m) with thresholds
        (k_2, ..., k_m). Omitted for m = 2 with k_2 = k_1 + n_2, where nothing
        can win after the removal.
    remove_one(i): reduced game removing one level-i player; applicable when
        k_i >= k_{i-1} + 2 (k_0 = 0) and n_i >= 2, giving thresholds
        (k_1, ..., k_{i-1}, k_i - 1, k_{i+1} - 1, ..., k_m - 1).

    Only applicable minors are returned. Requires a canonical disjunctive
    spec; the closed forms are not stated for anything else.
    """
    if spec.kind != DISJUNCTIVE:
        raise ValueError("named minors are defined for disjunctive specs")
    if not _is_canonical(spec):
        raise ValueError(f"{spec} is not canonical")
    n, k, m = spec.n, spec.k, spec.m
    out: list[NamedMinor] = []
    if m >= 2:
        removed = Coalition((0,) * (m - 1) + (n[-1],))
        out.append(NamedMinor("cut_tail", MinorStep(SUBGAME, removed), truncate(spec)))
        if not (m == 2 and k[1] == k[0] + n[1]):
            removed = Coalition((n[0] - k[0] + 1,) + (0,) * (m - 1))
            head_spec = HierSpec(DISJUNCTIVE, (n[1] + k[0] - 1,) + n[2:], k[1:])
            out.append(NamedMinor("cut_head", MinorStep(SUBGAME, removed), head_spec))
    prev = 0
    for i in range(m):
        if k[i] >= prev + 2 and n[i] >= 2:
            removed = Coalition(tuple(1 if j == i else 0 for j in range(m)))
            new_n = n[:i] + (n[i] - 1,) + n[i + 1 :]
            new_k = k[:i] + tuple(v - 1 for v in k[i:])
            out.append(
                NamedMinor(
                    f"remove_one({i + 1})",
                    MinorStep(REDUCED, removed),
                    HierSpec(DISJUNCTIVE, new_n, new_k),
                )
            )
        prev = k[i]
    return tuple(out)
