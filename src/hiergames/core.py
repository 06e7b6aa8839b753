"""Multiset universes, coalitions, and explicit monotone simple games.

Players come in levels: the universe {1^n1, ..., m^nm} has n_i interchangeable
players at level i. A coalition is a submultiset, stored as a vector of
per-level counts. A game is given by the antichain of its minimal winning
coalitions; losing maxima, the desirability preorder on levels, completeness,
and special players (dummies, passers, blockers) are all derived from it.
The desirability order (level_relation, level_classes, is_complete) never
walks the coalition lattice.

Inputs are validated at the public boundary (Multiset, Coalition,
ExplicitGame, is_winning). Inside, a set of lattice points is one Python
int, bit j standing for the point of index j in mixed-radix order (see
_strides). Core alone writes and reads these bits: _prefix_game writes a
game's win mask from the prefix rule that hierarchy.realize supplies,
_strict_games the masks of the complete games with strictly ordered levels
of given sizes, and each game holds its mask alone. One whole-lattice pass
per game, _read_lattice, reads that mask (or scans an explicit game's once) and
keeps its minimal winning, maximal losing and shift-extremal points;
min_winning, maximal_losing and _shift_extremal_points are read off that
record. The level masks the pass reads (_bit_levels) are built on the first
pass over any game on a universe object and live as long as it does, so the
games of one universe share them. Nothing builds a tuple per point, and
only the coalitions returned are decoded and wrapped, unvalidated, by
_coalition.

Everything here is exact and deterministic. _check_cap reads the
enumeration cap (HIERGAME_ENUM_CAP) and checks it before anything is
allocated, so that a typo in a universe cannot silently turn into a
billion-element loop or a billion-bit int; iter_coalitions, _prefix_game,
_strict_games and _lattice, the one gate to the pass, call it every time.
A game's lattice pass (and a mask-held game's decoded min_winning) and a
universe's level masks are memoized on the object by one rule, _memo.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import accumulate, combinations, product
from operator import ge, mul
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

__all__ = [
    "DEFAULT_ENUM_CAP",
    "ENUM_CAP_ENV",
    "EnumerationCapError",
    "Multiset",
    "Coalition",
    "ExplicitGame",
    "LevelRelation",
    "SpecialPlayers",
    "enumeration_cap",
    "iter_coalitions",
    "is_winning",
    "maximal_losing",
    "level_relation",
    "level_classes",
    "is_complete",
    "special_players",
]

DEFAULT_ENUM_CAP = 10**7
ENUM_CAP_ENV = "HIERGAME_ENUM_CAP"


class EnumerationCapError(RuntimeError):
    """Raised when a requested enumeration would exceed the coalition cap."""


def enumeration_cap() -> int:
    """The enumeration cap, HIERGAME_ENUM_CAP if set, else the default.
    The environment is read and parsed on every call."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    cap = _int_text(raw.strip())
    if cap is None:
        raise ValueError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}")
    if cap <= 0:
        raise ValueError(f"{ENUM_CAP_ENV} must be positive, got {cap}")
    return cap


def _int_text(text: str, signed: bool = True) -> Optional[int]:
    """The one integer-text rule: an optional '-' (if signed), then ASCII
    digits only; else None. Callers strip outer spaces and check the range."""
    digits = text.removeprefix("-") if signed else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def _int_tuple(values: Iterable[int], what: str, minimum: int) -> tuple[int, ...]:
    out = []
    for v in values:
        if type(v) is not int:  # no bool, IntEnum or other int subclass
            raise TypeError(f"{what} entries must be ints, got {v!r} of type {type(v).__name__}")
        if v < minimum:
            raise ValueError(f"{what} entries must be >= {minimum}, got {v}")
        out.append(v)
    return tuple(out)


def _require_int(**values: Any) -> None:
    """TypeError naming the argument unless each value is an int; a bool is refused."""
    for what, value in values.items():
        if type(value) is not int:
            raise TypeError(f"{what} must be an int, got {type(value).__name__}")


@dataclass(frozen=True)
class Multiset:
    """Universe of players: counts[i] players at level i (0-indexed internally)."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = _int_tuple(self.counts, "universe count", 1)
        if not counts:
            raise ValueError("universe needs at least one level")
        object.__setattr__(self, "counts", counts)

    @property
    def m(self) -> int:
        return len(self.counts)

    def prefix_totals(self) -> tuple[int, ...]:
        """(N_1, ..., N_m) where N_i = n_1 + ... + n_i."""
        out, acc = [], 0
        for c in self.counts:
            acc += c
            out.append(acc)
        return tuple(out)

    def coalition_count(self) -> int:
        return math.prod(c + 1 for c in self.counts)

    def full(self) -> Coalition:
        return Coalition(self.counts)

    def fits(self, coalition: Coalition) -> bool:
        return len(coalition.counts) == self.m and all(
            x <= n for x, n in zip(coalition.counts, self.counts)
        )

    def complement(self, coalition: Coalition) -> Coalition:
        if not self.fits(coalition):
            raise ValueError(f"{coalition} is not a submultiset of {self}")
        return Coalition(tuple(n - x for x, n in zip(coalition.counts, self.counts)))

    def __str__(self) -> str:
        return _levels_str(self.counts)


@dataclass(frozen=True)
class Coalition:
    """Submultiset of some universe, as a vector of per-level counts."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _int_tuple(self.counts, "coalition count", 0))

    @property
    def size(self) -> int:
        return sum(self.counts)

    def contains(self, other: Coalition) -> bool:
        """Pointwise >=; both coalitions must live in the same universe."""
        if len(self.counts) != len(other.counts):
            raise ValueError("coalitions from different universes")
        return all(a >= b for a, b in zip(self.counts, other.counts))

    def with_unit(self, level: int, delta: int = 1) -> Coalition:
        _require_int(level=level, delta=delta)
        m = len(self.counts)
        if not 0 <= level < m:
            raise ValueError(f"need a level in 0..{m - 1}, got {level}")
        new = list(self.counts)
        new[level] += delta
        return Coalition(tuple(new))

    def __str__(self) -> str:
        parts = [f"{i + 1}^{c}" for i, c in enumerate(self.counts) if c > 0]
        return "{" + ",".join(parts) + "}" if parts else "{}"


def _levels_str(counts: Sequence[int]) -> str:
    return "{" + ",".join(f"{i + 1}^{c}" for i, c in enumerate(counts)) + "}"


def _coalition(counts: tuple[int, ...]) -> Coalition:
    """Coalition from a count tuple the library built itself: no validation."""
    out = object.__new__(Coalition)
    object.__setattr__(out, "counts", counts)
    return out


def _strides(counts: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix place values: stride_i is the product of (n_j + 1), j > i."""
    out = [1] * len(counts)
    for i in range(len(counts) - 1, 0, -1):
        out[i - 1] = out[i] * (counts[i] + 1)
    return tuple(out)


def _check_cap(counts: Sequence[int]) -> None:
    """EnumerationCapError when the lattice of count vectors x <= counts has
    more points than the enumeration cap, raised before anything is built.
    The one reader of enumeration_cap() inside the library."""
    limit = enumeration_cap()
    total = math.prod(c + 1 for c in counts)
    if total > limit:
        raise EnumerationCapError(
            f"universe {_levels_str(counts)} has {total} coalitions, cap is {limit}"
        )


def iter_coalitions(universe: Multiset) -> Iterator[Coalition]:
    """All submultisets of the universe, in lexicographic count order.

    Raises TypeError for a universe that is not a Multiset, and
    EnumerationCapError at the call when the lattice has more members than
    the enumeration cap.
    """
    if not isinstance(universe, Multiset):
        raise TypeError(f"universe must be Multiset, got {universe!r}")
    _check_cap(universe.counts)
    return map(_coalition, product(*(range(c + 1) for c in universe.counts)))


def _covers(x: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """Pointwise x >= w."""
    return all(map(ge, x, w))


def _minimal_antichain(members: Iterable[Coalition]) -> frozenset[Coalition]:
    # equal coalitions collapse in the dict; strict supersets are dropped
    pool = {w.counts: w for w in members}
    return frozenset(
        w
        for x, w in pool.items()
        if not any(y != x and _covers(x, y) for y in pool)
    )


@dataclass(frozen=True)
class ExplicitGame:
    """Monotone simple game given by its minimal winning coalitions.

    The constructor accepts any generating set of winning coalitions and
    normalizes it to the minimal antichain, so equality of ExplicitGame values
    is equality of games. The empty antichain (nothing wins) and the antichain
    {empty coalition} (everything wins) are representable; most derived
    operations treat them as edge cases rather than rejecting them.

    One derived value is memoized on the instance by _memo, outside the
    dataclass fields, so equality and hashing do not see it: the record of
    the lattice pass (_lattice). A game from _mask_game holds only its
    universe and win mask; its min_winning is decoded off the pass on
    first read and memoized the same way (__getattr__).
    """

    universe: Multiset
    min_winning: frozenset[Coalition]

    def __post_init__(self) -> None:
        if not isinstance(self.universe, Multiset):
            raise TypeError(f"universe must be Multiset, got {self.universe!r}")
        members = []
        for w in self.min_winning:
            if not isinstance(w, Coalition):
                raise TypeError(f"min_winning entries must be Coalition, got {w!r}")
            if not self.universe.fits(w):
                raise ValueError(f"{w} does not fit in universe {self.universe}")
            members.append(w)
        object.__setattr__(self, "min_winning", _minimal_antichain(members))

    @property
    def m(self) -> int:
        return self.universe.m

    def _ends_win(self) -> tuple[bool, bool]:
        """Whether the empty and the full coalition win: read off the win
        mask when the game carries one (bit 0, and any bit at all for an
        up-set), else off min_winning. Never decodes, never checks the cap."""
        win = self.__dict__.get("_win")
        if win is None:
            return any(w.size == 0 for w in self.min_winning), bool(self.min_winning)
        return bool(win & 1), win != 0

    def __getattr__(self, name: str) -> Any:
        """The fallback for min_winning: an antichain kept in the game's own
        __dict__ shadows it, so only a game holding its win mask alone
        (_mask_game) gets here. Like a stored field, no cap is checked."""
        if name != "min_winning" or "_win" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        strides, minimal, _, _ = _memo(self, "_lattice", _read_lattice)
        return _memo(self, name, lambda g: frozenset(map(_coalition, _points(minimal, strides))))


def _memo(obj: Any, name: str, compute: Callable[[Any], Any]) -> Any:
    """compute(obj), run on the first read only and kept in the object's
    __dict__ under `name` (None included), outside its dataclass fields, so
    equality, hashing and repr do not see it."""
    memo = obj.__dict__
    if name not in memo:
        memo[name] = compute(obj)
    return memo[name]


def is_winning(game: ExplicitGame, coalition: Coalition) -> bool:
    """True iff the coalition contains some minimal winning coalition."""
    if not game.universe.fits(coalition):
        raise ValueError(f"{coalition} does not fit in universe {game.universe}")
    x = coalition.counts
    return any(_covers(x, w.counts) for w in game.min_winning)


def maximal_losing(game: ExplicitGame) -> frozenset[Coalition]:
    """Antichain of losing coalitions all of whose strict supersets win.

    The cap is checked on every call (_lattice). The bits come from the
    lattice pass, O(m) whole-lattice shift/AND operations on
    product(n_i + 1) bits, memoized on the game; each call decodes them,
    O(m) per member, and the antichain is not kept. No tuple lattice is
    built.
    """
    strides, _, losing, _ = _lattice(game)
    return frozenset(map(_coalition, _points(losing, strides)))


# ===== the lattice as a bitset =====
#
# A set of lattice points is one int whose bit j is the point of index j
# (see _strides). The points with x_i = a form a periodic mask: a run of s_i
# ones at offset a * s_i in every block of s_i * (n_i + 1) bits. Shifting a
# bitset left by s_i moves every point x to x + e_i, so whole-lattice
# questions about neighbours become a few big-int shifts and ANDs.

_Levels = tuple[tuple[int, ...], ...]
_Points = list[tuple[int, ...]]
_Extremal = Optional[tuple[_Points, _Points]]
_Pass = tuple[tuple[int, ...], int, int, _Extremal]


def _bit_levels(counts: Sequence[int]) -> tuple[tuple[int, ...], _Levels]:
    """The strides, and (n_i, s_i, rep_i, [x_i = 0], [x_i = n_i]) per level.
    rep_i has bit 0 of every s_i * (n_i + 1)-bit block set, so it marks the
    points with x_i = 0 and every later level at 0, and (rep_i << c * s_i) -
    rep_i marks the points with x_i < c. It is built by doubling, O(size) word
    operations; the division (2^size - 1) // (2^(s_i * (n_i + 1)) - 1) is
    quadratic."""
    strides = _strides(counts)
    size = strides[0] * (counts[0] + 1)
    out = []
    for n, s in zip(counts, strides):
        rep, span = 1, s * (n + 1)
        while span < size:
            rep |= rep << span
            span *= 2
        rep &= (1 << size) - 1
        zero = (rep << s) - rep
        out.append((n, s, rep, zero, zero << n * s))
    return strides, tuple(out)


def _points(bits: int, strides: tuple[int, ...]) -> _Points:
    """The count vectors at the set bits of a lattice bitset, in index
    order, which is lexicographic order."""
    out = []
    digits = bin(bits)[:1:-1]  # least significant first: digits[j] is bit j
    j = digits.find("1")
    while j >= 0:
        x, rest = [], j
        for s in strides:
            a, rest = divmod(rest, s)
            x.append(a)
        out.append(tuple(x))
        j = digits.find("1", j + 1)
    return out


def _antichain_bits(levels: _Levels, win: int) -> tuple[int, int]:
    """Minimal winning and maximal losing bits of the up-set `win`.

    x is minimal winning iff it wins and x - e_i loses for every level with
    x_i > 0; x is maximal losing iff it loses and x + e_i wins for every
    level with x_i < n_i (by monotonicity every strict superset then wins).
    Both are m whole-lattice shifts of win.
    """
    n_0, s_0, *_ = levels[0]
    minimal, losing = win, ((1 << s_0 * (n_0 + 1)) - 1) ^ win
    for _, s, _, zero, full in levels:
        minimal &= ~(win << s) | zero
        losing &= (win >> s) | full
    return minimal, losing


def _prefix_game(universe: Multiset, bounds: Callable[[int, int], tuple[int, int]]) -> ExplicitGame:
    """The game of a level-by-level prefix rule, holding only its universe
    and its win mask, bit j set iff the point of index j wins; min_winning
    is decoded on first read (ExplicitGame.__getattr__). Guarded by the
    enumeration cap.

    bounds(i, p) -> (lo, hi) is the rule at level i once the levels before
    it leave prefix sum p: a count a < lo loses, a >= hi wins, and any
    other goes on to level i + 1 with prefix sum p + a; 0 <= lo <= hi <=
    n_i + 1, and lo == hi on the last level. The mask is a binary string,
    highest index first, of blocks memoized on (i, p), one bounds call
    each: s_i ones per winning count, block(i + 1, p + a) per count a that
    goes on, s_i zeros per losing count. The work is linear in the bits
    written, at most product(n_i + 1) per level. No tuple lattice is built.
    """
    counts = universe.counts
    _check_cap(counts)
    strides, last = _strides(counts), len(counts) - 1

    @cache
    def block(i: int, p: int) -> str:
        lo, hi = bounds(i, p)
        n, s = counts[i], strides[i]
        if i == last:  # s == 1 and lo == hi: no count goes on
            return "1" * (n + 1 - hi) + "0" * lo
        on = "".join([block(i + 1, p + a) for a in range(hi - 1, lo - 1, -1)])
        return "1" * ((n + 1 - hi) * s) + on + "0" * (lo * s)

    return _mask_game(universe, int(block(0, 0), 2))


def _mask_game(universe: Multiset, win: int) -> ExplicitGame:
    """A game holding only its universe and its win mask, as _prefix_game and
    _strict_games build them."""
    game = object.__new__(ExplicitGame)
    game.__dict__.update(universe=universe, _win=win)
    return game


def _strict_games(sizes: tuple[int, ...]) -> Iterator[ExplicitGame]:
    """Every complete game on levels of sizes c = sizes whose levels are
    strictly ordered 1 > 2 > ... > r, once each, holding only its universe
    and win mask as a game from _prefix_game does. Guarded by the
    enumeration cap, at the call.

    Write x <= y (prefix dominance) when P_s(x) <= P_s(y) for every prefix
    sum P_s, on the fitting count vectors (0 <= x_s <= c_s). One game is
    yielded per nonempty antichain A of nonzero vectors under <= whose
    members witness every adjacent pair t: some a in A has a_t > 0 and
    a_{t+1} < c_{t+1}. Its win mask is the union of the up-sets of A's
    members. Three facts make this exact.

    (a) <= is the order generated by adding a unit and by moving a unit up
    a level. Neither move lowers a prefix sum. Conversely let y <= x, y !=
    x, and t the first level where they differ, so y_t < x_t. If P_s(y) =
    P_s(x) for some s > t, then at the least such s y_s > x_s, so
    x - e_t + e_s fits and still lies above y; else x - e_t does. Each step
    lowers the sum of the prefix sums, so the steps reach y. So a monotone
    game whose levels are weakly ordered 1 >= ... >= r is an up-set of <=,
    and conversely. It is fixed by its minimal elements, which are its
    shift-minimal winning rows: each loses once a unit is removed or moved
    down. The zero vector is left out, and with it the game where
    everything wins.

    (b) On weakly ordered levels, t > t + 1 strictly iff some winner x with
    x_t > 0 and x_{t+1} < c_{t+1} loses after a unit moves from t to
    t + 1, and adjacent pairs suffice, as in _scan_shift_extremal. For
    a in A with a_t > 0 and a_{t+1} < c_{t+1}, a - e_t + e_{t+1} lies
    strictly below a, so it loses: A is an antichain. Conversely, suppose
    such an x loses after the move. The move lowers P_t alone, by one, so
    any a in A below x has P_t(a) = P_t(x): then a_t >= x_t > 0 and
    a_{t+1} <= x_{t+1} < c_{t+1}.

    (c) A complete game with level classes C_1, ..., C_r, most desirable
    first, is the expansion of its merged game G (hierarchy.merge_levels):
    x wins iff its class sums s(x) win in G. Conversely the expansion of a
    game G on the class sizes whose levels are strictly ordered has the
    classes C_1, ..., C_r in that order and merges back to G. So the
    complete games are the pairs of an ordered partition of the levels and
    a game yielded here on its class sizes. A point x is minimal winning in
    the expansion iff s(x) is minimal winning in G: x - e_i sums to
    s(x) - e_j for i in C_j, and every s(x) - e_j with s(x)_j > 0 is such
    a sum.

    The antichains come from a walk that takes each free point after the
    last one taken, as the scan's walk over the lattice does.
    """
    _check_cap(sizes)
    universe, last = Multiset(sizes), len(sizes) - 1
    points = list(product(*(range(c + 1) for c in sizes)))  # bit j is points[j]
    prefixes = [tuple(accumulate(x)) for x in points]
    up = [sum(1 << k for k, q in enumerate(prefixes) if _covers(q, p)) for p in prefixes]
    comparable = [u | sum(1 << k for k, v in enumerate(up) if v >> j & 1) for j, u in enumerate(up)]
    witness = [sum(1 << t for t in range(last) if x[t] and x[t + 1] < sizes[t + 1]) for x in points]
    every = (1 << last) - 1

    def walk(first: int, blocked: int, win: int, seen: int) -> Iterator[ExplicitGame]:
        for j in range(first, len(points)):
            if not blocked >> j & 1:
                taken, witnessed = win | up[j], seen | witness[j]
                if witnessed == every:
                    yield _mask_game(universe, taken)
                yield from walk(j + 1, blocked | comparable[j], taken, witnessed)

    return walk(1, 0, 0, 0)


def _lattice(game: ExplicitGame) -> _Pass:
    """The one gate to a game's lattice: the cap is checked on every call,
    then the one pass (_read_lattice) is memoized on the game."""
    _check_cap(game.universe.counts)
    return _memo(game, "_lattice", _read_lattice)


def _read_lattice(game: ExplicitGame) -> _Pass:
    """(strides, minimal winning bits, maximal losing bits, shift-extremal
    points or None) of the game. The strides and level masks are built once
    per universe object and live as long as it does, memoized on it, so
    the games _strict_games yields on one universe share them; a game from
    _mask_game comes with its win mask, any other is scanned once, and the
    mask is not kept."""
    strides, levels = _memo(game.universe, "_bit_levels", lambda u: _bit_levels(u.counts))
    win = game.__dict__.get("_win")
    if win is None:
        win = _scan_win(game, strides, levels)
    minimal, losing = _antichain_bits(levels, win)
    return strides, minimal, losing, _scan_shift_extremal(strides, levels, win, minimal, losing)


def _scan_win(game: ExplicitGame, strides: tuple[int, ...], levels: _Levels) -> int:
    """Win mask of any explicit game: set the minimal winning bits and
    close them upward level by level (shifts by 1, 2, 4, ... units of s_i,
    each restricted to the points that stay inside the lattice)."""
    table = bytearray(game.universe.coalition_count() // 8 + 1)
    for w in game.min_winning:
        j = sum(map(mul, w.counts, strides))
        table[j >> 3] |= 1 << (j & 7)
    win = int.from_bytes(table, "little")
    for n_i, s, rep, _, _ in levels:
        d = 1
        while d <= n_i:
            win |= (win & ((rep << (n_i - d + 1) * s) - rep)) << d * s
            d *= 2
    return win


def _shift_extremal_points(game: ExplicitGame) -> _Extremal:
    """Shift-minimal winning and shift-maximal losing count vectors of the
    game, each in index order, or None unless every level i is strictly
    more desirable than level i + 1, read off the lattice pass (_lattice,
    which checks the cap). Callers must not mutate the lists."""
    return _lattice(game)[3]


def _scan_shift_extremal(
    strides: tuple[int, ...], levels: _Levels, win: int, minimal: int, losing: int
) -> _Extremal:
    """The shift-extremal step of the lattice pass, on the win mask `win`
    and its minimal winning and maximal losing bits.

    Moving a unit from level i to level j > i moves a point d = s_i - s_j
    bits down, so each question below is one masked shift of the win mask,
    with the level masks [x_i = 0] and [x_i = n_i] of _bit_levels.

    Order: i >= i + 1 iff no winner with x_{i+1} > 0 and x_i < n_i loses
    after a unit moves up from i + 1 to i, and strictly iff some winner with
    x_i > 0 and x_{i+1} < n_{i+1} loses after a unit moves down. Two shifts
    per adjacent pair decide it all: desirability is transitive, and if
    some j > i + 1 had j >= i, then i + 1 >= ... >= j >= i, against
    i > i + 1.

    Antichains: the antichain bits ANDed with one shift per pair i < j. A
    minimal winning x is shift-minimal iff x - e_i + e_j loses wherever
    x_i > 0 and x_j < n_j; a maximal losing x is shift-maximal iff
    x + e_i - e_j wins wherever x_j > 0 and x_i < n_i. That is
    2(m - 1) + m(m - 1) shifts in all, then O(m) per member decoded.
    """
    *_, zero, full = zip(*levels)
    for i in range(len(levels) - 1):
        d = strides[i] - strides[i + 1]
        if (win & ~(zero[i + 1] | full[i])) << d & ~win:
            return None  # not i >= i + 1
        if not (win & ~(zero[i] | full[i + 1])) >> d & ~win:
            return None  # i + 1 >= i as well: not strict
    for i, j in combinations(range(len(levels)), 2):
        d = strides[i] - strides[j]
        minimal &= ~(win << d) | zero[i] | full[j]
        losing &= (win >> d) | zero[j] | full[i]
    return _points(minimal, strides), _points(losing, strides)


class LevelRelation(Enum):
    """Desirability comparison of two player levels."""

    EQUIVALENT = "equivalent"
    STRICTLY_ABOVE = "strictly_above"
    STRICTLY_BELOW = "strictly_below"
    INCOMPARABLE = "incomparable"


def _at_least(wmin: list[tuple[int, ...]], i: int, j: int, n_i: int) -> bool:
    """Level i >= level j: every minimal winning w with w_j > 0 and w_i < n_i
    still wins with one j-unit traded for an i-unit."""
    for w in wmin:
        if w[j] and w[i] < n_i:
            traded = list(w)
            traded[i] += 1
            traded[j] -= 1
            for v in wmin:
                if all(map(ge, traded, v)):
                    break
            else:
                return False
    return True


def _relation(wmin: list[tuple[int, ...]], n: tuple[int, ...], i: int, j: int) -> LevelRelation:
    """Levels i and j compared on the minimal winning count vectors wmin of
    a game with level sizes n; i and j are distinct levels already checked."""
    i_ge_j = _at_least(wmin, i, j, n[i])
    j_ge_i = _at_least(wmin, j, i, n[j])
    if i_ge_j and j_ge_i:
        return LevelRelation.EQUIVALENT
    if i_ge_j:
        return LevelRelation.STRICTLY_ABOVE
    return LevelRelation.STRICTLY_BELOW if j_ge_i else LevelRelation.INCOMPARABLE


def level_relation(game: ExplicitGame, i: int, j: int) -> LevelRelation:
    """Compare levels i and j (0-indexed) in the desirability preorder.

    Level i is at least as desirable as j iff every winning Y with y_j >= 1
    and y_i < n_i still wins after one j-unit is traded for an i-unit. The
    minimal winning Y suffice (_at_least): any such Y contains a minimal
    winning w; if w_j >= 1 the traded w lies inside the traded Y, and if
    w_j = 0, w lies inside Y - e_j. Cost O(|min_winning|^2 * m), no lattice.
    """
    _require_int(i=i, j=j)
    m = game.universe.m
    if i == j or not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"need two distinct levels in 0..{m - 1}, got {i}, {j}")
    return _relation([w.counts for w in game.min_winning], game.universe.counts, i, j)


def level_classes(game: ExplicitGame) -> list[list[int]] | None:
    """Levels grouped by desirability: classes of equivalent levels, most
    desirable class first, each level inserted in turn before the first
    class it beats. None when two levels are incomparable; as the preorder
    is transitive, the insertions meet such a pair if there is one.
    Each call orders the levels afresh, so the lists it returns are the
    caller's own.
    """
    wmin = [w.counts for w in game.min_winning]
    n = game.universe.counts
    classes: list[list[int]] = []
    for lvl in range(len(n)):
        for idx, cls in enumerate(classes):
            rel = _relation(wmin, n, lvl, cls[0])
            if rel is LevelRelation.EQUIVALENT:
                cls.append(lvl)
                break
            if rel is LevelRelation.STRICTLY_ABOVE:
                classes.insert(idx, [lvl])
                break
            if rel is LevelRelation.INCOMPARABLE:
                return None
        else:
            classes.append([lvl])
    return classes


def is_complete(game: ExplicitGame) -> bool:
    """True iff every pair of levels is comparable in desirability."""
    return level_classes(game) is not None


@dataclass(frozen=True)
class SpecialPlayers:
    """Level indices (0-based) of the three special kinds.

    dummies: levels absent from every minimal winning coalition.
    passers: levels whose single player already wins alone.
    blockers: levels whose total removal from the full coalition makes it lose.
    """

    dummies: frozenset[int]
    passers: frozenset[int]
    blockers: frozenset[int]


def special_players(game: ExplicitGame) -> SpecialPlayers:
    m = game.universe.m
    dummies = frozenset(
        i for i in range(m) if all(w.counts[i] == 0 for w in game.min_winning)
    )
    zero = (0,) * m
    passers = frozenset(
        i for i in range(m) if is_winning(game, Coalition(zero).with_unit(i))
    )
    full = game.universe.full()
    blockers = frozenset(
        i
        for i in range(m)
        if not is_winning(game, full.with_unit(i, -full.counts[i]))
    )
    return SpecialPlayers(dummies=dummies, passers=passers, blockers=blockers)
