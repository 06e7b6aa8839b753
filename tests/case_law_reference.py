"""The conjunctive weighted case list (Thm5) read as printed: the reference
the classifier's duality-derived Thm5 tags are checked against.

The classifier decides a conjunctive spec through its dual disjunctive
spec's Thm4 case and renames the case; this list never looks at the dual.
weighted_case_conj returns the Thm5 case number (1..5), or None when the
game is not weighted.
"""

from __future__ import annotations

from typing import Optional


def weighted_case_conj(n: tuple[int, ...], k: tuple[int, ...]) -> Optional[int]:
    m = len(n)
    if m == 1:
        return 1
    if m == 2 and k[1] == k[0] + 1:
        return 2
    if m == 2 and n[1] == k[1] - k[0] + 1:
        return 3
    if m in (2, 3) and k[0] == n[0]:
        if m == 2:
            return 4
        # reduced game on levels 2..3 after handing level 1's seats out
        if weighted_case_conj(n[1:], (k[1] - k[0], k[2] - k[0])) is not None:
            return 4
    if m in (2, 3, 4) and k[-1] == k[-2]:
        if weighted_case_conj(n[:-1], k[:-1]) in (1, 2, 3, 4):
            return 5
    return None
