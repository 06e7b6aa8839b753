"""Reference case lists the classifier is checked against.

weighted_case_conj reads the conjunctive weighted case list (Thm5) as
printed: the classifier decides a conjunctive spec through its dual
disjunctive spec's Thm4 case and renames the case; this list never looks at
the dual. It returns the Thm5 case number (1..5), or None when the game is
not weighted.

classify_reference is the decision law with every certificate built as
Fraction-valued RoughCerts, case by case, and carried across duality in
Fraction arithmetic, where the classifier computes integer numerators over
one denominator and builds one RoughCert at the end. It returns the
verdict's (class, tag, certificate, notes). The literal Thm13 reading
behind the notes is the classifier's own, which this reference does not
restate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from hiergames import (
    DISJUNCTIVE,
    NOT_ROUGH,
    ROUGH_NOT_WEIGHTED,
    WEIGHTED,
    HierSpec,
    RoughCert,
    k_star,
)
from hiergames.classifier import _literal_conj_case


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


def _weighted_disj(n: tuple[int, ...], k: tuple[int, ...]) -> Optional[tuple[int, RoughCert]]:
    m = len(n)
    if m == 1:
        return 1, RoughCert(k[0], (1,))
    if m == 2 and k[1] == k[0] + 1:
        return 2, RoughCert(k[0] * k[1], (k[1], k[0]))
    if m == 2 and n[1] == k[1] - k[0] + 1:
        return 3, RoughCert(k[0] * n[1], (n[1], 1))
    if m in (2, 3) and k[0] == 1:
        inner = _weighted_disj(n[1:], k[1:])
        if inner is not None:
            quota = inner[1].quota
            return 4, RoughCert(quota, (quota,) + inner[1].weights)
    if m in (2, 3, 4) and k[-1] == k[-2] + n[-1]:
        inner = _weighted_disj(n[:-1], k[:-1])
        if inner is not None and inner[0] != 5:
            return 5, RoughCert(inner[1].quota, inner[1].weights + (0,))
    return None


def _rough_disj(n: tuple[int, ...], k: tuple[int, ...]) -> Optional[tuple[str, RoughCert]]:
    m = len(n)
    if m >= 2 and k[-1] == k[-2] + n[-1]:
        inner = _rough_disj(n[:-1], k[:-1])
        if inner is None:
            return None
        return "vii", RoughCert(inner[1].quota, inner[1].weights + (0,))
    if k[0] == 1:
        return "i", RoughCert(0, (1,) + (0,) * (m - 1))
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    if m == 2:
        if k == (2, 4) and n[0] >= 2 and n[1] >= 4:
            return "ii", RoughCert(1, (half, quarter))
        if k[1] == k[0] + 2 and k[0] > 2 and n[0] >= k[0] and n[1] == 4:
            return "iii", RoughCert(1, (Fraction(1, k[0]), Fraction(1, 2 * k[0])))
        return None
    if m == 3:
        if k == (2, 3, 4):
            if n[2] == 2:
                return "iv", RoughCert(1, (half, half, 0))
            if n[1] == 2:
                return "iv", RoughCert(1, (half, quarter, quarter))
            return None
        if k[1] == k[0] + 1 and n[0] >= k[0]:
            v = k[2] == k[0] + 2 and k[0] > 2 and n[2] == 2
            vi = k[0] >= 2 and n[2] == k[2] - k[0] >= 3
            if v or vi:
                cert = RoughCert(1, (Fraction(1, k[0]), Fraction(1, k[0]), 0))
                return ("v" if v else "vi"), cert
    return None


def _across_duality(cert: RoughCert, n: tuple[int, ...], gap: int) -> RoughCert:
    """quota' = w(P) - quota + gap, in Fraction arithmetic."""
    total = sum((w * c for w, c in zip(cert.weights, n)), Fraction(0))
    return RoughCert(total - cert.quota + gap, cert.weights)


def classify_reference(spec: HierSpec) -> tuple[str, str, Optional[RoughCert], tuple[str, ...]]:
    conj = spec.kind != DISJUNCTIVE
    n, k = spec.n, k_star(spec.n, spec.k) if conj else spec.k
    weighted = _weighted_disj(n, k)
    if weighted is not None:
        case, cert = weighted
        if not conj:
            return WEIGHTED, f"Thm4({case})", cert, ()
        if case in (2, 3):
            case = 2 if spec.k[1] == spec.k[0] + 1 else 3
        return WEIGHTED, f"Thm5({case})", _across_duality(cert, spec.n, 1), ()
    rough = _rough_disj(n, k)
    notes: tuple[str, ...] = ()
    literal = _literal_conj_case(spec.n, spec.k) if conj else None
    if conj and (literal is None) != (rough is None):
        derived = "no match" if rough is None else f"dual match {rough[0]}"
        printed = "no match" if literal is None else f"case {literal}"
        notes = (
            f"literal Thm13 reading gives {printed} but duality gives {derived}; "
            "verdict follows duality",
        )
    if rough is None:
        return NOT_ROUGH, "none", None, notes
    tag, cert = rough
    if not conj:
        return ROUGH_NOT_WEIGHTED, f"Thm12({tag})", cert, notes
    if tag == "v":
        tag = "va" if spec.n[1] == spec.n[2] == 2 else "vb"
    return ROUGH_NOT_WEIGHTED, f"Thm13({tag})", _across_duality(cert, spec.n, 0), notes
