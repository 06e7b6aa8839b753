"""Structural classification of canonical hierarchical specs.

Given a canonical spec, decide from the threshold pattern alone whether the
game is weighted, roughly weighted but not weighted, or not even roughly
weighted, and produce an exact certificate for the first two answers.

The decision law is a finite case list over (kind, n, k):

  weighted, disjunctive (tags Thm4(1)..Thm4(5)):
    (1) m=1; (2) m=2, k2=k1+1; (3) m=2, n2=k2-k1+1;
    (4) m in {2,3}, k1=1, and for m=3 the last-level-dropped subgame falls
        under (2) or (3);
    (5) m in {2,3,4}, k_m=k_{m-1}+n_m, and the subgame falls under (1)-(4).

  weighted, conjunctive (tags Thm5(1)..Thm5(5)): the dual list; (4) reads
    k1=n1 with the first-level-reduced game under (2) or (3), (5) reads
    k_m=k_{m-1}.

  roughly weighted, disjunctive, for nonweighted specs (tags Thm12(i)..(vii)):
    (i)   k1=1;
    (ii)  k=(2,4), n2>=4;
    (iii) k=(k,k+2), k>2, n2=4;
    (iv)  k=(2,3,4) and (n2=2 or n3=2);
    (v)   k=(k,k+1,k+2), k>2, n3=2;
    (vi)  k=(k,k+1,k3), n3=k3-k>=3;
    (vii) k_m=k_{m-1}+n_m and the subgame matches (i)-(vi).
    Dummy specs route to (vii) first; within (i)-(vi) the first match wins.

  roughly weighted, conjunctive (tags Thm13(i)..(vii)): decided through the
    dual disjunctive spec, with the certificate carried across duality as
    quota' = w(P) - quota. A published conjunctive case list exists in
    Thm13(...) form; read literally it disagrees with duality on some specs
    (its (vb) row pins n=(n1,n2,2) yet demands n3>=3, and its (vi) row omits
    the bindings k2-k1=n2-1 and n3=k3-...). When the literal reading and the
    dual derivation disagree, the verdict follows duality and the
    disagreement is recorded in Verdict.notes.

Certificates are closed forms in (n, k), weighted ones integer with a gap of
1, conjunctive ones carried over from the dual spec; classification is O(m)
and touches neither the coalition lattice nor the LP oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .certificates import RoughCert
from .hierarchy import CONJUNCTIVE, DISJUNCTIVE, HierSpec, canon_check
from .transforms import dual_spec

__all__ = [
    "WEIGHTED",
    "ROUGH_NOT_WEIGHTED",
    "NOT_ROUGH",
    "Verdict",
    "classify_weighted",
    "classify_rough",
    "classify",
    "synthesize_certificate",
]

WEIGHTED = "weighted"
ROUGH_NOT_WEIGHTED = "rough_not_weighted"
NOT_ROUGH = "not_rough"


@dataclass(frozen=True)
class Verdict:
    """Outcome of structural classification.

    game_class: one of the three class names above.
    matched_case: decision-law tag such as 'Thm4(2)' or 'Thm12(vi)'; 'none'
        when nothing matched (class not_rough).
    certificate: exact quota/weights witnessing weighted or rough classes.
    notes: advisory strings (literal-case-list disagreements and the like);
        never part of the verdict itself.
    """

    game_class: str
    matched_case: str
    certificate: Optional[RoughCert]
    notes: tuple[str, ...] = field(default=())


def _require_canonical(spec: HierSpec) -> None:
    if not canon_check(spec).canonical:
        raise ValueError(
            f"{spec} is not canonical; canonicalize before classification"
        )


# ===== weighted case law =====


def _weighted_case_disj(n: tuple[int, ...], k: tuple[int, ...]) -> Optional[int]:
    m = len(n)
    if m == 1:
        return 1
    if m == 2 and k[1] == k[0] + 1:
        return 2
    if m == 2 and n[1] == k[1] - k[0] + 1:
        return 3
    if m in (2, 3) and k[0] == 1:
        if m == 2:
            return 4
        # single first-level players win alone, so weightedness is decided
        # by the residual game on levels 2..3 (thresholds unchanged)
        if _weighted_case_disj(n[1:], k[1:]) is not None:
            return 4
    if m in (2, 3, 4) and k[-1] == k[-2] + n[-1]:
        if _weighted_case_disj(n[:-1], k[:-1]) in (1, 2, 3, 4):
            return 5
    return None


def _weighted_case_conj(n: tuple[int, ...], k: tuple[int, ...]) -> Optional[int]:
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
        if _weighted_case_conj(n[1:], (k[1] - k[0], k[2] - k[0])) is not None:
            return 4
    if m in (2, 3, 4) and k[-1] == k[-2]:
        if _weighted_case_conj(n[:-1], k[:-1]) in (1, 2, 3, 4):
            return 5
    return None


def _weighted_cert_disj(n: tuple[int, ...], k: tuple[int, ...]) -> RoughCert:
    """Integer certificate of a weighted canonical disjunctive (n, k), with
    minimal winning coalitions at >= q and maximal losing ones at <= q - 1."""
    case = _weighted_case_disj(n, k)
    if case == 1:
        return RoughCert(k[0], (1,))
    if case == 2:
        # w(X) = k1 * (x1 + x2) + x1, and a loser has x1 < k1, x1 + x2 <= k1
        return RoughCert(k[0] * k[1], (k[1], k[0]))
    if case == 3:
        # reaching k2 without k1 first-level players takes x1 = k1 - 1, x2 = n2
        return RoughCert(k[0] * n[1], (n[1], 1))
    if case == 4:
        # one first-level player wins alone; without one, the residual game
        # on the lower levels decides
        inner = _weighted_cert_disj(n[1:], k[1:])
        return RoughCert(inner.quota, (inner.quota,) + inner.weights)
    if case == 5:
        inner = _weighted_cert_disj(n[:-1], k[:-1])
        return RoughCert(inner.quota, inner.weights + (Fraction(0),))  # dummy last level
    raise RuntimeError(f"weighted n={n} k={k} matches no weighted case")


def classify_weighted(spec: HierSpec) -> Optional[str]:
    """Matched weighted-case tag ('Thm4(2)', 'Thm5(4)', ...) or None.

    Requires a canonical spec. Truthiness of the result answers "is the
    game weighted".
    """
    _require_canonical(spec)
    if spec.kind == DISJUNCTIVE:
        case = _weighted_case_disj(spec.n, spec.k)
        return None if case is None else f"Thm4({case})"
    case = _weighted_case_conj(spec.n, spec.k)
    return None if case is None else f"Thm5({case})"


# ===== rough case law (disjunctive; conjunctive goes through duality) =====


def _rough_case_disj(n: tuple[int, ...], k: tuple[int, ...]) -> Optional[str]:
    """Match a canonical nonweighted dummy-free disjunctive (n, k) against
    cases (i)-(vi). Callers handle the dummy route (vii)."""
    m = len(n)
    if k[0] == 1:
        return "i"
    if m == 2:
        if k == (2, 4) and n[0] >= 2 and n[1] >= 4:
            return "ii"
        if k[1] == k[0] + 2 and k[0] > 2 and n[0] >= k[0] and n[1] == 4:
            return "iii"
        return None
    if m == 3:
        if k == (2, 3, 4):
            # n3=1 would be a dummy level, handled by the (vii) route
            return "iv" if (n[1] == 2 or n[2] == 2) else None
        if k[1] == k[0] + 1 and k[2] == k[0] + 2 and k[0] > 2 and n[0] >= k[0] and n[2] == 2:
            return "v"
        if k[1] == k[0] + 1 and k[0] >= 2 and n[0] >= k[0] and n[2] == k[2] - k[0] >= 3:
            return "vi"
    return None


def _route_rough_disj(n: tuple[int, ...], k: tuple[int, ...]) -> Optional[str]:
    m = len(n)
    if m >= 2 and k[-1] == k[-2] + n[-1]:
        sub = _rough_case_disj(n[:-1], k[:-1])
        return None if sub is None else "vii"
    return _rough_case_disj(n, k)


def _rough_cert_disj(n: tuple[int, ...], k: tuple[int, ...], case: str) -> RoughCert:
    m = len(n)
    if case == "vii":
        inner_case = _rough_case_disj(n[:-1], k[:-1])
        if inner_case is None:
            raise ValueError(f"case vii does not apply to n={n} k={k}")
        inner = _rough_cert_disj(n[:-1], k[:-1], inner_case)
        return RoughCert(inner.quota, inner.weights + (Fraction(0),))
    if case == "i":
        # passers make the game decisive at weight zero: losing coalitions
        # contain no first-level player at all
        return RoughCert(Fraction(0), (Fraction(1),) + (Fraction(0),) * (m - 1))
    if case == "ii":
        return RoughCert(Fraction(1), (Fraction(1, 2), Fraction(1, 4)))
    if case == "iii":
        return RoughCert(Fraction(1), (Fraction(1, k[0]), Fraction(1, 2 * k[0])))
    if case == "iv":
        if n[2] == 2:
            weights = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        else:
            weights = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        return RoughCert(Fraction(1), weights)
    if case in ("v", "vi"):
        return RoughCert(
            Fraction(1), (Fraction(1, k[0]), Fraction(1, k[0]), Fraction(0))
        )
    raise ValueError(f"unknown rough case {case!r}")


# literal reading of the published conjunctive case list, kept for
# cross-reporting only; rows are encoded exactly as printed, including the
# unsatisfiable (vb)


def _literal_conj_case(n: tuple[int, ...], k: tuple[int, ...]) -> Optional[str]:
    m = len(n)
    if k[0] == n[0]:
        return "i"
    if m == 2:
        n1, n2 = n
        k1, k2 = k
        if k1 == n1 - 1 and k2 == n1 + n2 - 3 and n1 >= 2 and n2 >= 4:
            return "ii"
        if k2 == k1 + 2 and 1 <= k1 < n1 - 1 and n2 == 4:
            return "iii"
    if m == 3:
        n1, n2, n3 = n
        k1, k2, k3 = k
        if n2 == 2 and (k1, k2, k3) == (n1 - 1, n1, n1 + n3 - 1) and n1 >= 2 and n3 >= 3:
            return "iv"
        if k2 == k1 + 1 and k3 == k1 + 2 and 1 <= k1 < n1 - 1 and (n2, n3) == (2, 2):
            return "va"
        # (vb) as printed pins n=(n1,n2,2) while also demanding n3 >= 3;
        # encoded verbatim, so this row never fires
        if k3 == k2 + 1 and n3 == 2 and k2 - k1 == n2 - 1 and 1 <= k1 < n1 - 1 and n3 >= 3:
            return "vb"
        if k3 == k2 + 1 and 1 <= k1 <= n1 - 1 and n2 >= 3:
            return "vi"
    if m >= 2 and k[-1] == k[-2]:
        if _literal_conj_case(n[:-1], k[:-1]) is not None:
            return "vii"
    return None


def classify_rough(spec: HierSpec) -> Verdict:
    """Full structural verdict for a canonical spec.

    Runs the weighted case law first; nonweighted specs then go through the
    rough case law (conjunctive ones via their dual). Certificates are
    attached for weighted and rough classes; not_rough has none.
    """
    _require_canonical(spec)
    wtag = classify_weighted(spec)
    if wtag is not None:
        return Verdict(WEIGHTED, wtag, synthesize_certificate(spec, wtag))

    if spec.kind == DISJUNCTIVE:
        case = _route_rough_disj(spec.n, spec.k)
        if case is None:
            return Verdict(NOT_ROUGH, "none", None)
        tag = f"Thm12({case})"
        return Verdict(ROUGH_NOT_WEIGHTED, tag, synthesize_certificate(spec, tag))

    dual = dual_spec(spec)
    if _weighted_case_disj(dual.n, dual.k) is not None:
        # weightedness is self-dual; classify_weighted above must agree
        raise RuntimeError(f"dual of nonweighted {spec} classified weighted")
    case = _route_rough_disj(dual.n, dual.k)
    notes: tuple[str, ...] = ()
    literal = _literal_conj_case(spec.n, spec.k)
    if (literal is None) != (case is None):
        derived = "no match" if case is None else f"dual match {case}"
        printed = "no match" if literal is None else f"case {literal}"
        notes = (
            f"literal Thm13 reading gives {printed} but duality gives {derived}; "
            "verdict follows duality",
        )
    if case is None:
        return Verdict(NOT_ROUGH, "none", None, notes)
    if case == "v":
        case = "va" if spec.n[1] == spec.n[2] == 2 else "vb"
    tag = f"Thm13({case})"
    return Verdict(ROUGH_NOT_WEIGHTED, tag, synthesize_certificate(spec, tag), notes)


def classify(spec: HierSpec) -> Verdict:
    """Alias for classify_rough: the one-call entry point."""
    return classify_rough(spec)


def synthesize_certificate(spec: HierSpec, case_tag: str) -> RoughCert:
    """Exact certificate for a spec under a given decision-law tag.

    Thm4 and Thm12 tags: closed forms on the disjunctive thresholds; Thm4
    ones are integer with a gap of 1.
    Thm5 and Thm13 tags: the dual spec's Thm4 or Thm12 certificate carried
    across duality (quota' = w(P) - quota, plus the gap of 1 for Thm5).
    A weighted tag must be the one classify_weighted gives the spec; unknown
    or inapplicable tags raise ValueError.
    """
    family, _, rest = case_tag.partition("(")
    case = rest.rstrip(")")
    kinds = {"Thm4": DISJUNCTIVE, "Thm12": DISJUNCTIVE, "Thm5": CONJUNCTIVE, "Thm13": CONJUNCTIVE}
    if family not in kinds or not case:
        raise ValueError(f"unknown case tag {case_tag!r}")
    if spec.kind != kinds[family]:
        raise ValueError(f"{case_tag} does not apply to a {spec.kind} spec")
    weighted = family in ("Thm4", "Thm5")
    if weighted and classify_weighted(spec) != case_tag:
        raise ValueError(f"{spec} does not fall under {case_tag}")
    disj = spec if spec.kind == DISJUNCTIVE else dual_spec(spec)
    if weighted:
        inner = _weighted_cert_disj(disj.n, disj.k)
    else:
        inner = _rough_cert_disj(disj.n, disj.k, "v" if case in ("va", "vb") else case)
    if disj is spec:
        return inner
    # X wins iff its complement loses in the dual game, so the dual's losing
    # bound w(P - X) <= quota - gap turns into w(X) >= w(P) - quota + gap
    gap = 1 if weighted else 0
    return RoughCert(inner.weight_of(disj.universe().full()) - inner.quota + gap, inner.weights)
