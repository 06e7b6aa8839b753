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

  weighted, conjunctive (tags Thm5(1)..Thm5(5)): decided through the dual
    disjunctive spec, k*_i = N_i - k_i + 1, since weightedness survives
    duality. Cases 1, 4 and 5 keep the dual's number. Cases 2 and 3 swap:
    the dual's (2), k*2=k*1+1, reads n2=k2-k1+1 here, which is Thm5(3), and
    the dual's (3), n2=k*2-k*1+1, reads k2=k1+1, which is Thm5(2). When
    both hold (n2=2), Thm5 matches (2) first, so the tag is Thm5(2) iff
    k2=k1+1.

  roughly weighted, disjunctive, for nonweighted specs (tags Thm12(i)..(vii)):
    (i)   k1=1;
    (ii)  k=(2,4), n2>=4;
    (iii) k=(k,k+2), k>2, n2=4;
    (iv)  k=(2,3,4) and (n2=2 or n3=2);
    (v)   k=(k,k+1,k+2), k>2, n3=2;
    (vi)  k=(k,k+1,k3), n3=k3-k>=3;
    (vii) k_m=k_{m-1}+n_m and the subgame matches (i)-(vi).
    Dummy specs route to (vii) first and never fall through; within (i)-(vi)
    the first match wins.

  roughly weighted, conjunctive (tags Thm13(i)..(vii)): decided through the
    dual disjunctive spec, with the certificate carried across duality as
    quota' = w(P) - quota. A published conjunctive case list exists in
    Thm13(...) form; read literally it disagrees with duality on some specs
    (its (vb) row pins n=(n1,n2,2) yet demands n3>=3, and its (vi) row omits
    the bindings k2-k1=n2-1 and n3=k3-...). When the literal reading and the
    dual derivation disagree, the verdict follows duality and the
    disagreement is recorded in Verdict.notes.

Each case returns its tag together with its certificate, so a verdict is one
pass over the law. Certificates are closed forms in (n, k), computed as
integer numerators over one positive denominator (1 for weighted ones, whose
gap is 1), conjunctive ones carried over from the dual spec on those
integers; the verdict hands them to RoughCert._of_ints, which holds them as
they are (in lowest terms), so classification builds no Fraction.
Classification is O(m) and touches neither the coalition lattice nor the LP
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .certificates import RoughCert
from .hierarchy import DISJUNCTIVE, HierSpec, _is_canonical, _k_star

__all__ = [
    "WEIGHTED",
    "ROUGH_NOT_WEIGHTED",
    "NOT_ROUGH",
    "Verdict",
    "classify_rough",
    "classify",
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


# ===== weighted case law (disjunctive; conjunctive goes through duality) =====


def _weighted_disj(
    n: tuple[int, ...], k: tuple[int, ...]
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """Thm4 case of a canonical disjunctive (n, k) and its integer
    certificate (case, q, w), with minimal winning coalitions at >= q and
    maximal losing ones at <= q - 1; None when the game is not weighted.
    The cases may assume canonical input; so may the subgames they recurse on."""
    m = len(n)
    if m == 1:
        return 1, k[0], (1,)
    if m == 2 and k[1] == k[0] + 1:
        # w(X) = k1 * (x1 + x2) + x1, and a loser has x1 < k1, x1 + x2 <= k1
        return 2, k[0] * k[1], (k[1], k[0])
    if m == 2 and n[1] == k[1] - k[0] + 1:
        # reaching k2 without k1 first-level players takes x1 = k1 - 1, x2 = n2
        return 3, k[0] * n[1], (n[1], 1)
    if m in (2, 3) and k[0] == 1:
        # one first-level player wins alone; without one, the residual game
        # on levels 2..m (thresholds unchanged) decides; for m = 2 it is
        # always case 1
        inner = _weighted_disj(n[1:], k[1:])
        if inner is not None:
            _, q, w = inner
            return 4, q, (q,) + w
    if k[-1] == k[-2] + n[-1]:
        # dummy last level; the subgame's last level was a middle level,
        # which canonical form makes strict, so it never matches (5) itself;
        # m <= 4 is implied: past it the subgame has 4+ levels and no case
        inner = _weighted_disj(n[:-1], k[:-1])
        if inner is not None:
            _, q, w = inner
            return 5, q, w + (0,)
    return None


# ===== rough case law (disjunctive; conjunctive goes through duality) =====


def _rough_disj(
    n: tuple[int, ...], k: tuple[int, ...]
) -> Optional[tuple[str, int, int, tuple[int, ...]]]:
    """Thm12 case of a canonical nonweighted disjunctive (n, k) and its
    certificate as integer numerators over one denominator d > 0, (tag, d,
    q, w) for [q/d; w/d]: quota 1 (q = d), or quota 0 for (i); None when no
    case matches.

    A dummy last level routes to (vii) and never falls through to (i)-(vi).
    Canonical middle levels are strict, so the subgame has no dummy level.
    (i)-(vi) may assume canonical nonweighted input without a dummy last
    level, and that the first match wins; (vii) may assume a nonweighted
    subgame too: for m <= 4 a weighted one would make the spec Thm4(5), and
    no dummy-free spec of 4 or more levels is weighted.
    """
    m = len(n)
    if m >= 2 and k[-1] == k[-2] + n[-1]:
        inner = _rough_disj(n[:-1], k[:-1])
        if inner is None:
            return None
        _, d, q, w = inner
        return "vii", d, q, w + (0,)
    if k[0] == 1:
        # passers make the game decisive at weight zero: losing coalitions
        # contain no first-level player at all
        return "i", 1, 0, (1,) + (0,) * (m - 1)
    if m == 2:
        if k == (2, 4):
            # n1 >= k1 is canonical; n2 >= 4, as n2 = 2 is a dummy level,
            # (vii), and n2 = 3 is Thm4(3); [1; (1/2, 1/4)]
            return "ii", 4, 4, (2, 1)
        if n[1] == 4:
            # k2 = k1 + 2, as k2 - k1 = 1 is Thm4(2), 3 Thm4(3) and 4 (vii);
            # k1 > 2, as k1 = 1 is (i) and k1 = 2 is (ii), and n1 >= k1 is
            # canonical; [1; (1/k1, 1/(2 k1))]
            return "iii", 2 * k[0], 2 * k[0], (2, 1)
        return None
    if m == 3:
        if k == (2, 3, 4):
            # n3=1 would be a dummy level, handled by the (vii) route
            if n[2] == 2:
                # [1; (1/2, 1/2, 0)]
                return "iv", 2, 2, (1, 1, 0)
            if n[1] == 2:
                # [1; (1/2, 1/4, 1/4)]
                return "iv", 4, 4, (2, 1, 1)
            return None
        if k[1] == k[0] + 1:
            # n1 >= k1 is canonical, k1 >= 2 by (i), and k1 = 2 in (v) is
            # (2, 3, 4), decided above. A canonical last level that is no
            # dummy has 1 <= k3 - k2 <= n3 - 1, so n3 = 2 forces k3 = k2 + 1
            # = k1 + n3: (v) always passes (vi)'s test. That test gives
            # n3 = k3 - k2 + 1 >= 2, so (vi)'s n3 >= 3 only excludes n3 = 2,
            # which is (v)
            if n[2] == k[2] - k[0]:
                # [1; (1/k1, 1/k1, 0)]
                return ("v" if n[2] == 2 else "vi"), k[0], k[0], (1, 1, 0)
    return None


def _across_duality(d: int, q: int, w: tuple[int, ...], n: tuple[int, ...], gap: int) -> int:
    """The numerator, over the same d, of the quota that carries the dual
    spec's certificate [q/d; w/d] to the spec on level sizes n.

    X wins iff its complement loses in the dual game, so the dual's losing
    bound w(P - X) <= quota - gap turns into w(X) >= w(P) - quota + gap:
    gap 1 for weighted (Thm5) certificates, 0 for rough (Thm13) ones. The
    dual's full coalition wins, so w(P) >= quota and the new quota is >= 0;
    the weights carry over as they are. Over d, the new numerator is
    sum(w_i * n_i) - q + gap * d.
    """
    return sum(x * c for x, c in zip(w, n)) - q + gap * d


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
    rough case law. Both laws are disjunctive: a conjunctive spec is decided
    on its dual. Each case returns its certificate with its tag; not_rough
    has none.
    """
    if not _is_canonical(spec):
        raise ValueError(f"{spec} is not canonical; canonicalize before classification")
    conj = spec.kind != DISJUNCTIVE
    # a conjunctive spec is decided on its dual's (n, k); spec is canonical,
    # so the conjugate is the dual spec's thresholds (transforms.dual_spec)
    n, k = spec.n, _k_star(spec.n, spec.k) if conj else spec.k
    weighted = _weighted_disj(n, k)
    if weighted is not None:
        case, q, w = weighted
        if not conj:
            return Verdict(WEIGHTED, f"Thm4({case})", RoughCert._of_ints(1, q, w))
        if case in (2, 3):
            case = 2 if spec.k[1] == spec.k[0] + 1 else 3
        q = _across_duality(1, q, w, spec.n, 1)
        return Verdict(WEIGHTED, f"Thm5({case})", RoughCert._of_ints(1, q, w))
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
        return Verdict(NOT_ROUGH, "none", None, notes)
    tag, d, q, w = rough
    if conj:
        if tag == "v":
            # the dual's (v) fixes n3 = 2
            tag = "va" if spec.n[1] == 2 else "vb"
        q = _across_duality(d, q, w, spec.n, 0)
    cert = RoughCert._of_ints(d, q, w)
    return Verdict(ROUGH_NOT_WEIGHTED, f"Thm{13 if conj else 12}({tag})", cert, notes)


# the one-call entry point
classify = classify_rough
