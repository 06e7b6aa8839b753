"""Property-based invariants over random games, specs, and linear systems."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from hiergames import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    Coalition,
    ExplicitGame,
    HierSpec,
    Multiset,
    RoughCert,
    canon_check,
    canonicalize_semantic,
    classify,
    dual_explicit,
    dual_spec,
    hier_is_winning,
    is_winning,
    iter_coalitions,
    k_star,
    oracle_classify,
    realize,
    verify_representation,
)
import fm_reference
from hiergames.feasibility import LinearSystem

kinds = st.sampled_from([DISJUNCTIVE, CONJUNCTIVE])


@st.composite
def universes(draw, max_levels=3, max_count=3):
    m = draw(st.integers(1, max_levels))
    return Multiset(tuple(draw(st.integers(1, max_count)) for _ in range(m)))


@st.composite
def explicit_games(draw):
    u = draw(universes())
    pool = [c for c in iter_coalitions(u) if c.size > 0]
    members = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    return ExplicitGame(u, frozenset(members))


@st.composite
def canonical_specs(draw, max_levels=3, max_count=4):
    # mirror the canonical sweep: k1 in [1..n1], middle deltas in
    # [1..n_i - 1], last delta in [1..n_m] (disjunctive) / [0..n_m - 1]
    kind = draw(kinds)
    m = draw(st.integers(1, max_levels))
    n = [draw(st.integers(1, max_count)) for _ in range(m)]
    for i in range(1, m - 1):
        n[i] = draw(st.integers(2, max_count))
    k = [draw(st.integers(1, n[0]))]
    for i in range(1, m):
        if i < m - 1:
            delta = draw(st.integers(1, n[i] - 1))
        elif kind == DISJUNCTIVE:
            delta = draw(st.integers(1, n[i]))
        else:
            delta = draw(st.integers(0, n[i] - 1))
        k.append(k[-1] + delta)
    return HierSpec(kind, tuple(n), tuple(k))


@st.composite
def large_specs(draw):
    # any valid spec, canonical or not, with up to 12 levels and n_i up to
    # 10^6: each step of k is drawn on its level's scale, often right at
    # k_{i-1} + n_i, where a condition turns idle
    kind = draw(kinds)
    m = draw(st.integers(1, 12))
    n = [draw(st.integers(1, 10**6)) for _ in range(m)]
    k, prefix = [0], 0
    for i, count in enumerate(n):
        prefix += count
        low = 0 if kind == CONJUNCTIVE and 0 < i == m - 1 else 1
        # conjunctive: k_i <= n_1 + ... + n_i keeps the full coalition winning
        high = 2 * count if kind == DISJUNCTIVE else prefix - k[-1]
        edge = [d for d in (count - 1, count, count + 1) if low <= d <= high]
        k.append(k[-1] + draw(st.integers(low, high) | st.sampled_from(edge)))
    try:
        return HierSpec(kind, tuple(n), tuple(k[1:]))
    except ValueError:  # a disjunctive spec whose every threshold overshoots
        assume(False)


@settings(max_examples=300, deadline=None)
@given(large_specs(), st.data())
def test_canonical_form_at_any_size(spec, data):
    canon, mapping = canonicalize_semantic(spec)
    assert canon_check(canon).canonical
    assert canonicalize_semantic(canon) == (canon, tuple(range(canon.m)))
    # a nondecreasing map onto the classes; each class holds its levels' players
    assert mapping[0] == 0 and mapping[-1] == canon.m - 1
    assert all(b - a in (0, 1) for a, b in zip(mapping, mapping[1:]))
    members = [[i for i, c in enumerate(mapping) if c == cls] for cls in range(canon.m)]
    assert canon.n == tuple(sum(spec.n[i] for i in cls) for cls in members)
    # each class keeps the threshold of its last level, but for a clamped
    # disjunctive k_m
    kept = tuple(spec.k[cls[-1]] for cls in members)
    if spec.kind == DISJUNCTIVE and canon.m > 1:
        assert canon.k[:-1] == kept[:-1]
        assert canon.k[-1] == min(kept[-1], canon.k[-2] + canon.n[-1])
    else:
        assert canon.k == kept
    # the same game: a coalition wins iff its classwise sums win
    x = tuple(data.draw(st.integers(0, c)) for c in spec.n)
    squashed = tuple(sum(x[i] for i in cls) for cls in members)
    assert hier_is_winning(spec, Coalition(x)) == hier_is_winning(canon, Coalition(squashed))


@settings(max_examples=60, deadline=None)
@given(explicit_games())
def test_dual_is_involutive(game):
    assert dual_explicit(dual_explicit(game)) == game


@settings(max_examples=60, deadline=None)
@given(explicit_games())
def test_dual_swaps_wins_and_complement_losses(game):
    d = dual_explicit(game)
    for x in iter_coalitions(game.universe):
        assert is_winning(d, x) == (not is_winning(game, game.universe.complement(x)))


@settings(max_examples=80, deadline=None)
@given(canonical_specs())
def test_generated_specs_are_canonical(spec):
    assert canon_check(spec).canonical


@settings(max_examples=80, deadline=None)
@given(canonical_specs())
def test_spec_duality_round_trips(spec):
    dual = dual_spec(spec)
    assert dual.kind != spec.kind
    assert dual_spec(dual) == spec
    assert realize(dual) == dual_explicit(realize(spec))


@settings(max_examples=50, deadline=None)
@given(canonical_specs())
def test_classifier_agrees_with_oracle(spec):
    verdict = classify(spec)
    assert verdict.game_class == oracle_classify(realize(spec))


@settings(max_examples=50, deadline=None)
@given(canonical_specs())
def test_classifier_certificates_verify(spec):
    verdict = classify(spec)
    if verdict.certificate is None:
        assert verdict.game_class == "not_rough"
        return
    mode = "weighted" if verdict.game_class == "weighted" else "rough"
    assert verify_representation(realize(spec), verdict.certificate, mode)


@settings(max_examples=80, deadline=None)
@given(canonical_specs())
def test_hier_winning_is_monotone(spec):
    u = spec.universe()
    for x in iter_coalitions(u):
        if not hier_is_winning(spec, x):
            continue
        for i in range(u.m):
            if x.counts[i] < u.counts[i]:
                assert hier_is_winning(spec, x.with_unit(i))


@st.composite
def threshold_pairs(draw):
    # k_i must stay within the prefix population for the conjugate to exist
    m = draw(st.integers(1, 4))
    n = tuple(draw(st.integers(1, 5)) for _ in range(m))
    prefix = 0
    k = []
    for count in n:
        prefix += count
        k.append(draw(st.integers(1, prefix)))
    return n, tuple(k)


@settings(max_examples=80, deadline=None)
@given(threshold_pairs())
def test_k_star_is_involutive(pair):
    n, k = pair
    assert k_star(n, k_star(n, k)) == k


@st.composite
def linear_systems(draw):
    num_vars = draw(st.integers(1, 3))
    sys = LinearSystem(num_vars)
    for _ in range(draw(st.integers(1, 6))):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(num_vars)]
        sys.add_le(coeffs, draw(st.integers(-4, 6)))
    return sys


@settings(max_examples=60, deadline=None)
@given(linear_systems())
def test_elimination_and_pivot_engines_agree(sys):
    via_fm = fm_reference.feasible_point(sys._rows, sys.num_vars)
    via_pivot = sys.feasible_point()
    assert (via_fm is None) == (via_pivot is None)
    for pt in (via_fm, via_pivot):
        if pt is not None:
            assert all(
                sum(c * x for c, x in zip(coeffs, pt)) <= rhs
                for coeffs, rhs in sys._rows
            )


@settings(max_examples=60, deadline=None)
@given(
    st.fractions(min_value=0, max_value=10),
    st.lists(st.fractions(min_value=0, max_value=10), min_size=1, max_size=5),
)
def test_certificate_dict_round_trip(quota, weights):
    if quota == 0 and all(w == 0 for w in weights):
        quota = Fraction(1)
    cert = RoughCert(quota, tuple(weights))
    assert RoughCert.from_dict(cert.to_dict()) == cert


@settings(max_examples=40, deadline=None)
@given(canonical_specs(max_levels=2, max_count=5))
def test_realized_min_winning_matches_rule(spec):
    g = realize(spec)
    for x in iter_coalitions(g.universe):
        assert is_winning(g, x) == hier_is_winning(spec, x)
    for w in g.min_winning:
        assert hier_is_winning(spec, w)
        for i in range(g.universe.m):
            if w.counts[i] > 0:
                shrunk = Coalition(
                    tuple(c - 1 if j == i else c for j, c in enumerate(w.counts))
                )
                assert not hier_is_winning(spec, shrunk)
