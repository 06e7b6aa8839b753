"""Acceptance gate: the eight cross-validation criteria.

Each test prints exactly one pass/fail line on the real terminal (pytest's
capture is bypassed) so a full run reads as a checklist. All checks are
exact; no tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction

from hiergames import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    NOT_ROUGH,
    ROUGH_NOT_WEIGHTED,
    WEIGHTED,
    Coalition,
    HierSpec,
    MinorStep,
    RoughCert,
    classify,
    dual_explicit,
    dual_spec,
    extremal_weight,
    minor,
    oracle_classify,
    oracle_rough,
    realize,
    run_sweep,
    shift_maximal_losing,
    special_players,
    sweep_specs,
    verify_representation,
)
from hiergames.cli import main as cli_main
from hiergames.transforms import REDUCED, SUBGAME

EXAMPLE = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))


def announce(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {label}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{label}: {detail}"


def no_passers_or_dummies(spec):
    sp = special_players(realize(spec))
    return not sp.passers and not sp.dummies


def two_level_rough_law(spec):
    # closed two-level law: rough-but-not-weighted iff k = (2, 4) with
    # n_1 >= 2, n_2 >= 4, or k = (k, k+2) with k > 2, n_1 >= k, n_2 = 4
    (n1, n2), (k1, k2) = spec.n, spec.k
    if (k1, k2) == (2, 4) and n1 >= 2 and n2 >= 4:
        return True
    return k2 == k1 + 2 and k1 > 2 and n1 >= k1 and n2 == 4


def test_criterion_1_two_level_exhaustive(capsys):
    started = time.monotonic()
    rep = run_sweep(DISJUNCTIVE, 2, 6)
    rough = {r.spec for r in rep.records if r.verdict.game_class == ROUGH_NOT_WEIGHTED}
    expected = {s for s in sweep_specs(DISJUNCTIVE, 2, 6) if two_level_rough_law(s)}
    elapsed = time.monotonic() - started
    ok = (
        len(rep.records) == 441
        and rep.all_agree
        and all(r.cert_verified is not False for r in rep.records)
        and rough == expected
        and elapsed < 60.0
    )
    announce(
        capsys,
        "criterion 1 (two-level exhaustive cross-check)",
        ok,
        f"{len(rep.records)} specs, disagreements={len(rep.disagreements)}, "
        f"rough={len(rough)} vs closed law {len(expected)}, {elapsed:.1f}s",
    )


def test_criterion_2_three_level_cross_check(capsys):
    started = time.monotonic()
    rep = run_sweep(DISJUNCTIVE, 3, 4)
    allowed = {"Thm12(iv)", "Thm12(v)", "Thm12(vi)"}
    stray = [
        r.spec
        for r in rep.records
        if r.verdict.game_class == ROUGH_NOT_WEIGHTED
        and no_passers_or_dummies(r.spec)
        and r.verdict.matched_case not in allowed
    ]
    elapsed = time.monotonic() - started
    ok = (
        len(rep.records) == 600
        and rep.all_agree
        and all(r.cert_verified is not False for r in rep.records)
        and not stray
        and elapsed < 600.0
    )
    announce(
        capsys,
        "criterion 2 (three-level cross-check)",
        ok,
        f"{len(rep.records)} specs, disagreements={len(rep.disagreements)}, "
        f"cases outside iv-vi={len(stray)}, {elapsed:.1f}s",
    )


def test_criterion_3_conjunctive_duals(capsys):
    started = time.monotonic()
    pool = list(sweep_specs(DISJUNCTIVE, 2, 6)) + list(sweep_specs(DISJUNCTIVE, 3, 4))
    class_mismatches = 0
    oracle_mismatches = 0
    for spec in pool:
        verdict = classify(spec)
        dual_verdict = classify(dual_spec(spec))
        if dual_verdict.game_class != verdict.game_class:
            class_mismatches += 1
            continue
        dual_game = dual_explicit(realize(spec))
        dual_rough = oracle_rough(dual_game) is not None
        if dual_rough != (verdict.game_class != NOT_ROUGH):
            oracle_mismatches += 1
        if dual_verdict.certificate is not None:
            mode = "weighted" if dual_verdict.game_class == WEIGHTED else "rough"
            if not verify_representation(dual_game, dual_verdict.certificate, mode):
                oracle_mismatches += 1
    elapsed = time.monotonic() - started
    ok = class_mismatches == 0 and oracle_mismatches == 0
    announce(
        capsys,
        "criterion 3 (conjunctive duals agree)",
        ok,
        f"{len(pool)} specs, class mismatches={class_mismatches}, "
        f"oracle mismatches={oracle_mismatches}, {elapsed:.1f}s",
    )


def test_criterion_4_forced_zero_weight(capsys):
    started = time.monotonic()
    game = realize(EXAMPLE)
    top = extremal_weight(game, (0, 0, 1), "max")
    cert = RoughCert(1, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    cert_ok = verify_representation(game, cert, "rough")
    elapsed = time.monotonic() - started
    ok = top == 0 and cert_ok and elapsed < 1.0
    announce(
        capsys,
        "criterion 4 (forced zero weight on the bottom level)",
        ok,
        f"max w3 = {top}, cert [q=1; w=(1/2, 1/2, 0)] verified={cert_ok}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_5_saturation_law(capsys):
    started = time.monotonic()
    pool = list(sweep_specs(DISJUNCTIVE, 2, 6)) + list(sweep_specs(DISJUNCTIVE, 3, 4))
    checked = 0
    violations = []
    for spec in pool:
        verdict = classify(spec)
        if verdict.game_class != ROUGH_NOT_WEIGHTED or not no_passers_or_dummies(spec):
            continue
        m_coalition = shift_maximal_losing(spec)
        value = extremal_weight(realize(spec), m_coalition.counts, "min")
        checked += 1
        if value != 1:
            violations.append((spec, value))
    elapsed = time.monotonic() - started
    ok = checked > 0 and not violations
    announce(
        capsys,
        "criterion 5 (shift-maximal losing coalition saturates the quota)",
        ok,
        f"min w(M) == 1 on {checked} rough specs, violations={len(violations)}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_four_and_five_level_impossibility(capsys):
    # the impossibility is quantified over passer/dummy-free games; their
    # duals (blocker/dummy-free, the only way the condition can transfer to
    # the conjunctive kind) are run through both routes as well
    started = time.monotonic()
    checked = 0
    failures = []
    for levels in (4, 5):
        for spec in sweep_specs(DISJUNCTIVE, levels, 3):
            if not no_passers_or_dummies(spec):
                continue
            for side in (spec, dual_spec(spec)):
                checked += 1
                by_classifier = classify(side).game_class
                by_oracle = oracle_classify(realize(side))
                if by_classifier != NOT_ROUGH or by_oracle != NOT_ROUGH:
                    failures.append((side, by_classifier, by_oracle))
    elapsed = time.monotonic() - started
    ok = checked > 0 and not failures and elapsed < 600.0
    announce(
        capsys,
        "criterion 6 (no rough games past three levels)",
        ok,
        f"{checked} specs over m=4,5 (passer/dummy-free and their duals), "
        f"failures={len(failures)}, {elapsed:.1f}s",
    )


def test_criterion_7_structural_scan(capsys):
    started = time.monotonic()
    universes = [(a, b) for a in range(1, 6) for b in range(1, 6) if a + b <= 6]
    failures = []
    for a, b in universes:
        code = cli_main(["structural", "--universe", f"{a},{b}", "--json"])
        payload = json.loads(capsys.readouterr().out)
        if (
            code != 0
            or not payload["holds"]
            or payload["unique_shift_max_losing"] != payload["disjunctive_hierarchical"]
        ):
            failures.append((a, b))
    elapsed = time.monotonic() - started
    ok = len(universes) == 15 and not failures
    announce(
        capsys,
        "criterion 7 (unique shift-maximal losing == hierarchical, desk scale)",
        ok,
        f"{len(universes)} universes, failures={len(failures)}, {elapsed:.1f}s",
    )


def _transferable_removal(rng, game, cert):
    counts = game.universe.counts
    for _ in range(80):
        removal = tuple(rng.randint(0, c) for c in counts)
        if not any(removal):
            continue
        if all(r == c for r, c in zip(removal, counts)):
            continue
        if cert is not None:
            keep = [i for i, (r, c) in enumerate(zip(removal, counts)) if c - r > 0]
            surviving = tuple(cert.weights[i] for i in keep)
            removed_weight = sum(
                w * r for w, r in zip(cert.weights, removal)
            )
            if cert.quota == 0 and not any(surviving):
                continue
            if max(0, cert.quota - removed_weight) == 0 and not any(surviving):
                continue
        return removal
    return None


def test_criterion_8_duality_and_minor_algebra(capsys):
    started = time.monotonic()
    rng = random.Random(48151623)
    pool = (
        list(sweep_specs(DISJUNCTIVE, 2, 6))
        + list(sweep_specs(CONJUNCTIVE, 2, 6))
        + list(sweep_specs(DISJUNCTIVE, 3, 4))
        + list(sweep_specs(CONJUNCTIVE, 3, 4))
    )
    sample = rng.sample(pool, 200)
    involution_failures = 0
    swap_failures = 0
    transfer_failures = 0
    transfers = 0
    for spec in sample:
        game = realize(spec)
        if dual_explicit(dual_explicit(game)) != game:
            involution_failures += 1
            continue
        cert = classify(spec).certificate
        removal = _transferable_removal(rng, game, cert)
        assert removal is not None, f"no usable removal for {spec}"
        step_a = MinorStep(SUBGAME, Coalition(removal))
        step_b = MinorStep(REDUCED, Coalition(removal))
        sub = minor(game, step_a)
        red = minor(game, step_b)
        # dual of a subgame is the reduced game of the dual (and vice versa)
        if dual_explicit(sub) != minor(dual_explicit(game), step_b):
            swap_failures += 1
            continue
        if dual_explicit(red) != minor(dual_explicit(game), step_a):
            swap_failures += 1
            continue
        if cert is None:
            continue
        # weight transfer: a rough certificate restricts to any minor, with
        # the quota lowered by the handed-in weight for reduced games
        keep = [
            i
            for i, (r, c) in enumerate(zip(removal, game.universe.counts))
            if c - r > 0
        ]
        surviving = tuple(cert.weights[i] for i in keep)
        removed_weight = sum(w * r for w, r in zip(cert.weights, removal))
        transfers += 1
        if not verify_representation(sub, RoughCert(cert.quota, surviving), "rough"):
            transfer_failures += 1
            continue
        reduced_quota = max(0, cert.quota - removed_weight)
        if not verify_representation(red, RoughCert(reduced_quota, surviving), "rough"):
            transfer_failures += 1
    elapsed = time.monotonic() - started
    ok = involution_failures == 0 and swap_failures == 0 and transfer_failures == 0
    announce(
        capsys,
        "criterion 8 (duality and minor algebra on sampled games)",
        ok,
        f"200 games, involution failures={involution_failures}, "
        f"dual/minor swap failures={swap_failures}, "
        f"certificate transfers={transfers} with {transfer_failures} failures, "
        f"{elapsed:.1f}s",
    )
