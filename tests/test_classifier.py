"""Structural classifier: verdicts, case tags, certificates, notes,
agreement with the LP oracle on a small exhaustive grid, and independence
from the coalition lattice and the oracle."""

import ast
from pathlib import Path

import pytest

import case_law_reference
import hiergames.certificates
import hiergames.classifier
import hiergames.cli
from hiergames import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    NOT_ROUGH,
    ROUGH_NOT_WEIGHTED,
    WEIGHTED,
    HierSpec,
    classify,
    classify_rough,
    dual_spec,
    oracle_classify,
    realize,
    special_players,
    sweep_specs,
    verify_representation,
)

# (kind, n, k, class, case tag, certificate text, notes) all frozen; the
# certificates are the classifier's closed forms, checked against the oracle
# by test_certificates_verify
BATTERY = [
    (DISJUNCTIVE, (3, 3), (2, 3), WEIGHTED, "Thm4(2)", "[q=6; w=(3, 2)]", ()),
    (DISJUNCTIVE, (2, 4), (2, 4), ROUGH_NOT_WEIGHTED, "Thm12(ii)", "[q=1; w=(1/2, 1/4)]", ()),
    (DISJUNCTIVE, (4, 4), (3, 5), ROUGH_NOT_WEIGHTED, "Thm12(iii)", "[q=1; w=(1/3, 1/6)]", ()),
    (DISJUNCTIVE, (3, 3, 3), (2, 3, 5), ROUGH_NOT_WEIGHTED, "Thm12(vi)", "[q=1; w=(1/2, 1/2, 0)]", ()),
    (DISJUNCTIVE, (1, 2, 4), (1, 2, 4), ROUGH_NOT_WEIGHTED, "Thm12(i)", "[q=0; w=(1, 0, 0)]", ()),
    (DISJUNCTIVE, (2, 2, 2), (1, 2, 4), WEIGHTED, "Thm4(4)", "[q=2; w=(2, 1, 0)]", ()),
    (DISJUNCTIVE, (3, 2, 3), (2, 3, 4), ROUGH_NOT_WEIGHTED, "Thm12(iv)", "[q=1; w=(1/2, 1/4, 1/4)]", ()),
    (DISJUNCTIVE, (3, 2, 2), (3, 4, 5), ROUGH_NOT_WEIGHTED, "Thm12(v)", "[q=1; w=(1/3, 1/3, 0)]", ()),
    (DISJUNCTIVE, (3, 3, 3), (2, 3, 6), WEIGHTED, "Thm4(5)", "[q=6; w=(3, 2, 0)]", ()),
    (DISJUNCTIVE, (2, 2, 2, 2), (1, 2, 3, 5), WEIGHTED, "Thm4(5)", "[q=6; w=(6, 3, 2, 0)]", ()),
    (DISJUNCTIVE, (2, 4, 3), (2, 4, 7), ROUGH_NOT_WEIGHTED, "Thm12(vii)", "[q=1; w=(1/2, 1/4, 0)]", ()),
    (CONJUNCTIVE, (3, 3), (2, 4), WEIGHTED, "Thm5(3)", "[q=10; w=(3, 2)]", ()),
    (CONJUNCTIVE, (3, 3, 3), (2, 4, 5), ROUGH_NOT_WEIGHTED, "Thm13(vi)", "[q=2; w=(1/2, 1/2, 0)]", ()),
    (CONJUNCTIVE, (2, 4), (1, 3), ROUGH_NOT_WEIGHTED, "Thm13(ii)", "[q=1; w=(1/2, 1/4)]", ()),
    (CONJUNCTIVE, (2, 4, 2), (1, 3, 3), ROUGH_NOT_WEIGHTED, "Thm13(vii)", "[q=1; w=(1/2, 1/4, 0)]", ()),
    (CONJUNCTIVE, (2, 2, 2), (2, 3, 3), WEIGHTED, "Thm5(4)", "[q=5; w=(2, 1, 0)]", ()),
    (CONJUNCTIVE, (2, 3, 4), (2, 3, 6), WEIGHTED, "Thm5(4)", "[q=37; w=(12, 4, 3)]", ()),
    (CONJUNCTIVE, (3, 3, 4), (3, 5, 7), ROUGH_NOT_WEIGHTED, "Thm13(i)", "[q=3; w=(1, 0, 0)]", ()),
    (
        CONJUNCTIVE,
        (2, 2, 2),
        (1, 2, 3),
        ROUGH_NOT_WEIGHTED,
        "Thm13(iv)",
        "[q=1; w=(1/2, 1/2, 0)]",
        (
            "literal Thm13 reading gives no match but duality gives dual "
            "match iv; verdict follows duality",
        ),
    ),
    (
        CONJUNCTIVE,
        (2, 2, 3),
        (1, 2, 3),
        ROUGH_NOT_WEIGHTED,
        "Thm13(vi)",
        "[q=1; w=(1/2, 1/2, 0)]",
        (
            "literal Thm13 reading gives no match but duality gives dual "
            "match vi; verdict follows duality",
        ),
    ),
    (
        CONJUNCTIVE,
        (2, 3, 2),
        (1, 2, 3),
        NOT_ROUGH,
        "none",
        None,
        (
            "literal Thm13 reading gives case vi but duality gives no "
            "match; verdict follows duality",
        ),
    ),
]


def ids(row):
    kind, n, k = row[0], row[1], row[2]
    return f"{kind[:4]}-{n}-{k}"


class TestBattery:
    @pytest.mark.parametrize("row", BATTERY, ids=ids)
    def test_frozen_verdicts(self, row):
        kind, n, k, game_class, case, cert_text, notes = row
        v = classify(HierSpec(kind, n, k))
        assert v.game_class == game_class
        assert v.matched_case == case
        assert (str(v.certificate) if v.certificate else None) == cert_text
        assert v.notes == notes

    @pytest.mark.parametrize("row", BATTERY, ids=ids)
    def test_certificates_verify(self, row):
        kind, n, k, game_class, _, _, _ = row
        v = classify(HierSpec(kind, n, k))
        g = realize(HierSpec(kind, n, k))
        if game_class == WEIGHTED:
            assert verify_representation(g, v.certificate, "weighted")
        elif game_class == ROUGH_NOT_WEIGHTED:
            assert verify_representation(g, v.certificate, "rough")
            assert not verify_representation(g, v.certificate, "weighted")
        else:
            assert v.certificate is None

    @pytest.mark.parametrize("row", BATTERY, ids=ids)
    def test_oracle_agrees(self, row):
        kind, n, k, game_class, _, _, _ = row
        assert oracle_classify(realize(HierSpec(kind, n, k))) == game_class


class TestEntryPoints:
    def test_classify_tags_weighted_specs_only(self):
        v = classify(HierSpec(DISJUNCTIVE, (3, 3), (2, 3)))
        assert (v.game_class, v.matched_case) == (WEIGHTED, "Thm4(2)")
        v = classify(HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5)))
        assert v.game_class != WEIGHTED and not v.matched_case.startswith("Thm4")

    def test_classify_rough_equals_classify_on_non_weighted(self):
        spec = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))
        assert classify_rough(spec) == classify(spec)

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):
            classify(HierSpec(DISJUNCTIVE, (2, 4), (3, 4)))
        with pytest.raises(ValueError):
            classify(HierSpec(DISJUNCTIVE, (2, 2), (2, 5)))


class TestThm5Reference:
    def test_duality_tags_match_the_printed_thm5_list(self):
        # the classifier tags a weighted conjunctive spec by renaming its
        # dual's Thm4 case; the reference reads the Thm5 list as printed
        total = 0
        fired = set()
        for levels, nmax in ((1, 8), (2, 8), (3, 6), (4, 4), (5, 3)):
            for spec in sweep_specs(CONJUNCTIVE, levels, nmax):
                v = classify(spec)
                case = case_law_reference.weighted_case_conj(spec.n, spec.k)
                assert (v.game_class == WEIGHTED) == (case is not None), spec
                if case is not None:
                    assert v.matched_case == f"Thm5({case})", spec
                    fired.add(case)
                total += 1
        assert total == 12519
        assert fired == {1, 2, 3, 4, 5}


class TestCaseLawReference:
    @pytest.mark.parametrize("kind", [DISJUNCTIVE, CONJUNCTIVE])
    def test_classify_equals_the_fraction_built_law(self, kind):
        # the integer-numerator law against the same law built from
        # Fraction-valued certificates and carried in Fraction arithmetic
        total = 0
        for levels, nmax in ((1, 8), (2, 8), (3, 6), (4, 4), (5, 3)):
            for spec in sweep_specs(kind, levels, nmax):
                v = classify(spec)
                game_class, case, cert, notes = case_law_reference.classify_reference(spec)
                assert (v.game_class, v.matched_case, v.certificate, v.notes) == (
                    game_class, case, cert, notes
                ), spec
                if cert is not None:
                    assert str(v.certificate) == str(cert), spec
                total += 1
        assert total == 12519


class TestBuildsNoFraction:
    def test_verdicts_without_fraction(self, monkeypatch):
        # classify, str and to_dict read the certificate's int numerators:
        # with every way to a Fraction in certificates refused, the verdicts
        # still equal the Fraction-built law's
        big = HierSpec(DISJUNCTIVE, (100, 100, 100), (1, 2, 3))
        specs = [
            spec for kind in (DISJUNCTIVE, CONJUNCTIVE) for spec in sweep_specs(kind, 3, 3)
        ] + [big, dual_spec(big)]
        expected = [case_law_reference.classify_reference(spec) for spec in specs]

        def refuse(*args):
            raise AssertionError("a Fraction was built")

        monkeypatch.setattr(hiergames.certificates, "as_rational", refuse)
        monkeypatch.setattr(hiergames.certificates, "Fraction", refuse)
        verdicts = [classify(spec) for spec in specs]
        texts = [
            None if v.certificate is None else (str(v.certificate), v.certificate.to_dict())
            for v in verdicts
        ]
        monkeypatch.undo()
        assert len(specs) == 218
        for spec, v, text, (game_class, case, cert, notes) in zip(specs, verdicts, texts, expected):
            assert (v.game_class, v.matched_case, v.certificate, v.notes) == (
                game_class, case, cert, notes
            ), spec
            assert text == (None if cert is None else (str(cert), cert.to_dict())), spec


class TestCertificateShape:
    def rough_no_special(self, kind, levels, nmax):
        for spec in sweep_specs(kind, levels, nmax):
            v = classify(spec)
            if v.game_class != ROUGH_NOT_WEIGHTED:
                continue
            sp = special_players(realize(spec))
            if sp.passers or sp.dummies:
                continue
            yield spec, v

    def test_disjunctive_rough_weights_monotone(self):
        # levels are ordered: certificates must not pay a lower level more
        seen = 0
        for spec, v in self.rough_no_special(DISJUNCTIVE, 3, 3):
            w = v.certificate.weights
            assert all(a >= b for a, b in zip(w, w[1:])), spec
            assert all(x > 0 for x in w[:-1]), spec
            seen += 1
        assert seen > 0


class TestGridAgreement:
    @pytest.mark.parametrize("kind", [DISJUNCTIVE, CONJUNCTIVE])
    def test_two_level_grid_matches_oracle(self, kind):
        total = 0
        for spec in sweep_specs(kind, 2, 4):
            v = classify(spec)
            assert v.game_class == oracle_classify(realize(spec)), spec
            total += 1
        assert total == 100


class TestDeepCertificates:
    def test_four_and_five_level_certificates_verify(self):
        # the case-5 and (vii) recursions, and their carry across duality,
        # on every spec of the 4-level n <= 3 and 5-level n <= 2 grids
        seen = {WEIGHTED: 0, ROUGH_NOT_WEIGHTED: 0, NOT_ROUGH: 0}
        for kind in (DISJUNCTIVE, CONJUNCTIVE):
            for levels, nmax in ((4, 3), (5, 2)):
                for spec in sweep_specs(kind, levels, nmax):
                    v = classify(spec)
                    seen[v.game_class] += 1
                    if v.game_class == NOT_ROUGH:
                        assert v.certificate is None, spec
                        continue
                    g = realize(spec)
                    if v.game_class == WEIGHTED:
                        assert verify_representation(g, v.certificate, "weighted"), spec
                    else:
                        assert verify_representation(g, v.certificate, "rough"), spec
                        assert not verify_representation(g, v.certificate, "weighted"), spec
        assert seen == {WEIGHTED: 162, ROUGH_NOT_WEIGHTED: 258, NOT_ROUGH: 246}


class TestOffLattice:
    def test_classify_never_touches_the_lattice(self, off_lattice):
        specs = [
            spec
            for kind in (DISJUNCTIVE, CONJUNCTIVE)
            for levels in (1, 2, 3, 4)
            for spec in sweep_specs(kind, levels, 3)
        ]
        big = HierSpec(DISJUNCTIVE, (100, 100, 100), (1, 2, 3))
        for spec in specs:
            v = classify(spec)
            assert (v.certificate is None) == (v.game_class == NOT_ROUGH), spec
        v = classify(big)
        assert (v.game_class, v.matched_case, str(v.certificate)) == (
            WEIGHTED,
            "Thm4(4)",
            "[q=6; w=(6, 3, 2)]",
        )
        v = classify(dual_spec(big))  # H_A((100,100,100),(100,199,298))
        assert (v.game_class, v.matched_case, str(v.certificate)) == (
            WEIGHTED,
            "Thm5(4)",
            "[q=1095; w=(6, 3, 2)]",
        )

    def test_classifier_imports_nothing_from_the_oracle(self):
        tree = ast.parse(Path(hiergames.classifier.__file__).read_text(encoding="utf-8"))
        modules, names = [], []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules.append(node.module or "")
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules += [alias.name for alias in node.names]
        assert not [m for m in modules + names if "oracle" in m.split(".")]
        lattice = {"realize", "iter_coalitions", "maximal_losing", "EnumerationCapError"}
        assert not lattice & set(names)

    def test_cli_imports_no_oracle_solver_or_check(self):
        # the cascade, the certificate modes and the agreement rule live in
        # oracle and harness; the CLI names none of their parts
        tree = ast.parse(Path(hiergames.cli.__file__).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.split(".")[-1] for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not names & {"oracle_weighted", "oracle_rough", "verify_representation"}
