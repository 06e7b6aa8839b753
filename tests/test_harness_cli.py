"""Sweep/scan harness and the command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hiergames
import lattice_reference as ref
from hiergames import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    HierSpec,
    Multiset,
    SweepRecord,
    Verdict,
    canon_check,
    classify,
    harness,
    parse_document,
    realize,
    run_sweep,
    structural_scan,
    sweep_specs,
)
from hiergames.cli import main

EXAMPLE_DOC = {"kind": "disjunctive", "n": [3, 3, 3], "k": [2, 3, 5]}
# 10^18 coalitions, far past the enumeration cap; levels 1 and 2 merge
BIG_DOC = {"kind": "disjunctive", "n": [10**6] * 3, "k": [10**6 + 5, 2 * 10**6, 3 * 10**6 + 7]}
BIG_CANONICAL = {"kind": "disjunctive", "n": [2 * 10**6, 10**6], "k": [2 * 10**6, 3 * 10**6]}


class TestSweepSpecs:
    def test_two_level_grid_size(self):
        # one spec per (n1, n2, k1, delta): (1+...+6)^2
        assert sum(1 for _ in sweep_specs(DISJUNCTIVE, 2, 6)) == 441
        assert sum(1 for _ in sweep_specs(CONJUNCTIVE, 2, 6)) == 441

    def test_three_level_grid_size(self):
        assert sum(1 for _ in sweep_specs(DISJUNCTIVE, 3, 3)) == 108
        assert sum(1 for _ in sweep_specs(CONJUNCTIVE, 3, 3)) == 108

    @pytest.mark.parametrize("kind", [DISJUNCTIVE, CONJUNCTIVE])
    def test_specs_are_canonical_and_unique(self, kind):
        seen = set()
        for spec in sweep_specs(kind, 3, 3):
            assert spec.kind == kind and spec.m == 3
            assert canon_check(spec).canonical, spec
            assert spec not in seen
            seen.add(spec)

    def test_kmax_caps_top_threshold(self):
        specs = list(sweep_specs(DISJUNCTIVE, 2, 4, kmax=3))
        assert len(specs) == 40
        assert all(s.k[-1] <= 3 for s in specs)

    def test_non_canonical_grid_spec_is_a_bug(self, monkeypatch):
        # the grid is canonical by construction; the guard catches a broken one
        monkeypatch.setattr(harness, "_is_canonical", lambda spec: False)
        with pytest.raises(RuntimeError, match="sweep grid produced non-canonical H_E"):
            list(sweep_specs(DISJUNCTIVE, 1, 1))

    @pytest.mark.parametrize("kmax", [0, -1])
    def test_kmax_below_one_rejected(self, kmax):
        # every threshold is >= 1, so such a cap could only give an empty sweep
        with pytest.raises(ValueError, match="kmax must be >= 1"):
            list(sweep_specs(DISJUNCTIVE, 2, 4, kmax=kmax))


class TestRunSweep:
    def test_classify_rough_called_once_per_spec(self, monkeypatch):
        # perfbench times each spec by wrapping harness.classify_rough, so
        # the sweep must make exactly one such call per spec
        calls = []
        real = harness.classify_rough

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(harness, "classify_rough", counting)
        rep = run_sweep(CONJUNCTIVE, 3, 2)
        assert len(rep.records) == 9
        assert calls == [r.spec for r in rep.records]

    def test_small_grid_agrees_with_oracle(self):
        rep = run_sweep(DISJUNCTIVE, 2, 3)
        assert len(rep.records) == 36
        assert rep.all_agree
        assert rep.disagreements == ()
        assert rep.class_counts() == {"weighted": 36}
        assert all(r.skipped is None for r in rep.records)
        assert all(r.cert_verified for r in rep.records)

    def test_oracle_can_be_skipped(self):
        rep = run_sweep(CONJUNCTIVE, 2, 2, oracle=False)
        assert rep.all_agree
        assert all(r.oracle_class is None for r in rep.records)


class TestStructuralScan:
    # (universe, games, complete, unique shift-max losing == disjunctive
    # hierarchical, unique shift-min winning == conjunctive hierarchical)
    FROZEN = [
        ((1, 1), 4, 4, 4, 4),
        ((1, 2), 8, 8, 7, 7),
        ((1, 3), 13, 13, 10, 10),
        ((2, 2), 18, 16, 12, 12),
    ]

    @pytest.mark.parametrize("row", FROZEN, ids=lambda r: str(r[0]))
    def test_frozen_counts(self, row):
        counts, total, complete, disj, conj = row
        rep = structural_scan(Multiset(counts))
        assert rep.total_games == total
        assert rep.complete_games == complete
        assert rep.unique_shift_max_losing == disj
        assert rep.disjunctive_hierarchical == disj
        assert rep.unique_shift_min_winning == conj
        assert rep.conjunctive_hierarchical == conj
        assert rep.holds

    def test_strict_games_once_per_class_sizes(self, monkeypatch):
        # the complete games of each distinct class-size tuple are generated
        # once, however many ordered partitions of the levels share it
        calls = []
        real = harness._strict_games

        def counting(sizes):
            calls.append(sizes)
            return real(sizes)

        monkeypatch.setattr(harness, "_strict_games", counting)
        rep = structural_scan(Multiset((2, 2, 2)))
        assert (rep.total_games, rep.complete_games) == (978, 378) and rep.holds
        assert sorted(calls) == [(2, 2, 2), (2, 4), (4, 2), (6,)]

    def test_reach(self):
        # the counts of the walk that built and tested all 232,846 games
        rep = structural_scan(Multiset((3, 3, 3)))
        assert (rep.total_games, rep.complete_games) == (232846, 8004)
        assert rep.unique_shift_max_losing == rep.disjunctive_hierarchical == 225
        assert rep.unique_shift_min_winning == rep.conjunctive_hierarchical == 225
        assert rep.holds


def write_doc(tmp_path, data, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestCliClassify:
    def test_spec_document(self, tmp_path, capsys):
        assert main(["classify", write_doc(tmp_path, EXAMPLE_DOC)]) == 0
        out = capsys.readouterr().out
        assert "class: rough_not_weighted" in out
        assert "case: Thm12(vi)" in out
        assert "certificate: [q=1; w=(1/2, 1/2, 0)]" in out

    def test_json_output_with_oracle(self, tmp_path, capsys):
        code = main(["classify", write_doc(tmp_path, EXAMPLE_DOC), "--oracle", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "rough_not_weighted"
        assert payload["case"] == "Thm12(vi)"
        assert payload["certificate"] == {"quota": "1", "weights": ["1/2", "1/2", "0"]}
        assert payload["oracle"] == {
            "class": "rough_not_weighted",
            "certificate_verified": True,
        }
        assert payload["agree"] is True

    def test_explicit_document_uses_oracle(self, tmp_path, capsys):
        doc = {"universe": [2, 2], "min_winning": [[2, 0], [1, 2]]}
        assert main(["classify", write_doc(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "weighted"
        assert payload["case"] == "oracle"
        assert payload["certificate_verified"] is True
        assert any("LP oracle" in note for note in payload["notes"])

    def test_non_canonical_needs_flag(self, tmp_path, capsys):
        doc = {"kind": "disjunctive", "n": [2, 2], "k": [2, 5]}
        path = write_doc(tmp_path, doc)
        assert main(["classify", path]) == 2
        assert "canonical" in capsys.readouterr().err
        assert main(["classify", path, "--canonicalize", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == {"kind": "disjunctive", "n": [2, 2], "k": [2, 4]}
        assert any("canonicalized" in note for note in payload["notes"])

    def test_canonicalize_at_any_size(self, tmp_path, capsys):
        assert main(["classify", write_doc(tmp_path, BIG_DOC), "--canonicalize", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"] == BIG_CANONICAL
        assert "level_classes=[0, 0, 1]" in payload["notes"][0]

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(EXAMPLE_DOC)))
        assert main(["classify", "-"]) == 0
        assert "rough_not_weighted" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "doc,oracle_line",
        [
            (EXAMPLE_DOC, "oracle: rough_not_weighted (agree)\n"),
            ({"universe": [2, 2], "min_winning": [[1, 1]]}, ""),
        ],
        ids=["spec", "explicit"],
    )
    def test_refuted_certificate_exits_1(self, doc, oracle_line, tmp_path, capsys, monkeypatch):
        # the same check line and exit rule for spec and explicit documents
        monkeypatch.setattr(harness, "verify_representation", lambda game, cert, mode: False)
        assert main(["classify", write_doc(tmp_path, doc), "--oracle"]) == 1
        out = capsys.readouterr().out
        assert f"{oracle_line}certificate check: INVALID\n" in out


class TestAgreementRule:
    SPEC = HierSpec(DISJUNCTIVE, (3, 3, 3), (2, 3, 5))

    def test_classes_equal_and_certificate_not_refuted(self):
        verdict = classify(self.SPEC)  # rough_not_weighted, with a certificate
        rough = "rough_not_weighted"
        assert harness.agrees(verdict, rough, True)
        assert harness.agrees(verdict, rough, None)
        assert harness.agrees(verdict, None, None)
        assert not harness.agrees(verdict, "weighted", True)
        assert not harness.agrees(verdict, rough, False)
        assert not harness.agrees(verdict, None, False)

    def test_sweep_record_reads_the_rule(self):
        verdict = classify(self.SPEC)
        assert SweepRecord(self.SPEC, verdict, "rough_not_weighted", True).agree
        assert not SweepRecord(self.SPEC, verdict, "rough_not_weighted", False).agree
        assert not SweepRecord(self.SPEC, verdict, "not_rough", None).agree
        assert SweepRecord(self.SPEC, verdict, None, None, "over the cap").agree

    def test_certificate_checked_in_the_class_mode(self):
        game = realize(self.SPEC)
        verdict = classify(self.SPEC)
        assert harness.certificate_holds(game, verdict) is True
        as_weighted = Verdict("weighted", verdict.matched_case, verdict.certificate)
        assert harness.certificate_holds(game, as_weighted) is False
        assert harness.certificate_holds(game, Verdict("not_rough", "none", None)) is None


class TestCliDual:
    def test_spec_dual(self, tmp_path, capsys):
        assert main(["dual", write_doc(tmp_path, EXAMPLE_DOC)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"kind": "conjunctive", "n": [3, 3, 3], "k": [2, 4, 5]}

    def test_explicit_dual_round_trip(self, tmp_path, capsys):
        doc = {"universe": [2, 2], "min_winning": [[2, 0], [1, 2]]}
        assert main(["dual", write_doc(tmp_path, doc)]) == 0
        once = json.loads(capsys.readouterr().out)
        assert main(["dual", write_doc(tmp_path, once, "again.json")]) == 0
        twice = json.loads(capsys.readouterr().out)
        assert twice == {"universe": [2, 2], "min_winning": [[1, 2], [2, 0]]}


    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "conjunctive", "n": [2, 2], "k": [2, 4]},
            {"kind": "disjunctive", "n": [2, 2], "k": [2, 5]},
        ],
    )
    def test_non_canonical_spec_has_no_dual(self, doc, tmp_path, capsys):
        assert main(["dual", write_doc(tmp_path, doc)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        spec = parse_document(doc).spec
        assert out.err == (
            f"error: {spec} is not canonical, so it has no dual spec on its levels; "
            "canon gives its canonical form\n"
        )


class TestCliCanon:
    def test_report_fields(self, tmp_path, capsys):
        doc = {"kind": "disjunctive", "n": [2, 2], "k": [2, 5]}
        assert main(["canon", write_doc(tmp_path, doc), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["canonical"] is False
        assert payload["condition_a"] is True
        assert payload["canonical_spec"] == {
            "kind": "disjunctive",
            "n": [2, 2],
            "k": [2, 4],
        }
        assert payload["level_classes"] == [0, 1]

    def test_any_size(self, tmp_path, capsys):
        assert main(["canon", write_doc(tmp_path, BIG_DOC), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["canonical_spec"] == BIG_CANONICAL
        assert payload["level_classes"] == [0, 0, 1]
        assert payload["dummy_last_level"] is True

    def test_needs_spec_document(self, tmp_path, capsys):
        doc = {"universe": [2], "min_winning": [[1]]}
        assert main(["canon", write_doc(tmp_path, doc)]) == 2


class TestCliMinor:
    def test_named_minor(self, tmp_path, capsys):
        path = write_doc(tmp_path, EXAMPLE_DOC)
        assert main(["minor", path, "--op", "cut_tail"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"kind": "disjunctive", "n": [3, 3], "k": [2, 3]}

    def test_remove_one_index_form(self, tmp_path, capsys):
        path = write_doc(tmp_path, EXAMPLE_DOC)
        assert main(["minor", path, "--op", "remove_one:1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"kind": "disjunctive", "n": [2, 3, 3], "k": [1, 2, 4]}

    def test_custom_minor(self, tmp_path, capsys):
        doc = {"universe": [2, 2], "min_winning": [[2, 0], [1, 2]]}
        path = write_doc(tmp_path, doc)
        code = main(["minor", path, "--op", "custom", "--A", "0,1", "--step", "reduced"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"universe": [2, 1], "min_winning": [[1, 1], [2, 0]]}

    def test_inapplicable_named_minor(self, tmp_path, capsys):
        doc = {"kind": "disjunctive", "n": [3, 3], "k": [2, 3]}
        assert main(["minor", write_doc(tmp_path, doc), "--op", "remove_one:2"]) == 2

    def test_custom_requires_arguments(self, tmp_path, capsys):
        assert main(["minor", write_doc(tmp_path, EXAMPLE_DOC), "--op", "custom"]) == 2

    @pytest.mark.parametrize(
        "extra",
        [["--A", "1,0,0"], ["--step", "reduced"], ["--A", "1,0,0", "--step", "subgame"]],
        ids=["A", "step", "both"],
    )
    def test_named_minor_refuses_custom_arguments(self, tmp_path, capsys, extra):
        # cut_tail once ignored them, printed its own minor and exited 0
        path = write_doc(tmp_path, EXAMPLE_DOC)
        assert main(["minor", path, "--op", "cut_tail", *extra]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "--A and --step apply only to --op custom" in out.err

    def test_named_minor_needs_spec_document(self, tmp_path, capsys):
        doc = {"universe": [2, 2], "min_winning": [[2, 0], [1, 2]]}
        assert main(["minor", write_doc(tmp_path, doc), "--op", "cut_tail"]) == 2
        assert "named minors need a spec document" in capsys.readouterr().err


class TestCliSweepStructural:
    def test_sweep_json(self, capsys):
        code = main(
            ["sweep", "--kind", "disjunctive", "--levels", "2", "--nmax", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 9
        assert payload["disagreements"] == 0
        assert payload["class_counts"] == {"weighted": 9}
        assert len(payload["records"]) == 9

    def test_structural_scan(self, capsys):
        assert main(["structural", "--universe", "1,2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_games"] == 8
        assert payload["holds"] is True

    SWEEP = ["sweep", "--kind", "disjunctive", "--levels", "2", "--nmax", "2"]

    def test_sweep_text_reports_skipped_specs(self, capsys, monkeypatch):
        # only the 4-coalition lattice of n = (1, 1) fits under the cap
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "5")
        assert main(self.SWEEP) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  skipped (enumeration cap): 8" in lines
        assert lines[-1] == "  disagreements: 0"

    def test_sweep_text_reports_disagreements(self, capsys, monkeypatch):
        monkeypatch.setattr(harness, "oracle_classify", lambda game: "not_rough")
        assert main(self.SWEEP) == 1
        lines = capsys.readouterr().out.splitlines()
        disagree = [line for line in lines if line.startswith("  DISAGREE: ")]
        assert len(disagree) == 9
        assert all(
            line.endswith(" classifier=weighted oracle=not_rough cert_verified=True")
            for line in disagree
        )
        assert lines[-1] == "  disagreements: 9"

    @pytest.mark.parametrize(
        "kind,extremal",
        [("disjunctive", "shift-max losing"), ("conjunctive", "shift-min winning")],
        ids=["disjunctive", "conjunctive"],
    )
    def test_structural_reports_mismatches(self, capsys, monkeypatch, kind, extremal):
        # with one kind's recovery refused, each of the 7 complete games with
        # a unique shift-extremal coalition of that kind is a mismatch
        monkeypatch.setattr(harness, f"recover_{kind}", lambda game: None)
        assert main(["structural", "--universe", "1,2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "equivalences hold: False" in lines
        mismatches = [line for line in lines if line.startswith("  MISMATCH: universe=")]
        assert len(mismatches) == 7
        assert all(
            line.endswith(f" but {kind} recovery=None")
            and f"unique {extremal}=True" in line
            for line in mismatches
        )

    @pytest.mark.parametrize(
        "kind,extremal",
        [("disjunctive", "shift-max losing"), ("conjunctive", "shift-min winning")],
        ids=["disjunctive", "conjunctive"],
    )
    def test_structural_mismatches_per_game(self, capsys, monkeypatch, kind, extremal):
        # on (2,2,2) the 378 complete games merge to 86 distinct games; the
        # shift-extremal search and each recovery run once per merged game,
        # yet every complete game with a unique shift-extremal coalition of
        # the refused kind gets its own line naming its own min_winning
        universe = Multiset((2, 2, 2))
        calls = {"shift_extremal": [], "recover_disjunctive": [], "recover_conjunctive": []}

        def counted(name, run):
            def counting(game):
                calls[name].append(game)
                return run(game)

            return counting

        for name in calls:
            run = (lambda game: None) if name == f"recover_{kind}" else getattr(harness, name)
            monkeypatch.setattr(harness, name, counted(name, run))
        assert main(["structural", "--universe", "2,2,2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        expected = []
        merged = set()
        for game, classes in ref.complete_games(universe):
            merged_game = ref.merge_levels(game, classes)
            merged.add(merged_game)
            found = ref.shift_extremal(merged_game)
            side = found.shift_max_losing if kind == DISJUNCTIVE else found.shift_min_winning
            if len(side) == 1:
                expected.append(
                    f"  MISMATCH: universe={universe}"
                    f" min_winning={sorted(w.counts for w in game.min_winning)}:"
                    f" unique {extremal}=True but {kind} recovery=None"
                )
        assert len(merged) == 86
        assert [line for line in lines if line.startswith("  MISMATCH: ")] == expected
        assert len(expected) == len(set(expected)) == 78
        for name, games in calls.items():
            assert len(games) == len(set(games)) == len(merged), name
            assert set(games) == merged, name


class TestCliErrors:
    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/doc.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["classify", str(path)]) == 2

    def test_repeated_key(self, capsys, monkeypatch):
        # once classified H_E(n=(5,), k=(2,)), the last "n", and exited 0
        text = '{"kind":"disjunctive","n":[3],"k":[2],"n":[5]}'
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["classify", "-"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "repeats the key 'n'" in out.err

    def test_deeply_nested_json(self, tmp_path, capsys):
        # the decoder runs out of recursion long before the end of the file
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["classify", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_sweep_kind(self, capsys):
        code = main(["sweep", "--kind", "both", "--levels", "2", "--nmax", "2"])
        assert code == 2

    def test_sweep_kmax_below_one_rejected(self, capsys):
        # once printed an empty sweep and exited 0
        code = main(["sweep", "--kind", "disjunctive", "--levels", "2", "--nmax", "2",
                     "--kmax", "-1", "--json"])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == "" and "kmax must be >= 1" in out.err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--levels", "1_0"),
            ("--nmax", "+3"),
            ("--nmax", "\uff13"),
            ("--nmax", "3 0"),
            ("--kmax", "1_0"),
        ],
        ids=["levels-underscore", "nmax-plus", "nmax-fullwidth", "nmax-inner-space",
             "kmax-underscore"],
    )
    def test_sweep_coercible_flags_rejected(self, capsys, flag, value):
        # int() read the first, second, third and last as 10, 3, 3 and 10,
        # and the sweep ran with exit 0
        flags = {"--levels": "1", "--nmax": "1", flag: value}
        argv = ["sweep", "--kind", "disjunctive", *(x for kv in flags.items() for x in kv)]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"argument {flag}: expected an integer, got {value!r}" in out.err

    def test_sweep_flag_spaces_allowed(self, capsys):
        argv = ["sweep", "--kind", "disjunctive", "--levels", " 1 ", "--nmax", "2 ", "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 3

    @pytest.mark.parametrize(
        "n", [[3.9, 3, 3], "333", [True, 3, 3]], ids=["float", "string", "bool"]
    )
    def test_coercible_counts_rejected(self, tmp_path, capsys, n):
        # int() would turn each of these into the counts of another game
        doc = dict(EXAMPLE_DOC, n=n)
        assert main(["classify", write_doc(tmp_path, doc)]) == 2
        assert "must be ints" in capsys.readouterr().err

    def test_coerced_enum_cap_rejected(self, tmp_path, capsys, monkeypatch):
        # int() once read "6_4" as 64, the example's lattice size, and ran
        monkeypatch.setenv("HIERGAME_ENUM_CAP", "6_4")
        assert main(["classify", write_doc(tmp_path, EXAMPLE_DOC), "--oracle"]) == 2
        assert "HIERGAME_ENUM_CAP must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["structural", "--universe", "2,,1"],
            ["structural", "--universe", "2,1,"],
            ["structural", "--universe", "2 1"],
            ["structural", "--universe", "1_1"],
            ["minor", None, "--op", "custom", "--A", "1,,0", "--step", "subgame"],
        ],
        ids=[
            "structural-inner",
            "structural-trailing",
            "structural-no-comma",
            "structural-underscore",
            "minor",
        ],
    )
    def test_malformed_count_fields_rejected(self, tmp_path, capsys, argv):
        # each of these once ran silently on other counts: (2,1), (2,1),
        # (21,), (11,) and (1,0)
        argv = [write_doc(tmp_path, EXAMPLE_DOC) if a is None else a for a in argv]
        assert main(argv) == 2
        assert "comma-separated nonnegative integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "op,error",
        [
            ("remove_one:0_1", "comma-separated nonnegative integers"),
            ("remove_one:+1", "comma-separated nonnegative integers"),
            ("remove_one:\uff11", "comma-separated nonnegative integers"),
            ("remove_one:", "comma-separated nonnegative integers"),
            ("remove_one:1,2", "is not applicable"),
        ],
        ids=["underscore", "plus", "fullwidth", "empty", "list"],
    )
    def test_malformed_remove_one_index_rejected(self, tmp_path, capsys, op, error):
        # int() read the first three as level 1, and the minor ran with exit 0
        assert main(["minor", write_doc(tmp_path, EXAMPLE_DOC), "--op", op]) == 2
        assert error in capsys.readouterr().err

    def test_spaces_around_commas_allowed(self, capsys):
        assert main(["structural", "--universe", " 1 , 2 ", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["universe"] == [1, 2]


class TestOptimizedMode:
    # invariant checks are explicit raises, so python -O drops none of them.
    # An -O pytest run strips the test asserts themselves; these subprocess
    # comparisons are the suite's -O check.
    def run_both(self, *args):
        src = str(Path(hiergames.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "hiergames", *args],
                capture_output=True, text=True, env=env, check=False,
            )
            for flags in ([], ["-O"])
        ]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout
        return json.loads(runs[0].stdout)

    def test_classify_oracle_same_under_dash_O(self, tmp_path):
        path = write_doc(tmp_path, {"kind": "disjunctive", "n": [3, 3, 3], "k": [1, 2, 3]})
        assert self.run_both("classify", path, "--oracle", "--json")["class"] == "weighted"

    @pytest.mark.parametrize(
        "k, case", [([2, 3], "Thm5(2)"), ([2, 4], "Thm5(3)")], ids=["case2", "case3"]
    )
    def test_thm5_tags_same_under_dash_O(self, tmp_path, k, case):
        # the Thm5 tag is the dual's Thm4 case renamed, with (2) and (3) swapped
        path = write_doc(tmp_path, {"kind": "conjunctive", "n": [3, 3], "k": k})
        payload = self.run_both("classify", path, "--json")
        assert (payload["class"], payload["case"]) == ("weighted", case)

    @pytest.mark.parametrize(
        "kind, k, case",
        [("disjunctive", [2, 4], "Thm12(ii)"), ("conjunctive", [1, 3], "Thm13(ii)")],
        ids=["thm12", "thm13"],
    )
    def test_fractional_rough_certificate_same_under_dash_O(self, tmp_path, kind, k, case):
        # the certificate is built from integer numerators over one denominator
        # and validated by raises, not asserts
        path = write_doc(tmp_path, {"kind": kind, "n": [2, 4], "k": k})
        payload = self.run_both("classify", path, "--json")
        assert (payload["class"], payload["case"]) == ("rough_not_weighted", case)
        assert payload["certificate"] == {"quota": "1", "weights": ["1/2", "1/4"]}

    def test_structural_same_under_dash_O(self):
        payload = self.run_both("structural", "--universe", "2,2", "--json")
        assert payload["total_games"] == 18 and payload["holds"]

    def test_canon_merge_and_recovery_same_under_dash_O(self, tmp_path):
        # the canonical form is validated by HierSpec, which raises, not asserts
        path = write_doc(tmp_path, {"kind": "conjunctive", "n": [2, 2], "k": [2, 4]})
        payload = self.run_both("canon", path, "--json")
        assert payload["canonical_spec"] == {"kind": "conjunctive", "n": [4], "k": [4]}
        assert payload["level_classes"] == [0, 0]

    def test_canon_dummy_same_under_dash_O(self, tmp_path):
        # a non-canonical spec whose dummy is read off its canonical form
        path = write_doc(tmp_path, {"kind": "disjunctive", "n": [1, 1, 2], "k": [1, 3, 4]})
        payload = self.run_both("canon", path, "--json")
        assert payload["canonical_spec"] == {"kind": "disjunctive", "n": [1, 3], "k": [1, 4]}
        assert payload["level_classes"] == [0, 1, 1]
        assert payload["dummy_last_level"] is True

    def test_conjunctive_sweep_same_under_dash_O(self):
        # the harness's checks and the Thm5 duality route
        payload = self.run_both(
            "sweep", "--kind", "conjunctive", "--levels", "2", "--nmax", "3", "--json"
        )
        assert payload["count"] == 36
        assert payload["disagreements"] == 0


# JSON values of every type, with counts small enough that an explicit
# document's oracle run stays quick
_small_ints = st.integers(-1, 4)
_json_keys = st.sampled_from(["kind", "n", "k", "universe", "min_winning", "name"]) | st.text(max_size=3)
_json_scalars = (
    st.none()
    | st.booleans()
    | _small_ints
    | st.floats(-4, 4)
    | st.text(max_size=4)
    | st.sampled_from(["disjunctive", "conjunctive"])
)
_json_values = st.recursive(
    _json_scalars | st.lists(_small_ints, max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_json_keys, inner, max_size=4),
    max_leaves=12,
)
# document-shaped values (right keys, count lists as fields), so that the fuzz
# also reaches the classifier and the oracle
_counts = st.lists(st.integers(0, 4), min_size=1, max_size=3)
_name = {"name": st.text(max_size=4)}
_json_documents = (
    _json_values
    | st.dictionaries(_json_keys, _json_values, max_size=5)
    | st.fixed_dictionaries(
        {"kind": st.sampled_from(["disjunctive", "conjunctive"]), "n": _counts, "k": _counts},
        optional=_name,
    )
    | st.fixed_dictionaries(
        {"universe": _counts, "min_winning": st.lists(_counts, max_size=4)}, optional=_name
    )
)


class TestInputFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_json_documents)
    def test_any_json_exits_0_or_2(self, data):
        try:
            parse_document(data)
        except (ValueError, TypeError):
            pass
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(["classify", path])
        assert code in (0, 2)
