"""Command-line interface.

Subcommands:

  classify FILE    verdict of a spec document (--oracle cross-validates it,
                   --canonicalize rewrites it first), or the oracle's class
                   and witness for an explicit one; exit 1 on disagreement
  dual FILE        dual game document (explicit, or a canonical spec)
  canon FILE       canonical-form report plus the semantic canonical spec
  minor FILE       named or custom minors
  sweep            classify a canonical grid against the oracle
  structural       shift-extremal uniqueness scan over one universe

All subcommands accept --json. FILE may be '-' for stdin. Exit codes:
0 success, 1 verification disagreement, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

from .certificates import RoughCert
from .classifier import ROUGH_NOT_WEIGHTED, Verdict, classify_rough
from .core import Coalition, EnumerationCapError, Multiset, _int_text
from .documents import (
    GameDocument,
    document_from_game,
    document_from_spec,
    document_to_dict,
    load_document,
)
from .harness import (
    SweepReport,
    agrees,
    certificate_holds,
    cross_check,
    run_sweep,
    structural_scan,
)
from .hierarchy import _is_canonical, canon_check, canonicalize_semantic
from .oracle import oracle_witness
from .transforms import (
    REDUCED,
    SUBGAME,
    MinorStep,
    dual_explicit,
    dual_spec,
    minor,
    named_minors,
)

__all__ = ["main"]


def _emit(payload: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))


def _cert_dict(cert: Optional[RoughCert]) -> Optional[dict]:
    return None if cert is None else cert.to_dict()


def _spec_label(doc: GameDocument) -> str:
    if doc.name:
        return doc.name
    if doc.spec is not None:
        return str(doc.spec)
    return f"explicit game on {doc.game.universe}"


def cmd_classify(args: argparse.Namespace) -> int:
    doc = load_document(args.file)
    notes: list[str] = []
    payload: dict[str, Any] = {"input": document_to_dict(doc)}
    lines = [f"game: {_spec_label(doc)}"]

    if doc.spec is not None:
        spec = doc.spec
        if not _is_canonical(spec):
            if not args.canonicalize:
                raise ValueError(
                    f"{spec} is not canonical; pass --canonicalize to rewrite it"
                )
            spec, mapping = canonicalize_semantic(spec)
            notes.append(
                f"canonicalized: n={list(spec.n)} k={list(spec.k)} "
                f"level_classes={list(mapping)}"
            )
        verdict = classify_rough(spec)
        payload["spec"] = document_to_dict(document_from_spec(spec))
        oracle_class, cert_ok = cross_check(spec, verdict) if args.oracle else (None, None)
    else:
        game = doc.to_game()
        game_class, cert = oracle_witness(game)
        verdict = Verdict(game_class, "oracle", cert)
        oracle_class, cert_ok = None, certificate_holds(game, verdict)
        notes.append("explicit document: verdict computed by the LP oracle")

    notes.extend(verdict.notes)
    payload.update(
        {
            "class": verdict.game_class,
            "case": verdict.matched_case,
            "certificate": _cert_dict(verdict.certificate),
            "notes": notes,
        }
    )
    lines.append(f"class: {verdict.game_class}")
    lines.append(f"case: {verdict.matched_case}")
    if verdict.certificate is not None:
        lines.append(f"certificate: {verdict.certificate}")

    agree = agrees(verdict, oracle_class, cert_ok)
    if oracle_class is not None:
        payload["oracle"] = {"class": oracle_class, "certificate_verified": cert_ok}
        payload["agree"] = agree
        lines.append(
            f"oracle: {oracle_class} ({'agree' if oracle_class == verdict.game_class else 'DISAGREE'})"
        )
    elif cert_ok is not None:
        payload["certificate_verified"] = cert_ok
    if cert_ok is not None:
        lines.append(f"certificate check: {'valid' if cert_ok else 'INVALID'}")
    for note in notes:
        lines.append(f"note: {note}")
    _emit(payload, lines, args.json)
    return 0 if agree else 1


def cmd_dual(args: argparse.Namespace) -> int:
    doc = load_document(args.file)
    name = f"dual({doc.name})" if doc.name else None
    if doc.spec is not None:
        out = document_from_spec(dual_spec(doc.spec), name)
    else:
        out = document_from_game(dual_explicit(doc.game), name)
    print(json.dumps(document_to_dict(out), indent=2))
    return 0


def cmd_canon(args: argparse.Namespace) -> int:
    doc = load_document(args.file)
    if doc.spec is None:
        raise ValueError("canon needs a spec document (kind/n/k)")
    report = canon_check(doc.spec)
    canonical_spec, mapping = canonicalize_semantic(doc.spec)
    payload = {
        "input": document_to_dict(doc),
        "canonical": report.canonical,
        "condition_a": report.condition_a,
        "condition_b": list(report.condition_b),
        "dummy_last_level": report.dummy_last_level,
        "passer_first_level": report.passer_first_level,
        "blocker_first_level": report.blocker_first_level,
        "normalized": document_to_dict(document_from_spec(report.normalized_spec)),
        "canonical_spec": document_to_dict(document_from_spec(canonical_spec)),
        "level_classes": list(mapping),
    }
    lines = [
        f"spec: {doc.spec}",
        f"canonical: {report.canonical}",
        f"condition_a (k1 <= n1): {report.condition_a}",
        f"condition_b (levels 2..m): {list(report.condition_b)}",
        f"dummy_last_level: {report.dummy_last_level}",
        f"passer_first_level: {report.passer_first_level}",
        f"blocker_first_level: {report.blocker_first_level}",
        f"normalized: {report.normalized_spec}",
        f"canonical spec: {canonical_spec} (level classes {list(mapping)})",
    ]
    _emit(payload, lines, args.json)
    return 0


def _parse_counts(text: str) -> tuple[int, ...]:
    # spaces around a field are fine; an empty field, a sign or "1_0" is not
    counts = tuple(_int_text(part.strip(), signed=False) for part in text.split(","))
    if None in counts:
        raise ValueError(f"expected comma-separated nonnegative integers, got {text!r}")
    return counts


def _int_arg(text: str) -> int:
    value = _int_text(text.strip())
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return value


def cmd_minor(args: argparse.Namespace) -> int:
    doc = load_document(args.file)
    if args.op == "custom":
        if args.A is None or args.step is None:
            raise ValueError("custom minors need --A COUNTS and --step subgame|reduced")
        step = MinorStep(args.step, Coalition(_parse_counts(args.A)))
        game = minor(doc.to_game(), step)
        out = document_from_game(game, f"{args.step}({doc.name})" if doc.name else None)
        print(json.dumps(document_to_dict(out), indent=2))
        return 0
    if args.A is not None or args.step is not None:
        raise ValueError("--A and --step apply only to --op custom")
    if doc.spec is None:
        raise ValueError("named minors need a spec document (kind/n/k)")
    wanted = args.op
    if wanted.startswith("remove_one:"):
        # a list of levels names no minor, so it is refused below
        levels = _parse_counts(wanted.split(":", 1)[1])
        wanted = f"remove_one({','.join(map(str, levels))})"
    for nm in named_minors(doc.spec):
        if nm.name == wanted:
            out = document_from_spec(nm.spec, f"{wanted}({doc.name})" if doc.name else None)
            print(json.dumps(document_to_dict(out), indent=2))
            return 0
    raise ValueError(f"minor {args.op!r} is not applicable to {doc.spec}")


def cmd_sweep(args: argparse.Namespace) -> int:
    report = run_sweep(args.kind, args.levels, args.nmax, args.kmax, oracle=not args.no_oracle)
    # build only the form that is printed
    payload = _sweep_payload(report) if args.json else {}
    lines = [] if args.json else _sweep_lines(report)
    _emit(payload, lines, args.json)
    return 0 if report.all_agree else 1


def _sweep_payload(report: SweepReport) -> dict:
    records = []
    for r in report.records:
        records.append(
            {
                "n": list(r.spec.n),
                "k": list(r.spec.k),
                "class": r.verdict.game_class,
                "case": r.verdict.matched_case,
                "certificate": _cert_dict(r.verdict.certificate),
                "oracle_class": r.oracle_class,
                "certificate_verified": r.cert_verified,
                "agree": r.agree,
                "skipped": r.skipped,
                "notes": list(r.verdict.notes),
            }
        )
    return {
        "kind": report.kind,
        "levels": report.levels,
        "nmax": report.nmax,
        "kmax": report.kmax,
        "count": len(report.records),
        "class_counts": report.class_counts(),
        "disagreements": len(report.disagreements),
        "records": records,
    }


def _sweep_lines(report: SweepReport) -> list[str]:
    lines = [
        f"sweep kind={report.kind} levels={report.levels} nmax={report.nmax} "
        f"kmax={report.kmax}: {len(report.records)} specs"
    ]
    counts = report.class_counts()
    lines.append("  " + "  ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    skipped = [r for r in report.records if r.skipped]
    if skipped:
        lines.append(f"  skipped (enumeration cap): {len(skipped)}")
    for r in report.records:
        if r.verdict.game_class == ROUGH_NOT_WEIGHTED:
            lines.append(
                f"  rough: {r.spec} case={r.verdict.matched_case} cert={r.verdict.certificate}"
            )
    for r in report.disagreements:
        lines.append(
            f"  DISAGREE: {r.spec} classifier={r.verdict.game_class} "
            f"oracle={r.oracle_class} cert_verified={r.cert_verified}"
        )
    lines.append(f"  disagreements: {len(report.disagreements)}")
    return lines


def cmd_structural(args: argparse.Namespace) -> int:
    universe = Multiset(_parse_counts(args.universe))
    report = structural_scan(universe)
    payload = {
        "universe": list(universe.counts),
        "total_games": report.total_games,
        "complete_games": report.complete_games,
        "unique_shift_max_losing": report.unique_shift_max_losing,
        "disjunctive_hierarchical": report.disjunctive_hierarchical,
        "unique_shift_min_winning": report.unique_shift_min_winning,
        "conjunctive_hierarchical": report.conjunctive_hierarchical,
        "holds": report.holds,
        "mismatches": list(report.mismatches),
    }
    lines = [
        f"universe: {universe}",
        f"games (nonempty antichains): {report.total_games}",
        f"complete games: {report.complete_games}",
        f"unique shift-max losing: {report.unique_shift_max_losing}"
        f" / disjunctive hierarchical: {report.disjunctive_hierarchical}",
        f"unique shift-min winning: {report.unique_shift_min_winning}"
        f" / conjunctive hierarchical: {report.conjunctive_hierarchical}",
        f"equivalences hold: {report.holds}",
    ]
    lines.extend(f"  MISMATCH: {m}" for m in report.mismatches)
    _emit(payload, lines, args.json)
    return 0 if report.holds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiergames",
        description="Classify hierarchical simple games (weighted / roughly weighted / neither) with exact certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a game document")
    p.add_argument("file", help="JSON game document ('-' for stdin)")
    p.add_argument("--oracle", action="store_true", help="cross-validate with the LP oracle")
    p.add_argument("--canonicalize", action="store_true", help="rewrite non-canonical specs first")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dual", help="dual game of a document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="(output is always JSON)")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("canon", help="canonical-form report for a spec document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("minor", help="named or custom minor of a document")
    p.add_argument("file")
    p.add_argument(
        "--op",
        required=True,
        help="cut_tail | cut_head | remove_one:I (1-indexed) | custom",
    )
    p.add_argument("--A", help="custom only: per-level removal counts, e.g. '1,0,2'")
    p.add_argument("--step", choices=[SUBGAME, REDUCED], help="custom only")
    p.add_argument("--json", action="store_true", help="(output is always JSON)")
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser("sweep", help="classify a canonical grid, cross-checking the oracle")
    p.add_argument("--kind", required=True, choices=["disjunctive", "conjunctive"])
    p.add_argument("--levels", required=True, type=_int_arg)
    p.add_argument("--nmax", required=True, type=_int_arg)
    p.add_argument("--kmax", type=_int_arg, default=None)
    p.add_argument("--no-oracle", action="store_true", help="skip oracle cross-validation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("structural", help="shift-extremal uniqueness scan on a universe")
    p.add_argument("--universe", required=True, help="per-level counts, e.g. '3,3'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_structural)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, KeyError, EnumerationCapError) as exc:
        # json.JSONDecodeError is a ValueError, so malformed documents land here too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
