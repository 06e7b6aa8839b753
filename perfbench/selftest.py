"""Self-test of the benchmark's own pieces, run with `run.py --self-test`.

- The closed-form criterion-6 filter selects exactly the specs that
  special_players(realize(spec)) finds free of passers and dummies.
- The plain-Python generators match the library's sweep_specs grids and
  dual_spec, so the workloads feed the library what it would enumerate.
- The trace wrappers cover every binding, and a traced run_sweep with known
  counts records one realize, classify and oracle_classify per spec.
"""

from __future__ import annotations

import sys

import tracing
import workloads


def _check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    import hiergames as hg
    import hiergames.cli  # noqa: F401  (traced too)
    from hiergames.core import special_players

    failures: list[str] = []

    pool = set(workloads.criterion6_pool())
    for levels, size in ((4, 81), (5, 243)):
        by_realize = set()
        for s in hg.sweep_specs(workloads.DISJUNCTIVE, levels, 3):
            special = special_players(hg.realize(s))
            if not special.passers and not special.dummies:
                by_realize.add((s.n, s.k))
        closed = {(n, k) for n, k in pool if len(n) == levels}
        _check(
            closed == by_realize and len(closed) == size,
            f"criterion-6 filter on m={levels}: {len(closed)} closed form, "
            f"{len(by_realize)} by realize, {len(closed ^ by_realize)} mismatches",
            failures,
        )

    for kind, levels, nmax in (("disjunctive", 3, 5), ("conjunctive", 3, 5), ("disjunctive", 5, 3)):
        ours = [(n, k) for _, n, k in workloads.canonical_specs(kind, levels, nmax)]
        theirs = [(s.n, s.k) for s in hg.sweep_specs(kind, levels, nmax)]
        _check(ours == theirs, f"canonical_specs({kind}, {levels}, {nmax}) == sweep_specs", failures)

    duals_ok = all(
        hg.dual_spec(hg.HierSpec(workloads.DISJUNCTIVE, n, k)).k == workloads.dual_thresholds(n, k)
        for n, k in pool
    )
    _check(duals_ok, "dual_thresholds == dual_spec on the criterion-6 pool", failures)

    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        escaped = tracing.unwrapped_bindings()
        report = hg.run_sweep(workloads.DISJUNCTIVE, 2, 4)
    finally:
        restore()
    _check(not missing, f"every traced function exists (missing: {missing})", failures)
    _check(not escaped, f"no traced function escapes its wrapper (escaped: {escaped})", failures)

    names = [span[0] for span in tracer.spans]
    records = len(report.records)
    weighted = sum(r.verdict.game_class == "weighted" for r in report.records)
    sweep_idx = names.index("harness.run_sweep")
    realize_parents = [tracer.spans[i][1] for i, name in enumerate(names) if name == "hierarchy.realize"]
    counts = {
        "classifier.classify": names.count("classifier.classify"),
        "oracle.oracle_classify": names.count("oracle.oracle_classify"),
        "hierarchy.realize under run_sweep": realize_parents.count(sweep_idx),
    }
    _check(
        all(v == records for v in counts.values()),
        f"one classify, oracle_classify and realize per record ({records} records): {counts}",
        failures,
    )
    lattice_certs = tracing.layer_metrics(tracer.spans, 0.0)["classifier.lattice_certs"]
    _check(
        0 < lattice_certs == weighted < records,
        f"lattice_certs {lattice_certs} == weighted records {weighted}",
        failures,
    )

    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
