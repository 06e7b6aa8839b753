"""The four benchmark workloads: input generation, timed passes and checks.

Inputs are generated here in plain Python from the seed, without calling the
code under test, so set-up time does not move when the library changes. The
library is reached through the `hiergames` package object handed in by the
caller, looked up attribute by attribute at call time, so the tracing
wrappers (installed by rebinding module names) see every call.

Every workload exposes the same three steps:

  make_inputs(hg, seed) -> inputs
  run_pass(hg, inputs, tick) -> Pass    (one timed pass over all inputs)
  check(hg, inputs, outputs) -> failed items  (untimed)

`tick` is called between items, outside their timing; a timed run passes the
calibrator's tick there (see calibration.py), a traced run passes None.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import permutations, product
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

DISJUNCTIVE = "disjunctive"
CONJUNCTIVE = "conjunctive"
NOT_ROUGH = "not_rough"

# (kind, n, k)
Spec = tuple[str, tuple[int, ...], tuple[int, ...]]

EXPECTED_GRID = Path(__file__).resolve().parent / "expected_grid.json"


@dataclass
class Pass:
    """One complete pass over a workload's inputs.

    items: decided items; seconds: wall time of the pass; latencies: one per
    item in seconds; latency_source: how the latencies were taken; outputs:
    what the checks read (an item that raised leaves an Error there).
    """

    items: int
    seconds: float
    latencies: list[float]
    latency_source: str
    outputs: list[Any]
    # factor to the calibration kernel's reference speed; set by a timed run
    scale: float = 1.0


@dataclass(frozen=True)
class Error:
    """An exception raised by an item, comparable across passes."""

    text: str


def spec_key(kind: str, n: tuple[int, ...], k: tuple[int, ...]) -> str:
    """Key of a spec in expected_grid.json."""
    return f"{kind} {','.join(map(str, n))} {','.join(map(str, k))}"


def spec_doc(kind: str, n: tuple[int, ...], k: tuple[int, ...]) -> dict:
    return {"kind": kind, "n": list(n), "k": list(k)}


def canonical_specs(kind: str, levels: int, nmax: int):
    """Every canonical spec of a kind with n_i <= nmax, lexicographic.

    Canonical means k_1 <= n_1 and k_{i-1} < k_i < k_{i-1} + n_i, except that
    the last level allows k_m = k_{m-1} + n_m (disjunctive) or
    k_m = k_{m-1} (conjunctive)."""
    for n in product(range(1, nmax + 1), repeat=levels):
        steps = [range(1, n[0] + 1)]
        steps += [range(1, n[i]) for i in range(1, levels - 1)]
        if levels > 1:
            last = range(1, n[-1] + 1) if kind == DISJUNCTIVE else range(0, n[-1])
            steps.append(last)
        for deltas in product(*steps):
            k, acc = [], 0
            for d in deltas:
                acc += d
                k.append(acc)
            yield kind, n, tuple(k)


def passer_dummy_free(n: tuple[int, ...], k: tuple[int, ...]) -> bool:
    """Closed form of 'no passers and no dummies' for a canonical disjunctive
    spec: a single top player loses (k_1 >= 2) and the last level is not a
    dummy (k_m < k_{m-1} + n_m)."""
    return k[0] >= 2 and k[-1] < k[-2] + n[-1]


def dual_thresholds(n: tuple[int, ...], k: tuple[int, ...]) -> tuple[int, ...]:
    """k*_i = N_i - k_i + 1, the thresholds of the dual spec."""
    out, total = [], 0
    for ni, ki in zip(n, k):
        total += ni
        out.append(total - ki + 1)
    return tuple(out)


def criterion6_pool() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Passer/dummy-free canonical disjunctive specs on 4 and 5 levels, n_i <= 3."""
    return [
        (n, k)
        for levels in (4, 5)
        for _, n, k in canonical_specs(DISJUNCTIVE, levels, 3)
        if passer_dummy_free(n, k)
    ]


def _time_items(fn: Callable[[Any], Any], items: list, tick) -> Pass:
    latencies, outputs = [], []
    started = perf_counter()
    for item in items:
        if tick is not None:
            tick()
        t0 = perf_counter()
        try:
            out = fn(item)
        except Exception as exc:  # a failed item is counted by check() and the run goes on
            out = Error(repr(exc))
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    return Pass(len(items), perf_counter() - started, latencies, "per_item", outputs)


# ===== oracle_m45 =====


class OracleM45:
    """Criterion-6 specs on 4-5 levels and their duals, classifier and oracle."""

    name = "oracle_m45"
    why = (
        "FM elimination and its simplex hand-over dominate; the classifier costs "
        "almost nothing"
    )
    # every STEP-th spec of the 324-spec pool in lexicographic order from
    # index START, with its dual: 5 specs, 10 items, 4 of the specs on 5
    # levels, 8 FM hand-overs in all. Per-item cost spans 0.02-0.6 s, so a
    # seeded subset moved items_per_s by about 10% between seeds; the subset
    # is therefore fixed and the seed sets the order. It is small so that a
    # run times every item many times (see README, "Noise").
    START, STEP = 32, 64

    def make_inputs(self, hg, seed: int) -> list[dict]:
        items = []
        for n, k in criterion6_pool()[self.START :: self.STEP]:
            items.append(spec_doc(DISJUNCTIVE, n, k))
            items.append(spec_doc(CONJUNCTIVE, n, dual_thresholds(n, k)))
        random.Random(seed).shuffle(items)
        return items

    def run_pass(self, hg, inputs: list[dict], tick) -> Pass:
        def item(doc):
            spec = hg.parse_document(doc).spec
            return hg.classify(spec).game_class, hg.oracle_classify(hg.realize(spec))

        return _time_items(item, inputs, tick)

    def check(self, hg, inputs, outputs) -> int:
        return sum(out != (NOT_ROUGH, NOT_ROUGH) for out in outputs)


# ===== classify_grid =====


# n of a large spec is an order of these counts: the lattice always has
# 15*18*21 points, so the seed moves which certificate is built but not the
# lattice size
LARGE_N = tuple(permutations((14, 17, 20)))
# one shape per weighted case the large specs take
LARGE_SHAPES = (
    # Thm4(4) through Thm4(2) on levels 2..3
    lambda n: (DISJUNCTIVE, n, (1, 2, 3)),
    lambda n: (DISJUNCTIVE, n, (1, n[1] // 2, n[1] // 2 + 1)),
    # Thm4(4) through Thm4(3)
    lambda n: (DISJUNCTIVE, n, (1, n[1] // 3, n[1] // 3 + n[2] - 1)),
    # Thm4(5): dummy last level over a Thm4(2) pair
    lambda n: (DISJUNCTIVE, n, (n[0] // 3, n[0] // 3 + 1, n[0] // 3 + 1 + n[2])),
    # Thm5(4) through Thm5(2) on the reduced levels 2..3
    lambda n: (CONJUNCTIVE, n, (n[0], n[0] + n[1] // 2, n[0] + n[1] // 2 + 1)),
    # Thm5(5): k_3 = k_2 over a Thm5(2) pair
    lambda n: (CONJUNCTIVE, n, (n[0] // 2, n[0] // 2 + 1, n[0] // 2 + 1)),
)


# the grid is every canonical 3-level spec with n_i <= GRID_NMAX: 216 specs,
# 162 of them weighted, small so that a run times every item many times
GRID_NMAX = 3


def grid_specs() -> list[Spec]:
    return [s for kind in (DISJUNCTIVE, CONJUNCTIVE) for s in canonical_specs(kind, 3, GRID_NMAX)]


def large_weighted_specs(seed: int) -> list[Spec]:
    """One large weighted spec per shape, n drawn from LARGE_N by the seed."""
    rng = random.Random(seed)
    return [shape(rng.choice(LARGE_N)) for shape in LARGE_SHAPES]


def large_spec_pool() -> list[Spec]:
    """Every large spec the seed can draw."""
    return [shape(n) for shape in LARGE_SHAPES for n in LARGE_N]


class ClassifyGrid:
    """parse_document -> classify -> certificate.to_dict on the 3-level grid
    plus a few large weighted specs, no oracle."""

    name = "classify_grid"
    why = (
        "the user's classify: most verdicts take microseconds, weighted ones pay "
        "realize and an LP inside synthesize_certificate"
    )

    def make_inputs(self, hg, seed: int) -> dict:
        specs = grid_specs()
        random.Random(seed).shuffle(specs)
        specs += large_weighted_specs(seed)
        expected = json.loads(EXPECTED_GRID.read_text(encoding="utf-8"))
        return {
            "docs": [spec_doc(*s) for s in specs],
            "expected": [expected[spec_key(*s)] for s in specs],
        }

    def run_pass(self, hg, inputs: dict, tick) -> Pass:
        def item(doc):
            verdict = hg.classify(hg.parse_document(doc).spec)
            cert = verdict.certificate
            return verdict.game_class, verdict.matched_case, None if cert is None else cert.to_dict()

        return _time_items(item, inputs["docs"], tick)

    def check(self, hg, inputs, outputs) -> int:
        failed = 0
        for doc, expected, out in zip(inputs["docs"], inputs["expected"], outputs):
            if isinstance(out, Error):
                failed += 1
                continue
            game_class, case, cert = out
            if [game_class, case] != expected or (cert is None) != (game_class == NOT_ROUGH):
                failed += 1
                continue
            if cert is None:
                continue
            mode = "weighted" if game_class == "weighted" else "rough"
            game = hg.realize(hg.parse_document(doc).spec)
            if not hg.verify_representation(game, hg.RoughCert.from_dict(cert), mode):
                failed += 1
        return failed


# ===== batch workloads =====


def _stamped_pass(module, attr: str, calls: list, tick) -> Pass:
    """Time calls that each decide `count` items inside the library.

    With a tick, `module.attr` is replaced by a shim that calls tick and then
    takes timestamps as each item starts; item i runs from its start stamp
    to the next item's tick, the first from the call's start and the last to
    its end, so the latencies add up to the call less the ticks. When the
    stamps do not match the item count (the library no longer calls `attr`
    once per item, or has no `attr`) every item gets the call's mean and the
    source reads 'call_mean'."""
    ends: list[float] = []
    starts: list[float] = []
    original = getattr(module, attr, None)
    shim = tick is not None and original is not None

    def stamp(*args, **kwargs):
        ends.append(perf_counter())
        tick()
        starts.append(perf_counter())
        return original(*args, **kwargs)

    outputs, latencies, source = [], [], "per_item"
    if shim:
        setattr(module, attr, stamp)
    started = perf_counter()
    try:
        for fn, count in calls:
            ends.clear()
            starts.clear()
            t0 = perf_counter()
            outputs.append(fn())
            t1 = perf_counter()
            if tick is None:
                continue
            if len(starts) == count:
                # the first item starts with the call, less its shim's tick
                item_starts = [t0 + starts[0] - ends[0]] + starts[1:]
                item_ends = ends[1:] + [t1]
                latencies += [b - a for a, b in zip(item_starts, item_ends)]
            else:
                source = "call_mean"
                latencies += [(t1 - t0) / count] * count
    finally:
        if shim:
            setattr(module, attr, original)
    return Pass(sum(count for _, count in calls), perf_counter() - started, latencies, source, outputs)


# ===== sweep_m3 =====


class SweepM3:
    """`hiergames sweep --levels 3 --nmax 3 --json` for both kinds, in process."""

    name = "sweep_m3"
    why = (
        "the whole cross-check pipeline on small games that FM decides without "
        "handing over, through the harness and the CLI's JSON"
    )
    # 108 specs of each kind: small enough for a run to sweep them many times
    NMAX = 3

    def make_inputs(self, hg, seed: int) -> list[tuple[str, list[str], int]]:
        kinds = [DISJUNCTIVE, CONJUNCTIVE]
        random.Random(seed).shuffle(kinds)
        return [
            (
                kind,
                ["sweep", "--kind", kind, "--levels", "3", "--nmax", str(self.NMAX), "--json"],
                sum(1 for _ in canonical_specs(kind, 3, self.NMAX)),
            )
            for kind in kinds
        ]

    def run_pass(self, hg, inputs, tick) -> Pass:
        # run_sweep classifies each spec once, through harness.classify_rough
        def call(argv):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = hg.cli.main(argv)
            except Exception as exc:  # counted by check()
                code = Error(repr(exc))
            return _sweep_summary(code, buf.getvalue())

        calls = [(lambda argv=argv: call(argv), count) for _, argv, count in inputs]
        return _stamped_pass(hg.harness, "classify_rough", calls, tick)

    def check(self, hg, inputs, outputs) -> int:
        failed = 0
        for (kind, _, expected_count), out in zip(inputs, outputs):
            code, payload = out
            if payload is None or payload["kind"] != kind or payload["count"] != expected_count:
                failed += expected_count
            elif code != 0 or payload["disagreements"] != 0:
                failed += max(1, payload["disagreements"])
        return failed


def _sweep_summary(code, stdout: str):
    try:
        payload = json.loads(stdout)
    except ValueError:
        return code, None
    return code, {
        "kind": payload["kind"],
        "count": payload["count"],
        "disagreements": payload["disagreements"],
        "class_counts": payload["class_counts"],
    }


# ===== structural_scan =====


class StructuralScan:
    """harness.structural_scan on the universe (2,2,2)."""

    name = "structural_scan"
    why = (
        "arbitrary explicit games through core and hierarchy, with no LP and no "
        "spec: a lattice change tuned to specs must not slow it"
    )
    # universe -> (total games, complete games), as criterion 7 states them.
    # (2,2,3) with its 4,114 games is left out: a pass over it takes 6 s,
    # too long for a run to time every game many times
    KNOWN = {(2, 2, 2): (978, 378)}

    def make_inputs(self, hg, seed: int) -> list:
        universes = sorted(self.KNOWN)
        random.Random(seed).shuffle(universes)
        return [(hg.Multiset(u), self.KNOWN[u]) for u in universes]

    def run_pass(self, hg, inputs, tick) -> Pass:
        # structural_scan checks each enumerated game once with harness.is_complete
        def call(universe):
            try:
                report = hg.structural_scan(universe)
            except Exception as exc:  # counted by check()
                return Error(repr(exc))
            return report.total_games, report.complete_games, report.holds

        calls = [(lambda u=universe: call(u), total) for universe, (total, _) in inputs]
        return _stamped_pass(hg.harness, "is_complete", calls, tick)

    def check(self, hg, inputs, outputs) -> int:
        failed = 0
        for (_, (total, complete)), out in zip(inputs, outputs):
            if out != (total, complete, True):
                failed += total
        return failed


WORKLOADS = {w.name: w for w in (OracleM45(), ClassifyGrid(), SweepM3(), StructuralScan())}

