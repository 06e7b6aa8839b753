"""hiergames benchmark: four workloads timed end to end, or traced per layer.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
      one timed run: prints the end-to-end metrics
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
      one traced run: prints the per-layer metrics
  python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]
      every workload, each in a process of its own, then a table
  python3 perfbench/run.py --self-test
      checks the input generators and the trace wrappers

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
provenance and the details behind the metrics. The package is imported from
src/ of the checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration  # sibling modules: this directory is sys.path[0]
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REGISTRY = ROOT / "BENCHMARK.json"
TRACE_DIR = ROOT / ".perfbench_out"

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_ms_p50", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)
# a timed run makes at least this many passes, whatever --seconds says
MIN_PASSES = 3
SETUPS_PER_PASS = 3
# kernel runs before and after each group of set-ups
CALIBRATIONS_PER_SETUP = 5


class BenchError(Exception):
    """The benchmark cannot produce a result; nothing is printed to stdout."""


def import_package():
    """Import hiergames afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "hiergames" or n.startswith("hiergames.")]:
        del sys.modules[name]
    hg = importlib.import_module("hiergames")
    importlib.import_module("hiergames.cli")
    return hg


def check_registry(section: str, declared: tuple, printed: dict) -> None:
    """Every printed metric is declared in BENCHMARK.json with the same unit
    and direction, and every declared metric is printed."""
    registry = json.loads(REGISTRY.read_text(encoding="utf-8"))
    in_file = {m["name"]: (m["unit"], m["better"]) for m in registry[section]}
    in_code = {name: (unit, better) for name, unit, better in declared}
    if in_file != in_code:
        raise BenchError(f"BENCHMARK.json {section} does not match the metrics this benchmark prints")
    if set(printed) != set(in_code) or any(printed[n]["unit"] != in_code[n][0] for n in printed):
        raise BenchError(f"printed metrics differ from the {section} registry")


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(hg, seed: int) -> dict:
    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if in_repo else None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "seed": seed,
        "hiergames_file": str(Path(hg.__file__).resolve().relative_to(ROOT)),
    }


def set_up(workload, seed: int, repeats: int, keep: bool = True):
    """Import the package and build the inputs, `repeats` times, and return
    the wall time of each. With keep, the last import and inputs are the
    ones the passes use; without, they are dropped."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        hg = import_package()
        inputs = workload.make_inputs(hg, seed)
        times.append(perf_counter() - t0)
    package_dir = (SRC / "hiergames").resolve()
    if Path(hg.__file__).resolve().parent != package_dir:
        raise BenchError(f"hiergames was imported from {hg.__file__}, not from {package_dir}")
    if not keep:
        return None, None, times
    # the benchmark's own inputs and tables stay out of the collector's view,
    # so a full collection costs what it would in a process of the library's
    gc.collect()
    gc.freeze()
    return hg, inputs, times


def tail(latencies: list[float]) -> dict | None:
    """The highest of p99.9, p99, p95, p90 and p75 (nearest rank) with at
    least ten items beyond it, or None when there are too few items."""
    n = len(latencies)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return {"percentile": p, "samples": n, "beyond": n - rank, "ms": sorted(latencies)[rank - 1] * 1e3}
    return None


def timed_run(workload, seed: int, seconds: float) -> dict:
    """Passes over the inputs until `seconds` are up, with SETUPS_PER_PASS
    set-ups after each. Every timing is scaled to the calibration kernel's
    reference speed (see calibration.py) by the kernel's median over the
    pass and the set-ups that follow it. An item's latency is its median
    over the passes; setup_s is the median over all set-ups."""
    cal = calibration.Calibrator()
    setups = []  # (seconds, scale) of each set-up

    def timed_setups(repeats: int, keep: bool):
        cal.run(CALIBRATIONS_PER_SETUP)
        hg, inputs, times = set_up(workload, seed, repeats, keep)
        cal.run(CALIBRATIONS_PER_SETUP)
        scale = calibration.scale(cal.take())
        setups.extend((t, scale) for t in times)
        return hg, inputs, scale

    hg, inputs, _ = timed_setups(1, keep=True)
    passes = []
    repeats_first = []
    deadline = perf_counter() + seconds
    while True:
        gc.collect()
        done = workload.run_pass(hg, inputs, cal.tick)
        done.scale = timed_setups(SETUPS_PER_PASS, keep=False)[2]
        passes.append(done)
        if len(passes) > 1:
            # a later pass is checked by comparing it with the first; its
            # outputs are not kept, so memory does not grow with the passes
            repeats_first.append(passes[-1].outputs == passes[0].outputs)
            passes[-1].outputs = None
        quickest = min(p.seconds for p in passes)
        if len(passes) >= MIN_PASSES and perf_counter() + quickest > deadline:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_first = workload.check(hg, inputs, passes[0].outputs)
    failed = failed_first + sum(
        failed_first if same else p.items for same, p in zip(repeats_first, passes[1:])
    )
    attempted = sum(p.items for p in passes)

    def per_item(scaled: bool) -> list[float]:
        return [
            statistics.median(item)
            for item in zip(*([t * (p.scale if scaled else 1) for t in p.latencies] for p in passes))
        ]

    def setup_median(scaled: bool) -> float:
        return statistics.median(t * (scale if scaled else 1) for t, scale in setups)

    latencies = per_item(scaled=True)
    raw = per_item(scaled=False)
    metrics = {
        "setup_s": setup_median(scaled=True),
        "items_per_s": len(latencies) / sum(latencies),
        "item_ms_p50": statistics.median(latencies) * 1e3,
        "peak_rss_mib": peak_rss_mib,
    }
    detail = {
        "passes": len(passes),
        "setups": len(setups),
        "pass_seconds": [p.seconds for p in passes],
        "pass_scale": [p.scale for p in passes],
        "unscaled": {
            "setup_s": setup_median(scaled=False),
            "items_per_s": len(raw) / sum(raw),
            "item_ms_p50": statistics.median(raw) * 1e3,
        },
        # scaled, like item_ms_p50; not a declared metric (see README)
        "item_ms_tail": tail(latencies),
        "wall_items_per_s": attempted / sum(p.seconds for p in passes),
        "latency_source": sorted({p.latency_source for p in passes}),
        "error_rate": failed / attempted,
    }
    return _result(hg, seed, workload, "end_to_end", END_TO_END, metrics, attempted, failed, detail)


def traced_run(workload, seed: int) -> dict:
    """One traced pass between two untraced passes of the same inputs. The
    counts of the traced pass repeat exactly for a seed; the untraced passes
    on both sides give the tracing overhead with the host's drift averaged."""
    hg, inputs, _ = set_up(workload, seed, 1)
    gc.collect()
    plain = workload.run_pass(hg, inputs, None)
    failed = workload.check(hg, inputs, plain.outputs)

    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        escaped = tracing.unwrapped_bindings()
        if escaped:
            raise BenchError(f"traced functions still bound unwrapped: {escaped}")
        gc.collect()
        traced = workload.run_pass(hg, inputs, None)
    finally:
        restore()
    gc.collect()
    after = workload.run_pass(hg, inputs, None)
    failed_plain = failed
    for later in (traced, after):
        failed += failed_plain if later.outputs == plain.outputs else later.items
    attempted = plain.items + traced.items + after.items

    overhead = 1 - (plain.seconds + after.seconds) / (2 * traced.seconds)
    metrics = tracing.layer_metrics(tracer.spans, overhead)
    TRACE_DIR.mkdir(exist_ok=True)
    spans_file = TRACE_DIR / f"spans_{workload.name}_seed{seed}.json"
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "parent", "start", "end", "self_s", "extra", "error"],
                "spans": tracer.spans,
            },
            fh,
        )
    detail = {
        "untraced_seconds": [plain.seconds, after.seconds],
        "traced_seconds": traced.seconds,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "not_traced": missing,
        "error_rate": failed / attempted,
    }
    return _result(hg, seed, workload, "per_layer", tracing.PER_LAYER, metrics, attempted, failed, detail)


def _result(hg, seed, workload, section, declared, values, attempted, failed, detail) -> dict:
    units = {name: unit for name, unit, _ in declared}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    check_registry(section, declared, metrics)
    detail = {"workload": workload.name, "provenance": provenance(hg, seed), **detail}
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is a per-process high-water
    mark), then one table of every metric."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"{name}: failed with exit code {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<16} {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
        failed, attempted = result["failed"], result["attempted"]
        print(f"{name:<16} failed {failed} of {attempted} items, error_rate {failed / attempted:.6g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    # a timed run makes passes until this is up; a traced run makes three
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "hiergames" / "__init__.py").is_file():
        print(f"perfbench: no hiergames package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.self_test:
            import selftest

            return selftest.main()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        workload = workloads.WORKLOADS[args.workload]
        if args.trace:
            result = traced_run(workload, args.seed)
        else:
            result = timed_run(workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
