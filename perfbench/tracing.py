"""Spans at hiergames' layer boundaries, recorded from outside the package.

Each traced function is replaced by a wrapper in every hiergames module
namespace that binds it (found by identity, so a new import inside the
package is covered too); methods are replaced on their class. Wrappers pass
arguments and results through and re-raise exceptions unchanged. Spans stay
in memory; self time is a span's duration minus the time its child spans
cover.

is_winning and Coalition construction are not wrapped: they run millions of
times and a wrapper would swamp the run.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

# (module, attribute, span name); "Class.method" names a method
TRACED = (
    ("feasibility", "_eliminate_all", "feasibility.eliminate_all"),
    ("feasibility", "_simplex_cone", "feasibility.simplex_cone"),
    ("feasibility", "LinearSystem.feasible_point", "feasibility.feasible_point"),
    ("hierarchy", "realize", "hierarchy.realize"),
    ("core", "maximal_losing", "core.maximal_losing"),
    ("classifier", "classify_rough", "classifier.classify"),
    ("classifier", "synthesize_certificate", "classifier.synthesize_certificate"),
    ("oracle", "oracle_classify", "oracle.oracle_classify"),
    ("oracle", "oracle_weighted", "oracle.oracle_weighted"),
    ("oracle", "oracle_rough", "oracle.oracle_rough"),
    ("oracle", "verify_representation", "oracle.verify_representation"),
    ("core", "level_relation", "core.level_relation"),
    ("hierarchy", "recover_disjunctive", "hierarchy.recover"),
    ("hierarchy", "recover_conjunctive", "hierarchy.recover"),
    ("hierarchy", "shift_extremal", "hierarchy.shift_extremal"),
    ("harness", "structural_scan", "harness.structural_scan"),
    ("harness", "run_sweep", "harness.run_sweep"),
    ("cli", "main", "cli.main"),
    ("documents", "parse_document", "documents.parse_document"),
    ("transforms", "dual_spec", "transforms.dual_spec"),
)


def _lattice_points(counts) -> int:
    return math.prod(c + 1 for c in counts)


# per-span counts computed from the arguments, not from inside the call
EXTRAS = {
    "feasibility.eliminate_all": lambda args, kwargs: len(args[0]),
    "hierarchy.realize": lambda args, kwargs: _lattice_points(args[0].n),
    "core.maximal_losing": lambda args, kwargs: _lattice_points(args[0].universe.counts),
}

BLOWUP_ERROR = "FeasibilityBlowupError"


class Tracer:
    """Records one span per wrapped call: (name, parent, start, end, self_s,
    extra, error). parent is the index of the enclosing span or -1; error is
    the exception type name when the call raised."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, EXTRAS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            error = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                counted = extra(args, kwargs) if extra else None
                spans[idx] = (name, parent, start, end, duration - frame[1], counted, error)

        traced.__wrapped__ = fn
        return traced


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "hiergames" or name.startswith("hiergames.")
    ]


def install(tracer: Tracer):
    """Wrap every TRACED function that exists. Returns (restore, missing):
    restore undoes the wrapping; missing lists the TRACED entries not found."""
    modules = _package_modules()
    undo, missing = [], []
    for module_name, attr, span in TRACED:
        home = sys.modules.get(f"hiergames.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name, None)
            original = getattr(cls, "__dict__", {}).get(method)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(cls, method, tracer.wrap(span, original))
            undo.append((cls, method, original))
            continue
        original = getattr(home, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = tracer.wrap(span, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))

    def restore() -> None:
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return restore, missing


def unwrapped_bindings() -> list[str]:
    """Names in hiergames namespaces that still hold a traced original.

    Empty after install(); anything listed would escape the trace."""
    originals, escaped = {}, []
    for module_name, attr, _ in TRACED:
        home = sys.modules.get(f"hiergames.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            current = getattr(getattr(home, cls_name, None), "__dict__", {}).get(method)
            if current is not None and not hasattr(current, "__wrapped__"):
                escaped.append(f"{module_name}.{attr}")
            continue
        current = getattr(home, attr, None)
        if current is not None:
            originals[id(getattr(current, "__wrapped__", current))] = f"{module_name}.{attr}"
    escaped += [
        f"{module.__name__}.{key}"
        for module in _package_modules()
        for key, value in vars(module).items()
        if id(value) in originals
    ]
    return escaped


# ===== per-layer metrics =====

# spans reported as a .calls and .self_s pair, and spans reported by self time only
_CALLS_SELF = (
    "feasibility.simplex_cone",
    "feasibility.feasible_point",
    "classifier.classify",
    "classifier.synthesize_certificate",
    "oracle.oracle_classify",
    "oracle.oracle_weighted",
    "oracle.oracle_rough",
    "oracle.verify_representation",
    "core.level_relation",
    "hierarchy.recover",
    "hierarchy.shift_extremal",
    "documents.parse_document",
    "transforms.dual_spec",
)
_SELF_ONLY = ("harness.structural_scan", "harness.run_sweep", "cli.main")

# (name, unit, better) of every per-layer metric, as declared in BENCHMARK.json
PER_LAYER = (
    ("feasibility.eliminate_all.calls", "count", "lower"),
    ("feasibility.eliminate_all.self_s", "s", "lower"),
    ("feasibility.eliminate_all.rows_in", "count", "lower"),
    ("feasibility.eliminate_all.blowups", "count", "lower"),
    ("feasibility.eliminate_all.blowup_s", "s", "lower"),
    ("feasibility.fm_decided_ratio", "ratio", "higher"),
    ("hierarchy.realize.calls", "count", "lower"),
    ("hierarchy.realize.self_s", "s", "lower"),
    ("hierarchy.realize.points", "computed_points", "lower"),
    ("hierarchy.realize.us_per_point", "us/point", "lower"),
    ("core.maximal_losing.calls", "count", "lower"),
    ("core.maximal_losing.self_s", "s", "lower"),
    ("core.maximal_losing.points", "computed_points", "lower"),
    ("classifier.lattice_certs", "count", "lower"),
    *(
        entry
        for name in _CALLS_SELF
        for entry in ((f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"))
    ),
    *((f"{name}.self_s", "s", "lower") for name in _SELF_ONLY),
    ("trace_overhead_frac", "fraction", "lower"),
)


def layer_metrics(spans: list[tuple], overhead: float) -> dict[str, float]:
    """Every PER_LAYER value from the recorded spans."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counted: dict[str, int] = {}
    realize_parents = set()
    blowups, blowup_s = 0, 0.0
    for name, parent, start, end, own, extra, error in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if extra is not None:
            counted[name] = counted.get(name, 0) + extra
        if name == "hierarchy.realize":
            realize_parents.add(parent)
        if name == "feasibility.eliminate_all" and error == BLOWUP_ERROR:
            blowups += 1
            blowup_s += end - start
    fm_calls = calls.get("feasibility.eliminate_all", 0)
    realize_points = counted.get("hierarchy.realize", 0)
    out = {
        "feasibility.eliminate_all.calls": fm_calls,
        "feasibility.eliminate_all.self_s": self_s.get("feasibility.eliminate_all", 0.0),
        "feasibility.eliminate_all.rows_in": counted.get("feasibility.eliminate_all", 0),
        "feasibility.eliminate_all.blowups": blowups,
        "feasibility.eliminate_all.blowup_s": blowup_s,
        # 0 when FM never ran
        "feasibility.fm_decided_ratio": (fm_calls - blowups) / fm_calls if fm_calls else 0.0,
        "hierarchy.realize.calls": calls.get("hierarchy.realize", 0),
        "hierarchy.realize.self_s": self_s.get("hierarchy.realize", 0.0),
        "hierarchy.realize.points": realize_points,
        "hierarchy.realize.us_per_point": (
            self_s.get("hierarchy.realize", 0.0) * 1e6 / realize_points if realize_points else 0.0
        ),
        "core.maximal_losing.calls": calls.get("core.maximal_losing", 0),
        "core.maximal_losing.self_s": self_s.get("core.maximal_losing", 0.0),
        "core.maximal_losing.points": counted.get("core.maximal_losing", 0),
        # certificate syntheses that walked the lattice (a direct realize child)
        "classifier.lattice_certs": sum(
            1
            for idx, span in enumerate(spans)
            if span[0] == "classifier.synthesize_certificate" and idx in realize_parents
        ),
        "trace_overhead_frac": overhead,
    }
    for name in _CALLS_SELF:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in _SELF_ONLY:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    return out
