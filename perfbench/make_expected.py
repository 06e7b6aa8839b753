"""Write expected_grid.json: class and case tag of every classify_grid spec.

The table freezes the classifier's output contract (class names and the
Thm4/5/12/13 case tags) for the 3-level grid and every large weighted spec
the seed can draw. Regenerate it only when that contract changes on purpose:

  python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hiergames  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    table = {}
    for kind, n, k in workloads.grid_specs() + workloads.large_spec_pool():
        verdict = hiergames.classify(hiergames.HierSpec(kind, n, k))
        table[workloads.spec_key(kind, n, k)] = [verdict.game_class, verdict.matched_case]
    for kind, n, k in workloads.large_spec_pool():
        if table[workloads.spec_key(kind, n, k)][0] != "weighted":
            raise SystemExit(f"large spec {kind} {n} {k} is not weighted")
    lines = [f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    workloads.EXPECTED_GRID.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(table)} entries to {workloads.EXPECTED_GRID.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
