"""CLI output pinned byte for byte to recorded golden files.

Each file under tests/data/*.golden.json, and each sweep_*.golden.txt, is
the stdout of one command, run from the repository root:

  hiergames sweep --kind KIND --levels 3 --nmax 3 --json
      -> sweep_KIND_l3_n3.golden.json
  hiergames sweep --kind KIND --levels 3 --nmax 3
      -> sweep_KIND_l3_n3.golden.txt
  hiergames classify --json tests/data/explicit_CLASS.json
      -> classify_explicit_CLASS.golden.json

oracle_certificates.golden.txt pins the LP oracle's exact witnesses: one
line per game with str(oracle_weighted), str(oracle_rough) and the maximum
of w . (1, ..., m) over the quota-1 rough polytope. level_order.golden.txt
pins the level desirability order: canonicalize_semantic (canonical spec and
level mapping, or the name of the exception) on every valid spec of both
kinds with 1-3 levels, n_i <= 3 and k_i <= 9, then `structural --json` on
six universes. verdicts.golden.txt pins the structural classifier: one
line per spec with str(spec), class, case tag, str(certificate) and notes,
on every canonical spec of both kinds with 1-2 levels and n_i <= 6, 3 levels
and n_i <= 4, 4 levels and n_i <= 3, and 5 levels and n_i <= 2, then
H_E((100,100,100),(1,2,3)) and its dual. All three are written by

  PYTHONPATH=src python tests/test_golden.py

A change that is meant to alter this output re-records the files with the
same commands and says so; any other difference is a regression.
"""

import io
import random
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from hiergames import (
    Coalition,
    ExplicitGame,
    HierSpec,
    Multiset,
    canonicalize_semantic,
    classify,
    dual_spec,
    extremal_weight,
    oracle_rough,
    oracle_weighted,
    realize,
    sweep_specs,
)
from hiergames.cli import main

DATA = Path(__file__).resolve().parent / "data"

CASES = [
    (
        ["sweep", "--kind", kind, "--levels", "3", "--nmax", "3", "--json"],
        f"sweep_{kind}_l3_n3.golden.json",
    )
    for kind in ("disjunctive", "conjunctive")
] + [
    (
        ["sweep", "--kind", kind, "--levels", "3", "--nmax", "3"],
        f"sweep_{kind}_l3_n3.golden.txt",
    )
    for kind in ("disjunctive", "conjunctive")
] + [
    (
        ["classify", "--json", str(DATA / f"explicit_{name}.json")],
        f"classify_explicit_{name}.golden.json",
    )
    for name in ("weighted", "rough", "not_rough")
]


@pytest.mark.parametrize("argv,golden", CASES, ids=[golden for _, golden in CASES])
def test_cli_output_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


ORACLE_GOLDEN = "oracle_certificates.golden.txt"


def _explicit_games(count: int = 300, seed: int = 6) -> list[ExplicitGame]:
    """Seeded explicit games on 1-4 levels of 1-3 players each, generated by
    the nonempty ones of 1-4 random coalitions (the constructor minimizes
    them); a draw with none is skipped."""
    rng = random.Random(seed)
    games = []
    while len(games) < count:
        counts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        draws = [tuple(rng.randint(0, c) for c in counts) for _ in range(rng.randint(1, 4))]
        winning = frozenset(Coalition(x) for x in draws if any(x))
        if winning:
            games.append(ExplicitGame(Multiset(counts), winning))
    return games


def oracle_games() -> list[tuple[str, ExplicitGame]]:
    """The labelled games whose witnesses the oracle golden file pins:
    realized sweep specs, then seeded explicit games."""
    games = [
        (str(spec), realize(spec))
        for levels, nmax in ((2, 5), (3, 3), (4, 2))
        for kind in ("disjunctive", "conjunctive")
        for spec in sweep_specs(kind, levels, nmax)
    ]
    return games + [
        (f"{g.universe.counts} {sorted(w.counts for w in g.min_winning)}", g)
        for g in _explicit_games()
    ]


def oracle_certificates() -> str:
    """The oracle's witnesses on oracle_games."""
    lines = []
    for label, g in oracle_games():
        objective = tuple(range(1, g.universe.m + 1))
        try:
            top = str(extremal_weight(g, objective, "max"))
        except ValueError:
            top = "infeasible"
        lines.append(f"{label}\t{oracle_weighted(g)}\t{oracle_rough(g)}\t{top}\n")
    return "".join(lines)


def test_oracle_certificates_match_golden():
    assert oracle_certificates() == (DATA / ORACLE_GOLDEN).read_text(encoding="utf-8")


LEVEL_ORDER_GOLDEN = "level_order.golden.txt"


def _small_specs() -> list[HierSpec]:
    """Every spec HierSpec accepts with 1-3 levels, n_i <= 3 and k_i <= 9."""
    specs = []
    for kind in ("disjunctive", "conjunctive"):
        for m in (1, 2, 3):
            for n, k in product(product(range(1, 4), repeat=m), product(range(1, 10), repeat=m)):
                try:
                    specs.append(HierSpec(kind, n, k))
                except ValueError:
                    pass
    return specs


def level_order() -> str:
    """canonicalize_semantic on the small specs, then structural --json."""
    lines = []
    for spec in _small_specs():
        try:
            canonical, mapping = canonicalize_semantic(spec)
        except (ValueError, RuntimeError) as exc:
            lines.append(f"{spec}\t{type(exc).__name__}\n")
        else:
            lines.append(f"{spec}\t{canonical}\t{mapping}\n")
    for universe in ("2,2,2", "1,2,3", "3,3", "4,2", "2,3,2", "1,1,1,1"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["structural", "--universe", universe, "--json"]) == 0
        lines.append(f"structural --universe {universe} --json\n{out.getvalue()}")
    return "".join(lines)


def test_level_order_matches_golden():
    assert level_order() == (DATA / LEVEL_ORDER_GOLDEN).read_text(encoding="utf-8")


VERDICTS_GOLDEN = "verdicts.golden.txt"


def verdicts() -> str:
    """classify on the canonical sweep grids and on one large weighted spec."""
    specs = [
        spec
        for levels, nmax in ((1, 6), (2, 6), (3, 4), (4, 3), (5, 2))
        for kind in ("disjunctive", "conjunctive")
        for spec in sweep_specs(kind, levels, nmax)
    ]
    big = HierSpec("disjunctive", (100, 100, 100), (1, 2, 3))
    specs += [big, dual_spec(big)]
    lines = []
    for spec in specs:
        v = classify(spec)
        fields = [str(spec), v.game_class, v.matched_case, str(v.certificate), *v.notes]
        lines.append("\t".join(fields) + "\n")
    return "".join(lines)


def test_verdicts_match_golden():
    assert verdicts() == (DATA / VERDICTS_GOLDEN).read_text(encoding="utf-8")


if __name__ == "__main__":
    (DATA / ORACLE_GOLDEN).write_text(oracle_certificates(), encoding="utf-8")
    (DATA / LEVEL_ORDER_GOLDEN).write_text(level_order(), encoding="utf-8")
    (DATA / VERDICTS_GOLDEN).write_text(verdicts(), encoding="utf-8")
