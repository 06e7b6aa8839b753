"""Conditions of the case law that nothing on the grids can tell from
implied ones, found by mutation.

Each mutant of classifier.py changes one site: an `and` operand made
True, an `or` operand made False, an `if` test made False, one comparator
dropped from a chained comparison, a strict comparison swapped with its
loose form (`<` with `<=`, `>` with `>=`), a comparison flipped (`<` with
`>`, `<=` with `>=`, `==` with `!=`), `+` swapped with `-`, `*` made `//`,
or an int constant raised by 1. It is loaded
as a module of its own and judged in process on the S1 grids against the
unmutated classifier. A mutant survives when every verdict tuple (class,
tag, certificate, notes) is unchanged; the survivors are committed below
by function and source text, so a new survivor, or a guard deleted or
killed, fails the run. Run with `pytest --run-slow`.
"""

import ast
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import hiergames.classifier
from hiergames import CONJUNCTIVE, DISJUNCTIVE, sweep_specs

# (levels, nmax) of the S1 grids, both kinds: 16,326 canonical specs
S1_GRIDS = [(1, 8), (2, 8), (3, 5), (4, 4), (5, 3), (6, 2)]

# (function, mutation, source text of the site) of every surviving mutant
SURVIVORS = [
    # input validation: every grid spec is canonical
    ("classify_rough", "if -> False", "not _is_canonical(spec)"),
    # equivalent, kept for clarity: for m = 1, k[-2] is k[0], and
    # k[0] == k[0] + n[0] fails; for m = 2, a dummy last level is Thm4(5),
    # weighted, and the inner spec of a canonical (vii) has k2 < k1 + n2
    ("_rough_disj", "and -> True", "m >= 2"),
    ("_rough_disj", ">= -> >", "m >= 2"),
    ("_rough_disj", "2 -> 3", "m >= 2"),
    # equivalent: a weighted (Thm5) certificate has d = 1 and a rough
    # (Thm13) one gap = 0, so gap // d is gap * d
    ("_across_duality", "* -> //", "gap * d"),
    # the printed conjunctive reading, kept verbatim: it reaches only
    # Verdict.notes, and only when it disagrees with duality on whether
    # any case matches, so most of its conditions cannot show there
    *(
        ("_literal_conj_case", "and -> True", text)
        for text in (
            "k1 == n1 - 1",
            "n1 >= 2",
            "n2 >= 4",
            "k2 == k1 + 2",
            "1 <= k1 < n1 - 1",
            "n1 >= 2",
            "k2 == k1 + 1",
            "k3 == k1 + 2",
            "k3 == k2 + 1",
            "k2 - k1 == n2 - 1",
            "1 <= k1 < n1 - 1",
            "n3 >= 3",
            "1 <= k1 <= n1 - 1",
            "m >= 2",
        )
    ),
    *(
        ("_literal_conj_case", mutation, text)
        for mutation, text in (
            # (iii)
            ("drop 1", "1 <= k1 < n1 - 1"),
            ("drop k1", "1 <= k1 < n1 - 1"),
            ("drop n1 - 1", "1 <= k1 < n1 - 1"),
            ("< -> <=", "1 <= k1 < n1 - 1"),
            # k1 < n1 + 1 holds for a canonical k1 <= n1 (and k1 = n1 is (i))
            ("- -> +", "n1 - 1"),
            # (va)
            ("drop 1", "1 <= k1 < n1 - 1"),
            # (vb), which never fires
            ("drop 1", "1 <= k1 < n1 - 1"),
            ("drop k1", "1 <= k1 < n1 - 1"),
            ("drop n1 - 1", "1 <= k1 < n1 - 1"),
            ("<= -> <", "1 <= k1 < n1 - 1"),
            ("< -> <=", "1 <= k1 < n1 - 1"),
            (">= -> >", "n3 >= 3"),
            # each keeps both n3 == 2 and n3 >= 3 (or >= 4), so (vb) still
            # never fires
            ("1 -> 2", "k2 + 1"),
            ("+ -> -", "k2 + 1"),
            ("== -> !=", "k3 == k2 + 1"),
            ("- -> +", "k2 - k1"),
            ("1 -> 2", "n2 - 1"),
            ("- -> +", "n2 - 1"),
            ("== -> !=", "k2 - k1 == n2 - 1"),
            ("1 -> 2", "1 <= k1 < n1 - 1"),
            ("1 -> 2", "n1 - 1"),
            ("- -> +", "n1 - 1"),
            ("<= -> >=", "1 <= k1 < n1 - 1"),
            ("< -> >", "1 <= k1 < n1 - 1"),
            ("3 -> 4", "n3 >= 3"),
            # n3 <= 3 lets (vb) fire, but only where (va) matched first
            # (n2 = 2) or (vi) would match (n2 >= 3), and duality finds a
            # case there too, so no note changes
            (">= -> <=", "n3 >= 3"),
            # (vi)
            ("drop 1", "1 <= k1 <= n1 - 1"),
            ("drop k1", "1 <= k1 <= n1 - 1"),
            ("drop n1 - 1", "1 <= k1 <= n1 - 1"),
            # k1 <= n1 + 1 holds for a canonical k1 <= n1
            ("- -> +", "n1 - 1"),
            # (vii); for m = 2 it never fires, as k1 == n1 returned (i)
            (">= -> >", "m >= 2"),
            ("2 -> 3", "m >= 2"),
        )
    ),
    # (vb), which never fires
    (
        "_literal_conj_case",
        "if -> False",
        "k3 == k2 + 1 and n3 == 2 and k2 - k1 == n2 - 1 and 1 <= k1 < n1 - 1 and n3 >= 3",
    ),
]
# every site: 35 `and` operands, 0 `or` operands, 38 `if` tests, 12
# comparators of chained comparisons, 16 strict or loose comparisons, 57
# comparisons flipped, 18 `+` and 14 `-` swapped, 7 `*` made `//` and 152
# int constants raised
SITES = 349


class _Mutator(ast.NodeTransformer):
    """Applies the mutation of one site, counted in walk order; after the
    pass, `sites` holds every site seen as (function, mutation, node)."""

    def __init__(self, target=None):
        self.target = target
        self.sites = []
        self.function = None
        self.parents = []

    def visit(self, node):
        self.parents.append(node)
        try:
            return super().visit(node)
        finally:
            self.parents.pop()

    def _site(self, mutation, node):
        self.sites.append((self.function, mutation, node))
        return len(self.sites) - 1 == self.target

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, self.function or node.name
        self.generic_visit(node)
        self.function = outer
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        conjunction = isinstance(node.op, ast.And)
        mutation, value = ("and -> True", True) if conjunction else ("or -> False", False)
        node.values = [
            ast.Constant(value) if self._site(mutation, operand) else operand
            for operand in node.values
        ]
        return node

    def visit_If(self, node):
        if self._site("if -> False", node.test):
            node.test = ast.Constant(False)
        self.generic_visit(node)
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        operands = [node.left, *node.comparators]
        if len(operands) > 2:
            for drop, operand in enumerate(operands):
                if self._site(f"drop {ast.unparse(operand)}", node):
                    # the operator on the dropped comparator's left, or
                    # the first one when the left end goes
                    del operands[drop], node.ops[max(drop - 1, 0)]
                    node.left, *node.comparators = operands
                    return node
        for index, op in enumerate(node.ops):
            for table in (_LOOSE_STRICT, _FLIPPED):
                swap = table.get(type(op))
                if swap is not None and self._site(f"{_SYMBOL[type(op)]} -> {_SYMBOL[swap]}", node):
                    node.ops[index] = swap()
                    return node
        return node

    def visit_BinOp(self, node):
        self.generic_visit(node)
        swap = _ARITHMETIC.get(type(node.op))
        if swap is not None and self._site(f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[swap]}", node):
            node.op = swap()
        return node

    def visit_Constant(self, node):
        # a bool is an int to Python, but not an int constant; the site is
        # shown by the expression around it, past a unary minus
        if type(node.value) is not int:
            return node
        around = next(n for n in reversed(self.parents[:-1]) if not isinstance(n, ast.UnaryOp))
        if self._site(f"{node.value} -> {node.value + 1}", around):
            return ast.Constant(node.value + 1)
        return node


_LOOSE_STRICT = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
_FLIPPED = {
    ast.Lt: ast.Gt,
    ast.Gt: ast.Lt,
    ast.LtE: ast.GtE,
    ast.GtE: ast.LtE,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}
_ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv}
_SYMBOL = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.FloorDiv: "//",
}


def _source():
    return Path(hiergames.classifier.__file__).read_text(encoding="utf-8")


def _load_mutant(target):
    """The classifier with site `target` mutated, as a fresh module."""
    tree = _Mutator(target).visit(ast.parse(_source()))
    name = "hiergames._classifier_mutant"
    module = types.ModuleType(name)
    module.__package__ = "hiergames"
    sys.modules[name] = module  # dataclasses look the module up while it runs
    try:
        exec(compile(ast.fix_missing_locations(tree), name, "exec"), vars(module))
    finally:
        del sys.modules[name]
    return module


def _verdict(classify, spec):
    try:
        v = classify(spec)
    except Exception as exc:  # a crash kills the mutant
        return type(exc)
    return v.game_class, v.matched_case, v.certificate, v.notes


@pytest.mark.slow
def test_survivors_are_the_committed_list():
    specs = [
        spec
        for kind in (DISJUNCTIVE, CONJUNCTIVE)
        for levels, nmax in S1_GRIDS
        for spec in sweep_specs(kind, levels, nmax)
    ]
    assert len(specs) == 16326
    expected = [_verdict(hiergames.classifier.classify_rough, spec) for spec in specs]
    source = _source()
    mutator = _Mutator()
    mutator.visit(ast.parse(source))
    survivors = []
    for target, (function, mutation, node) in enumerate(mutator.sites):
        classify = _load_mutant(target).classify_rough
        if all(_verdict(classify, spec) == want for spec, want in zip(specs, expected)):
            survivors.append((function, mutation, ast.get_source_segment(source, node)))
    assert len(mutator.sites) == SITES
    assert Counter(survivors) == Counter(SURVIVORS)
