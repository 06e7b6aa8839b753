"""Rejections at the public boundary: each malformed input raises its own
exception type with its own message."""

from enum import IntEnum
from fractions import Fraction

import pytest

from hiergames import (
    DISJUNCTIVE,
    Coalition,
    ExplicitGame,
    HierSpec,
    LinearSystem,
    MinorStep,
    Multiset,
    RoughCert,
    extremal_weight,
    hier_is_winning,
    is_winning,
    iter_coalitions,
    level_relation,
    minor,
    oracle_classify,
    oracle_witness,
    run_sweep,
    shift_maximal_losing,
    structural_scan,
    sweep_specs,
)
from hiergames.certificates import as_rational


def game(counts, winning):
    return ExplicitGame(Multiset(counts), frozenset(Coalition(w) for w in winning))


# a universe of 1001^3 lattice points, past the default enumeration cap: a
# game where nothing wins and one where everything wins are refused as
# trivial before the cap is checked
PAST_THE_CAP = (10**3,) * 3
TRIVIAL = {
    "nothing_wins": (game(PAST_THE_CAP, []), "game has no winning coalitions"),
    "everything_wins": (
        game(PAST_THE_CAP, [(0, 0, 0)]),
        "game declares the empty coalition winning",
    ),
}
ORACLE_CALLS = {
    "oracle_classify": oracle_classify,
    "oracle_witness": oracle_witness,
    "extremal_weight": lambda g: extremal_weight(g, (1, 1, 1), "min"),
}

REJECTIONS = {
    f"{call}_past_the_cap_{trivial}": (
        lambda call=call, trivial=trivial: ORACLE_CALLS[call](TRIVIAL[trivial][0]),
        ValueError,
        TRIVIAL[trivial][1],
    )
    for call in ORACLE_CALLS
    for trivial in TRIVIAL
}


class Level(IntEnum):
    TWO = 2


class AlwaysAtLeast(int):
    """An int whose >= always holds, so comparisons cannot be trusted."""

    def __ge__(self, other):
        return True


class Unsigned(Fraction):
    """A Fraction whose numerator hides its sign."""

    @property
    def numerator(self):
        return abs(super().numerator)


# only int itself is an int: a subclass would be stored as given or could
# pass a check it fails (H_E(n=(2,), k=(3,)) was once certified weighted)
INT_SUBCLASSES = {"intenum": Level.TWO, "int_subclass": AlwaysAtLeast(2)}
INT_INTAKES = {
    "hier_spec_count": (
        lambda v: HierSpec(DISJUNCTIVE, (v,), (3,)),
        "level count entries must be ints, got {v!r} of type {t}",
    ),
    "hier_spec_threshold": (
        lambda v: HierSpec(DISJUNCTIVE, (3,), (v,)),
        "threshold entries must be ints, got {v!r} of type {t}",
    ),
    "multiset_count": (
        lambda v: Multiset((v,)),
        "universe count entries must be ints, got {v!r} of type {t}",
    ),
    "coalition_count": (
        lambda v: Coalition((v,)),
        "coalition count entries must be ints, got {v!r} of type {t}",
    ),
    "as_rational": (
        lambda v: as_rational(v, "weight"),
        "weight must be int or Fraction, got {t}",
    ),
    "add_le_coefficient": (
        lambda v: LinearSystem(1).add_le([v], 1),
        "coefficients and bound must be ints, got {t}",
    ),
}
REJECTIONS |= {
    f"{intake}_{sub}": (
        lambda call=call, v=v: call(v),
        TypeError,
        message.format(v=v, t=type(v).__name__),
    )
    for intake, (call, message) in INT_INTAKES.items()
    for sub, v in INT_SUBCLASSES.items()
}
REJECTIONS |= {
    # RoughCert once stored it as given, passed its sign checks and printed
    # [q=1; w=(1)] for a quota of -1
    "as_rational_fraction_subclass": (
        lambda: RoughCert(Unsigned(-1), (Fraction(1),)),
        TypeError,
        "quota must be int or Fraction, got Unsigned",
    ),
    "oracle_classify_empty_winner": (
        lambda: oracle_classify(game((2, 2), [(0, 0)])),
        ValueError,
        "game declares the empty coalition winning",
    ),
    "shift_maximal_losing_not_canonical": (
        lambda: shift_maximal_losing(HierSpec(DISJUNCTIVE, (1, 2), (2, 3))),
        ValueError,
        "H_E(n=(1, 2), k=(2, 3)) is not canonical",
    ),
    "shift_maximal_losing_dummy_last_level": (
        lambda: shift_maximal_losing(HierSpec(DISJUNCTIVE, (2, 1), (2, 3))),
        ValueError,
        "H_E(n=(2, 1), k=(2, 3)) has a dummy last level",
    ),
    "complement_does_not_fit": (
        lambda: Multiset((2, 2)).complement(Coalition((3, 0))),
        ValueError,
        "{1^3} is not a submultiset of {1^2,2^2}",
    ),
    "minor_removal_does_not_fit": (
        lambda: minor(game((2, 2), [(1, 1)]), MinorStep("subgame", Coalition((0, 3)))),
        ValueError,
        "{2^3} is not a submultiset of {1^2,2^2}",
    ),
    "minor_removal_wrong_dimension": (
        lambda: minor(game((2, 2), [(1, 1)]), MinorStep("reduced", Coalition((1, 0, 1)))),
        ValueError,
        "{1^1,3^1} is not a submultiset of {1^2,2^2}",
    ),
    "level_relation_equal_levels": (
        lambda: level_relation(game((2, 2), [(1, 1)]), 1, 1),
        ValueError,
        "need two distinct levels in 0..1, got 1, 1",
    ),
    "level_relation_out_of_range": (
        lambda: level_relation(game((2, 2), [(1, 1)]), 0, 2),
        ValueError,
        "need two distinct levels in 0..1, got 0, 2",
    ),
    "level_relation_bool_index": (
        lambda: level_relation(game((2, 2), [(1, 1)]), True, 0),
        TypeError,
        "i must be an int, got bool",
    ),
    "level_relation_float_index": (
        lambda: level_relation(game((2, 2), [(1, 1)]), 0, 1.0),
        TypeError,
        "j must be an int, got float",
    ),
    "with_unit_bool_level": (
        lambda: Coalition((1, 1)).with_unit(True),
        TypeError,
        "level must be an int, got bool",
    ),
    "with_unit_float_level": (
        lambda: Coalition((1, 1)).with_unit(1.0),
        TypeError,
        "level must be an int, got float",
    ),
    "with_unit_bool_delta": (
        lambda: Coalition((1, 1)).with_unit(0, True),
        TypeError,
        "delta must be an int, got bool",
    ),
    "with_unit_negative_level": (
        lambda: Coalition((1, 1)).with_unit(-1),
        ValueError,
        "need a level in 0..1, got -1",
    ),
    "with_unit_level_past_the_end": (
        lambda: Coalition((1, 1)).with_unit(2, -1),
        ValueError,
        "need a level in 0..1, got 2",
    ),
    "sweep_specs_at_the_call_unknown_kind": (
        lambda: sweep_specs("weighted", 2, 2),
        ValueError,
        "unknown kind 'weighted'",
    ),
    "sweep_specs_at_the_call_bool_levels": (
        lambda: sweep_specs(DISJUNCTIVE, True, 2),
        TypeError,
        "levels must be an int, got bool",
    ),
    "sweep_specs_at_the_call_zero_nmax": (
        lambda: sweep_specs(DISJUNCTIVE, 2, 0),
        ValueError,
        "levels and nmax must be >= 1",
    ),
    "sweep_specs_at_the_call_zero_kmax": (
        lambda: sweep_specs(DISJUNCTIVE, 2, 2, 0),
        ValueError,
        "kmax must be >= 1, got 0",
    ),
    "sweep_specs_bool_levels": (
        lambda: list(sweep_specs(DISJUNCTIVE, True, 2)),
        TypeError,
        "levels must be an int, got bool",
    ),
    "sweep_specs_float_nmax": (
        lambda: list(sweep_specs(DISJUNCTIVE, 2, 2.0)),
        TypeError,
        "nmax must be an int, got float",
    ),
    "sweep_specs_bool_kmax": (
        lambda: list(sweep_specs(DISJUNCTIVE, 2, 2, True)),
        TypeError,
        "kmax must be an int, got bool",
    ),
    "run_sweep_float_levels": (
        lambda: run_sweep(DISJUNCTIVE, 2.0, 2, oracle=False),
        TypeError,
        "levels must be an int, got float",
    ),
    "is_winning_does_not_fit": (
        lambda: is_winning(game((2, 2), [(1, 1)]), Coalition((1, 1, 1))),
        ValueError,
        "{1^1,2^1,3^1} does not fit in universe {1^2,2^2}",
    ),
    "hier_is_winning_does_not_fit": (
        lambda: hier_is_winning(HierSpec(DISJUNCTIVE, (2, 2), (2, 3)), Coalition((0, 3))),
        ValueError,
        "{2^3} does not fit in universe {1^2,2^2}",
    ),
    "explicit_game_member_not_a_coalition": (
        lambda: ExplicitGame(Multiset((2,)), frozenset({(1,)})),
        TypeError,
        "min_winning entries must be Coalition, got (1,)",
    ),
    "explicit_game_universe_not_a_multiset": (
        lambda: ExplicitGame((2, 2), frozenset()),
        TypeError,
        "universe must be Multiset, got (2, 2)",
    ),
    "iter_coalitions_universe_not_a_multiset": (
        lambda: iter_coalitions((2, 2)),
        TypeError,
        "universe must be Multiset, got (2, 2)",
    ),
    "structural_scan_universe_not_a_multiset": (
        lambda: structural_scan((2, 2)),
        TypeError,
        "universe must be Multiset, got (2, 2)",
    ),
    "minor_step_removed_not_a_coalition": (
        lambda: MinorStep("subgame", (1, 0)),
        TypeError,
        "removed must be Coalition, got (1, 0)",
    ),
    "minor_step_unknown_op": (
        lambda: MinorStep("contract", Coalition((1,))),
        ValueError,
        "op must be 'subgame' or 'reduced', got 'contract'",
    ),
    "linear_system_negative_size": (
        lambda: LinearSystem(-1),
        ValueError,
        "num_vars must be >= 0, got -1",
    ),
    "add_le_wrong_length": (
        lambda: LinearSystem(2).add_le([1, 2, 3], 4),
        ValueError,
        "expected 2 coefficients, got 3",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejected_with_its_message(case):
    call, error, message = REJECTIONS[case]
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
