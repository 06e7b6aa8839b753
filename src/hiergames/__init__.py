"""Exact classification of hierarchical simple games.

Decide whether a disjunctive or conjunctive prefix-threshold game is
weighted, roughly weighted but not weighted, or not roughly weighted at all;
produce exact rational certificates; and cross-validate every structural
verdict against an independent linear-feasibility oracle.
"""

from .certificates import RoughCert, parse_rational, rational_str
from .classifier import (
    NOT_ROUGH,
    ROUGH_NOT_WEIGHTED,
    WEIGHTED,
    Verdict,
    classify,
    classify_rough,
)
from .core import (
    Coalition,
    EnumerationCapError,
    ExplicitGame,
    LevelRelation,
    Multiset,
    SpecialPlayers,
    enumeration_cap,
    is_complete,
    is_winning,
    iter_coalitions,
    level_classes,
    level_relation,
    maximal_losing,
    special_players,
)
from .documents import (
    GameDocument,
    document_from_game,
    document_from_spec,
    document_to_dict,
    load_document,
    parse_document,
)
from .feasibility import LinearSystem, OptResult
from .harness import (
    StructuralReport,
    SweepRecord,
    SweepReport,
    cross_check,
    run_sweep,
    structural_scan,
    sweep_specs,
)
from .hierarchy import (
    CONJUNCTIVE,
    DISJUNCTIVE,
    CanonReport,
    HierSpec,
    ShiftExtremal,
    canon_check,
    canonicalize_semantic,
    hier_is_winning,
    merge_levels,
    realize,
    recover_conjunctive,
    recover_disjunctive,
    shift_extremal,
    shift_maximal_losing,
    truncate,
)
from .oracle import (
    extremal_weight,
    oracle_classify,
    oracle_rough,
    oracle_weighted,
    oracle_witness,
    verify_representation,
)
from .transforms import (
    MinorStep,
    NamedMinor,
    dual_explicit,
    dual_spec,
    k_star,
    minor,
    named_minors,
)

__version__ = "0.1.0"
