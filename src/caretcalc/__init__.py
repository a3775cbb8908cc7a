"""caretcalc: exact word lengths in Thompson's group F.

Elements are reduced tree pair diagrams; the closed-form length for the
generating sets {x_0, ..., x_n} is l_infinity + 2 * penalty weight, and
an independent breadth-first oracle plus convexity probes live in
:mod:`caretcalc.cayley`.
"""

from .errors import (
    CaretCalcError,
    InvalidPenaltyTreeError,
    MalformedPairError,
    ParseError,
    SearchCapExceededError,
)
from .tree_core import (
    CaretTree,
    TreePairDiagram,
    canonical_encode,
    reduce,
)
from .group_ops import (
    GeneratingSet,
    GeneratorWord,
    apply_generator,
    evaluate_word,
    generator_diagram,
    identity,
    invert,
    multiply,
    normal_form,
)
from .metrics import (
    LengthReport,
    PenaltyTree,
    adjacency,
    l_infinity,
    length_consecutive,
    penalty_carets,
    penalty_weight,
    penalty_weight_of_tree,
)
from .cayley import (
    BallIndex,
    CoarseIsometryReport,
    MacProbeReport,
    ball,
    bfs_length,
    coarse_isometry_check,
    in_ball_geodesic,
    lengths_for,
    mac_witness_pair,
    probe_mac,
    probe_subset_monotonicity,
)
from .wordlang import format_word, parse_pair, parse_tree, parse_word

__version__ = "0.1.0"

__all__ = [
    "BallIndex",
    "CaretCalcError",
    "CaretTree",
    "CoarseIsometryReport",
    "GeneratingSet",
    "GeneratorWord",
    "InvalidPenaltyTreeError",
    "LengthReport",
    "MacProbeReport",
    "MalformedPairError",
    "ParseError",
    "PenaltyTree",
    "SearchCapExceededError",
    "TreePairDiagram",
    "adjacency",
    "apply_generator",
    "ball",
    "bfs_length",
    "canonical_encode",
    "coarse_isometry_check",
    "evaluate_word",
    "format_word",
    "generator_diagram",
    "identity",
    "in_ball_geodesic",
    "invert",
    "l_infinity",
    "length_consecutive",
    "lengths_for",
    "mac_witness_pair",
    "multiply",
    "normal_form",
    "parse_pair",
    "parse_tree",
    "parse_word",
    "penalty_carets",
    "penalty_weight",
    "penalty_weight_of_tree",
    "probe_mac",
    "probe_subset_monotonicity",
    "reduce",
]
