"""Finite bisimulation quotients of stable linear systems via polyhedral
Lyapunov sublevel sets, with LTL verification over polytopic regions."""

from .errors import InternalError
from .geometry import (
    Cell,
    Constraint,
    Region,
    complement,
    constraint,
    contains_point,
    difference,
    intersect,
    is_empty,
    preimage_linear,
    remove_redundancy,
    sample_point,
)
from .lyapunov import (
    ContractionError,
    LevelSequence,
    LinearSystem,
    PolyhedralLF,
    level_sequence,
    lf_value,
    slice_descent_check,
    slices,
    sublevel_cell,
    verify_contraction,
)
from .abstraction import (
    Block,
    Observation,
    ObservedRegion,
    Partition,
    QuotientTS,
    audit_partition,
    build_quotient,
    cell_of,
    export_quotient,
    find_pre,
    initial_partition,
    observation_of,
    quotient_word,
)
from .logic import (
    BuchiAutomaton,
    Formula,
    LassoWord,
    eval_ltl_lasso,
    parse_ltl,
    to_buchi,
)
from .verify import (
    ProductAutomaton,
    SatisfyingSet,
    f_star,
    label_quotient,
    product,
    satisfying_states,
)
from .simulate import Trajectory, cross_validate, simulate
from .problem import ProblemError, ProblemSpec, load_problem
from .pipeline import PipelineResult, run_pipeline

__version__ = "0.1.0"
