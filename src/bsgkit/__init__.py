"""bsgkit: exact sumset-growth extraction and verification for partite
hypergraphs over abelian groups."""

from .errors import (
    ArityMismatchError,
    BsgkitError,
    BudgetExceededError,
    ConfigInvalidError,
    DensityTooLowError,
    EmptyPartError,
    EmptySetError,
    EpsilonTooLargeError,
    HypothesisViolatedError,
    IndexOutOfRangeError,
    InvalidModulusError,
    ModeMismatchError,
    NoEdgesError,
    NoWitnessError,
    SameVertexError,
    ShapeMismatchError,
    SpecMismatchError,
    TooLargeError,
    UnequalPartsError,
    UnsupportedGroupError,
)
from .extraction import (
    DrcOutcome,
    ExtractionResult,
    IterateOutcome,
    almost_all_extract,
    bsg_extract,
    dense_extract,
    drc_extract,
    iterate_extract,
    octopus_extract,
    verify_relaxed_counts,
)
from .groups import GroupElem, GroupSpec, make_group
from .hypergraph import Bipartite, Instance, PartiteHypergraph
from .instances import (
    GenConfig,
    Measurement,
    brute_force_best_subsets,
    check_bounds,
    check_representations,
    gen_instance,
    measure_instance,
)
from .octopus import (
    OctopusWitness,
    enumerate_octopus_witnesses,
    eps_good_threshold,
    leg_count,
    octopus_count_exact,
    octopus_count_relaxed,
    relaxed_count_table,
)
from .report import BoundReport, Inequality
from .sumsets import (
    ElemSet,
    SumStats,
    index_sum,
    iterated_sumset,
    representation_count,
    representation_table,
    restricted_sumset,
    sum_stats,
    sumset,
)

__version__ = "0.1.0"
