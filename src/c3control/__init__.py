"""C3 super-class linearization under control.

Poset primitives, the C3 merge and linearization with its consistency
theory, an instrumented variant that computes minimal precedence-list
injections forcing any global order, and an exhaustive search over small
posets for hierarchies on which C3 cannot succeed.
"""

from .control import (
    InstrumentationResult,
    SortKey,
    SortKeyResult,
    brute_force_assignment,
    c3_instrumented,
    compute_sort_keys,
    count_additions_per_extension,
    merge_step_count,
)
from .errors import (
    AmbiguityError,
    C3ControlError,
    CycleError,
    DuplicateNameError,
    InputError,
    LinearizationFailedError,
    NotAPermutationError,
    NotLinearExtensionError,
    NotReducedError,
    ResourceLimitError,
)
from .linearize import (
    MergeFailure,
    StepCounter,
    c3_merge,
    c3_mro,
    check_extended_consistency,
    check_local_consistency,
    check_monotone,
    consistent_mro_oracle,
    induced_assignment,
    validate_assignment,
)
from .poset import Poset, poset_h
from .search import (
    SearchRecord,
    SearchSummary,
    find_infeasible,
    map_reduce_search,
    run_experiment,
)

__all__ = [
    "AmbiguityError",
    "C3ControlError",
    "CycleError",
    "DuplicateNameError",
    "InputError",
    "InstrumentationResult",
    "LinearizationFailedError",
    "MergeFailure",
    "NotAPermutationError",
    "NotLinearExtensionError",
    "NotReducedError",
    "Poset",
    "ResourceLimitError",
    "SearchRecord",
    "SearchSummary",
    "SortKey",
    "SortKeyResult",
    "StepCounter",
    "brute_force_assignment",
    "c3_instrumented",
    "c3_merge",
    "c3_mro",
    "check_extended_consistency",
    "check_local_consistency",
    "check_monotone",
    "compute_sort_keys",
    "consistent_mro_oracle",
    "count_additions_per_extension",
    "find_infeasible",
    "induced_assignment",
    "map_reduce_search",
    "merge_step_count",
    "poset_h",
    "run_experiment",
    "validate_assignment",
]

__version__ = "0.1.0"
