"""basopt: beetle antennae search with benchmarks, oracle, and CLI harness.

The single-step internals that the engine reproduces (``bas_iterate`` and
its steps) live in ``basopt.core``.
"""

from .core import (
    BasConfig,
    ObjectiveError,
    RunResult,
    ScheduleSpec,
    TERM_MAX_ITERS,
    TERM_STALLED,
    TERM_TARGET,
    DEFAULT_D_SCHEDULE,
    DEFAULT_DELTA_SCHEDULE,
    derive_trial_seed,
    run,
    run_trials,
)
from .objectives import (
    Objective,
    goldstein_price,
    lookup_objective,
    michalewicz,
    objective_names,
    sphere,
)
from .oracle import GridSpec, grid_search, random_search_baseline

__version__ = "0.1.0"

__all__ = [
    "BasConfig",
    "DEFAULT_D_SCHEDULE",
    "DEFAULT_DELTA_SCHEDULE",
    "GridSpec",
    "Objective",
    "ObjectiveError",
    "RunResult",
    "ScheduleSpec",
    "TERM_MAX_ITERS",
    "TERM_STALLED",
    "TERM_TARGET",
    "derive_trial_seed",
    "goldstein_price",
    "grid_search",
    "lookup_objective",
    "michalewicz",
    "objective_names",
    "random_search_baseline",
    "run",
    "run_trials",
    "sphere",
    "__version__",
]
