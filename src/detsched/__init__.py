"""detsched: exact solvers, bounds, and ratio experiments for
single-machine scheduling where processing times grow linearly with
start time (p = alpha + beta * s) under release dates.

All arithmetic is exact rational.  The public surface re-exported here
is the stable one; module internals may move.
"""

from .model import (
    EvalReport,
    Instance,
    InvalidArgument,
    Job,
    Schedule,
    SchedulingError,
    canonical_starts,
    evaluate,
    validate_instance,
)
from .schedulers import SchedulerChoice, earliest_release_order, run
from .oracle import (
    Objective,
    OptResult,
    brute_force,
    dp_min_makespan,
    lb_release,
    optimum,
    sorted_subset_cost,
    value_ratio,
)
from .pseudomatching import (
    PMConstructionReport,
    Pseudomatching,
    check_two_pm,
    construct_two_pm,
    last_critical_index,
)
from .generators import Family, FamilySpec, generate, reduce_instance
from .serialization import (
    ParseError,
    decimal_string,
    format_rational,
    parse_instance,
    parse_rational,
    write_instance,
)
from .experiment import (
    CrossObjectiveReport,
    ExperimentConfig,
    ExperimentRow,
    InequalityCheck,
    cross_objective_check,
    run_experiment,
    write_csv,
)

__version__ = "0.1.0"
