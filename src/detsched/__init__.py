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
    fixed_cost_identity,
    makespan_closed_form,
    validate_instance,
)
from .schedulers import (
    SchedulerChoice,
    best_of_two,
    earliest_release_order,
    ectf,
    is_interfering,
    non_idling,
    non_interfering,
    run,
)
from .oracle import (
    Objective,
    OptResult,
    brute_force,
    dp_min_makespan,
    lb_combined,
    lb_release,
    optimum,
    sorted_subset_cost,
    value_ratio,
)
from .pseudomatching import (
    BoundingSets,
    PMConstructionReport,
    Pseudomatching,
    check_two_pm,
    construct_two_pm,
    last_critical_index,
    rho_bound_check,
    verify_rho_pm,
    verify_weak_pm,
    weak_bound_check,
)
from .generators import Family, FamilySpec, generate, reduce_instance
from .serialization import (
    ParseError,
    decimal_string,
    format_rational,
    parse_instance,
    parse_rational,
    parse_schedule,
    write_instance,
    write_schedule,
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
