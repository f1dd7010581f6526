"""Age of information for two update streams sharing a single-source
n-receiver multicast network under earliest-k1/k2 stopping.

Closed-form exact and large-n average ages, a Monte Carlo simulator that
serves as an independent oracle, and a weighted threshold optimizer with
pareto frontiers.
"""

from .analytic import (
    INFINITE_AGE,
    AgePair,
    AtWill,
    Exogenous,
    Moments2,
    Scenario,
    ScenarioApprox,
    StarvedStreamError,
    Stream,
    StreamMix,
    age,
    age_pair,
    geometric_moments,
    s_moments,
    ybar_moments,
)
from .optimize import (
    MonotonicityReport,
    ParetoPoint,
    ScenarioTemplate,
    lemma1_monotonicity_check,
    optimize,
    pareto_frontier,
)
from .orderstats import (
    ShiftedExp,
    delta_threshold,
    gen_harmonic,
    harmonic,
    mean_first_k,
    mean_first_k_approx,
    os_mean,
    os_second_moment,
    os_var,
)
from .sim import (
    DEFAULT_SEED,
    SimConfig,
    SimResult,
    empirical_cycle_gaps,
    empirical_delivery_probability,
    empirical_interarrival_moments,
    simulate,
)

__version__ = "0.1.0"
