"""Numerical toolkit for expected suprema of sign and Gaussian processes:
complexity estimators for finite index sets and composite function classes,
covering/entropy/chaining functionals and doubly exponential tail bounds.
"""

from .chaining import (
    AdmissibleSequence,
    CoveringResult,
    EntropyProfile,
    EntropyResult,
    admissible_capacity,
    build_admissible_sequence,
    composite_entropy_bound,
    composite_rate,
    covering_number,
    entropy_number,
    entropy_profile,
    gamma2_upper,
    lipschitz_entropy_formula,
    lipschitz_entropy_profile,
    min_truncation_objective,
    truncation_objective,
)
from .classes import (
    AnchorDistanceClass,
    FiniteFunctionClass,
    GaussianRkhsBall,
    LipschitzBall,
    gaussian_gram,
    lipschitz_ball_sup,
)
from .complexity import (
    EstimatorConfig,
    bernoulli_complexity,
    composite_bernoulli_complexity,
    gaussian_complexity,
    increment_ratio,
)
from .core import (
    ComplexityEstimate,
    FiniteMetricSpace,
    PointSet,
    diameter2,
    metric_space_from_pointset,
    norm_pq,
    pointset_from_csv,
    pointset_to_csv,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    DegenerateSetError,
    InvalidInputError,
    SolverError,
    ToolkitError,
)
from .simplex import simplex_maximize
from .tails import (
    expectation_bound_from_tail,
    log_tail_series,
    sample_from_capped_tail,
    tail_crossing_point,
    tail_integral,
    tail_series,
    tail_series_capped,
    uncenter_tail,
)

__version__ = "0.1.0"
