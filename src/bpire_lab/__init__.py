"""Monte Carlo laboratory for a critical branching process with
immigration in a random environment, its associated random walk, and the
limit process built from a stable Lévy level and an i.i.d. ratio
sequence."""

from .config import RunConfig
from .env import (
    EnvironmentModel,
    EnvSteps,
    draw_steps,
    normal_model,
    pareto_model,
    validate_model,
)
from .walk import (
    StableSpec,
    WalkPath,
    WalkSummary,
    arcsine_cdf,
    centered_at_min,
    normalizer,
    simulate_walk,
    summarize,
)
from .ladder import LadderTables, estimate_ladder_tables
from .conditioned import ConditionedSample, sample_conditioned_batch
from .bpire import (
    NormalizerPair,
    Trajectory,
    advance,
    cohort_log_sizes,
    compute_normalizers,
    normalized_process,
    simulate_bpire,
)
from .limit import (
    levy_levels,
    sample_gamma_batch,
    sample_limit_fdd_batch,
    sample_two_sided_batch,
    stable_standard,
)
from .stats import ecdf, joint_two_time_test, ks_against_cdf, ks_two_sample
from .streams import derive_stream

__version__ = "0.1.0"
