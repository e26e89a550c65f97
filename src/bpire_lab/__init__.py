"""Monte Carlo laboratory for a critical branching process with
immigration in a random environment, its associated random walk, and the
limit process built from a stable Lévy level and an i.i.d. ratio
sequence."""

from .config import RunConfig
from .env import EnvironmentModel, validate_model
from .walk import arcsine_cdf
from .ladder import LadderTables, estimate_ladder_tables
from .conditioned import sample_conditioned_batch
from .bpire import compute_normalizers
from .limit import sample_gamma_batch, sample_two_sided_batch, stable_standard
from .stats import ecdf, joint_two_time_test, ks_against_cdf, ks_two_sample
from .streams import derive_stream

__version__ = "0.1.0"
