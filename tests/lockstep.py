"""The generation-by-generation population oracle of the tests.

``lockstep`` builds the process directly: in each generation
Poisson(mu_k) immigrants join the parents, then all of them branch with
log offspring mean x_k through ``bpire.branch_generation``. The
closed-form samplers of ``bpire`` are held against it in law. One
immigrant cohort with no further immigration is the same oracle with
rate 0 after its first generation; ``rng.poisson(0)`` consumes no
variates, so such a cohort draws exactly what a cohort-only loop would.
"""

import numpy as np

from bpire_lab import bpire


def lockstep(steps, n, reps, rng, exact_only=False):
    """Yield (z_lin, z_log, eta) of generations k = 1..n, from Z_0 = 0.

    ``steps`` yields the pairs (x_k, mu_k), each a scalar or one value per
    replica, and is read one generation at a time, so it may draw them as
    the process goes. ``eta`` counts the immigrants that joined generation
    k. Raises ValueError if ``steps`` ends before generation n.
    """
    z_lin = np.zeros(reps)
    z_log = np.full(reps, -np.inf)
    steps = iter(steps)
    for k in range(n):
        try:
            x, mu = next(steps)
        except StopIteration:
            raise ValueError(f"environment has {k} steps, need {n}") from None
        eta = rng.poisson(mu, reps).astype(float)
        with np.errstate(divide="ignore"):
            eta_log = np.log(eta)
        z_lin, z_log = bpire.branch_generation(z_lin + eta, np.logaddexp(z_log, eta_log),
                                               x, rng, exact_only=exact_only)
        yield z_lin, z_log, eta
