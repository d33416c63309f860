import numpy as np
import pytest
from hypothesis import settings

from wtrv import make_catalog

# One well-behaved representative per catalog family.
CATALOG_INSTANCES = [
    ("exponential", {"lambda": 1.3}),
    ("gamma", {"k": 2.5, "lambda": 1.5}),
    ("weibull", {"alpha": 1.7, "beta": 2.2}),
    ("rayleigh", {"sigma": 1.4}),
    ("half_normal", {"sigma": 0.9}),
    ("generalized_gamma", {"p": 1.5, "a": 2.0, "d": 3.4}),
    ("burr12", {"c": 2.5, "k": 1.8}),
    ("pareto_lomax", {"alpha": 2.5}),
    ("uniform", {}),
    ("beta", {"alpha": 2.25, "beta": 3.5}),
    ("kumaraswamy", {"a": 2.0, "b": 3.0}),
    ("weighted_kumaraswamy", {"a": 2.0, "b": 3.0, "c": 1.5}),
    ("chi_square", {"k": 5.0}),
    ("truncated_power", {"beta": 3.5}),
]


@pytest.fixture(params=CATALOG_INSTANCES, ids=lambda p: p[0])
def catalog_dist(request):
    name, params = request.param
    return make_catalog(name, dict(params))


def interior_grid(dist, n=64, u_lo=0.01, u_hi=0.99):
    u = np.linspace(u_lo, u_hi, n)
    return np.array([dist.quantile(v) for v in u])


# Property tests run a fixed, bounded set of examples so the suite stays
# deterministic and its run time predictable.
settings.register_profile("deterministic", derandomize=True, max_examples=25,
                          deadline=None, database=None)
settings.load_profile("deterministic")
