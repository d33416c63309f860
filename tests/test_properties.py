"""Property tests over parameter boxes: every catalog family and weight, a
set of constructed variables, and the likelihood set of a normalized
sample."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wtrv import construct, from_unit_values, make_catalog, make_weight, normalize
from wtrv.fit import BOUNDARY_POLICIES, BoundaryError
from wtrv.weights import _WEIGHTS


def positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# one parameter box per catalog family
FAMILY_BOXES = {
    "exponential": {"lambda": positive(0.2, 5.0)},
    "gamma": {"k": positive(0.3, 6.0), "lambda": positive(0.2, 5.0)},
    "weibull": {"alpha": positive(0.3, 5.0), "beta": positive(0.2, 5.0)},
    "rayleigh": {"sigma": positive(0.2, 5.0)},
    "half_normal": {"sigma": positive(0.2, 5.0)},
    "generalized_gamma": {"p": positive(0.5, 4.0), "a": positive(0.2, 5.0),
                          "d": positive(0.5, 6.0)},
    "burr12": {"c": positive(0.5, 5.0), "k": positive(0.3, 5.0)},
    "pareto_lomax": {"alpha": positive(0.3, 6.0)},
    "uniform": {},
    "beta": {"alpha": positive(0.3, 8.0), "beta": positive(0.3, 8.0)},
    "kumaraswamy": {"a": positive(0.3, 8.0), "b": positive(0.3, 8.0)},
    "weighted_kumaraswamy": {"a": positive(0.3, 8.0), "b": positive(0.3, 8.0),
                             "c": positive(0.3, 8.0)},
    "chi_square": {"k": positive(0.5, 12.0)},
    "truncated_power": {"beta": positive(1.2, 8.0)},
}

@st.composite
def constructions(draw):
    """(base, weight) pairs across bounded and unbounded supports."""
    kind = draw(st.sampled_from(["exp_power", "weibull_fixed_point",
                                 "kumaraswamy_power", "uniform_neg_log_sq"]))
    if kind == "exp_power":
        return (make_catalog("exponential", {"lambda": draw(positive(0.5, 3.0))}),
                make_weight("power", {"c": draw(positive(0.5, 4.0))}))
    if kind == "weibull_fixed_point":
        p = {"alpha": draw(positive(0.8, 3.0)), "beta": draw(positive(0.5, 3.0))}
        return make_catalog("weibull", p), make_weight("scaled_power", p)
    if kind == "kumaraswamy_power":
        return (make_catalog("kumaraswamy", {"a": draw(positive(0.5, 4.0)),
                                             "b": draw(positive(0.5, 6.0))}),
                make_weight("power", {"c": draw(positive(0.5, 4.0))}))
    return make_catalog("uniform", {}), make_weight("neg_log_sq", {})


def assert_cdf_monotone_in_unit_interval(dist):
    u = np.linspace(1e-4, 1.0 - 1e-4, 400)
    xs = np.sort(np.concatenate([np.asarray(dist.quantile(u), dtype=float),
                                 [dist.support.lo - 1.0, dist.support.lo]]))
    cs = np.asarray(dist.cdf(xs), dtype=float)
    assert np.all((cs >= 0.0) & (cs <= 1.0))
    assert np.all(np.diff(cs) >= 0.0)


def assert_quantile_of_cdf_roundtrips(dist):
    xs = np.asarray(dist.quantile(np.linspace(0.01, 0.99, 99)), dtype=float)
    back = np.asarray(dist.quantile(dist.cdf(xs)), dtype=float)
    assert np.all(np.abs(back - xs) <= 1e-8 * (1.0 + np.abs(xs)))


def draw_member(data, name):
    return make_catalog(name, data.draw(st.fixed_dictionaries(FAMILY_BOXES[name])))


@pytest.mark.parametrize("name", sorted(FAMILY_BOXES))
@given(data=st.data())
def test_catalog_cdf_monotone_in_unit_interval(name, data):
    assert_cdf_monotone_in_unit_interval(draw_member(data, name))


@pytest.mark.parametrize("name", sorted(FAMILY_BOXES))
@given(data=st.data())
def test_catalog_quantile_of_cdf_roundtrips(name, data):
    assert_quantile_of_cdf_roundtrips(draw_member(data, name))


@given(constructions())
def test_constructed_cdf_monotone_in_unit_interval(pair):
    assert_cdf_monotone_in_unit_interval(construct(*pair))


@given(constructions())
def test_constructed_quantile_roundtrips(pair):
    built = construct(*pair)
    assert_quantile_of_cdf_roundtrips(built)
    u = np.linspace(0.001, 0.999, 999)
    assert np.max(np.abs(np.asarray(built.cdf(built.quantile(u))) - u)) <= 1e-14


@given(positive(0.5, 4.0), positive(0.5, 6.0), positive(0.5, 4.0))
def test_weighted_kumaraswamy_closed_form_matches_construction(a, b, c):
    closed = make_catalog("weighted_kumaraswamy", {"a": a, "b": b, "c": c})
    built = construct(make_catalog("kumaraswamy", {"a": a, "b": b}),
                      make_weight("power", {"c": c}))
    xs = np.asarray(closed.quantile(np.linspace(0.001, 0.999, 999)))
    pdf = np.asarray(closed.pdf(xs))
    assert np.max(np.abs(np.asarray(built.pdf(xs)) - pdf) / pdf) <= 1e-8
    assert np.max(np.abs(np.asarray(built.cdf(xs)) - np.asarray(closed.cdf(xs)))) <= 1e-8


@pytest.mark.parametrize("name", sorted(_WEIGHTS))
@given(data=st.data())
def test_catalog_weight_starts_at_zero_and_increases(name, data):
    # construct relies on this without a run-time check: w(0) = 0, w' >= 0
    # and w nondecreasing on a grid of [0, hi), at parameters log-uniform
    # in e^-3..e^3
    w = make_weight(name, {k: math.exp(data.draw(st.floats(-3.0, 3.0), label=k))
                           for k in _WEIGHTS[name][0]})
    x = np.linspace(0.0, min(w.domain_hint.hi, 20.0), 257)[:-1]
    v = np.asarray(w.w(x), dtype=float)
    assert abs(v[0]) <= 1e-12
    assert np.all(np.asarray(w.w_prime(x), dtype=float) >= 0.0)
    assert np.all(np.diff(v) >= -1e-12 * np.max(np.abs(v)))


@pytest.mark.parametrize("policy", BOUNDARY_POLICIES)
@given(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                min_size=3, max_size=40))
def test_likelihood_set_strictly_inside_unit_interval(policy, values):
    # exclude_boundary keeps the values in (0, 1); shrink keeps all n, mapped
    # into [0.5/n, 1 - 0.5/n]; ties and the ends 0 and 1 included
    samples = [from_unit_values(values, policy)]
    if max(values) > min(values):
        samples.append(normalize(values, policy))
    for s in samples:
        inner = np.count_nonzero((s.values > 0.0) & (s.values < 1.0))
        if policy == "exclude_boundary" and inner == 0:
            with pytest.raises(BoundaryError, match="empty"):
                s.likelihood_values
            continue
        x = s.likelihood_values
        assert np.all((x > 0.0) & (x < 1.0))
        assert len(x) == (inner if policy == "exclude_boundary" else s.n)
