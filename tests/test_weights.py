import itertools
import math

import numpy as np
import pytest

from wtrv import (CatalogError, IntegrabilityError, WeightFunction, make_catalog, make_weight,
                  parse_weight_spec, validate_weight, weight_normalizer_integral)
from wtrv.weights import _WEIGHTS

WEIGHT_INSTANCES = [
    ("power", {"c": 2.0}),
    ("power", {"c": 0.5}),
    ("scaled_power", {"alpha": 1.7, "beta": 2.2}),
    ("log1p_power", {"c": 2.5}),
    ("neg_log_sq", {}),
    ("exp_shift_sq", {}),
    ("expm1", {}),
    ("neg_x_log1m", {}),
    ("linear", {}),
]


@pytest.fixture(params=WEIGHT_INSTANCES, ids=lambda p: f"{p[0]}{p[1]}")
def weight(request):
    name, params = request.param
    return make_weight(name, dict(params))


def weight_grid(w, n=256):
    hi = w.domain_hint.hi
    hi = min(hi, 20.0) if np.isfinite(hi) else 20.0
    return np.linspace(hi * 1e-4, hi * (1 - 1e-4), n)


class TestWeightInvariants:
    def test_starts_at_zero(self, weight):
        assert abs(float(weight.w(0.0))) <= 1e-12

    def test_nondecreasing_on_grid(self, weight):
        xs = weight_grid(weight)
        vals = np.asarray(weight.w(xs), dtype=float)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_derivative_matches(self, weight):
        xs = weight_grid(weight, n=64)[4:-4]
        h = 1e-6 * (1.0 + np.abs(xs))
        num = (np.asarray(weight.w(xs + h)) - np.asarray(weight.w(xs - h))) / (2 * h)
        wp = np.asarray(weight.w_prime(xs), dtype=float)
        rel = np.abs(num - wp) / (1e-12 + np.abs(wp))
        assert np.max(rel) <= 1e-5

    def test_derivative_nonnegative(self, weight):
        xs = weight_grid(weight)
        assert np.all(np.asarray(weight.w_prime(xs), dtype=float) >= 0.0)

    @pytest.mark.parametrize("make", [
        *(lambda n=name, p=params: make_weight(n, dict(p)) for name, params in WEIGHT_INSTANCES),
        lambda: WeightFunction("square", {}, lambda x: x * x, lambda x: 2 * x),
        lambda: WeightFunction("view", {}, lambda t: t.reshape(t.shape),
                               lambda t: np.ones_like(t))],
        ids=[f"{n}{p}" for n, p in WEIGHT_INSTANCES] + ["hand_built", "view"])
    def test_scalar_and_array(self, make):
        # the derived functions own the float contract, also over raw
        # functions written with integer literals or returning a view of
        # their input, so callers convert nothing and own what they get
        w = make()
        assert type(w.w(0.5)) is float and type(w.w_prime(3)) is float
        for fn in (w.w, w.w_prime):
            for x, shape in ((np.full((2, 3), 0.5), (2, 3)), ([0.25, 0.5], (2,))):
                out = fn(x)
                assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == shape
                assert not np.shares_memory(out, x)


class TestDeclaredOrder:
    # catalog_build names every weight and orders its parameters as the
    # catalog declares them, whatever order the caller gives
    @pytest.mark.parametrize("name, params", WEIGHT_INSTANCES,
                             ids=[f"{n}{p}" for n, p in WEIGHT_INSTANCES])
    def test_reversed_parameters_build_the_same_weight(self, name, params):
        fwd = make_weight(name, dict(params))
        rev = make_weight(name, dict(reversed(list(params.items()))))
        assert list(fwd.params) == list(_WEIGHTS[name][0])
        assert (rev.name, list(rev.params.items()), rev.describe()) == \
            (fwd.name, list(fwd.params.items()), fwd.describe())
        x = weight_grid(fwd, n=16)
        assert rev.w(x).tobytes() == fwd.w(x).tobytes()


class TestExamples:
    def test_power_two(self):
        w = make_weight("power", {"c": 2.0})
        assert float(w.w(0.5)) == pytest.approx(0.25, rel=1e-14)
        assert float(w.w_prime(0.5)) == pytest.approx(1.0, rel=1e-14)

    def test_neg_log_sq_derivative(self):
        w = make_weight("neg_log_sq", {})
        x = 0.3
        assert float(w.w_prime(x)) == pytest.approx(2 * x / (1 - x * x), rel=1e-12)

    def test_linear(self):
        w = make_weight("linear", {})
        assert float(w.w(3.7)) == pytest.approx(3.7)
        assert float(w.w_prime(100.0)) == pytest.approx(1.0)

    def test_unknown_weight(self):
        with pytest.raises(CatalogError, match="unknown weight 'cube_root'"):
            make_weight("cube_root", {})

    def test_spec_parsing(self):
        w = parse_weight_spec("power(c=2)")
        assert float(w.w(2.0)) == pytest.approx(4.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("name, key", sorted({(n, k) for n, ps in WEIGHT_INSTANCES
                                                  for k in ps}))
    def test_nonfinite_parameter(self, name, key, bad):
        params = dict(WEIGHT_INSTANCES)[name]
        with pytest.raises(CatalogError, match=f"{key!r}"):
            make_weight(name, {**params, key: bad})


class TestValidation:
    def test_linear_exponential_table(self):
        table = validate_weight(make_weight("linear", {}),
                                make_catalog("exponential", {"lambda": 1.0}))
        assert table.total == pytest.approx(1.0, abs=1e-8)
        assert table.values[0] == 0.0 and table.values[-1] == 1.0

    def test_power_two_lomax_one_diverges(self):
        with pytest.raises(IntegrabilityError, match=r"^weight power\(c=2\) is not admissible "
                                                     r"for pareto_lomax\(alpha=1\): "):
            validate_weight(make_weight("power", {"c": 2.0}),
                            make_catalog("pareto_lomax", {"alpha": 1.0}))

    def test_negative_slope_rejected_at_once(self):
        # w' = 1 - x/2 turns negative at x = 2; the pass stops at the first
        # node where w'*sf < 0 instead of spending its cell budget
        w = WeightFunction("tent", {}, lambda x: x - x * x / 4, lambda x: 1.0 - x / 2)
        with pytest.raises(IntegrabilityError, match=r"^weight tent\(\) is not admissible for "
                           r"exponential\(lambda=1\): w'\*sf for tent\(\) against "
                           r"exponential\(lambda=1\) is negative at x = ") as err:
            validate_weight(w, make_catalog("exponential", {"lambda": 1.0}))
        x = err.value.__cause__.x  # the pass's NegativeDensityError
        assert x > 2.0 and float(w.w_prime(x)) < 0.0
        assert str(err.value).endswith(f"x = {x:.6g}")

    def test_zero_total_rejected_without_cause(self):
        # w' = 0 integrates to 0: the pass ends with a table that no error
        # stopped, and the rejection has no cause
        w = WeightFunction("zero", {}, lambda x: 0.0 * x, lambda x: 0.0 * x)
        with pytest.raises(IntegrabilityError) as err:
            validate_weight(w, make_catalog("exponential", {"lambda": 1.0}))
        assert str(err.value) == ("weight zero() is not admissible for exponential(lambda=1): "
                                  "normalizer for zero() against exponential(lambda=1) is not a "
                                  "positive finite number: 0.0")
        assert err.value.__cause__ is None

    def test_sqrt_kumaraswamy_passes(self):
        table = validate_weight(make_weight("power", {"c": 0.5}),
                                make_catalog("kumaraswamy", {"a": 2.0, "b": 3.0}))
        assert math.isfinite(table.total) and table.total > 0


class TestNormalizerNearSingularity:
    # w'(x) = c x^(c-1) is unbounded (c < 1) or not smooth (c near 1) at 0;
    # the GK15 error estimate alone misses the weak cases near c = 1
    @pytest.mark.parametrize("lam, c", itertools.product(
        [0.5, 1.0, 2.41, 3.0],
        [0.3, 0.41, 0.5, 0.7, 0.9, 0.99, 0.996, 1.004, 1.01, 1.3, 2.5]))
    def test_exponential_power_is_gamma_moment(self, lam, c):
        z = weight_normalizer_integral(make_weight("power", {"c": c}),
                                       make_catalog("exponential", {"lambda": lam}))
        assert z == pytest.approx(math.gamma(c + 1.0) / lam ** c, rel=2e-9)

    @pytest.mark.parametrize("alpha, beta", itertools.product(
        [0.4, 0.6, 0.8, 0.99, 1.01, 1.7, 2.5], [0.5, 1.2, 2.2]))
    def test_weibull_fixed_point_normalizer_is_one(self, alpha, beta):
        params = {"alpha": alpha, "beta": beta}
        z = weight_normalizer_integral(make_weight("scaled_power", params),
                                       make_catalog("weibull", params))
        assert z == pytest.approx(1.0, abs=2e-9)
