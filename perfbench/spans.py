"""Per-layer tracing of ``wtrv`` from outside the program.

``Tracer.install`` replaces the public functions of each module with
wrappers, in every module namespace that imports them, and ``uninstall``
puts the originals back. A wrapper records a span (name, start, end, parent
index) in memory and counts calls, raised exceptions and the work reported
by the returned objects. ``take`` turns the spans of one operation into
self times per layer: a span's duration minus the durations of its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# importlib, because the package's __init__ rebinds ``wtrv.construct`` to
# the function of that name
(cli, construct, data, distributions, fit, gof, numerics, orders, reliability,
 weights) = (importlib.import_module(f"wtrv.{m}") for m in (
    "cli", "construct", "data", "distributions", "fit", "gof", "numerics",
    "orders", "reliability", "weights"))


def _quadrature(counts, result):
    counts["numerics.integrate_adaptive.evals"] += result.evaluations


def _quadrature_error(counts, exc):
    if isinstance(exc, numerics.AccuracyError):
        counts["numerics.integrate_adaptive.budget_exhausted"] += 1
        counts["numerics.integrate_adaptive.evals"] += exc.evaluations


def _optimizer(counts, result):
    counts["numerics.minimize_bounded.iterations"] += result.iterations


def _draws(counts, result):
    counts["distributions.sample.draws"] += len(result)


def _quantile_points(counts, result):
    counts["construct.quantile.points"] += np.size(result)


# (layer name, defining module, attribute, [(namespace, attribute), ...],
#  hook on the returned object, hook on a raised exception)
_TARGETS = (
    ("numerics.integrate_adaptive", numerics, "integrate_adaptive",
     [(weights, "integrate_adaptive"), (construct, "integrate_adaptive"),
      (reliability, "integrate_adaptive")], _quadrature, _quadrature_error),
    ("numerics.brent_root", numerics, "brent_root",
     [(construct, "brent_root"), (distributions, "brent_root")], None, None),
    ("numerics.incomplete_beta_upper", numerics, "incomplete_beta_upper",
     [(distributions, "incomplete_beta_upper")], None, None),
    ("numerics.minimize_bounded", numerics, "minimize_bounded",
     [(fit, "minimize_bounded")], _optimizer, None),
    ("weights.validate_weight", weights, "validate_weight",
     [(weights, "validate_weight"), (construct, "validate_weight")], None, None),
    ("weights.weight_normalizer_integral", weights, "weight_normalizer_integral",
     [(weights, "weight_normalizer_integral"),
      (construct, "weight_normalizer_integral")], None, None),
    ("distributions.sample", distributions, "sample",
     [(distributions, "sample"), (cli, "_draw"), (gof, "_draw")], _draws, None),
    ("orders.verify_theorem", orders, "verify_theorem",
     [(orders, "verify_theorem")], None, None),
    ("orders.check_order", orders, "check_order",
     [(orders, "check_order")], None, None),
    ("reliability.classify_aging", reliability, "classify_aging",
     [(reliability, "classify_aging")], None, None),
    ("reliability.glaser", reliability, "glaser",
     [(reliability, "glaser")], None, None),
    ("fit.fit_mle", fit, "fit_mle", [(fit, "fit_mle"), (gof, "fit_mle")], None, None),
    ("gof.run_gof", gof, "run_gof", [(gof, "run_gof")], None, None),
    ("data.read_csv", data, "read_csv", [(data, "read_csv")], None, None),
    ("data.describe", data, "describe", [(data, "describe")], None, None),
    ("cli.main", cli, "main", [(cli, "main")], None, None),
) + tuple(
    ("gof.statistic", gof, test, [(gof, test)], None, None)
    for test in ("ks_test", "ad_test", "cvm_test", "chisq_test")
) + tuple(
    # fit_mle reads the objective from this table at call time
    ("fit.loglik", fit._LOGLIK, model, [(fit._LOGLIK, model)], None, None)
    for model in tuple(fit._LOGLIK)
)


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer.counts[name + ".calls"] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[name + ".raised"] += 1
                if on_error is not None:
                    on_error(tracer.counts, exc)
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return wrapper

    def _wrap_construct(self, fn):
        """construct() also wraps the quantile of the object it returns and
        counts that object's table nodes."""
        quantile = functools.partial(self.wrap, "construct.quantile",
                                     on_result=_quantile_points)

        def on_result(counts, built):
            counts["construct.table_nodes"] += len(built.cdf_nodes)
            object.__setattr__(built, "quantile", quantile(built.quantile))

        return self.wrap("construct.construct", fn, on_result=on_result)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        original = construct.construct
        wrapped = self._wrap_construct(original)
        for owner, key in ((construct, "construct"), (orders, "construct"),
                           (cli, "_construct")):
            self._saved.append((owner, key, _get(owner, key)))
            _set(owner, key, wrapped)
        for name, home, attr, places, on_result, on_error in _TARGETS:
            wrapped = self.wrap(name, _get(home, attr), on_result, on_error)
            for owner, key in places:
                self._saved.append((owner, key, _get(owner, key)))
                _set(owner, key, wrapped)

    def uninstall(self):
        while self._saved:
            owner, key, value = self._saved.pop()
            _set(owner, key, value)

    def take(self) -> tuple:
        """(self seconds by layer, counts by metric) since the last call."""
        own = [s[2] - s[1] for s in self.spans]
        for s, d in zip(self.spans, list(own)):
            if s[3] >= 0:
                own[s[3]] -= d
        self_s = defaultdict(float)
        for s, d in zip(self.spans, own):
            self_s[s[0]] += d
        counts = self.counts
        self.spans, self.counts = [], defaultdict(float)
        return self_s, counts
