"""Weighted tail random variables.

Construct a new random variable whose density is proportional to
w'(x) times the survival function of a base variable X, study how aging
classes and stochastic orders carry over to the constructed variable, and
fit the weighted Kumaraswamy special case to data.
"""

from .construct import (WtrvDistribution, construct, equilibrium, minimum_of,
                        table1_oracle_suite, wtrv_of_minimum)
from .distributions import (CatalogError, DistributionHandle, Interior, kumaraswamy_moment,
                            make_catalog, parse_dist_spec, sample, wk_moment)
from .fit import (FitResult, NormalizedSample, fit_mle, fit_models, from_unit_values,
                  loglik_beta, loglik_kw, loglik_wk, normalize, rmse_metric,
                  score_beta, score_kw, score_wk)
from .gof import ad_test, bootstrap_pvalue, chisq_test, cvm_test, ks_test, run_gof
from .numerics import (AccuracyError, BracketError, ConvergenceError, Interval,
                       OptimizeResult, QuadratureResult, WtrvError, brent_root,
                       incomplete_beta_upper, integrate_adaptive, invert_monotone,
                       kolmogorov_sf, minimize_bounded)
from .orders import (AuditReport, ConditionReport, OrderVerdict, TheoremReport,
                     check_order, check_theorem_conditions, named_fixture,
                     randomized_theorem_audit, ratio_curve, verify_theorem)
from .reliability import (AgingReport, classify_aging, glaser, hazard, mrl,
                          reversed_hazard)
from .weights import (IntegrabilityError, WeightFunction, make_weight,
                      parse_weight_spec, validate_weight,
                      weight_normalizer_integral)

__version__ = "0.1.0"
