"""Shared numeric kernels: special functions, adaptive quadrature and cdf
tabulation, root finding, box-constrained Newton minimization, finite
differences.

Everything here is a pure function of its inputs and safe to call from
multiple threads. The module loads NumPy only. scipy.special is read
through one handle, `_sc`, which imports it at the first special-function
call, so commands that call none (the elementary bases with power weights)
never load it; brent_root imports scipy.optimize on its first call, and
nothing in the package calls it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class _Special:
    """scipy.special, imported at the first attribute read.

    The import runs under the interpreter's import lock, so a first use from
    two threads waits for one import. Each attribute is cached on the handle
    after its first read, so later reads cost what a module attribute does.
    """

    def __getattr__(self, name: str):
        from scipy import special
        value = getattr(special, name)
        setattr(self, name, value)
        return value


_sc = _Special()


@dataclass(frozen=True)
class Interval:
    """Half-open numeric range (lo, hi); hi may be +inf, lo must be finite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.lo):
            raise ValueError(f"interval lower bound must be finite, got {self.lo}")
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got ({self.lo}, {self.hi})")

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.hi)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class OptimizeResult:
    """minimize_bounded's result; objective, gradient_norm and converged are
    arrays over the problems of a batched call."""

    argmin: np.ndarray
    objective: float | np.ndarray
    gradient_norm: float | np.ndarray
    iterations: int
    converged: bool | np.ndarray


class WtrvError(RuntimeError):
    """Base of the package's runtime failures: a quadrature, root search,
    weighted construction, fit or bootstrap that could not deliver a result."""


class AccuracyError(WtrvError):
    """Quadrature could not reach the requested tolerance within budget.

    Carries the best available estimate so callers can distinguish a slowly
    converging integral from a divergent one.
    """

    def __init__(self, message: str, estimate: float, abs_error_estimate: float,
                 evaluations: int):
        super().__init__(message)
        self.estimate = estimate
        self.abs_error_estimate = abs_error_estimate
        self.evaluations = evaluations


class BracketError(ValueError):
    """Root bracket does not enclose a sign change."""


class ConvergenceError(WtrvError):
    """Vectorized root finding left points unconverged."""


def scalar_or_array(fn: Callable) -> Callable:
    """Call fn(x, *args) with x as a float array; a scalar x gives a float."""

    @functools.wraps(fn)
    def wrapped(x, *args):
        arr = np.asarray(x, dtype=float)
        out = fn(arr, *args)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    return wrapped


def incomplete_beta_upper(y: float, p: float, q: float) -> float:
    """Upper (non-regularized) incomplete beta: integral of t^{p-1}(1-t)^{q-1}
    over [y, 1]."""
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"incomplete_beta_upper requires y in [0, 1], got {y}")
    if not (p > 0 and q > 0):
        raise ValueError(f"incomplete_beta_upper requires positive shape args, got ({p}, {q})")
    if y == 1.0:
        return 0.0
    return float(_sc.beta(p, q) * _sc.betaincc(p, q, y))


# 15-point Kronrod rule with embedded 7-point Gauss rule (nodes on [-1, 1]).
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


def _interpolant_weights(ends: Sequence[float], points: Sequence[float]) -> np.ndarray:
    """(15, len(ends) + len(points)) weights on the values at the Kronrod
    nodes of the degree-14 interpolant through them: its integral over
    [-1, s] for each s in ends, then its value at each s in points."""
    leg = np.polynomial.legendre
    rhs = np.hstack([leg.legval(np.asarray(ends), leg.legint(np.eye(15), lbnd=-1)),
                     leg.legvander(np.asarray(points, dtype=float), 14).T])
    return np.linalg.solve(leg.legvander(_XK, 14).T, rhs)


# A cdf table cell's 17 knots on [-1, 1]: its ends and the Kronrod nodes.
_KNOTS = np.concatenate([[-1.0], _XK, [1.0]])
_DK = np.diff(_KNOTS)
# Interpolant weights: partial masses up to the 15 nodes, to the midpoints of
# the 16 pieces between knots and to 1/4, 1/2 and 3/4 of the cell, then the
# values at the cell's ends; one solve, at import.
_WNODE, _WMID, _WPART, _WEND = np.split(
    _interpolant_weights(np.concatenate([_XK, 0.5 * (_KNOTS[:-1] + _KNOTS[1:]), [-0.5, 0.0, 0.5]]),
                         [-1.0, 1.0]), [15, 31, 34], axis=1)
# The cubic Hermite through a cell's knots (values: the partial masses;
# slopes: f) misses the interpolant's partial mass at the midpoint of piece k
# by (P_k + P_k+1) / 2 + h_k (f_k - f_k+1) / 8 - M_k. _WMISS gives it, times
# the cell's half width, from f at the nodes; the end slopes of pieces 0 and
# 15, which are not node values, are added by the caller.
_WMISS = (0.5 * (np.hstack([np.zeros((15, 1)), _WNODE]) + np.hstack([_WNODE, _WK[:, None]]))
          - _WMID + (np.eye(15, 16, 1) - np.eye(15, 16)) * _DK / 8.0)


def _eval_batch(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized f on an array; a result of another shape raises
    TypeError."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise TypeError(f"integrand returned shape {y.shape} for input shape "
                        f"{x.shape}; it must be vectorized")
    return y


def _gk15_cells(f: Callable, a: np.ndarray, b: np.ndarray) -> tuple:
    """Gauss-Kronrod 15/7 estimates for a batch of cells [a_i, b_i]: the
    integrals, their error estimates, and the (n, 15) values of f at each
    cell's Kronrod nodes (NaN read as inf), 15 n evaluations."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    y = _eval_batch(f, nodes.ravel())
    vals = np.where(np.isnan(y), np.inf, y).reshape(nodes.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        kron = half * (vals @ _WK)
        gauss = half * (vals[:, _GAUSS_IDX] @ _WG)
        err = np.abs(kron - gauss)
    # QUADPACK-style sharpening of the raw difference estimate.
    with np.errstate(invalid="ignore"):
        scale = np.where(err > 0, np.minimum(1.0, (200.0 * err / np.maximum(np.abs(kron), 1e-300)) ** 1.5), 0.0)
    err = np.where(np.isfinite(kron), err * np.maximum(scale, 1e-3) + np.abs(kron) * 1e-16, np.inf)
    return kron, err, vals


# Cuts, as fractions of its width, of a refined cell at the range's lower end.
# A singularity x^(c-1) there leaves a GK15 error of order h^c on [lo, lo + h];
# 24 halvings a round shrink that below 1e-15 in a few rounds, at 24 cells each.
_GRADED_CUTS = 2.0 ** -np.arange(24, 0, -1)
_GRADED_LEFT = np.append(0.0, _GRADED_CUTS)


def _split_cells(a: np.ndarray, b: np.ndarray, pieces: np.ndarray, lo: float) -> tuple:
    """Cut cell i of an ordered partition of [lo, ...) into pieces[i] equal
    parts; a cell with pieces[i] = 1 is kept.

    The cell that starts at lo, when cut, is cut at lo + d*2^-k for
    k = 24..1 instead (d its width). Each cut is a + d*s for a fraction s of
    the cell, which rounds monotonically in s, so the parts stay ordered
    even in cells a few floats wide. Returns the new partition's left and
    right ends, in order, and the index of the cell each part came from.
    """
    edge = (a == lo) & (pieces > 1)
    k = np.where(edge, _GRADED_LEFT.size, pieces)
    parent = np.repeat(np.arange(a.size), k)
    last = np.cumsum(k) - 1
    j = np.arange(parent.size) - (last - k + 1)[parent]  # index of a part in its cell
    frac = np.where(edge[parent], _GRADED_LEFT[np.minimum(j, _GRADED_LEFT.size - 1)],
                    j / k[parent])
    left = a[parent] + (b - a)[parent] * frac
    right = np.append(left[1:], b[-1])
    right[last] = b
    return left, right, parent


def _to_unit(x, lo: float):
    """t = (x - lo) / (1 + x - lo), which maps [lo, inf] onto [0, 1]."""
    return (x - lo) / (1.0 + x - lo)


def _from_unit(t, lo: float):
    """x = lo + t / (1 - t), the inverse of _to_unit."""
    return lo + t / (1.0 - t)


def unit_integrand(f: Callable, lo: float) -> Callable:
    """The integral of f over [lo, inf) as one over [0, 1): the integrand
    f(x(t)) x'(t) of the substitution x(t) = _from_unit(t, lo)."""

    def g(t):
        om = 1.0 - t
        return _eval_batch(f, _from_unit(t, lo)) / (om * om)

    return g


# Cells a quadrature or cdf table may hold before it gives up.
_MAX_CELLS = 8192


def _to_halve(a: np.ndarray, b: np.ndarray, errs: np.ndarray, tol: float, total: float,
              evals: int, max_cells: int) -> np.ndarray:
    """The cells, of those wide enough for the floats to halve, whose error
    estimates dominate the sum. Raises AccuracyError, with the best estimate
    attached, when there are max_cells cells, or when the cells too narrow to
    halve hold more error than tol, which halving the others cannot remove."""
    err_total = float(errs.sum())
    mid = a + 0.5 * (b - a)
    halvable = (a < mid) & (mid < b)
    stuck = float(errs[~halvable].sum())
    if a.size >= max_cells or not stuck < tol or not halvable.any():
        why = (f"quadrature budget of {max_cells} cells exhausted" if a.size >= max_cells
               else "quadrature error held in cells too narrow to halve")
        raise AccuracyError(f"{why} (estimate {total:.6g}, error {err_total:.3g})",
                            estimate=total, abs_error_estimate=err_total, evaluations=evals)
    mask = halvable & (errs > err_total / (2 * errs.size))
    if not mask.any():
        mask = halvable & (errs == errs[halvable].max())
    return mask


def integrate_adaptive(f: Callable, rng: Interval, abs_tol: float = 1e-10,
                       rel_tol: float = 1e-8, max_cells: int = _MAX_CELLS) -> QuadratureResult:
    """Globally adaptive GK15 quadrature on (lo, hi).

    Each round refines the cells whose error estimates dominate: a cell is
    halved, except the one at lo, which is split geometrically toward lo, so
    an integrable singularity there costs a few rounds, not one per halving.
    An infinite upper limit is mapped to a finite interval with the
    substitution t = (x - lo) / (1 + x - lo) before integration. Raises
    AccuracyError (with the best estimate attached) if the node budget is
    exhausted, or cells too narrow to halve hold more error than the
    tolerance, before it is met, which is also how divergent integrands
    surface.
    """
    if not (abs_tol > 0 and rel_tol > 0):
        raise ValueError("tolerances must be positive")
    lo, hi = rng.lo, rng.hi
    if math.isinf(hi):
        f, lo, hi = unit_integrand(f, lo), 0.0, 1.0

    ends = np.linspace(lo, hi, 9)
    a, b = ends[:-1], ends[1:]
    vals, errs, fx = _gk15_cells(f, a, b)
    evals = fx.size

    while True:
        total = float(vals.sum())
        err_total = float(errs.sum())
        tol = max(abs_tol, rel_tol * abs(total))
        if err_total <= tol and math.isfinite(total):
            return QuadratureResult(total, err_total, evals)
        cut = _to_halve(a, b, errs, tol, total, evals, max_cells)
        a, b, parent = _split_cells(a, b, np.where(cut, 2, 1), lo)
        new = cut[parent]
        vals, errs = vals[parent], errs[parent]
        vals[new], errs[new], fx = _gk15_cells(f, a[new], b[new])
        evals += fx.size


@dataclass(frozen=True)
class CdfTable:
    """A density's cdf on [lo, hi] as the cubic Hermite through (nodes,
    values) with slopes: nodes strictly increasing, values nondecreasing from
    0 to exactly 1, slopes finite and >= 0. The knots are each GK15 cell's
    left end and its 15 Kronrod nodes, and hi. The table's coordinate t is x
    on a finite range and _to_unit(x, lo) on an infinite one (mapped); to_t
    and to_x convert. total is the density's integral, the sum of the cells'
    GK15 masses; gap is the Hermite's largest miss against the interpolant's
    partial masses, as a fraction of total (for a cell too narrow to cut, the
    miss of the Hermite through its ends at 1/4, 1/2 and 3/4). evaluations
    counts f's values, 15 per cell evaluated, and rounds the refinement
    rounds after the first batch of cells."""

    nodes: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    total: float
    gap: float
    lo: float
    mapped: bool
    evaluations: int
    rounds: int

    def to_t(self, x):
        """The table coordinate of the points x."""
        return _to_unit(x, self.lo) if self.mapped else x

    def to_x(self, t):
        """The points at the table coordinates t."""
        return _from_unit(t, self.lo) if self.mapped else t


# A table cell is cut while its Hermite cdf misses the interpolant's partial
# masses by more than this fraction of the running total.
_TABLE_TOL = 1e-10
# Hermite basis at 1/4, 1/2 and 3/4 of a cell: weights of the cell mass
# (3s^2 - 2s^3), and of the width times the left (s^3 - 2s^2 + s) and right
# (s^3 - s^2) slope
_S = np.array([0.25, 0.5, 0.75])
_H_MASS, _H_LEFT, _H_RIGHT = 3 * _S**2 - 2 * _S**3, _S**3 - 2 * _S**2 + _S, _S**3 - _S**2


def _slopes(y: np.ndarray) -> np.ndarray:
    """Density values as cdf slopes: one that is not finite or is negative reads 0."""
    return np.where(np.isfinite(y) & (y >= 0.0), y, 0.0)


def _worst(miss: np.ndarray) -> np.ndarray:
    """Each row's largest absolute miss; a NaN reads inf."""
    gap = np.abs(miss).max(axis=1)
    gap[np.isnan(gap)] = np.inf
    return gap


def _knot_gap(miss: np.ndarray, half: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """Largest miss of each cell's Hermite through its 17 knots at its 16
    piece midpoints: miss from f at the nodes (half * vals @ _WMISS), plus
    the end slopes edge[i] and edge[i + 1] of its first and last piece."""
    first = miss[:, 0] + (_DK[0] / 8.0) * half * edge[:-1]
    last = miss[:, -1] - (_DK[-1] / 8.0) * half * edge[1:]
    return _worst(np.column_stack([first, last, miss[:, 1:-1]]))


def _end_gap(mass, parts, h, ga, gb) -> np.ndarray:
    """Largest miss of each cell's cubic Hermite cdf through its ends (mass,
    end slopes ga and gb, width h) against its partial masses at 1/4, 1/2
    and 3/4."""
    return _worst(mass[:, None] * _H_MASS
                  + h[:, None] * (ga[:, None] * _H_LEFT + gb[:, None] * _H_RIGHT) - parts)


def tabulate_cdf(f: Callable, rng: Interval) -> CdfTable:
    """Integrate the density f over rng and tabulate its cdf in one globally
    adaptive GK15 pass.

    Each cell's knots are its left end and its 15 Kronrod nodes. A knot's
    value is the mass before the cell plus the cell's degree-14 interpolant
    of f integrated up to it; its slope is f there, and at a cell end the
    value there of the interpolant of the cell that starts at it (at hi, of
    the last cell), so f is evaluated only at Kronrod nodes. Each round cuts
    cells by two rules until neither applies:
    - a cell whose Hermite misses the interpolant's partial mass at any of
      its 16 piece midpoints by more than _TABLE_TOL of the running total is
      cut into k = clip(ceil(1.2 (gap / tol)^(1/4)), 2, 32) equal parts, k
      from the h^4 error of the Hermite, unless it is too narrow for the
      floats to split;
    - while the summed GK15 error exceeds max(1e-12, 1e-10 * total), the
      cells whose error dominates are halved, as in integrate_adaptive.
    The cell at lo gets graded cuts, and an infinite range is mapped, as in
    integrate_adaptive; the table is in the mapped coordinate. While f reads
    0 at every node, the cell at lo is cut too. Knots that rounding puts on
    one float, in cells too narrow to cut, are dropped; values are made
    nondecreasing by a running maximum, and each slope is capped at 3 times
    the secants next to it, which keeps every cubic monotone (Fritsch and
    Carlson), also where rounding leaves equal values next to 1.
    Raises AccuracyError, with the best estimate attached, when a round
    starts with _MAX_CELLS cells and a rule still applies, or cells too
    narrow to halve hold more GK15 error than its bound, which is also how
    a divergent integral surfaces.
    """
    lo, hi = rng.lo, rng.hi
    mapped = math.isinf(hi)
    if mapped:
        f, lo, hi = unit_integrand(f, lo), 0.0, 1.0
    ends = np.linspace(lo, hi, 9)
    a, b = ends[:-1], ends[1:]
    new = np.ones(a.size, dtype=bool)
    mass, err, vals = _gk15_cells(f, a, b)
    miss, extra = np.empty((a.size, 16)), np.empty((a.size, 2))
    evals, rounds = vals.size, 0
    # a cell of f not finite reads inf or NaN, and its error inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            miss[new] = 0.5 * (b - a)[new, None] * (vals[new] @ _WMISS)
            extra[new] = vals[new] @ _WEND
            total, err_total = float(mass.sum()), float(err.sum())
            # f at the cell ends: cell i spans edge[i], edge[i + 1]
            edge = _slopes(np.append(extra[:, 0], extra[-1, 1]))
            gap = _knot_gap(miss, 0.5 * (b - a), edge)
            wide = b - a > np.maximum(1e-13 * np.abs(b), 1e-300)
            tol = _TABLE_TOL * abs(total)
            cut = (gap > tol) & wide
            pieces = np.ones(a.size, dtype=int)
            pieces[cut] = np.clip(np.ceil(1.2 * (gap[cut] / tol) ** 0.25), 2, 32)
            if total == 0.0 and wide[0]:  # the mass, if any, lies closer to lo
                pieces[0] = 2
            err_tol = max(1e-12, 1e-10 * abs(total))
            if not (err_total <= err_tol and math.isfinite(total)):
                big = _to_halve(a, b, err, err_tol, total, evals, _MAX_CELLS)
                pieces[big] = np.maximum(pieces[big], 2)
            if pieces.max() == 1:
                break
            if a.size >= _MAX_CELLS:
                raise AccuracyError(f"cdf table budget of {_MAX_CELLS} cells exhausted "
                                    f"(estimate {total:.6g}, error {err_total:.3g})",
                                    estimate=total, abs_error_estimate=err_total, evaluations=evals)
            a, b, parent = _split_cells(a, b, pieces, lo)
            new = pieces[parent] > 1
            mass, err, vals, miss, extra = (v[parent] for v in (mass, err, vals, miss, extra))
            mass[new], err[new], vals[new] = _gk15_cells(f, a[new], b[new])
            evals, rounds = evals + 15 * int(new.sum()), rounds + 1
        half = 0.5 * (b - a)
        if not wide.all():
            n = ~wide
            gap[n] = _end_gap(mass[n], half[n, None] * (vals[n] @ _WPART), (b - a)[n],
                              edge[:-1][n], edge[1:][n])
        # the knots, in order: rounding may put a node a float outside its cell
        x = np.clip((0.5 * (a + b))[:, None] + half[:, None] * _XK, a[:, None], b[:, None])
        cum = np.concatenate([[0.0], np.cumsum(np.maximum(mass, 0.0))])
        nodes = np.append(np.column_stack([a, x]).ravel(), hi)
        values = np.append(np.column_stack([cum[:-1], cum[:-1, None] + half[:, None] * (vals @ _WNODE)])
                           .ravel(), cum[-1])
        slopes = np.append(np.column_stack([edge[:-1], _slopes(vals)]).ravel(), edge[-1])
        keep = np.append(nodes[1:] > nodes[:-1], True)
        nodes = nodes[keep]
        # a total of 0 gives NaN values, for the caller to reject
        values = np.maximum.accumulate(np.clip(values[keep], 0.0, cum[-1])) / cum[-1]
        secant = np.diff(values) / np.diff(nodes)
        slopes = np.minimum(slopes[keep] / cum[-1],
                            3.0 * np.minimum(np.append(secant, np.inf), np.append(np.inf, secant)))
        gap = float(gap.max() / total)
    return CdfTable(nodes=nodes, values=values, slopes=slopes, total=total, gap=gap,
                    lo=rng.lo, mapped=mapped, evaluations=evals, rounds=rounds)


def brent_root(f: Callable[[float], float], lo: float, hi: float,
               tol: float = 1e-12) -> float:
    """Bracketed root of f on [lo, hi]; requires a sign change."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    flo, fhi = float(f(lo)), float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={flo:.3g}, {fhi:.3g}")
    from scipy.optimize import brentq  # deferred: most commands never optimize
    return float(brentq(f, lo, hi, xtol=tol, rtol=max(4e-16, min(tol, 1e-10))))


_NEWTON_ROUNDS = 200


def invert_monotone(f: Callable, fprime: Callable, target, lo, hi) -> np.ndarray:
    """Solve f(x) = target point by point for a nondecreasing vectorized f
    on the unit scale, such as a cdf.

    Each point has its own bracket [lo, hi] and gets lo (hi) when its target
    is at or below f(lo) (at or above f(hi)). Safeguarded Newton steps on
    fprime run on all points at once and fall back to bisection when a step
    leaves the bracket or does not halve the step before last. A point stops
    at an x with |f(x) - target| <= 1e-15, or once its step or bracket is
    within 1e-14 * |x|: relative, so a root near 0 keeps its digits where f
    is steep, while the residual stop ends targets too small for the
    relative one. Raises ConvergenceError when f is not finite or a point
    is still open after _NEWTON_ROUNDS rounds.

    f and fprime are called as f(x, idx): idx holds the positions, in the
    flattened target, of the points whose abscissae x holds, in order. For
    the bracket ends that is every point; in each round after, the points
    still open. A function that depends on the point (such as a piecewise
    cubic whose piece each point already knows) reads its own data through
    idx; a function of x alone ignores it.
    """
    shape = np.shape(target)
    t = np.asarray(target, dtype=float).ravel()
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel() for v in (lo, hi))
    every = np.arange(t.size)
    with np.errstate(invalid="ignore"):
        f_lo = np.asarray(f(lo, every), dtype=float) - t
        f_hi = np.asarray(f(hi, every), dtype=float) - t
    if np.isnan(f_lo).any() or np.isnan(f_hi).any():
        raise ConvergenceError("function is not finite at a bracket end")
    x = np.where(f_lo >= 0.0, lo, hi)
    act = np.nonzero((f_lo < 0.0) & (f_hi > 0.0))[0]
    lo, hi, t = lo[act], hi[act], t[act]
    xa = lo - (hi - lo) * f_lo[act] / (f_hi[act] - f_lo[act])  # regula falsi start
    dx = dx_old = hi - lo
    for _ in range(_NEWTON_ROUNDS):
        if act.size == 0:
            break
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            fx = np.asarray(f(xa, act), dtype=float) - t
            if not np.isfinite(fx).all():
                raise ConvergenceError("function is not finite inside a bracket")
            lo, hi = np.where(fx < 0.0, xa, lo), np.where(fx > 0.0, xa, hi)
            step = fx / np.asarray(fprime(xa, act), dtype=float)
            newton = xa - step
            ok = (newton >= lo) & (newton <= hi) & (np.abs(2.0 * step) <= np.abs(dx_old))
        nxt = np.where(ok, newton, 0.5 * (lo + hi))
        dx, dx_old = nxt - xa, dx
        tol = 1e-14 * np.abs(nxt)
        close = np.abs(fx) <= 1e-15
        done = close | (np.abs(dx) <= tol) | (hi - lo <= tol)
        x[act[done]] = np.where(close, xa, nxt)[done]
        act, xa, lo, hi, t, dx, dx_old = (v[~done] for v in (act, nxt, lo, hi, t, dx, dx_old))
    if act.size:
        raise ConvergenceError(f"{act.size} of {x.size} points unconverged after "
                               f"{_NEWTON_ROUNDS} Newton-bisection rounds")
    return x.reshape(shape)


def finite_diff_grad(f: Callable, x: Sequence[float], h: float | Sequence[float] = 1e-6) -> np.ndarray:
    """Central-difference gradient of f at x."""
    x = np.asarray(x, dtype=float)
    hv = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = hv[i]
        fp = float(f(x + step))
        fm = float(f(x - step))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(f"non-finite evaluation near x={x} in coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * hv[i])
    return grad


_MAX_STEPS = 100
_EDGE = 1e-10  # a coordinate this close to a face, relative to 1 + |face|, is on it
_HALVINGS = 30
_TRUST = 1e-9  # Newton decrement, relative to 1 + |f|, below which steps go unchecked


def _masked_solve(h: np.ndarray, g: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Solve h·d = g on the free coordinates of each of m problems, with
    d = 0 on the others: h is (k, k, m) and symmetric, g and free are (k, m),
    and g is 0 off the free coordinates. Two coordinates are solved in closed
    form; a singular system gives a non-finite d. Run under
    np.errstate(all="ignore")."""
    k = g.shape[0]
    if k == 2:
        h00, h11 = np.where(free[0], h[0, 0], 1.0), np.where(free[1], h[1, 1], 1.0)
        h01 = np.where(free[0] & free[1], h[0, 1], 0.0)
        return np.array([h11 * g[0] - h01 * g[1], h00 * g[1] - h01 * g[0]]) / (h00 * h11 - h01 * h01)
    hm = np.where(free[:, None] & free[None], h, np.eye(k)[:, :, None])
    try:
        return np.linalg.solve(np.moveaxis(hm, 2, 0), g.T[..., None])[..., 0].T
    except np.linalg.LinAlgError:
        return np.full_like(g, np.nan)


def minimize_bounded(fun: Callable, x0, bounds: Sequence[Interval | tuple],
                     tol: float = 1e-6) -> OptimizeResult:
    """Projected Newton descent in a box, on the caller's gradient and Hessian.

    fun(x) returns (f, g, h): the objective, its gradient and its Hessian.
    x0 has shape (k,) for one problem, or (k, m) for m problems solved side
    by side; fun gets x in that shape and returns f, g, h shaped (m,),
    (k, m) and (k, k, m), each problem's from its own column of x alone,
    and the result's fields other than iterations are arrays over the m
    problems. A bound is an Interval or a (lo, hi)
    pair whose ends may be arrays of shape (m,).

    Coordinates at a face whose gradient points out of the box are held;
    the Newton step on the others, or a diagonally scaled gradient step
    where the Newton step does not descend, is shortened to end where it
    first meets a face and halved until it meets the Armijo condition. Once
    the Newton decrement is below _TRUST relative to f, full Newton steps
    are taken without the check, which rounding in f can no longer decide;
    this assumes f is convex near such a point, as the likelihoods in fit
    are. A problem stops when its projected gradient is within tol, when
    such a decrement falls below (1e-15·f)² or stops halving from one step
    to the next (tol = 0 thus runs Newton to the rounding floor), when no
    halving lowers f, or after _MAX_STEPS steps. iterations counts the steps
    taken, and converged is set from the projected gradient at the returned
    point. Raises ValueError when x0 is outside the box or f is not finite
    there.
    """
    x0 = np.asarray(x0, dtype=float)
    k = x0.shape[0]
    if len(bounds) != k:
        raise ValueError("one bound per coordinate required")
    x = x0.reshape(k, -1).copy()
    m = x.shape[1]
    ends = [(bd.lo, bd.hi) if isinstance(bd, Interval) else bd for bd in bounds]
    lo, hi = (np.array([np.broadcast_to(np.asarray(e[j], dtype=float), x0.shape[1:])
                        for e in ends]).reshape(k, m) for j in (0, 1))
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError("x0 must lie inside the bounds")
    edge_lo, edge_hi = _EDGE * (1.0 + np.abs(lo)), _EDGE * (1.0 + np.abs(hi))
    at_lo, at_hi = lo + edge_lo, hi - edge_hi

    def evaluate(point):
        f, g, h = fun(point.reshape(x0.shape))
        return (np.asarray(f, dtype=float).reshape(m), np.asarray(g, dtype=float).reshape(k, m),
                np.asarray(h, dtype=float).reshape(k, k, m))

    f, g, h = evaluate(x)
    if not np.isfinite(f).all():
        raise ValueError("objective is non-finite at x0")
    steps = 0
    open_, last = np.ones(m, dtype=bool), np.full(m, np.inf)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_STEPS):
            free = ~_held(g, x, at_lo, at_hi)
            pg = np.where(free, g, 0.0)
            d = -_masked_solve(h, pg, free)
            decrement = -(pg * d).sum(0)
            if not (decrement > 0.0).all():
                diag = np.abs(h[range(k), range(k)])
                d = np.where(decrement > 0.0, d, -pg / np.where(diag > 0.0, diag, 1.0))
            # near the minimum f cannot resolve a step's gain: take Newton
            # steps unchecked while the decrement keeps falling
            scale = 1.0 + np.abs(f)
            trusted = (decrement > 0.0) & (decrement <= _TRUST * scale)
            rounding = (decrement <= (1e-15 * scale) ** 2) | (decrement >= 0.5 * last)
            open_ &= (np.abs(pg).max(0) > tol) & ~(trusted & rounding)
            last = np.where(decrement > 0.0, decrement, np.inf)
            if not open_.any():
                break
            steps += 1
            # the step stops where it first meets a face, and that coordinate
            # lands on the face exactly; one already there is clipped instead
            d = np.where(open_, d, 0.0)
            up = d > 0.0
            face = np.where(up, hi, lo)
            away = np.abs(face - x) > np.where(up, edge_hi, edge_lo)
            room = np.where((d != 0.0) & away, (face - x) / d, np.inf)
            t = np.minimum(room.min(0), 1.0)
            moved = ~open_
            for halving in range(_HALVINGS):
                xt = np.where(room <= t, face, np.minimum(np.maximum(x + t * d, lo), hi))
                ft, gt, ht = evaluate(xt)
                ok = ~moved & np.isfinite(ft) & (trusted | (ft <= f + 1e-4 * (g * (xt - x)).sum(0)))
                moved |= ok
                if halving == 0 and moved.all():
                    # every open problem took its first trial point; a closed
                    # one has xt = x and so the same f, g and h as before
                    x, f, g, h = xt, ft, gt, ht
                    break
                x, f = np.where(ok, xt, x), np.where(ok, ft, f)
                g, h = np.where(ok, gt, g), np.where(ok, ht, h)
                if moved.all():
                    break
                t = np.where(moved, t, 0.5 * t)
            open_ &= moved
    norm = np.abs(np.where(_held(g, x, at_lo, at_hi), 0.0, g)).max(0)
    one = x0.ndim == 1
    return OptimizeResult(argmin=x.reshape(x0.shape), objective=float(f[0]) if one else f,
                          gradient_norm=float(norm[0]) if one else norm,
                          iterations=steps, converged=bool(norm[0] <= tol) if one else norm <= tol)


def _held(g: np.ndarray, x: np.ndarray, at_lo: np.ndarray, at_hi: np.ndarray) -> np.ndarray:
    """Coordinates at a face of the box whose gradient points out of it:
    x at or below at_lo = lo + _EDGE·(1 + |lo|), or at or above
    at_hi = hi − _EDGE·(1 + |hi|)."""
    return ((x <= at_lo) & (g > 0)) | ((x >= at_hi) & (g < 0))


def projected_gradient(g: np.ndarray, x: np.ndarray, lo: np.ndarray,
                       hi: np.ndarray) -> np.ndarray:
    """Zero out gradient components that point outside the box at its faces."""
    at_lo, at_hi = lo + _EDGE * (1.0 + np.abs(lo)), hi - _EDGE * (1.0 + np.abs(hi))
    return np.where(_held(g, x, at_lo, at_hi), 0.0, g)


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic Kolmogorov survival function Q(lam) = 2 sum (-1)^{k-1} exp(-2 k^2 lam^2)."""
    if lam < 0:
        raise ValueError(f"kolmogorov_sf requires lam >= 0, got {lam}")
    return float(_sc.kolmogorov(lam))
