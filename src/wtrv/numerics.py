"""Shared numeric kernels: special functions, adaptive quadrature, the cdf
table with its evaluation and inversion, root finding, box-constrained
Newton minimization.

Everything here is a pure function of its inputs and safe to call from
multiple threads. The module loads NumPy only. scipy.special is read
through one handle, `_sc`, which imports it at the first special-function
call, so commands that call none (the elementary bases with power weights)
never load it; brent_root imports scipy.optimize on its first call, and
nothing in the package calls it.
"""

from __future__ import annotations

import itertools
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
    """minimize_bounded's result, whose objective, gradient_norm and
    converged are arrays over its problems; a fit's holds its one problem's
    floats."""

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


class NegativeDensityError(WtrvError):
    """A density to tabulate reads a negative value at x."""

    def __init__(self, x: float):
        super().__init__(f"density is negative at x = {x:.6g}")
        self.x = x


class BracketError(ValueError):
    """Root bracket does not enclose a sign change."""


class ConvergenceError(WtrvError):
    """Vectorized root finding left points unconverged."""


def scalar_or_array(fn: Callable) -> Callable:
    """Call fn(x, *args) with x as a float array: a scalar x gives a float,
    an array a float64 array that shares no memory with x, copied only when
    fn returns its input or a view of it. Handles and weights build these
    per instance, so the wrapper copies none of functools.wraps' attributes."""

    def wrapped(x, *args):
        arr = np.asarray(x, dtype=float)
        out = np.asarray(fn(arr, *args), dtype=float)
        if np.isscalar(x) or arr.ndim == 0:
            return float(out)
        return out.copy() if np.may_share_memory(out, arr) else out

    return wrapped


def value_or_raise(result):
    """result, unless it is an exception, which is raised: the reading of a
    batch that returns each item's value or the error that ended it."""
    if isinstance(result, Exception):
        raise result
    return result


def with_cause(exc: Exception, cause: Exception) -> Exception:
    """exc with cause as its __cause__, as `raise exc from cause` sets it,
    for a batch to return in place of an item."""
    exc.__cause__ = cause
    return exc


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
    TypeError. It runs under the errstate of _gk15_cells's caller."""
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise TypeError(f"integrand returned shape {y.shape} for input shape "
                        f"{x.shape}; it must be vectorized")
    return y


def _blocks(vals: np.ndarray, weights: np.ndarray, cuts: list) -> np.ndarray:
    """vals @ weights, one product per block of rows cuts[j]:cuts[j + 1]:
    BLAS may give a row bits that depend on the product's row count, so each
    block keeps those of its own product."""
    if len(cuts) == 2:  # one block
        return vals @ weights
    return np.concatenate([vals[s:e] @ weights for s, e in zip(cuts[:-1], cuts[1:])])


def _gk15_cells(fs: Sequence[Callable], a: np.ndarray, b: np.ndarray, cuts: list) -> tuple:
    """Gauss-Kronrod 15/7 estimates for a batch of cells [a_i, b_i], those
    of block cuts[j]:cuts[j + 1] of fs[j]: the integrals, their error
    estimates, and the (n, 15) values of the integrands at each cell's
    Kronrod nodes (NaN read as inf), 15 n evaluations. The caller's
    errstate, which must ignore over, invalid and divide, covers the
    integrands and the cells where they are not finite."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    flat = nodes.ravel()
    y = np.concatenate([_eval_batch(f, flat[15 * s:15 * e]) for f, s, e in zip(fs, cuts[:-1], cuts[1:])])
    vals = np.where(np.isnan(y), np.inf, y).reshape(nodes.shape)
    kron = half * _blocks(vals, _WK, cuts)
    gauss = half * _blocks(vals[:, _GAUSS_IDX], _WG, cuts)
    err, size = np.abs(kron - gauss), np.abs(kron)
    # QUADPACK-style sharpening of the raw difference estimate.
    scale = np.where(err > 0, np.minimum(1.0, (200.0 * err / np.maximum(size, 1e-300)) ** 1.5), 0.0)
    err = np.where(np.isfinite(kron), err * np.maximum(scale, 1e-3) + size * 1e-16, np.inf)
    return kron, err, vals


# Cuts, as fractions of its width, of a refined cell at the range's lower end.
# A singularity x^(c-1) there leaves a GK15 error of order h^c on [lo, lo + h];
# 24 halvings a round shrink that below 1e-15 in a few rounds, at 24 cells each.
_GRADED_CUTS = 2.0 ** -np.arange(24, 0, -1)
_GRADED_LEFT = np.append(0.0, _GRADED_CUTS)


def _split_cells(a: np.ndarray, b: np.ndarray, pieces: np.ndarray, lo) -> tuple:
    """Cut cell i of ordered partitions of [lo, ...) into pieces[i] equal
    parts; a cell with pieces[i] = 1 is kept. lo is the lower end of each
    cell's partition, or of all.

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
    frac = j / k[parent]
    if edge.any():
        frac = np.where(edge[parent], _GRADED_LEFT[np.minimum(j, _GRADED_LEFT.size - 1)], frac)
    left = a[parent] + (b - a)[parent] * frac
    right = np.concatenate((left[1:], b[-1:]))
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
    f(x(t)) x'(t) of the substitution x(t) = _from_unit(t, lo), under
    the errstate of _gk15_cells's caller."""

    def g(t):
        om = 1.0 - t
        return _eval_batch(f, lo + t / om) / (om * om)

    return g


# Cells a quadrature or cdf table may hold before it gives up.
_MAX_CELLS = 8192


def _to_halve(a: np.ndarray, b: np.ndarray, errs: np.ndarray, tol: float, total: float,
              evals: int) -> np.ndarray:
    """The cells, of those wide enough for the floats to halve, whose error
    estimates dominate the sum. Raises AccuracyError, with the best estimate
    attached, when there are _MAX_CELLS cells, or when the cells too narrow to
    halve hold more error than tol, which halving the others cannot remove."""
    err_total = float(errs.sum())
    mid = a + 0.5 * (b - a)
    halvable = (a < mid) & (mid < b)
    stuck = float(errs[~halvable].sum())
    if a.size >= _MAX_CELLS or not stuck < tol or not halvable.any():
        why = (f"quadrature budget of {_MAX_CELLS} cells exhausted" if a.size >= _MAX_CELLS
               else "quadrature error held in cells too narrow to halve")
        raise AccuracyError(f"{why} (estimate {total:.6g}, error {err_total:.3g})",
                            estimate=total, abs_error_estimate=err_total, evaluations=evals)
    mask = halvable & (errs > err_total / (2 * errs.size))
    if not mask.any():
        mask = halvable & (errs == errs[halvable].max())
    return mask


def integrate_adaptive(f: Callable, rng: Interval, abs_tol: float = 1e-10,
                       rel_tol: float = 1e-8) -> QuadratureResult:
    """Globally adaptive GK15 quadrature on (lo, hi).

    Each round refines the cells whose error estimates dominate: a cell is
    halved, except the one at lo, which is split geometrically toward lo, so
    an integrable singularity there costs a few rounds, not one per halving.
    An infinite upper limit is mapped to a finite interval with the
    substitution t = (x - lo) / (1 + x - lo) before integration. Raises
    AccuracyError (with the best estimate attached) if the budget of
    _MAX_CELLS cells is exhausted, or cells too narrow to halve hold more
    error than the tolerance, before it is met, which is also how divergent
    integrands surface.
    """
    if not (abs_tol > 0 and rel_tol > 0):
        raise ValueError("tolerances must be positive")
    lo, hi = rng.lo, rng.hi
    if math.isinf(hi):
        f, lo, hi = unit_integrand(f, lo), 0.0, 1.0

    ends = np.linspace(lo, hi, 9)
    a, b = ends[:-1], ends[1:]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vals, errs, fx = _gk15_cells((f,), a, b, [0, a.size])
        evals = fx.size
        while True:
            total = float(vals.sum())
            err_total = float(errs.sum())
            tol = max(abs_tol, rel_tol * abs(total))
            if err_total <= tol and math.isfinite(total):
                return QuadratureResult(total, err_total, evals)
            cut = _to_halve(a, b, errs, tol, total, evals)
            a, b, parent = _split_cells(a, b, np.where(cut, 2, 1), lo)
            new = cut[parent]
            vals, errs = vals[parent], errs[parent]
            vals[new], errs[new], fx = _gk15_cells((f,), a[new], b[new], [0, np.count_nonzero(new)])
            evals += fx.size


@dataclass(frozen=True)
class CdfTable:
    """A density's cdf on [lo, hi] as the cubic Hermite through (nodes,
    values) with slopes: nodes strictly increasing, values nondecreasing from
    0 to exactly 1, slopes finite and >= 0. The knots are each GK15 cell's
    left end and its 15 Kronrod nodes, and hi. The table's coordinate t is x
    on a finite range and _to_unit(x, lo) on an infinite one (mapped), where
    the cdf is 1 at t = 1, so no tail is cut off. total is the density's
    integral, the sum of the cells' GK15 masses; gap is the Hermite's largest
    miss against the interpolant's partial masses, as a fraction of total
    (for a cell too narrow to cut, the miss of the Hermite through its ends
    at 1/4, 1/2 and 3/4). evaluations counts f's values, 15 per cell
    evaluated, and rounds the refinement rounds after the first batch of
    cells. cubic holds each piece's (c1, c2, c3) of SciPy's
    CubicHermiteSpline cubic in s = t - nodes[i], and (2 c2, 3 c3) of its slope.

    value and slope read the cubic in t, cdf and quantile in x; knots are
    the nodes in x."""

    nodes: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    total: float
    gap: float
    lo: float
    mapped: bool
    evaluations: int
    rounds: int
    cubic: tuple

    def _piece(self, t):
        """Each t's piece, found by a search over the knots."""
        return np.minimum(np.maximum(np.searchsorted(self.nodes, t, side="right") - 1, 0),
                          self.nodes.size - 2)

    def value(self, t):
        """The cubic at table coordinates t, summed in SciPy's order, so it
        gives CubicHermiteSpline's floats."""
        return _cubic_value((self.nodes, self.values, *self.cubic), t, self._piece(t))

    def slope(self, t):
        """The cubic's slope at table coordinates t."""
        return _cubic_slope((self.nodes, self.values, *self.cubic), t, self._piece(t))

    def cdf(self, x):
        """The cubic at x, clamped to [0, 1] (NaN stays NaN)."""
        return np.minimum(np.maximum(self.value(_to_unit(x, self.lo) if self.mapped else x), 0.0), 1.0)

    def quantile(self, u):
        """The x where the cubic reaches u: table_quantiles of this table alone."""
        return table_quantiles([self], u)[0]

    @property
    def knots(self) -> np.ndarray:
        """The nodes in x: on a mapped table the last is inf."""
        with np.errstate(divide="ignore"):
            return _from_unit(self.nodes, self.lo) if self.mapped else self.nodes


def _cubic_value(rows: tuple, t, i):
    """Piece i's cubic at t, from the rows nodes, values and CdfTable.cubic,
    summed in SciPy's order."""
    x, y, c1, c2, c3 = rows[:5]
    s = t - x[i]
    return y[i] + c1[i] * s + c2[i] * (s * s) + c3[i] * (s * s * s)


def _cubic_slope(rows: tuple, t, i):
    """Piece i's cubic's slope at t, from the rows nodes, values and
    CdfTable.cubic."""
    x, _, c1, _, _, d2, d3 = rows
    s = t - x[i]
    return c1[i] + d2[i] * s + d3[i] * (s * s)


_NO_PIECE = np.zeros(1)


def table_quantiles(tables: Sequence[CdfTable], u) -> list:
    """Each table's quantile at the levels u, by one invert_monotone call on
    the points of all tables. A level at or below 0 gives the table's lower
    end and one at or above 1 its last knot (inf on a mapped table); a NaN
    level raises ConvergenceError.

    The tables' nodes, values and cubic coefficients are laid end to end.
    Each point is bracketed by the pair of its table's knots whose values
    enclose its level, and each Newton round evaluates the cubic of that
    piece, so no round searches the knots; a point at its bracket's right
    knot reads the next piece, as a search does, unless the bracket is its
    table's last piece. Every point solves alone, so a table's quantiles
    are those it gives by itself."""
    u = np.asarray(u, dtype=float)
    if np.isnan(u).any():
        raise ConvergenceError("quantile level is NaN")
    inner = (u > 0.0) & (u < 1.0)
    level = u[inner]
    if len(tables) == 1:
        rows = (tables[0].nodes, tables[0].values, *tables[0].cubic)
    else:  # a table's last node starts no piece: its coefficients there are 0
        rows = (np.concatenate([t.nodes for t in tables]), np.concatenate([t.values for t in tables]),
                *(np.concatenate([v for t in tables for v in (t.cubic[r], _NO_PIECE)]) for r in range(5)))
    # each point's bracket [nodes[i - 1], nodes[i]], i counted on the rows;
    # step is nodes[i], or inf where the bracket is its table's last piece
    i, step, start = [], [], 0
    for t in tables:
        k = np.searchsorted(t.values, level, side="right")
        i.append(k + start)
        step.append(np.where(k < t.nodes.size - 1, t.nodes[k], np.inf))
        start += t.nodes.size
    i, step = np.concatenate(i), np.concatenate(step)
    nodes, piece = rows[0], i - 1

    def at(v, idx):  # each point's piece
        return piece[idx] + (v >= step[idx])

    roots = invert_monotone(lambda v, idx: _cubic_value(rows, v, at(v, idx)),
                            lambda v, idx: _cubic_slope(rows, v, at(v, idx)),
                            np.concatenate([level] * len(tables)), nodes[piece], nodes[i])
    out = [np.where(u <= 0.0, t.lo, np.inf if t.mapped else t.nodes[-1]) for t in tables]
    for t, r, x in zip(tables, roots.reshape(len(tables), level.size), out):
        x[inner] = _from_unit(r, t.lo) if t.mapped else r
    return out


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


def _knot_gap(miss: np.ndarray, half: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Largest miss of each cell's Hermite through its 17 knots at its 16
    piece midpoints, from _cells's miss (the misses of its first and last
    piece from f at the nodes, and the largest of the others), plus the end
    slopes left[i] and right[i] of its first and last piece; a NaN reads
    inf."""
    first = np.abs(miss[:, 0] + (_DK[0] / 8.0) * half * left)
    last = np.abs(miss[:, 1] - (_DK[-1] / 8.0) * half * right)
    gap = np.maximum(np.maximum(first, last), miss[:, 2])
    gap[np.isnan(gap)] = np.inf
    return gap


def _end_gap(mass, parts, h, ga, gb) -> np.ndarray:
    """Largest miss of each cell's cubic Hermite cdf through its ends (mass,
    end slopes ga and gb, width h) against its partial masses at 1/4, 1/2
    and 3/4; a NaN reads inf."""
    gap = np.abs(mass[:, None] * _H_MASS + h[:, None] * (ga[:, None] * _H_LEFT + gb[:, None] * _H_RIGHT)
                 - parts).max(axis=1)
    gap[np.isnan(gap)] = np.inf
    return gap


def _table(a, b, mass, vals, left, right, gap, wide, total, hi, rng, mapped, evals, rounds):
    """The CdfTable of one pass's final cells: their ends a and b, masses,
    values at the Kronrod nodes, end slopes, gaps and width flags, under the
    pass's errstate; or the WtrvError that its cubics overflow in floats."""
    half = 0.5 * (b - a)
    if not wide.all():
        n = ~wide
        gap[n] = _end_gap(mass[n], half[n, None] * (vals[n] @ _WPART), (b - a)[n], left[n], right[n])
    # each cell's left end and nodes in a (cells, 16) block, then hi; a
    # node that rounding puts a float outside its cell is clamped to it
    cum = np.concatenate([[0.0], np.cumsum(np.maximum(mass, 0.0))])
    nodes, values, slopes = (np.empty(16 * a.size + 1) for _ in range(3))
    knot, value, slope = (v[:-1].reshape(a.size, 16) for v in (nodes, values, slopes))
    knot[:, 0], value[:, 0], slope[:, 0], slope[:, 1:] = a, cum[:-1], left, _slopes(vals)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _XK
    np.minimum(np.maximum(x, a[:, None]), b[:, None], out=knot[:, 1:])
    np.add(cum[:-1, None], half[:, None] * (vals @ _WNODE), out=value[:, 1:])
    nodes[-1], values[-1], slopes[-1] = hi, cum[-1], right[-1]
    keep = nodes[1:] > nodes[:-1]
    if not keep.all():  # knots that rounding puts on one float
        keep = np.append(keep, True)
        nodes, values, slopes = nodes[keep], values[keep], slopes[keep]
    # a total of 0 gives NaN values, for the caller to reject
    values = np.maximum.accumulate(np.minimum(np.maximum(values, 0.0), cum[-1])) / cum[-1]
    secant = np.full(nodes.size + 1, np.inf)
    secant[1:-1] = (values[1:] - values[:-1]) / (nodes[1:] - nodes[:-1])
    slopes = np.minimum(slopes / cum[-1], 3.0 * np.minimum(secant[:-1], secant[1:]))
    try:
        with np.errstate(over="raise", invalid="raise"):
            h = np.diff(nodes)
            chord = np.diff(values) / h
            t = (slopes[:-1] + slopes[1:] - 2 * chord) / h
            c1, c2, c3 = slopes[:-1], (chord - slopes[:-1]) / h - t, t / h
            cubic = c1, c2, c3, c2 * 2, c3 * 3
    except FloatingPointError as exc:  # knots a few floats apart near 0
        return with_cause(WtrvError(f"cannot be interpolated in floats: {exc}"), exc)
    return CdfTable(nodes=nodes, values=values, slopes=slopes, total=total,
                    gap=float(gap.max() / total), lo=rng.lo, mapped=mapped,
                    evaluations=evals, rounds=rounds, cubic=cubic)


def _cells(fs: Sequence[Callable], a: np.ndarray, b: np.ndarray, cuts: list) -> tuple:
    """_gk15_cells, and what a table keeps of each cell besides: the
    interpolant's values at the cell's ends (vals @ _WEND), and the misses
    half width times vals @ _WMISS of _knot_gap, as those of the first and
    last piece, whose end slopes are added later, and the largest magnitude
    of the others (NaN if one is)."""
    mass, err, vals = _gk15_cells(fs, a, b, cuts)
    m = 0.5 * (b - a)[:, None] * _blocks(vals, _WMISS, cuts)
    miss = np.empty((a.size, 3))
    miss[:, :2] = m[:, ::15]
    # the largest over the middle 14 pieces, reduced across rows, which is faster
    miss[:, 2] = np.abs(np.ascontiguousarray(m[:, 1:-1].T)).max(axis=0)
    return mass, err, vals, miss, _blocks(vals, _WEND, cuts)


def _refine(pieces, a, b, mass, err, gap, wide, evals):
    """Set the parts of one table's cells under the two cut rules of
    tabulate_cdf, in place. Returns None while a rule applies and the total
    once none does; raises the AccuracyError that ends the pass."""
    total, err_total = float(mass.sum()), float(err.sum())
    tol = _TABLE_TOL * abs(total)
    cut = (gap > tol) & wide
    pieces[cut] = np.minimum(np.maximum(np.ceil(1.2 * (gap[cut] / tol) ** 0.25), 2), 32)
    if total == 0.0 and wide[0]:  # the mass, if any, lies closer to lo
        pieces[0] = 2
    err_tol = max(1e-12, 1e-10 * abs(total))
    if not (err_total <= err_tol and math.isfinite(total)):
        big = _to_halve(a, b, err, err_tol, total, evals)
        pieces[big] = np.maximum(pieces[big], 2)
    if pieces.max() == 1:
        return total
    if a.size >= _MAX_CELLS:
        raise AccuracyError(f"cdf table budget of {_MAX_CELLS} cells exhausted "
                            f"(estimate {total:.6g}, error {err_total:.3g})",
                            estimate=total, abs_error_estimate=err_total, evaluations=evals)
    return None


def tabulate_cdf(fs: Sequence[Callable], rngs: Sequence[Interval]) -> list:
    """Integrate each density fs[j] over rngs[j] and tabulate its cdf, all
    in one globally adaptive GK15 pass.

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
    f is called only at Kronrod nodes, above lo, under an errstate. A batch
    in which f reads below 0 ends the table's pass with a
    NegativeDensityError naming the first such node's x. An AccuracyError,
    with the best estimate attached, ends it when a round starts with
    _MAX_CELLS cells and a rule still applies, or cells too narrow to halve
    hold more GK15 error than its bound, which is also how a divergent
    integral surfaces. A finished table whose cubics overflow in floats
    leaves as the WtrvError that says so.

    The tables share the pass: a round's elementwise work runs once over
    the cells of every table still refined, while each table's integrand,
    sums and products with the rule's weights run on its own block of
    cells, so each table is the one its pass alone gives, bit for bit. A
    table leaves the pass with its table or its error, and the others go
    on. Returns, in the order of fs, each table or the error that ended it.
    """
    if not fs:
        return []
    mapped = [math.isinf(r.hi) for r in rngs]
    fs = [unit_integrand(f, r.lo) if m else f for f, r, m in zip(fs, rngs, mapped)]
    lo = [0.0 if m else r.lo for r, m in zip(rngs, mapped)]
    hi = [1.0 if m else r.hi for r, m in zip(rngs, mapped)]
    ends = np.array([np.linspace(l, h, 9) for l, h in zip(lo, hi)])
    # each cell's ends, and the lo of its table
    a, b, base = ends[:, :-1].ravel(), ends[:, 1:].ravel(), np.array(lo).repeat(8)
    out: list = [None] * len(fs)
    # the tables still refined, in order: live[j] holds cells cuts[j]:cuts[j + 1]
    live, cuts = list(range(len(fs))), list(range(0, a.size + 1, 8))
    evals, rounds = [15 * 8] * len(fs), [0] * len(fs)
    # a cell of f not finite reads inf or NaN, and its error inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mass, err, vals, miss, extra = _cells(fs, a, b, cuts)
        while True:
            # f at the cell ends: cell i spans left[i], right[i], and a
            # table's last cell ends at its own interpolant's value
            slope = _slopes(extra)
            left = slope[:, 0]
            right = np.concatenate((left[1:], slope[-1:, 1]))
            inner = [e - 1 for e in cuts[1:-1]]
            if inner:
                right[inner] = slope[inner, 1]
            gap = _knot_gap(miss, 0.5 * (b - a), left, right)
            wide = b - a > np.maximum(1e-13 * np.abs(b), 1e-300)
            pieces = np.ones(a.size, dtype=int)
            for i, s, e in zip(live, cuts[:-1], cuts[1:]):
                below = vals[s:e] < 0.0  # vals holds no NaN: _gk15_cells reads it as inf
                if below.any():  # the first such node, in the table's coordinate
                    c, k = divmod(int(np.argmax(below)), 15)
                    t = 0.5 * (a[s + c] + b[s + c]) + 0.5 * (b[s + c] - a[s + c]) * _XK[k]
                    out[i] = NegativeDensityError(float(_from_unit(t, rngs[i].lo) if mapped[i] else t))
                    continue
                try:
                    total = _refine(pieces[s:e], a[s:e], b[s:e], mass[s:e], err[s:e], gap[s:e],
                                    wide[s:e], evals[i])
                except AccuracyError as exc:
                    out[i] = exc
                    continue
                if total is not None:
                    out[i] = _table(a[s:e], b[s:e], mass[s:e], vals[s:e], left[s:e], right[s:e],
                                    gap[s:e], wide[s:e], total, hi[i], rngs[i], mapped[i],
                                    evals[i], rounds[i])
            stay = [out[i] is None for i in live]
            if not all(stay):
                if not any(stay):
                    return out
                size = [e - s for s, e in zip(cuts[:-1], cuts[1:])]
                keep = np.repeat(stay, size)
                a, b, base, mass, err, vals, miss, extra, pieces = (
                    v[keep] for v in (a, b, base, mass, err, vals, miss, extra, pieces))
                live = [i for i, st in zip(live, stay) if st]
                cuts = [0, *itertools.accumulate(n for n, st in zip(size, stay) if st)]
            a, b, parent = _split_cells(a, b, pieces, base)
            cuts = np.searchsorted(parent, cuts).tolist()
            new = pieces[parent] > 1
            base, mass, err, vals, miss, extra = (v[parent] for v in (base, mass, err, vals, miss, extra))
            at = [0, *itertools.accumulate(np.count_nonzero(new[s:e]) for s, e in zip(cuts[:-1], cuts[1:]))]
            mass[new], err[new], vals[new], miss[new], extra[new] = _cells([fs[i] for i in live],
                                                                           a[new], b[new], at)
            for i, s, e in zip(live, at[:-1], at[1:]):
                evals[i], rounds[i] = evals[i] + 15 * (e - s), rounds[i] + 1


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


_MAX_STEPS = 100
_EDGE = 1e-10  # a coordinate this close to a face, relative to 1 + |face|, is on it
_HALVINGS = 30
_TRUST = 1e-9  # Newton decrement, relative to 1 + |f|, below which steps go unchecked


def _masked_solve(h: np.ndarray, g: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Solve h·d = g on the free coordinates of each of m problems, with
    d = 0 on the others: h is (k, k, m) and symmetric, g and free are (k, m),
    and g is 0 off the free coordinates. Two coordinates are solved in closed
    form; a singular system gives a non-finite d in its own column alone.
    Run under np.errstate(all="ignore")."""
    k = g.shape[0]
    if k == 2:
        h00, h11 = np.where(free[0], h[0, 0], 1.0), np.where(free[1], h[1, 1], 1.0)
        h01 = np.where(free[0] & free[1], h[0, 1], 0.0)
        return np.array([h11 * g[0] - h01 * g[1], h00 * g[1] - h01 * g[0]]) / (h00 * h11 - h01 * h01)
    hm = np.where(free[:, None] & free[None], h, np.eye(k)[:, :, None])
    try:
        return np.linalg.solve(np.moveaxis(hm, 2, 0), g.T[..., None])[..., 0].T
    except np.linalg.LinAlgError:  # solve each problem alone
        return np.full_like(g, np.nan) if g.shape[1] == 1 else np.hstack(
            [_masked_solve(h[..., j:j + 1], g[:, j:j + 1], free[:, j:j + 1]) for j in range(g.shape[1])])


def minimize_bounded(fun: Callable, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     tol: float | np.ndarray) -> OptimizeResult:
    """Projected Newton descent in a box for m problems side by side, on the
    caller's gradient and Hessian.

    x0, lo and hi are (k, m) arrays: column j holds problem j's start and
    box. fun(x) takes x of that shape and returns (f, g, h), the objectives,
    gradients and Hessians shaped (m,), (k, m) and (k, k, m), each problem's
    from its own column alone. tol is a scalar or an (m,) array. The
    result's fields but iterations are arrays over the problems.

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
    point. A problem whose f is not finite at x0 is closed there and
    returned with that f and converged False; the others are solved as if it
    were absent. Raises ValueError when x0, lo and hi differ in shape or are
    not 2-D, or x0 is outside the box.
    """
    x, lo, hi = (np.array(v, dtype=float) for v in (x0, lo, hi))
    if x.ndim != 2 or not x.shape == lo.shape == hi.shape:
        raise ValueError("x0, lo and hi must be (k, m) arrays of one shape")
    k, m = x.shape
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError("x0 must lie inside the bounds")
    edge_lo, edge_hi = _EDGE * (1.0 + np.abs(lo)), _EDGE * (1.0 + np.abs(hi))
    at_lo, at_hi = lo + edge_lo, hi - edge_hi
    f, g, h = fun(x)
    steps = 0
    open_, last = np.isfinite(f), np.full(m, np.inf)
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
                ft, gt, ht = fun(xt)
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
    return OptimizeResult(argmin=x, objective=f, gradient_norm=norm, iterations=steps,
                          converged=(norm <= tol) & np.isfinite(f))


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
