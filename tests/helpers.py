"""Numeric helpers shared by the tests."""

import math
from typing import Callable, Sequence

import numpy as np


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
