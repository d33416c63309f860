"""Dataset ingestion and descriptive statistics."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


class SchemaError(ValueError):
    """Requested column missing from the file header."""


class EmptyDataError(ValueError):
    """No usable rows after skipping."""


class DegenerateSeriesError(ValueError):
    """Constant series: higher moments undefined."""


@dataclass(frozen=True)
class Series:
    rainfall_mm: np.ndarray = field(repr=False)
    skipped: int = 0

    def __post_init__(self):
        v = np.asarray(self.rainfall_mm, dtype=float)
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("values must be finite and positive")

    @property
    def n(self) -> int:
        return len(self.rainfall_mm)


def read_csv(path: str, value_column: str) -> Series:
    """Read one value column, skipping and counting rows whose value is
    missing or unparseable."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or value_column not in reader.fieldnames:
            raise SchemaError(f"column {value_column!r} not found in {path}")
        values, skipped = [], 0
        for row in reader:
            raw = (row.get(value_column) or "").strip()
            try:
                v = float(raw)
                if not math.isfinite(v):
                    raise ValueError
            except ValueError:
                skipped += 1
                continue
            values.append(v)
    if not values:
        raise EmptyDataError(f"no usable rows in {path}")
    return Series(rainfall_mm=np.asarray(values, dtype=float), skipped=skipped)


@dataclass(frozen=True)
class DescriptiveStats:
    n: int
    mean: float
    median: float
    mode: float
    std: float
    variance: float
    skewness: float
    kurtosis: float
    minimum: float
    maximum: float
    convention: str


def _mode_first_seen(values: np.ndarray) -> float:
    """The most frequent value; of several, the one seen first."""
    _, first, counts = np.unique(values, return_index=True, return_counts=True)
    return float(values[first[counts == counts.max()].min()])


def describe(series: Series, convention: str = "population") -> DescriptiveStats:
    """Location, spread, and shape summary; kurtosis is non-excess."""
    if convention not in ("population", "sample"):
        raise ValueError(f"unknown moment convention {convention!r}")
    v = np.asarray(series.rainfall_mm, dtype=float)
    n = len(v)
    if n < 2:
        raise ValueError("need at least 2 observations")
    mean = float(np.mean(v))
    d = v - mean
    m2 = float(np.mean(d ** 2))
    if m2 <= 0:
        raise DegenerateSeriesError("constant series: skewness/kurtosis undefined")
    m3 = float(np.mean(d ** 3))
    m4 = float(np.mean(d ** 4))
    if convention == "population":
        variance = m2
        skew = m3 / m2 ** 1.5
        kurt = m4 / m2 ** 2
    else:
        variance = m2 * n / (n - 1)
        g1 = m3 / m2 ** 1.5
        skew = math.sqrt(n * (n - 1)) / (n - 2) * g1 if n > 2 else g1
        g2 = m4 / m2 ** 2 - 3.0
        kurt = 3.0 + ((n - 1) / ((n - 2) * (n - 3))) * ((n + 1) * g2 + 6.0) if n > 3 else m4 / m2 ** 2
    return DescriptiveStats(n=n, mean=mean, median=float(np.median(v)),
                            mode=_mode_first_seen(v), std=math.sqrt(variance),
                            variance=variance, skewness=skew, kurtosis=kurt,
                            minimum=float(np.min(v)), maximum=float(np.max(v)),
                            convention=convention)
