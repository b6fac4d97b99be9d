"""The 10-operator statistical feature bank.

For one input vector the bank produces, in this fixed, normative order:

    mean, std, median, skewness, kurtosis, geometric_mean,
    quantile_25, quantile_75, percentile_25, percentile_75

Conventions (all degenerate-safe):

* std is the population standard deviation sqrt(m2).
* skewness = m3 / m2^(3/2) and kurtosis = m4 / m2^2 (Pearson, non-excess);
  both are defined as 0 when m2 < epsilon.
* geometric_mean = exp(mean(log(max(|v|, epsilon)))).  Inputs here are
  signed (coordinates, Doppler velocities), so the operator runs on
  absolute values clamped away from zero.  NOTE: this deviates from the
  textbook geometric mean on signed data, deliberately, to keep the
  operator total and finite.
* quantile uses linear interpolation between order statistics at position
  p * (n - 1); percentile uses nearest-rank (sorted value at index
  ceil(p * n) - 1).  The two are distinct estimators on purpose.
* median is the quantile at p = 0.5 under the interpolation rule.

The input is sorted before anything is computed, which makes every output
exactly permutation invariant (bit for bit).

There is one kernel, ``statbox_array``: it reduces the last axis of any
(..., m) array, so the per-point neighbour-distance statistics of a whole
frame are one call on an n x k array, and ``statbox_columns`` is one call
on the transposed node-feature matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyInput

STAT_NAMES = (
    "mean",
    "std",
    "median",
    "skewness",
    "kurtosis",
    "geometric_mean",
    "quantile_25",
    "quantile_75",
    "percentile_25",
    "percentile_75",
)


def statbox_array(values, epsilon: float = 1e-12) -> np.ndarray:
    """Apply the bank along the last axis of a non-empty (..., m) array of
    finite reals: (..., 10) in the fixed order.

    Every row goes through the same vector operations as a lone 1-D row of
    the same length, so a batched call equals per-row calls bit for bit.
    """
    v = np.atleast_1d(np.asarray(values, dtype=np.float64))
    m = v.shape[-1]
    if m == 0:
        raise EmptyInput("statbox requires at least one value")
    s = np.sort(v, axis=-1)
    mean = s.mean(axis=-1, keepdims=True)
    d = s - mean
    d2 = d * d
    m2 = d2.mean(axis=-1)
    flat = m2 < epsilon
    safe_m2 = np.where(flat, 1.0, m2)
    skewness = np.where(flat, 0.0, (d2 * d).mean(axis=-1) / safe_m2**1.5)
    kurtosis = np.where(flat, 0.0, (d2 * d2).mean(axis=-1) / (safe_m2 * safe_m2))
    gmean = np.exp(np.log(np.maximum(np.abs(s), epsilon)).mean(axis=-1))
    linear = []
    for p in (0.5, 0.25, 0.75):
        pos = p * (m - 1)
        lo = math.floor(pos)
        frac = pos - lo
        q = s[..., lo]
        linear.append(q if frac == 0.0 else q + frac * (s[..., lo + 1] - q))
    median, q25, q75 = linear
    p25, p75 = (s[..., max(math.ceil(p * m) - 1, 0)] for p in (0.25, 0.75))
    return np.stack(
        [mean[..., 0], np.sqrt(m2), median, skewness, kurtosis, gmean, q25, q75, p25, p75],
        axis=-1,
    )


def statbox_columns(matrix, epsilon: float = 1e-12) -> np.ndarray:
    """Apply the bank to each column of an n x d matrix.

    Output layout is column-major by statistic blocks:
    [stats(col_0), stats(col_1), ...], each block in the fixed 10-order,
    giving a vector of length 10 * d.  The columns are reduced as the rows
    of a C-contiguous transpose, so the result equals d independent 1-D
    statbox_array calls bit for bit.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("statbox_columns expects an n x d matrix")
    if m.shape[0] == 0:
        raise EmptyInput("statbox_columns requires at least one row")
    return statbox_array(np.ascontiguousarray(m.T), epsilon).reshape(-1)
