"""The 10-operator statistical feature bank.

For one input vector the bank produces, in this fixed, normative order:

    mean, std, median, skewness, kurtosis, geometric_mean,
    quantile_25, quantile_75, percentile_25, percentile_75

Conventions (all degenerate-safe):

* std is the population standard deviation sqrt(m2).  A constant vector
  has its value as the exact mean, so its std is exactly 0.
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
    out = np.empty(s.shape[:-1] + (10,))
    for col, p in ((2, 0.5), (6, 0.25), (7, 0.75)):  # median, q25, q75
        pos = p * (m - 1)
        lo = math.floor(pos)
        frac = pos - lo
        q = s[..., lo]
        out[..., col] = q if frac == 0.0 else q + frac * (s[..., lo + 1] - q)
    out[..., 8:] = s[..., [max(math.ceil(p * m) - 1, 0) for p in (0.25, 0.75)]]
    # a constant row's float mean can round off its value; take it exactly.
    # np.add.reduce(x, axis=-1) / m is np.mean's own sum and division
    mean = np.where(s[..., :1] == s[..., -1:], s[..., :1], np.add.reduce(s, axis=-1, keepdims=True) / m)
    out[..., 0] = mean[..., 0]
    # the log and the moments in one scratch array t, s turned in place
    # into the deviations d and then d^3, t into log|s|, d^2 and then d^4
    t = np.abs(s)
    np.log(np.maximum(t, epsilon, out=t), out=t)
    out[..., 5] = np.exp(np.add.reduce(t, axis=-1) / m)
    s -= mean
    m2 = np.add.reduce(np.multiply(s, s, out=t), axis=-1) / m
    m3 = np.add.reduce(np.multiply(s, t, out=s), axis=-1) / m
    m4 = np.add.reduce(np.multiply(t, t, out=t), axis=-1) / m
    flat = m2 < epsilon
    safe_m2 = np.where(flat, 1.0, m2)
    out[..., 1] = np.sqrt(m2)
    out[..., 3] = np.where(flat, 0.0, m3 / safe_m2**1.5)
    out[..., 4] = np.where(flat, 0.0, m4 / (safe_m2 * safe_m2))
    return out


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
