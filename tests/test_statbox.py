import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudgraph.errors import EmptyInput
from cloudgraph.statbox import STAT_NAMES, statbox_array, statbox_columns

EPS = 1e-12


def oracle_stats(values, epsilon=EPS):
    """Brute-force reimplementation of the 10 operators in pure Python.

    Written independently of the library code (plain loops, sorted lists);
    used as the oracle for the randomized equivalence suite.
    """
    n = len(values)
    s = sorted(float(v) for v in values)
    mean = sum(s) / n
    m2 = sum((x - mean) ** 2 for x in s) / n
    m3 = sum((x - mean) ** 3 for x in s) / n
    m4 = sum((x - mean) ** 4 for x in s) / n
    std = math.sqrt(m2)
    if m2 < epsilon:
        skew = kurt = 0.0
    else:
        skew = m3 / m2**1.5
        kurt = m4 / m2**2
    gmean = math.exp(sum(math.log(max(abs(x), epsilon)) for x in s) / n)

    def lin_quantile(p):
        pos = p * (n - 1)
        lo = int(math.floor(pos))
        frac = pos - lo
        if frac == 0 or lo + 1 >= n:
            return s[lo]
        return s[lo] + frac * (s[lo + 1] - s[lo])

    def nearest_rank(p):
        return s[max(math.ceil(p * n) - 1, 0)]

    return [mean, std, lin_quantile(0.5), skew, kurt, gmean,
            lin_quantile(0.25), lin_quantile(0.75),
            nearest_rank(0.25), nearest_rank(0.75)]


def rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def named(values, epsilon=EPS):
    """statbox_array output keyed by statistic name."""
    return dict(zip(STAT_NAMES, statbox_array(values, epsilon)))


def test_constant_vector():
    sb = named([2, 2, 2, 2])
    assert sb["mean"] == 2
    assert sb["std"] == 0
    assert sb["median"] == 2
    assert sb["skewness"] == 0
    assert sb["kurtosis"] == 0
    assert sb["geometric_mean"] == pytest.approx(2)
    assert sb["quantile_25"] == 2 and sb["quantile_75"] == 2
    assert sb["percentile_25"] == 2 and sb["percentile_75"] == 2


def test_one_to_four():
    sb = named([1, 2, 3, 4])
    assert sb["mean"] == 2.5
    assert sb["median"] == 2.5
    assert sb["skewness"] == 0.0  # symmetric
    # remaining entries frozen from the independent oracle
    expect = oracle_stats([1, 2, 3, 4])
    got = statbox_array([1, 2, 3, 4])
    assert np.allclose(got, expect, rtol=1e-12, atol=0)
    assert sb["std"] == pytest.approx(math.sqrt(1.25), rel=1e-15)
    assert sb["kurtosis"] == pytest.approx(1.64, rel=1e-15)
    assert sb["geometric_mean"] == pytest.approx(24 ** 0.25, rel=1e-12)
    assert sb["quantile_25"] == 1.75 and sb["quantile_75"] == 3.25
    assert sb["percentile_25"] == 1.0 and sb["percentile_75"] == 3.0


def test_empty_raises():
    with pytest.raises(EmptyInput):
        statbox_array([])


def test_geometric_mean_signed_clamped():
    sb = named([-1, 2], epsilon=1e-12)
    assert sb["geometric_mean"] == pytest.approx(math.sqrt(2), rel=1e-12)


def test_order_is_the_wire_contract():
    assert STAT_NAMES == (
        "mean", "std", "median", "skewness", "kurtosis", "geometric_mean",
        "quantile_25", "quantile_75", "percentile_25", "percentile_75",
    )


def test_random_vectors_match_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(1, 51))
        v = rng.normal(size=n) * rng.uniform(0.1, 10)
        got = statbox_array(v)
        expect = oracle_stats(v)
        for g, e in zip(got, expect):
            assert rel_close(g, e)


finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


@given(finite_vectors, st.randoms())
@settings(max_examples=150, deadline=None)
def test_permutation_invariance_exact(v, shuffler):
    shuffled = list(v)
    shuffler.shuffle(shuffled)
    assert np.array_equal(statbox_array(v), statbox_array(shuffled))


@given(finite_vectors, st.floats(min_value=-100, max_value=100))
@settings(max_examples=100, deadline=None)
@example(v=[375485.0] * 3, c=0.1)
def test_translation_property(v, c):
    base = named(v)
    shifted = named(np.asarray(v) + c)
    for name in ("mean", "median", "quantile_25", "quantile_75",
                 "percentile_25", "percentile_75"):
        assert rel_close(shifted[name], base[name] + c)
    assert rel_close(shifted["std"], base["std"])
    if base["std"] > 1e-3:  # moment ratios only stable away from degeneracy
        assert rel_close(shifted["skewness"], base["skewness"], 1e-6)
        assert rel_close(shifted["kurtosis"], base["kurtosis"], 1e-6)


@given(finite_vectors, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100, deadline=None)
@example(v=[375485.0] * 3, s=238.4450255590151)
def test_scale_property(v, s):
    base = named(v)
    scaled = named(np.asarray(v) * s)
    for name in ("mean", "std", "median", "quantile_25", "quantile_75",
                 "percentile_25", "percentile_75"):
        assert rel_close(scaled[name], base[name] * s)
    if base["std"] > 1e-3:
        assert rel_close(scaled["skewness"], base["skewness"], 1e-6)
        assert rel_close(scaled["kurtosis"], base["kurtosis"], 1e-6)


def test_columns_single_row_degenerates_to_constant_case():
    out = statbox_columns(np.array([[3.0, -1.0, 5.0]]))
    assert out.shape == (30,)
    assert out[0] == 3.0 and out[1] == 0.0  # mean, std of column 0
    assert out[10] == -1.0
    assert out[20] == 5.0


def test_columns_matches_vector_call():
    out = statbox_columns(np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert np.array_equal(out, statbox_array([1, 2, 3, 4]))


def test_columns_equal_per_column_calls_bit_exact(np_rng):
    m = np_rng.normal(size=(5, 2))
    out = statbox_columns(m)
    manual = np.concatenate([statbox_array(m[:, 0]), statbox_array(m[:, 1])])
    assert np.array_equal(out, manual)


def test_columns_empty_raises():
    with pytest.raises(EmptyInput):
        statbox_columns(np.zeros((0, 3)))


def seeded_samples(shape, seed):
    """A seeded normal sample, a near-flat one (m2 about 1e-16, below
    epsilon) and a constant one; a 2-D normal sample also gets one constant
    and one near-flat row among its ordinary rows."""
    rng = np.random.default_rng(seed)
    v = 3.0 * rng.normal(size=shape)
    flat = 1.5 + rng.normal(scale=1e-8, size=shape)
    const = np.full(shape, -0.7)
    if v.ndim == 2:
        v[0], v[1] = const[0], flat[1]
    return [v, flat, const]


# SHA-256 of the outputs of the out-of-place kernel (np.mean, a new array
# per moment), so computing the moments and the log in place keeps every bit
@pytest.mark.parametrize("seed, shape, digest", [
    (0, (128, 20), "869c1cba1f769e3636ca920ffc8928e03dbdc48340093d51d7626ecebbdbc9b1"),
    (1, (19, 1024), "ab77c2374954a9fde3b968c30086172a8b388e53cdf3c40f469c743d04548c9d"),
    (2, (1,), "6d0bac7e41916d005147d793afbdd5c2379624dcef0bfe5730f239b3073dea04"),
    (3, (2,), "bd311e558291c2da95f41c64768aa0f52785c6af71b39aeaa3594f299ac4c62a"),
])
def test_statbox_array_digests_are_pinned(seed, shape, digest):
    h = hashlib.sha256()
    for v in seeded_samples(shape, seed):
        h.update(statbox_array(v).tobytes())
    assert h.hexdigest() == digest
