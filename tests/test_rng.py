import numpy as np
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudgraph.rng import SplitMix64, derive_seed


def test_same_seed_same_stream():
    a = SplitMix64(7)
    b = SplitMix64(7)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_diverge_quickly():
    a = SplitMix64(7)
    b = SplitMix64(8)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_randbelow_uniform_chi_square():
    # 1e5 draws over 16 bins; chi-square goodness of fit at alpha = 0.01
    rng = SplitMix64(12345)
    bins = 16
    draws = 100_000
    counts = np.zeros(bins)
    for _ in range(draws):
        counts[rng.randbelow(bins)] += 1
    expected = draws / bins
    stat = float(((counts - expected) ** 2 / expected).sum())
    critical = scipy.stats.chi2.ppf(0.99, bins - 1)
    assert stat < critical


def test_next_double_range():
    rng = SplitMix64(1)
    vals = [rng.next_double() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)


def test_randbelow_bounds_and_coverage():
    rng = SplitMix64(2)
    seen = {rng.randbelow(3) for _ in range(200)}
    assert seen == {0, 1, 2}


def test_partial_shuffle_pick_sorted_distinct():
    rng = SplitMix64(3)
    picked = rng.partial_shuffle_pick(10, 4)
    assert picked == sorted(picked)
    assert len(set(picked)) == 4
    assert all(0 <= i < 10 for i in picked)
    # q >= m returns everything
    assert SplitMix64(3).partial_shuffle_pick(4, 9) == [0, 1, 2, 3]


def test_derive_seed_distinguishes_frames():
    seeds = {derive_seed(0, seq, frame) for seq in range(10) for frame in range(10)}
    assert len(seeds) == 100
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


def test_known_answer_vectors():
    # the reference outputs of splitmix64.c (Vigna) for seed 1234567
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    count=st.integers(0, 2000),
)
def test_doubles_equal_next_double_stream(seed, count):
    vector, scalar = SplitMix64(seed), SplitMix64(seed)
    draws = vector.doubles(count)
    assert draws.dtype == np.float64 and draws.shape == (count,)
    assert np.array_equal(draws, [scalar.next_double() for _ in range(count)])
    # the state advanced by exactly count steps
    assert vector.next_u64() == scalar.next_u64()
