import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudgraph.rng import SplitMix64, derive_seed

from conftest import traced_peak


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


def test_partial_shuffle_picks_one_group_distinct():
    rng = SplitMix64(3)
    picked = rng.partial_shuffle_picks([10], 4)[0].tolist()
    assert len(set(picked)) == 4
    assert all(0 <= i < 10 for i in picked)
    # q = m picks everything
    assert sorted(SplitMix64(3).partial_shuffle_picks([4], 4)[0].tolist()) == [0, 1, 2, 3]
    # the entries grad_check samples, pinned from the scalar shuffle loop
    rng = SplitMix64(0)
    assert sorted(rng.partial_shuffle_picks([4096], 5)[0].tolist()) == [857, 1171, 1758, 2519, 3503]
    assert rng.next_u64() == 6038094601263162090


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


@pytest.mark.parametrize("count", [0, 1, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5])
def test_doubles_equal_next_double_stream_across_chunks(count):
    # a run is computed 2**14 draws at a time: each chunk starts where the
    # last one ended
    vector, scalar = SplitMix64(2**64 - 3), SplitMix64(2**64 - 3)
    draws = vector.doubles(count)
    assert np.array_equal(draws, [scalar.next_double() for _ in range(count)])
    assert vector.next_u64() == scalar.next_u64()


def test_doubles_peak_memory_is_its_output_and_two_chunks():
    # one pair of uint64 scratch arrays of 2**14 values, not a dozen
    # count-sized temporaries
    count = 200_000
    draws, peak = traced_peak(SplitMix64(6).doubles, count)
    assert draws.shape == (count,)
    assert peak <= 8 * count + 2 * 8 * 2**14 + (4 << 10)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    bounds=st.lists(
        st.one_of(
            st.sampled_from([1, 2**63 + 1, 2**64 - 1]),
            st.integers(0, 63).map(lambda e: 2**e),
            st.integers(1, 2**64 - 1),
        ),
        max_size=200,
    ),
)
def test_randbelows_equal_randbelow_stream(seed, bounds):
    vector, scalar = SplitMix64(seed), SplitMix64(seed)
    draws = vector.randbelows(np.array(bounds, dtype=np.uint64))
    assert draws.dtype == np.uint64 and draws.shape == (len(bounds),)
    assert draws.tolist() == [scalar.randbelow(n) for n in bounds]
    # the same number of raw draws, rejected ones included, were taken
    assert vector.next_u64() == scalar.next_u64()


def test_randbelows_equal_randbelow_stream_across_chunks():
    # 3 * 2**14 + 5 bounds, a few of them rejecting about half their draws,
    # run over several chunks and resume inside one
    bounds = np.arange(1, 3 * 2**14 + 6, dtype=np.uint64)
    bounds[[5, 2**14 - 1, 2**14, 2 * 2**14 + 7]] = 2**63 + 1
    vector, scalar = SplitMix64(17), SplitMix64(17)
    draws = vector.randbelows(bounds)
    assert draws.tolist() == [scalar.randbelow(int(n)) for n in bounds]
    assert vector.next_u64() == scalar.next_u64()


def test_randbelows_resumes_after_a_rejected_draw():
    # 2**64 mod (2**63 + 1) = 2**63 - 1, so about half of all draws are rejected
    bound = 2**63 + 1
    vector, scalar = SplitMix64(11), SplitMix64(11)
    steps = SplitMix64(11)
    draws = vector.randbelows(np.full(64, bound, dtype=np.uint64)).tolist()
    assert draws == [scalar.randbelow(bound) for _ in range(64)]
    raw = 0
    for _ in range(64):
        raw += 1
        while steps.next_u64() >= 2**64 - (2**64 % bound):
            raw += 1
    assert raw > 64 + 16  # the rejection path ran many times
    assert vector.next_u64() == scalar.next_u64() == steps.next_u64()


@pytest.mark.parametrize("bounds", [
    np.array([3, 0]), np.array([-1]), np.array([2.0]), np.array([2**64], dtype=object),
    np.array([[3]]),
])
def test_randbelows_rejects_bounds_outside_one_to_two_pow_64_minus_one(bounds):
    rng = SplitMix64(5)
    with pytest.raises(ValueError):
        rng.randbelows(bounds)
    assert rng.next_u64() == SplitMix64(5).next_u64()  # nothing was drawn


def test_randbelow_rejects_bounds_past_two_pow_64():
    rng = SplitMix64(4)
    for n in (0, -3, 2**64 + 1, 2**70):
        with pytest.raises(ValueError):
            rng.randbelow(n)
    # 2**64 itself is the raw draw, never rejected
    assert rng.randbelow(2**64) == SplitMix64(4).next_u64()


def test_partial_shuffle_picks_match_a_scalar_fisher_yates_per_group():
    sizes, q = [5, 3, 9, 3, 40], 3
    batched, scalar = SplitMix64(21), SplitMix64(21)
    picks = batched.partial_shuffle_picks(np.array(sizes), q)
    for size, row in zip(sizes, picks.tolist()):
        slots = list(range(size))
        for i in range(q):
            j = i + scalar.randbelow(size - i)
            slots[i], slots[j] = slots[j], slots[i]
        assert row == slots[:q]
    assert batched.next_u64() == scalar.next_u64()
    for bad_sizes, bad_q in (([4, 2], 3), ([4, 2], -1)):
        with pytest.raises(ValueError):
            SplitMix64(0).partial_shuffle_picks(np.array(bad_sizes), bad_q)
