"""Portable deterministic randomness.

The generator is splitmix64 (Steele, Lea & Flood's SplitMix finalizer over a
Weyl sequence with the golden-gamma increment 0x9E3779B97F4A7C15).  It is
written out in full here so any port can reproduce the exact streams:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z xor (z >> 31)

Uniform doubles take the top 53 bits; bounded integers use rejection
sampling so every value in [0, n) is exactly equally likely.

The state after i steps is seed + i * gamma, so draw i never depends on
draw i - 1.  ``SplitMix64.doubles`` uses this to compute a run of
``next_double`` draws as one numpy ``uint64`` expression: the same stream,
bit for bit, ending in the same state.  Weight initialization draws
through it; downsampling and the synthetic generator keep the scalar
calls.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit stream; identical seeds give identical draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def next_double(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def doubles(self, count: int) -> np.ndarray:
        """The next ``count`` draws of ``next_double`` as one float64 array."""
        with np.errstate(over="ignore"):
            steps = np.arange(1, count + 1, dtype=np.uint64)
            z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
        self._state = (self._state + count * _GAMMA) & _MASK64
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def normal(self) -> float:
        """Standard normal draw (Box-Muller, cosine branch)."""
        import math

        u1 = self.next_double()
        u2 = self.next_double()
        while u1 == 0.0:
            u1 = self.next_double()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def partial_shuffle_pick(self, m: int, q: int) -> list[int]:
        """Pick q distinct indices from range(m) by a partial Fisher-Yates shuffle.

        Returned indices are sorted ascending so callers can preserve the
        original relative order of the selected items.
        """
        idx = list(range(m))
        q = min(q, m)
        for i in range(q):
            j = i + self.randbelow(m - i)
            idx[i], idx[j] = idx[j], idx[i]
        return sorted(idx[:q])


def derive_seed(seed: int, *keys: int) -> int:
    """Hash-combine a base seed with integer keys (e.g. sequence and frame ids).

    Gives each frame its own independent stream so frame-level parallelism
    cannot change results.
    """
    z = seed & _MASK64
    for k in keys:
        z = _mix64(z ^ _mix64((k + _GAMMA) & _MASK64))
    return z
