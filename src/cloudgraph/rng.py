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
draw i - 1.  ``SplitMix64.doubles`` and ``SplitMix64.randbelows`` use this
to compute a run of draws with numpy ``uint64`` arithmetic: the same stream
as consecutive ``next_double`` or ``randbelow`` calls, bit for bit, ending
in the same state.  A run is computed in place, in chunks of 2^14 draws,
through one pair of 2^14-value scratch arrays, so a run of any length
takes its output and at most 256 KB besides.  Weight initialization draws
the whole model as one ``doubles`` run.  Downsampling draws all of a fused frame's
bounded integers through one ``randbelows`` call, by way of
``partial_shuffle_picks``; the synthetic generator keeps the scalar calls.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# a run is computed in chunks of this many draws; _STEPS[i] is (i + 1) * gamma
_CHUNK = 1 << 14
_STEPS = np.arange(1, _CHUNK + 1, dtype=np.uint64) * np.uint64(_GAMMA)


def _scratch(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair of uint64 arrays ``_mix64_run`` takes for a run of ``count``."""
    size = min(count, _CHUNK)
    return np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)


def _mix64_run(state: int, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Overwrite the uint64 array ``z``, at most ``_CHUNK`` long, with the
    next len(z) outputs of a generator in ``state``, in place, using ``t``
    of the same length as scratch; returns ``z``."""
    np.add(_STEPS[: len(z)], np.uint64(state), out=z)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(factor)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


class SplitMix64:
    """Deterministic 64-bit stream; identical seeds give identical draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def _skip(self, count: int) -> None:
        self._state = (self._state + count * _GAMMA) & _MASK64

    def next_double(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def doubles(self, count: int) -> np.ndarray:
        """The next ``count`` draws of ``next_double`` as one float64 array."""
        out = np.empty(count, dtype=np.float64)
        z, t = _scratch(count)
        for first in range(0, count, _CHUNK):
            chunk = out[first : first + _CHUNK]
            r = _mix64_run(self._state, z[: len(chunk)], t[: len(chunk)])
            self._skip(len(chunk))
            r >>= np.uint64(11)
            np.copyto(chunk, r)  # a cast in place: no ufunc buffer
        out *= 2.0**-53
        return out

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if not 0 < n <= 1 << 64:
            raise ValueError("n must lie in [1, 2**64]")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def randbelows(self, bounds: np.ndarray) -> np.ndarray:
        """``randbelow(n)`` for each n of a 1-d integer array of bounds in
        [1, 2**64 - 1], in order, as one uint64 array, ending in the state
        those consecutive calls leave.

        The raw outputs of the run are computed a chunk at a time.  A draw
        that ``randbelow`` would reject (r >= 2**64 - 2**64 mod n) ends the
        accepted prefix, and the rest of the run, that bound included, is
        drawn again from the step after it.  A rejection has probability
        below n / 2**64, so a run of small bounds takes one pass per chunk.
        """
        n = np.asarray(bounds)
        if n.ndim != 1 or n.dtype.kind not in "iu" or (n.size and n.min() < 1):
            raise ValueError("bounds must be a 1-d integer array with entries in [1, 2**64 - 1]")
        n = n.astype(np.uint64)
        # r is accepted when r < 2**64 - t, t = 2**64 mod n, i.e. r <= ~t
        last = ~((np.uint64(0) - n) % n)
        out = np.empty(len(n), dtype=np.uint64)
        z, t = _scratch(len(n))
        done = 0
        while done < len(n):
            size = min(len(n) - done, _CHUNK)
            r = _mix64_run(self._state, z[:size], t[:size])
            rejected = np.flatnonzero(r > last[done : done + size])
            end = size if rejected.size == 0 else int(rejected[0])
            np.remainder(r[:end], n[done : done + end], out=out[done : done + end])
            self._skip(end + (end < size))
            done += end
        return out

    def normal(self) -> float:
        """Standard normal draw (Box-Muller, cosine branch)."""
        u1 = self.next_double()
        u2 = self.next_double()
        while u1 == 0.0:
            u1 = self.next_double()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def partial_shuffle_picks(self, sizes: np.ndarray, q: int) -> np.ndarray:
        """q steps of a Fisher-Yates shuffle on each of several groups, all
        drawn by one ``randbelows`` call: a len(sizes) x q array whose row g
        holds the first q slots of group g, as offsets into that group.

        Every size must be at least q.  The draws are group by group, and
        within a group step i draws ``randbelow(size - i)`` and swaps slot i
        with slot i plus that draw, for i = 0 .. q - 1.  Groups do not
        interact, so each step swaps in every group at once.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        if q < 0:
            raise ValueError("q must be >= 0")
        if np.any(sizes < q):
            raise ValueError("every group size must be at least q")
        steps = np.arange(q)
        j = self.randbelows((sizes[:, None] - steps).ravel()).astype(np.int64)
        j = j.reshape(len(sizes), q) + steps
        starts = np.cumsum(sizes) - sizes
        slots = np.arange(int(sizes.sum())) - np.repeat(starts, sizes)
        for i in range(q):
            a, b = starts + i, starts + j[:, i]
            slots[a], slots[b] = slots[b], slots[a]
        return slots[starts[:, None] + steps]


def derive_seed(seed: int, *keys: int) -> int:
    """Hash-combine a base seed with integer keys (e.g. sequence and frame ids).

    Gives each frame its own independent stream so frame-level parallelism
    cannot change results.
    """
    z = seed & _MASK64
    for k in keys:
        z = _mix64(z ^ _mix64((k + _GAMMA) & _MASK64))
    return z
