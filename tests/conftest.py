import struct
import tracemalloc

import numpy as np
import pytest

from cloudgraph.types import RadarFrame


def random_frame(rng: np.random.Generator, n: int, sequence_id=0, frame_id=0,
                 scale=1.0) -> RadarFrame:
    """Random frame with continuous coordinates (distinct pairwise distances
    almost surely)."""
    mat = rng.normal(size=(n, 5)) * scale
    return RadarFrame(sequence_id, frame_id, mat)


def random_table(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """An n x k neighbour table: each target's k sources are distinct, in
    random order, and never the target itself."""
    rows = [rng.permutation(np.delete(np.arange(n), t))[:k] for t in range(n)]
    return np.array(rows, dtype=np.int64).reshape(n, k)


def append_tensor(path, name: str, values: np.ndarray) -> None:
    """Append one more named tensor to a weights file and count it in the
    file's header."""
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 8, struct.unpack_from("<I", data, 8)[0] + 1)
    nb = name.encode("utf-8")
    data += struct.pack(f"<H{len(nb)}sB{values.ndim}I", len(nb), nb, values.ndim, *values.shape)
    path.write_bytes(bytes(data) + values.astype("<f8").tobytes())


def traced_peak(fn, *args):
    """``fn(*args)`` under tracemalloc: its result and the peak bytes
    traced during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)
