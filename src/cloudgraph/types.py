"""Domain types shared by the pipeline, the model and the file formats:
radar frames and point graphs.  Poses and the metrics take plain arrays.

All coordinates are held in meters internally; conversion to mm or cm
happens only at the reporting edge.  Every type is immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFiniteValue

# the columns of a frame's n x 5 point array: 3D position, Doppler velocity,
# signal intensity
POINT_FIELDS = ("x", "y", "z", "v", "I")


@dataclass(frozen=True)
class RadarFrame:
    """One radar sweep.  Point order is preserved exactly as ingested.

    ``points`` is a read-only float64 n x 5 array of (x, y, z, v, I) rows,
    (0, 5) when empty.  Any n x 5 array-like is accepted, such as a
    sequence of 5-tuples; the frame keeps its own copy.
    """

    frame_id: int
    sequence_id: int
    points: np.ndarray

    def __post_init__(self):
        if self.frame_id < 0 or self.sequence_id < 0:
            raise ValueError("frame_id and sequence_id must be non-negative")
        pts = np.array(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, len(POINT_FIELDS))
        if pts.ndim != 2 or pts.shape[1] != len(POINT_FIELDS):
            raise ValueError("points must be an n x 5 array")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def as_matrix(self) -> np.ndarray:
        """The n x 5 point array (read-only)."""
        return self.points


def edges_from_table(table: np.ndarray) -> np.ndarray:
    """Flatten an n x k neighbour table into an E x 2 array of (target,
    source), target-major, filled in place: no E-long temporary."""
    n, k = table.shape
    edges = np.empty((n * k, 2), dtype=np.int64)
    pairs = edges.reshape(n, k, 2)
    pairs[:, :, 0] = np.arange(n)[:, None]
    pairs[:, :, 1] = table
    return edges


@dataclass(frozen=True)
class PointGraph:
    """Directed KNN graph over one (fused, optionally downsampled) frame.

    ``neighbours`` is the n x k int64 KNN table, k = min(K, n - 1): edge
    i * k + j runs from ``neighbours[i, j]`` into target i.  node_features
    is n x 19 when node feature extraction is enabled, n x 5 otherwise.
    edge_features is E x 6 when enabled, E x 0 otherwise, E = n * k, in
    edge order.  frame_features has length 10 * 2 * D_node when enabled
    (380 for the 19D node features), length 0 otherwise.
    """

    sequence_id: int
    frame_id: int
    node_features: np.ndarray
    neighbours: np.ndarray
    edge_features: np.ndarray
    frame_features: np.ndarray

    def __post_init__(self):
        nf = np.asarray(self.node_features, dtype=np.float64)
        nb = np.asarray(self.neighbours, dtype=np.int64)
        ef = np.asarray(self.edge_features, dtype=np.float64)
        ff = np.asarray(self.frame_features, dtype=np.float64).reshape(-1)
        n = nf.shape[0]
        if nb.ndim != 2 or nb.shape[0] != n:
            raise ValueError("neighbours must have one row per node")
        if nb.size and (nb.min() < 0 or nb.max() >= n):
            raise ValueError("edge index out of range")
        if np.any(nb == np.arange(n)[:, None]):
            raise ValueError("explicit self-edges are not stored")
        if ef.shape[0] != nb.size:
            raise ValueError("edge_features row count must match edge count")
        for a in (nf, nb, ef, ff):
            a.setflags(write=False)
        object.__setattr__(self, "node_features", nf)
        object.__setattr__(self, "neighbours", nb)
        object.__setattr__(self, "edge_features", ef)
        object.__setattr__(self, "frame_features", ff)

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_edges(self) -> int:
        return self.neighbours.size

    @property
    def edges(self) -> np.ndarray:
        """E x 2 (target, source) pairs in edge order, built on each call."""
        return edges_from_table(self.neighbours)


def validate_frame(frame: RadarFrame) -> RadarFrame:
    """Return the frame unchanged if every point is finite.

    Raises NonFiniteValue naming the first offending point index and field.
    Empty frames are valid; downstream stages define their own empty
    behavior.
    """
    bad = np.argwhere(~np.isfinite(frame.points))
    if bad.size:
        i, j = bad[0]
        raise NonFiniteValue(int(i), POINT_FIELDS[j])
    return frame


def frame_from_matrix(sequence_id: int, frame_id: int, mat: Sequence) -> RadarFrame:
    """Build a RadarFrame from an n x 5 array of (x, y, z, v, I) rows."""
    arr = np.asarray(mat, dtype=np.float64).reshape(-1, len(POINT_FIELDS))
    return RadarFrame(frame_id=frame_id, sequence_id=sequence_id, points=arr)
