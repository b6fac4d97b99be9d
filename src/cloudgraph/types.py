"""Domain types shared by the pipeline, the model, and the metrics.

All coordinates and skeletons are held in meters internally; conversion to
mm or cm happens only at the reporting edge.  Every type is immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NonFiniteValue


class RadarPoint(NamedTuple):
    """One radar return: 3D position, Doppler velocity, signal intensity."""

    x: float
    y: float
    z: float
    v: float
    I: float


POINT_FIELDS = RadarPoint._fields


@dataclass(frozen=True)
class RadarFrame:
    """One radar sweep.  Point order is preserved exactly as ingested.

    ``points`` is a read-only float64 n x 5 array of (x, y, z, v, I) rows,
    (0, 5) when empty.  Any n x 5 array-like is accepted, including a
    sequence of RadarPoint; the frame keeps its own copy.
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


@dataclass(frozen=True)
class Skeleton:
    """M keypoints in 3D (meters) with the mid-hip keypoint identified."""

    keypoints: np.ndarray
    mid_hip_index: int

    def __post_init__(self):
        kp = np.asarray(self.keypoints, dtype=np.float64)
        if kp.ndim != 2 or kp.shape[1] != 3:
            raise ValueError("keypoints must be an M x 3 matrix")
        if not np.all(np.isfinite(kp)):
            raise ValueError("keypoints must be finite")
        if not 0 <= self.mid_hip_index < kp.shape[0]:
            raise ValueError("mid_hip_index out of range")
        kp.setflags(write=False)
        object.__setattr__(self, "keypoints", kp)

    @property
    def num_keypoints(self) -> int:
        return self.keypoints.shape[0]


@dataclass(frozen=True)
class ActivityLabel:
    """Class index for activity recognition."""

    class_index: int
    num_classes: int

    def __post_init__(self):
        if not 0 <= self.class_index < self.num_classes:
            raise ValueError("class_index must lie in [0, num_classes)")


def edges_from_table(table: np.ndarray) -> np.ndarray:
    """Flatten an n x k neighbour table into an E x 2 array of (target,
    source), target-major."""
    n, k = table.shape
    return np.column_stack([np.repeat(np.arange(n, dtype=np.int64), k), table.reshape(-1)])


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
