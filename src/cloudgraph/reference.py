"""Slow, independent reimplementations used as oracles.

Everything here recomputes pairwise distances from scratch at every stage
(no shared squared-distance matrix) with explicit loops.  The optimized
pipeline must agree with these bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .errors import EmptyInput
from .pipeline import EDGE_FEATURE_DIM, NODE_FEATURE_DIM, _fuse_window
from .rng import SplitMix64
from .statbox import statbox_array
from .types import PointGraph, RadarFrame


def _sqdist(a, b) -> float:
    # squares spelled as products: numpy's scalar ** can be off by one ulp
    # from plain multiplication, which would break the bit-exactness contract
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return dx * dx + dy * dy + dz * dz


def naive_squared_distance_matrix(frame: RadarFrame) -> np.ndarray:
    pts = frame.points[:, :3]
    n = pts.shape[0]
    d2 = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            if j != k:
                d2[j, k] = _sqdist(pts[j], pts[k])
    return d2


def naive_knn(frame: RadarFrame, K: int) -> np.ndarray:
    """O(n^2) sort-based neighbor selection, ties by lower source index:
    an n x min(K, n-1) table."""
    pts = frame.points[:, :3]
    n = pts.shape[0]
    k = max(min(K, n - 1), 0)
    table = np.zeros((n, k), dtype=np.int64)
    for j in range(n):
        cand = [(_sqdist(pts[j], pts[m]), m) for m in range(n) if m != j]
        cand.sort()  # (distance, index) lexicographic = documented tie-break
        table[j] = [m for _, m in cand[:k]]
    return table


def naive_node_features(frame: RadarFrame, neighbors, epsilon: float) -> np.ndarray:
    pts = frame.points
    n = pts.shape[0]
    out = np.zeros((n, NODE_FEATURE_DIM))
    out[:, :5] = pts
    if n == 0:
        return out
    centroid = pts[:, :3].mean(axis=0)
    for j in range(n):
        nbrs = neighbors[j]
        if len(nbrs):
            dists = np.array([math.sqrt(_sqdist(pts[j], pts[m])) for m in nbrs])
            out[j, 5:15] = statbox_array(dists, epsilon)
        diff = centroid - pts[j, :3]
        dist = math.sqrt((diff * diff).sum())
        out[j, 15] = dist
        if dist >= epsilon:
            out[j, 16:19] = diff / dist
    return out


def naive_edge_features(frame: RadarFrame, neighbors) -> np.ndarray:
    pts = frame.points
    rows = []
    for j, nbrs in enumerate(neighbors):
        for k in nbrs:
            delta = pts[k, :3] - pts[j, :3]
            norm = math.sqrt(_sqdist(pts[j], pts[k]))
            direction = delta / norm if norm > 0 else np.zeros(3)
            rows.append(
                [norm, direction[0], direction[1], direction[2],
                 pts[k, 3] - pts[j, 3], pts[k, 4] - pts[j, 4]]
            )
    return np.array(rows).reshape(-1, EDGE_FEATURE_DIM)


def naive_frame_features(node_feature_matrix: np.ndarray, epsilon: float) -> np.ndarray:
    """One 1-D statbox call per column: the column statistics, then the
    statistics of the column's squared deviations from its mean."""
    m = np.asarray(node_feature_matrix, dtype=np.float64)
    if m.shape[0] == 0:
        raise EmptyInput("frame features need at least one point")
    part1, part2 = [], []
    for j in range(m.shape[1]):
        column = m[:, j]
        stats = statbox_array(column, epsilon)
        part1.append(stats)
        part2.append(statbox_array((column - stats[0]) ** 2, epsilon))
    return np.concatenate(part1 + part2)


def naive_build_graph(
    frames: Sequence[RadarFrame],
    config: PipelineConfig,
    rng: Optional[SplitMix64] = None,
) -> PointGraph:
    """Full pipeline with per-stage distance recomputation."""
    fused = _fuse_window(frames, config, rng)
    table = naive_knn(fused, config.K)
    if config.enable_node_features:
        nf = naive_node_features(fused, table, config.epsilon)
    else:
        nf = fused.points
    if config.enable_edge_features:
        ef = naive_edge_features(fused, table)
    else:
        ef = np.zeros((table.size, 0))
    if config.enable_frame_features and len(fused):
        ff = naive_frame_features(nf, config.epsilon)
    else:
        ff = np.zeros(0)
    return PointGraph(
        sequence_id=fused.sequence_id,
        frame_id=fused.frame_id,
        node_features=nf,
        neighbours=table,
        edge_features=ef,
        frame_features=ff,
    )


def gat_forward_reference(layer, X, edges, edge_feats):
    """Dense per-node reimplementation of the attention layer.

    Kept deliberately loop-based and free of the shared vectorized code so
    it can serve as an independent oracle for gat_forward.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    q = X @ layer.theta
    u = (
        np.asarray(edge_feats, dtype=np.float64) @ layer.theta_e
        if layer.theta_e is not None and np.asarray(edge_feats).shape[1] > 0
        else np.zeros((len(edges), layer.theta.shape[1]))
    )
    d = layer.theta.shape[1]
    w1, w2, w3 = layer.attn[:d], layer.attn[d : 2 * d], layer.attn[2 * d :]
    slope = layer.leaky_slope

    def leaky(z):
        return z if z > 0 else slope * z

    incoming: dict = {}  # target -> [(source, edge)], in edge order
    for e, (tgt, src) in enumerate(np.asarray(edges).tolist()):
        incoming.setdefault(tgt, []).append((src, e))
    out = np.zeros((n, d))
    for j in range(n):
        logits = [leaky(float(w1 @ q[j] + w2 @ q[j]))]  # self, zero edge vector
        sources = [j]
        for src, e in incoming.get(j, ()):
            logits.append(leaky(float(w1 @ q[j] + w2 @ q[src] + w3 @ u[e])))
            sources.append(src)
        ex = np.exp(np.array(logits))
        alpha = ex / ex.sum()
        for a, s in zip(alpha, sources):
            out[j] += a * q[s]
    return out
