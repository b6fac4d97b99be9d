"""Raw radar frames -> directed KNN graphs with node/edge/frame features.

Stage order: fuse -> (optional) grid downsample -> shared squared-distance
matrix -> KNN edges -> node features -> edge features -> frame features.
The squared-distance matrix is computed once per frame and shared by the
KNN and node-feature stages.

Data stays in array form from end to end: a frame is an n x 5 array, the
KNN result is an n x k neighbour table, the edge list (built once per
graph) is its E x 2 flattening, and each statistics stage is one batched
statbox call.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .errors import EmptyInput, NonConsecutiveFrames, SequenceMismatch
from .rng import SplitMix64, derive_seed
from .statbox import statbox_array, statbox_columns
from .types import Label, PointGraph, RadarFrame, validate_frame

NODE_FEATURE_DIM = 19
RAW_FEATURE_DIM = 5
EDGE_FEATURE_DIM = 6


def fuse_frames(frames: Sequence[RadarFrame]) -> RadarFrame:
    """Merge F consecutive frames of one sequence into the last frame.

    Points are concatenated in input order; the fused frame takes the last
    input frame's id.
    """
    if not frames:
        raise EmptyInput("fuse_frames requires at least one frame")
    seq = frames[0].sequence_id
    for f in frames:
        if f.sequence_id != seq:
            raise SequenceMismatch(
                f"sequence {f.sequence_id} differs from {seq}"
            )
    ids = [f.frame_id for f in frames]
    for a, b in zip(ids, ids[1:]):
        if b != a + 1:
            raise NonConsecutiveFrames(f"frame ids {a} and {b} are not consecutive")
    points = np.concatenate([f.points for f in frames])
    return RadarFrame(frame_id=frames[-1].frame_id, sequence_id=seq, points=points)


def downsample(
    frame: RadarFrame,
    cell_width: Sequence[float],
    Q: int,
    rng: SplitMix64,
) -> RadarFrame:
    """Keep at most Q randomly chosen points per occupied grid cell.

    The grid is anchored at the frame's minimum corner, so translating the
    whole cloud relabels cells without changing the partition.  Surviving
    points keep their original relative order; v and I are untouched.
    """
    if len(frame) == 0:
        return frame
    w = np.asarray(cell_width, dtype=np.float64)
    if w.shape != (3,) or np.any(w <= 0):
        raise ValueError("cell_width must be three positive reals")
    if Q < 1:
        raise ValueError("Q must be >= 1")
    pts = frame.points[:, :3]
    mins = pts.min(axis=0)
    cells = np.floor((pts - mins) / w).astype(np.int64)
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(map(tuple, cells)):
        groups.setdefault(key, []).append(i)
    keep: list[int] = []
    for members in groups.values():
        if len(members) <= Q:
            keep.extend(members)
        else:
            picked = rng.partial_shuffle_pick(len(members), Q)
            keep.extend(members[i] for i in picked)
    keep.sort()
    return RadarFrame(
        frame_id=frame.frame_id,
        sequence_id=frame.sequence_id,
        points=frame.points[keep],
    )


def squared_distance_matrix(frame: RadarFrame) -> np.ndarray:
    """n x n matrix of squared Euclidean distances over (x, y, z) only.

    Accumulated one coordinate at a time in x, y, z order, so no n x n x 3
    temporary exists; the sums round exactly as a sum over the last axis of
    the squared differences would."""
    pts = frame.points
    d2 = pts[:, 0, None] - pts[None, :, 0]
    d2 *= d2
    d = np.empty_like(d2)
    for c in (1, 2):
        np.subtract(pts[:, c, None], pts[None, :, c], out=d)
        d *= d
        d2 += d
    np.fill_diagonal(d2, 0.0)
    return d2


def knn_edges(d2: np.ndarray, K: int) -> np.ndarray:
    """n x k neighbour table, k = min(K, n-1): row j holds the k nearest
    source indices of target j, ascending by distance, ties broken by lower
    source index.

    Partial selection, not a full sort: ``argpartition`` picks the k+1
    smallest entries of each row, which are then ordered by (distance,
    index).  Where the (k+1)-th value ties an entry left out, the selection
    is not unique, so those rows alone take a full stable sort.  Self is
    then removed from each row, or the last candidate when k+1 points
    coincide with j at lower indices; the tie rule is the one a stable sort
    of every row would give.
    """
    n = d2.shape[0]
    if K < 1:
        raise ValueError("K must be >= 1")
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    k = min(K, n - 1)
    cand = np.argpartition(d2, k, axis=1)[:, : k + 1].copy()  # frees the n x n result
    bound = np.take_along_axis(d2, cand[:, k:], axis=1)  # the (k+1)-th smallest
    ties = np.count_nonzero(d2 <= bound, axis=1) > k + 1
    if ties.any():
        cand[ties] = np.argsort(d2[ties], axis=1, kind="stable")[:, : k + 1]
    cand.sort(axis=1)
    vals = np.take_along_axis(d2, cand, axis=1)
    cand = np.take_along_axis(cand, np.argsort(vals, axis=1, kind="stable"), axis=1)
    drop = cand == np.arange(n)[:, None]
    drop[~drop.any(axis=1), -1] = True
    return cand[~drop].reshape(n, k).astype(np.int64, copy=False)


def edges_from_table(table: np.ndarray) -> np.ndarray:
    """Flatten an n x k neighbour table into an E x 2 array of (target,
    source), target-major."""
    n, k = table.shape
    return np.column_stack([np.repeat(np.arange(n, dtype=np.int64), k), table.reshape(-1)])


def node_features(
    frame: RadarFrame,
    d2: np.ndarray,
    neighbors: np.ndarray,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """Per point: raw (x,y,z,v,I), statistics of the distances to its KNN
    neighbors, distance to the cloud centroid, and the unit direction from
    the point toward the centroid: 19 values per point.

    With a single point the neighbor-distance block is all zeros.  When the
    point coincides with the centroid the direction is (0, 0, 0).  When
    fewer than K neighbors exist the statistics run on the shorter distance
    vector rather than padding.
    """
    raw = frame.points
    n = raw.shape[0]
    out = np.zeros((n, NODE_FEATURE_DIM), dtype=np.float64)
    out[:, :5] = raw
    if n == 0:
        return out
    if neighbors.shape[1]:
        dists = np.sqrt(np.take_along_axis(d2, neighbors, axis=1))
        out[:, 5:15] = statbox_array(dists, epsilon)
    diff = raw[:, :3].mean(axis=0) - raw[:, :3]
    dist = np.sqrt((diff * diff).sum(axis=1))
    out[:, 15] = dist
    away = dist >= epsilon
    out[away, 16:19] = diff[away] / dist[away, None]
    return out


def edge_features(frame: RadarFrame, edges: np.ndarray) -> np.ndarray:
    """Per directed edge (target, source) of an E x 2 edge list: the
    Euclidean distance, the per-axis direction cosines of (source - target)
    (zero vector when the points coincide), the velocity difference, and
    the intensity difference.
    """
    out = np.zeros((edges.shape[0], EDGE_FEATURE_DIM), dtype=np.float64)
    if edges.size == 0:
        return out
    # both endpoints of every edge in one gather from a 5 x n copy, so each
    # coordinate is a contiguous row: ends[:, 0] targets, ends[:, 1] sources
    ends = np.take(np.ascontiguousarray(frame.points.T), edges.T, axis=1)
    delta = ends[:, 1] - ends[:, 0]
    dx, dy, dz = delta[:3]
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    out[:, 0] = norm
    np.divide(delta[:3], norm, out=out[:, 1:4].T, where=norm > 0)
    out[:, 4:] = delta[3:].T
    return out


def frame_features(node_feature_matrix: np.ndarray, epsilon: float = 1e-12) -> np.ndarray:
    """Whole-cloud summary: column statistics of the node-feature matrix,
    then column statistics of the per-dimension squared deviations from the
    column means, concatenated (length 10 * 2 * D_node; 380 for D_node=19).
    """
    m = np.asarray(node_feature_matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] == 0:
        raise EmptyInput("frame_features requires at least one point")
    part1 = statbox_columns(m, epsilon)
    centroid = part1[::10]  # the Mean entry of each column block
    sq_dev = (m - centroid) ** 2
    part2 = statbox_columns(sq_dev, epsilon)
    return np.concatenate([part1, part2])


def build_graph(
    frames: Sequence[RadarFrame],
    config: PipelineConfig,
    rng: Optional[SplitMix64] = None,
    label: Optional[Label] = None,
) -> PointGraph:
    """Run the full pipeline on one fusion window of consecutive frames.

    An empty fused frame yields a graph with zero nodes, zero edges, and a
    length-0 frame-feature vector (callers decide whether to skip it).
    """
    for f in frames:
        validate_frame(f)
    fused = fuse_frames(frames)
    if config.downsample_enabled and len(fused) > 0:
        if rng is None:
            rng = SplitMix64(
                derive_seed(config.seed, fused.sequence_id, fused.frame_id)
            )
        fused = downsample(fused, config.cell_width, config.Q, rng)
    n = len(fused)
    if n == 0:
        return PointGraph(
            sequence_id=fused.sequence_id,
            frame_id=fused.frame_id,
            node_features=np.zeros(
                (0, NODE_FEATURE_DIM if config.enable_node_features else RAW_FEATURE_DIM)
            ),
            edges=np.zeros((0, 2), dtype=np.int64),
            edge_features=np.zeros((0, EDGE_FEATURE_DIM if config.enable_edge_features else 0)),
            frame_features=np.zeros(0),
            label=label,
        )
    d2 = squared_distance_matrix(fused)
    table = knn_edges(d2, config.K)
    edges = edges_from_table(table)
    if config.enable_node_features:
        nf = node_features(fused, d2, table, config.epsilon)
    else:
        nf = fused.points
    if config.enable_edge_features:
        ef = edge_features(fused, edges)
    else:
        ef = np.zeros((edges.shape[0], 0))
    if config.enable_frame_features:
        ff = frame_features(nf, config.epsilon)
    else:
        ff = np.zeros(0)
    return PointGraph(
        sequence_id=fused.sequence_id,
        frame_id=fused.frame_id,
        node_features=nf,
        edges=edges,
        edge_features=ef,
        frame_features=ff,
        label=label,
    )
