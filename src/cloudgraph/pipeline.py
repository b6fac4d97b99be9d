"""Raw radar frames -> directed KNN graphs with node/edge/frame features.

Stage order: fuse -> (optional) grid downsample -> squared distances and
KNN edges, one block of target rows at a time -> node features -> edge
features -> frame features.  A block of squared distances feeds both the
KNN selection of its rows and their neighbour distances, which are all the
node-feature stage reads, so no n x n array is held.

Data stays in array form from end to end: a frame is an n x 5 array, the
KNN result is an n x k neighbour table with its n x k neighbour squared
distances, the graph keeps that table as its edges (row i the sources of
the edges into target i), and each statistics stage is one batched statbox
call.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .errors import EmptyInput, NonConsecutiveFrames, NumericOverflow, SequenceMismatch
from .rng import SplitMix64, derive_seed
from .statbox import statbox_array, statbox_columns
from .types import PointGraph, RadarFrame, validate_frame
# re-exported: the benchmark's spans wrap ``pipeline.edges_from_table``
from .types import edges_from_table  # noqa: F401

NODE_FEATURE_DIM = 19
EDGE_FEATURE_DIM = 6

# Bytes of one block of squared distances in build_graph: 64 target rows at
# n = 1,024, and one block for clouds of up to 256 points.
_D2_BLOCK_BYTES = 1 << 19


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
    # past int64 the cell index wraps and distinct cells merge
    if not np.all((pts.max(axis=0) - mins) / w < 2.0**63):
        raise NumericOverflow(frame.sequence_id, frame.frame_id, "grid cell index beyond int64")
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


def squared_distance_matrix(frame: RadarFrame, rows: slice = slice(None)) -> np.ndarray:
    """Squared Euclidean distances over (x, y, z) only, from each target
    point in ``rows`` to every point: an m x n block, 0 at each target's own
    column.  Without ``rows`` it is the whole n x n matrix.

    Accumulated one coordinate at a time in x, y, z order, so no m x n x 3
    temporary exists; the sums round exactly as a sum over the last axis of
    the squared differences would, whatever the block."""
    pts = frame.points
    tgt = pts[rows]
    d2 = tgt[:, 0, None] - pts[None, :, 0]
    d2 *= d2
    d = np.empty_like(d2)
    for c in (1, 2):
        np.subtract(tgt[:, c, None], pts[None, :, c], out=d)
        d *= d
        d2 += d
    d2[np.arange(d2.shape[0]), np.arange(pts.shape[0])[rows]] = 0.0
    return d2


def knn_edges(d2: np.ndarray, K: int, first: int = 0) -> np.ndarray:
    """m x k neighbour table of an m x n block of squared distances, k =
    min(K, n-1): row i, target ``first + i``, holds the k nearest source
    indices of that target, ascending by distance, ties broken by lower
    source index.

    Partial selection, not a full sort: ``partition`` finds each row's
    (k+1)-th smallest value, and the entries at or below it are the k+1
    nearest candidates, which are then ordered by (distance, index).  Where
    that value ties an entry left out, more than k+1 entries qualify and the
    selection is not unique, so those rows alone take a full stable sort.
    Self is then removed from each row, or the last candidate when k+1
    points coincide with the target at lower indices; the tie rule is the
    one a stable sort of every row would give.
    """
    m, n = d2.shape
    if K < 1:
        raise ValueError("K must be >= 1")
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    k = min(K, n - 1)
    inside = d2 <= np.partition(d2, k, axis=1)[:, [k]]
    ties = np.flatnonzero(np.count_nonzero(inside, axis=1) > k + 1)
    if ties.size:
        inside[ties] = False
        inside[ties[:, None], np.argsort(d2[ties], axis=1, kind="stable")[:, : k + 1]] = True
    cand = (np.flatnonzero(inside) % n).reshape(m, k + 1)  # ascending index per row
    vals = np.take_along_axis(d2, cand, axis=1)
    cand = np.take_along_axis(cand, np.argsort(vals, axis=1, kind="stable"), axis=1)
    drop = cand == np.arange(first, first + m)[:, None]
    drop[~drop.any(axis=1), -1] = True
    return cand[~drop].reshape(m, k)


def _neighbours(frame: RadarFrame, K: int):
    """The n x k neighbour table of a frame and the n x k squared distances
    to those neighbours, from squared distances computed one block of about
    ``_D2_BLOCK_BYTES`` of target rows at a time, so no n x n array is
    held.  A row's distances and selection do not depend on its block."""
    n = len(frame)
    k = max(min(K, n - 1), 0)
    table = np.empty((n, k), dtype=np.int64)
    neighbor_d2 = np.empty((n, k))
    step = max(1, _D2_BLOCK_BYTES // max(8 * n, 1))
    for first in range(0, n, step):
        rows = slice(first, first + step)
        d2 = squared_distance_matrix(frame, rows)
        table[rows] = knn_edges(d2, K, first)
        neighbor_d2[rows] = np.take_along_axis(d2, table[rows], axis=1)
    return table, neighbor_d2


def node_features(
    frame: RadarFrame,
    neighbor_d2: np.ndarray,
    epsilon: float = 1e-12,
) -> np.ndarray:
    """Per point: raw (x,y,z,v,I), statistics of the distances to its KNN
    neighbors, distance to the cloud centroid, and the unit direction from
    the point toward the centroid: 19 values per point.  ``neighbor_d2`` is
    the n x k table of squared distances to each point's neighbours.

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
    if neighbor_d2.shape[1]:
        out[:, 5:15] = statbox_array(np.sqrt(neighbor_d2), epsilon)
    diff = raw[:, :3].mean(axis=0) - raw[:, :3]
    dist = np.sqrt((diff * diff).sum(axis=1))
    out[:, 15] = dist
    away = dist >= epsilon
    out[away, 16:19] = diff[away] / dist[away, None]
    return out


def edge_features(frame: RadarFrame, table: np.ndarray) -> np.ndarray:
    """Per directed edge of an n x k neighbour table, in table order (edge
    i * k + j runs from source ``table[i, j]`` into target i): the
    Euclidean distance, the per-axis direction cosines of (source - target)
    (zero vector when the points coincide), the velocity difference, and
    the intensity difference.
    """
    out = np.zeros((table.size, EDGE_FEATURE_DIM), dtype=np.float64)
    if table.size == 0:
        return out
    # the target of a row is the row itself, so only the sources are
    # gathered, from a 5 x n copy in which each coordinate is a contiguous row
    P = np.ascontiguousarray(frame.points.T)
    delta = (P[:, table] - P[:, :, None]).reshape(len(P), -1)
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


def _fuse_window(
    frames: Sequence[RadarFrame], config: PipelineConfig, rng: Optional[SplitMix64]
) -> RadarFrame:
    """One fusion window's frames validated and fused, then grid
    downsampled when enabled, with ``rng`` or else the stream derived from
    the seed and the fused frame's ids."""
    for f in frames:
        validate_frame(f)
    fused = fuse_frames(frames)
    if config.downsample_enabled and len(fused) > 0:
        if rng is None:
            rng = SplitMix64(derive_seed(config.seed, fused.sequence_id, fused.frame_id))
        fused = downsample(fused, config.cell_width, config.Q, rng)
    return fused


def build_graph(
    frames: Sequence[RadarFrame],
    config: PipelineConfig,
    rng: Optional[SplitMix64] = None,
) -> PointGraph:
    """Run the full pipeline on one fusion window of consecutive frames.

    An empty fused frame yields a graph with zero nodes, zero edges, and a
    length-0 frame-feature vector (callers decide whether to skip it).
    """
    fused = _fuse_window(frames, config, rng)
    table, neighbor_d2 = _neighbours(fused, config.K)
    if config.enable_node_features:
        nf = node_features(fused, neighbor_d2, config.epsilon)
    else:
        nf = fused.points
    if config.enable_edge_features:
        ef = edge_features(fused, table)
    else:
        ef = np.zeros((table.size, 0))
    if config.enable_frame_features and len(fused):
        ff = frame_features(nf, config.epsilon)
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
