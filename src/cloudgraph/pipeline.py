"""Raw radar frames -> directed KNN graphs with node/edge/frame features.

Stage order: fuse -> (optional) grid downsample -> squared distances and
KNN edges, one block of target rows at a time -> node features -> frame
features -> edge features.  A block of squared distances feeds both the
KNN selection of its rows and their neighbour distances, which are all the
node-feature stage reads, so no n x n array is held.  Past one block, each
block is compared only with a window of points near it along the cloud's
widest axis, widened until no point outside can be among a row's
neighbours; the result is bit-identical to the whole matrix's (see
``_neighbours``).

Data stays in array form from end to end: a frame is an n x 5 array, the
KNN result is an n x k neighbour table with its n x k neighbour squared
distances, the graph keeps that table as its edges (row i the sources of
the edges into target i), and each statistics stage is one batched statbox
call.  A graph holds those arrays, its n x 19 node features, its frame
vector and its E x 6 edge features, made last.  Beyond them, distances and
edge features take one block of target rows at a time, and a statbox call
one scratch array beside its sorted input.  A block of distances is about
``_D2_BLOCK_BYTES``.  A block of edge features is
``_D2_BLOCK_BYTES // (128 * k)`` target rows, whose temporaries take 57
bytes per edge, so under half that budget: 204 rows at k = 20, one block
for a graph of up to 204 nodes and six for 1,024.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .errors import EmptyInput, NonConsecutiveFrames, NumericOverflow, SequenceMismatch
from .rng import SplitMix64, derive_seed
from .statbox import statbox_array, statbox_columns
from .types import PointGraph, RadarFrame
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

    The draws, which fix the output for a given ``rng`` state, go in this
    order: cells ordered by their first point (lowest index), and for each
    cell holding m > Q points, a partial Fisher-Yates shuffle of its points
    in index order, step i = 0 .. Q - 1 drawing ``rng.randbelow(m - i)`` and
    swapping slot i with slot i plus that draw.  The cell keeps the points
    left in its first Q slots.  A cell of at most Q points keeps them all and
    draws nothing.  All the draws of a frame are one ``rng.randbelows``
    call, through ``rng.partial_shuffle_picks``.
    """
    if len(frame) == 0:
        return frame
    w = np.asarray(cell_width, dtype=np.float64)
    if w.shape != (3,) or not np.all((0 < w) & (w < np.inf)):
        raise ValueError("cell_width must be three positive reals")
    if Q < 1:
        raise ValueError("Q must be >= 1")
    pts = frame.points[:, :3]
    mins = pts.min(axis=0)
    # past int64 the cell index wraps and distinct cells merge
    if not np.all((pts.max(axis=0) - mins) / w < 2.0**63):
        raise NumericOverflow(frame.sequence_id, frame.frame_id, "grid cell index beyond int64")
    cells = np.floor((pts - mins) / w).astype(np.int64)
    # a stable sort groups each cell's points in ascending index order:
    # cell c fills order[starts[c]:starts[c] + sizes[c]], and its first
    # point is order[starts[c]]
    n = len(frame)
    order = np.lexsort(cells.T)
    cells = cells[order]
    first = np.ones(n, dtype=bool)
    np.any(cells[1:] != cells[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=n)
    # cells of at most Q points keep them all; the others, taken in order
    # of their first point, keep their first Q slots after the shuffle
    full = sizes > Q
    keep = np.zeros(n, dtype=bool)
    keep[order[np.repeat(~full, sizes)]] = True
    by_first = np.argsort(order[starts[full]])
    at = starts[full][by_first]
    keep[order[at[:, None] + rng.partial_shuffle_picks(sizes[full][by_first], Q)]] = True
    return RadarFrame(
        frame_id=frame.frame_id,
        sequence_id=frame.sequence_id,
        points=frame.points[keep],
    )


def squared_distance_matrix(
    frame: RadarFrame, rows: Optional[np.ndarray] = None, cols: Optional[np.ndarray] = None
) -> np.ndarray:
    """Squared Euclidean distances over (x, y, z) only, from each target
    point indexed by ``rows`` to each source point indexed by ``cols``: an
    m x w block.  Either index array defaults to every point, so with
    neither it is the whole n x n matrix.

    Accumulated one coordinate at a time in x, y, z order, so no m x w x 3
    temporary exists; the sums round exactly as a sum over the last axis of
    the squared differences would, whatever the block.  A point's distance
    to itself is 0 with no special case, since x - x = 0 for finite x."""
    pts = frame.points
    tgt = pts if rows is None else pts[rows]
    src = pts if cols is None else pts[cols]
    d2 = tgt[:, 0, None] - src[None, :, 0]
    d2 *= d2
    d = np.empty_like(d2)
    for c in (1, 2):
        np.subtract(tgt[:, c, None], src[None, :, c], out=d)
        d *= d
        d2 += d
    return d2


def knn_edges(d2: np.ndarray, K: int, own: Optional[np.ndarray] = None) -> np.ndarray:
    """m x k neighbour table of an m x n block of squared distances, k =
    min(K, n-1): row i holds the k nearest columns of that row other than
    its own column ``own[i]`` (default i), ascending by distance, ties
    broken by lower column.

    Partial selection, not a full sort: ``partition`` finds each row's
    (k+1)-th smallest value, and the entries at or below it are the row's
    candidates, taken by one ``flatnonzero`` as flat row-major indices of
    ``d2``, so in ascending column order within a row.  A stable sort of
    each row's candidate values puts first the k + 1 entries a stable sort
    of the whole row would, since every entry left out is larger.  Ties are
    tested once per block: m(k+1) candidates mean k + 1 in every row; more
    mean some row's (k+1)-th value ties an entry past it, and the rows are
    then padded with infinities to the longest row's count, so even then
    only candidates are sorted.  The own column is then removed from each
    row, or the last candidate when k+1 columns at distance 0 precede it.
    """
    m, n = d2.shape
    if K < 1:
        raise ValueError("K must be >= 1")
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    k = min(K, n - 1)
    inside = d2 <= np.partition(d2, k, axis=1)[:, k, None]
    flat = np.flatnonzero(inside)
    if flat.size == m * (k + 1):
        cand = flat.reshape(m, k + 1)
        vals = d2.ravel()[cand]
    else:
        counts = np.count_nonzero(inside, axis=1)
        fill = np.arange(counts.max()) < counts[:, None]  # a row's first slots
        cand = np.zeros(fill.shape, dtype=np.int64)
        cand[fill] = flat
        vals = np.full(fill.shape, np.inf)
        vals[fill] = d2.ravel()[flat]
    # flat indices of each row's first k + 1 candidates, then their columns
    row = np.arange(m)
    order = np.argsort(vals, axis=1, kind="stable")[:, : k + 1]
    order += (row * cand.shape[1])[:, None]
    cols = cand.ravel()[order]
    cols -= (row * n)[:, None]
    drop = cols == (row if own is None else own)[:, None]
    if np.count_nonzero(drop) < m:  # only ties can leave the own column out
        drop[~drop.any(axis=1), -1] = True
    return cols[~drop].reshape(m, k)


def _row_gather(d2: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """``d2[i, sel[i, j]]`` for every (i, j), through flat row-major
    indices of ``d2``."""
    return d2.ravel()[sel + (np.arange(len(sel)) * d2.shape[1])[:, None]]


def _neighbours(frame: RadarFrame, K: int):
    """The n x k neighbour table of a frame and the n x k squared distances
    to those neighbours, computed one block of about ``_D2_BLOCK_BYTES`` of
    target rows at a time, so no n x n array is held.

    A cloud that fits one block is one call of each kernel on the whole
    matrix, with no sort and no check.  A larger cloud is sorted once along
    the widest of x, y and z, and each block of targets, consecutive in
    that order, is compared only with a window of sorted points around it:
    the block, k + 1 points a side, and every point within the previous
    block's largest neighbour distance along the axis.  A row is exact when
    the squared axis gap to the nearest point outside the window, on either
    side, exceeds its k-th neighbour distance in the window (the window's
    (k+1)-th smallest value, self included).  The rows that fail are
    recomputed on the window their own neighbour distances reach, grown by
    at least one point a side, until every row passes or the window is the
    whole cloud.  Each pass gathers its rows' neighbour distances from its
    block by flat row-major index, as ``knn_edges`` takes its candidates.

    Why a passing row is exact, so that the table and distances are
    bit-identical to the whole matrix's whatever the block size:

    - every entry is computed by the same elementwise operations;
    - adding non-negative terms never rounds below one of the addends, so
      an entry is at least the rounded square of its sort-axis difference;
    - rounding is monotone, so that square only grows for points farther
      along the axis, and every point outside the window is strictly
      farther than the row's k-th neighbour: a stable sort of the whole row
      puts it after the row's first k + 1 entries;
    - the window's columns are kept in ascending index order, so the tie
      rule of ``knn_edges`` (lower index first) is unchanged.
    """
    n = len(frame)
    step = max(1, _D2_BLOCK_BYTES // max(8 * n, 1))
    if step >= n:
        d2 = squared_distance_matrix(frame)
        table = knn_edges(d2, K)
        return table, _row_gather(d2, table)
    k = min(K, n - 1)
    pts = frame.points
    axis = int(np.argmax(np.ptp(pts[:, :3], axis=0)))
    order = np.argsort(pts[:, axis], kind="stable")
    a = pts[order, axis]
    fence = np.concatenate(([-np.inf], a, [np.inf]))  # fence[i] is a[i - 1]
    table = np.empty((n, k), dtype=np.int64)
    neighbor_d2 = np.empty((n, k))
    reach = 0.0
    for first in range(0, n, step):
        block = rows = order[first:first + step]
        # each pass grows the window by at least one point a side, so the
        # first holds the block and k + 1 points a side
        r, lo, hi = reach, first - k, first + len(rows) + k
        while True:
            at = pts[rows, axis]
            lo = max(min(int(np.searchsorted(a, (at - r).min())), lo - 1), 0)
            hi = min(max(int(np.searchsorted(a, (at + r).max(), "right")), hi + 1), n)
            cols = np.sort(order[lo:hi])
            d2 = squared_distance_matrix(frame, rows, cols)
            sel = knn_edges(d2, K, np.searchsorted(cols, rows))
            table[rows] = cols[sel]
            neighbor_d2[rows] = near = _row_gather(d2, sel)
            below, above = at - fence[lo], at - fence[hi + 1]
            short = np.minimum(below * below, above * above) <= near[:, -1]
            if (lo == 0 and hi == n) or not short.any():
                break
            rows, r = rows[short], np.sqrt(near[short, -1])
        # the next block starts from this one's widest neighbourhood
        reach = np.sqrt(neighbor_d2[block, -1].max())
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
    # the target of a row is the row itself, so only the sources are taken
    # from a 5 x n copy, as 5 x rows x k in C order (P[:, table] would order
    # it rows, k, 5), so that each coordinate is a contiguous row
    P = np.ascontiguousarray(frame.points.T)
    n, k = table.shape
    # target rows in blocks of 128 bytes per edge, above the 57 that a
    # block's differences, norm, square and mask take, so within half of
    # _D2_BLOCK_BYTES; every value is elementwise, so the block size
    # changes no bit
    step = max(1, _D2_BLOCK_BYTES // (128 * k))
    for first in range(0, n, step):
        rows = slice(first, first + step)
        delta = np.take(P, table[rows], axis=1)
        delta -= P[:, rows, None]
        delta = delta.reshape(len(P), -1)
        norm = delta[0] * delta[0]
        norm += delta[1] * delta[1]
        norm += delta[2] * delta[2]
        np.sqrt(norm, out=norm)
        block = out[first * k : first * k + len(norm)]
        block[:, 0] = norm
        np.divide(delta[:3], norm, out=block[:, 1:4].T, where=norm > 0)
        block[:, 4:] = delta[3:].T
        del delta, norm  # freed before the next block is gathered
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


def _fuse_window(frames: Sequence[RadarFrame], config: PipelineConfig) -> RadarFrame:
    """One fusion window's frames fused, then grid downsampled when
    enabled, with the stream derived from the seed and the fused frame's
    ids."""
    fused = fuse_frames(frames)
    if config.downsample_enabled and len(fused) > 0:
        rng = SplitMix64(derive_seed(config.seed, fused.sequence_id, fused.frame_id))
        fused = downsample(fused, config.cell_width, config.Q, rng)
    return fused


def build_graph(frames: Sequence[RadarFrame], config: PipelineConfig) -> PointGraph:
    """Run the full pipeline on one fusion window of consecutive frames.

    An empty fused frame yields a graph with zero nodes, zero edges, and a
    length-0 frame-feature vector (callers decide whether to skip it).
    """
    fused = _fuse_window(frames, config)
    table, neighbor_d2 = _neighbours(fused, config.K)
    if config.enable_node_features:
        nf = node_features(fused, neighbor_d2, config.epsilon)
    else:
        nf = fused.points
    del neighbor_d2  # only the node features read it
    # frame features first, so no E x 6 array is held while they run
    if config.enable_frame_features and len(fused):
        ff = frame_features(nf, config.epsilon)
    else:
        ff = np.zeros(0)
    if config.enable_edge_features:
        ef = edge_features(fused, table)
    else:
        ef = np.zeros((table.size, 0))
    return PointGraph(
        sequence_id=fused.sequence_id,
        frame_id=fused.frame_id,
        node_features=nf,
        neighbours=table,
        edge_features=ef,
        frame_features=ff,
    )
