import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudgraph.config import PipelineConfig
from cloudgraph import pipeline
from cloudgraph.errors import EmptyInput, NonConsecutiveFrames, NumericOverflow, SequenceMismatch
from cloudgraph.pipeline import (
    build_graph,
    downsample,
    edge_features,
    edges_from_table,
    frame_features,
    fuse_frames,
    knn_edges,
    node_features,
    squared_distance_matrix,
)
from cloudgraph.reference import (
    naive_build_graph,
    naive_knn,
    naive_squared_distance_matrix,
)
from cloudgraph.rng import SplitMix64
from cloudgraph.statbox import statbox_array
from cloudgraph.synthetic import SyntheticSpec, generate
from cloudgraph.types import RadarFrame, frame_from_matrix

from conftest import random_frame, traced_peak


def row_indices(rows, full):
    """Index in ``full`` of the first row equal to each of ``rows``; fails
    when some row has no equal in ``full``."""
    match = (rows[:, None, :] == full[None, :, :]).all(axis=2)
    assert match.any(axis=1).all()
    return match.argmax(axis=1)


def frame_of(coords, sequence_id=0, frame_id=0):
    mat = np.zeros((len(coords), 5))
    mat[:, :3] = coords
    return frame_from_matrix(sequence_id, frame_id, mat)


# -- fusion ------------------------------------------------------------------


def test_fuse_concatenates_and_keeps_last_id(np_rng):
    frames = [random_frame(np_rng, n, frame_id=i) for i, n in enumerate((2, 3, 4))]
    fused = fuse_frames(frames)
    assert len(fused) == 9
    assert fused.frame_id == 2
    assert np.array_equal(fused.points[:2], frames[0].points)
    assert np.array_equal(fused.points[2:5], frames[1].points)


def test_fuse_single_frame_identity(np_rng):
    frame = random_frame(np_rng, 5)
    fused = fuse_frames([frame])
    assert np.array_equal(fused.points, frame.points)
    assert fused.frame_id == frame.frame_id


def test_fuse_nonconsecutive_rejected(np_rng):
    a = random_frame(np_rng, 2, frame_id=5)
    b = random_frame(np_rng, 2, frame_id=7)
    with pytest.raises(NonConsecutiveFrames):
        fuse_frames([a, b])


def test_fuse_sequence_mismatch_rejected(np_rng):
    a = random_frame(np_rng, 2, sequence_id=0, frame_id=0)
    b = random_frame(np_rng, 2, sequence_id=1, frame_id=1)
    with pytest.raises(SequenceMismatch):
        fuse_frames([a, b])


def test_fuse_empty_window_rejected():
    with pytest.raises(EmptyInput):
        fuse_frames([])


# -- downsampling ------------------------------------------------------------


def test_downsample_caps_cell_population():
    coords = np.zeros((5, 3)) + 0.001  # all in one cell
    frame = frame_of(coords)
    out = downsample(frame, (0.035, 0.035, 0.035), 2, SplitMix64(0))
    assert len(out) == 2
    row_indices(out.points, frame.points)  # fails unless every kept row is an input row


def test_downsample_q_at_least_n_is_identity(np_rng):
    frame = random_frame(np_rng, 20)
    out = downsample(frame, (0.05, 0.05, 0.05), 50, SplitMix64(0))
    assert np.array_equal(out.points, frame.points)


def test_downsample_preserves_relative_order(np_rng):
    frame = random_frame(np_rng, 50, scale=0.05)
    out = downsample(frame, (0.035, 0.035, 0.035), 1, SplitMix64(3))
    positions = row_indices(out.points, frame.points)
    assert np.all(np.diff(positions) > 0)


def test_downsample_deterministic_across_runs(np_rng):
    frame = random_frame(np_rng, 100, scale=0.05)
    a = downsample(frame, (0.035, 0.035, 0.035), 1, SplitMix64(99))
    b = downsample(frame, (0.035, 0.035, 0.035), 1, SplitMix64(99))
    assert np.array_equal(a.points, b.points)


def test_downsample_every_cell_at_most_q(np_rng):
    frame = random_frame(np_rng, 200, scale=0.05)
    q = 2
    out = downsample(frame, (0.035, 0.035, 0.035), q, SplitMix64(7))
    pts = out.as_matrix()[:, :3]
    mins = frame.as_matrix()[:, :3].min(axis=0)
    cells = np.floor((pts - mins) / 0.035).astype(int)
    _, counts = np.unique(cells, axis=0, return_counts=True)
    assert counts.max() <= q


def test_downsample_empty_frame():
    frame = RadarFrame(frame_id=0, sequence_id=0, points=())
    assert downsample(frame, (0.035,) * 3, 1, SplitMix64(0)) is frame


def test_downsample_rejects_a_span_whose_cell_index_overflows_int64():
    # 3e19 / 0.1 cells is past 2**63: wrapped indices used to merge two of
    # these four far-apart points, leaving 2 of 4 with only a RuntimeWarning
    far = frame_of([[0, 0, 0], [1e19, 0, 0], [2e19, 0, 0], [3e19, 0, 0]], 4, 9)
    with pytest.raises(NumericOverflow, match="cell index beyond int64 in sequence 4 frame 9"):
        downsample(far, (0.1,) * 3, 1, SplitMix64(0))
    near = frame_of([[0, 0, 0], [1e17, 0, 0], [2e17, 0, 0], [3e17, 0, 0]])
    assert len(downsample(near, (0.1,) * 3, 1, SplitMix64(0))) == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
@pytest.mark.parametrize("build", [build_graph, naive_build_graph], ids=["shared", "naive"])
def test_build_graph_refuses_a_finite_cloud_whose_features_overflow(np_rng, build):
    """Points at +-1e308 are finite, but their squared distances are not:
    the graph the features would make is refused when it is built."""
    mat = np_rng.normal(size=(8, 5))
    mat[2, 0], mat[5, 0] = 1e308, -1e308
    with pytest.raises(NumericOverflow, match="^non-finite node features in sequence 3 frame 7$"):
        build([frame_from_matrix(3, 7, mat)], PipelineConfig(K=4))


@pytest.mark.parametrize("width", [(0.1, 0.0, 0.1), (-0.1, 0.1, 0.1), (0.1, np.nan, 0.1),
                                   (np.inf, 0.1, 0.1), (0.1, 0.1, -np.inf), (0.1, 0.1)])
def test_downsample_rejects_a_cell_width_that_is_not_three_positive_reals(np_rng, width):
    rng = SplitMix64(0)
    with pytest.raises(ValueError, match="cell_width must be three positive reals"):
        downsample(random_frame(np_rng, 10), width, 1, rng)
    assert rng.next_u64() == SplitMix64(0).next_u64()  # nothing drawn


def loop_downsample(points, cell_width, Q, rng):
    """Oracle: a dict of cells in order of their first point, and one
    scalar partial Fisher-Yates per cell of more than Q points."""
    pts = points[:, :3]
    cells = np.floor((pts - pts.min(axis=0)) / np.asarray(cell_width)).astype(np.int64)
    groups: dict = {}
    for i, key in enumerate(map(tuple, cells)):
        groups.setdefault(key, []).append(i)
    keep = []
    for members in groups.values():
        if len(members) > Q:
            for i in range(Q):
                j = i + rng.randbelow(len(members) - i)
                members[i], members[j] = members[j], members[i]
        keep.extend(members[:Q])
    return points[sorted(keep)]


def oracle_cloud(kind, rng):
    n = 1 if kind == "single" else int(rng.integers(2, 160))
    mat = rng.normal(size=(n, 5)) * 0.05
    if kind == "rounded":  # many exact ties, so cells share boundary points
        mat[:, :3] = np.round(mat[:, :3] * 20) / 20
    elif kind == "negative":
        mat[:, :3] -= 7.5
    elif kind == "one_cell":
        mat[:, :3] = mat[:, :3] * 1e-4 - 3.0
    return mat


@pytest.mark.parametrize("Q", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["random", "rounded", "negative", "one_cell", "single"])
def test_downsample_matches_a_per_cell_loop(kind, Q):
    rng = np.random.default_rng([Q, len(kind)])
    for trial in range(12):
        mat = oracle_cloud(kind, rng)
        width = (0.035,) * 3 if trial % 2 else tuple(rng.uniform(0.01, 0.1, size=3))
        seed = int(rng.integers(0, 2**63))
        ours, theirs = SplitMix64(seed), SplitMix64(seed)
        out = downsample(frame_from_matrix(0, 0, mat), width, Q, ours)
        assert np.array_equal(out.points, loop_downsample(mat, width, Q, theirs))
        assert ours.next_u64() == theirs.next_u64()  # the same draws were taken


def test_downsample_known_answer():
    # pinned from the per-point dict loop this function replaced
    mat = np.random.default_rng(15).uniform(-0.05, 0.05, size=(40, 5))
    frame = frame_from_matrix(0, 0, mat)
    rng = SplitMix64(15)
    out = downsample(frame, (0.04,) * 3, 1, rng)
    assert row_indices(out.points, mat).tolist() == [
        3, 4, 6, 8, 12, 13, 15, 16, 18, 20, 21, 22, 27, 32, 33, 36]
    assert rng.next_u64() == 3214434211018539538
    rng = SplitMix64(15)
    out = downsample(frame, (0.04,) * 3, 3, rng)
    assert row_indices(out.points, mat).tolist() == [
        0, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 14, 15, 16, 18, 19, 20, 21, 22, 23, 26, 27, 28,
        29, 31, 32, 33, 35, 36, 37, 38, 39]
    assert rng.next_u64() == 3132987119559464852


# -- distances and KNN -------------------------------------------------------


def test_distance_matrix_single_point():
    d2 = squared_distance_matrix(frame_of([[1.0, 2.0, 3.0]]))
    assert d2.shape == (1, 1)
    assert d2[0, 0] == 0.0


def test_distance_matrix_3_4_5():
    d2 = squared_distance_matrix(frame_of([[0, 0, 0], [3, 4, 0]]))
    assert d2[0, 1] == 25.0
    assert d2[1, 0] == 25.0


def test_distance_matrix_matches_naive_bit_exact(np_rng):
    frame = random_frame(np_rng, 10)
    assert np.array_equal(squared_distance_matrix(frame), naive_squared_distance_matrix(frame))


def test_distance_matrix_peak_memory_below_three_n_by_n(np_rng):
    # the result and one n x n coordinate buffer; no n x n x 3 difference array
    n = 512
    frame = random_frame(np_rng, n)
    _, peak = traced_peak(squared_distance_matrix, frame)
    assert peak < 3 * n * n * 8


def test_knn_colinear():
    d2 = squared_distance_matrix(frame_of([[0, 0, 0], [1, 0, 0], [3, 0, 0]]))
    table = knn_edges(d2, 1)
    assert [list(t) for t in table] == [[1], [0], [1]]


def test_knn_clamps_to_n_minus_one(np_rng):
    frame = random_frame(np_rng, 4)
    table = knn_edges(squared_distance_matrix(frame), 10)
    assert all(len(t) == 3 for t in table)


def test_knn_tie_break_lower_index_first():
    # targets 2 and 5 equidistant from point 0
    coords = [[0, 0, 0], [10, 0, 0], [1, 0, 0], [20, 0, 0], [30, 0, 0], [-1, 0, 0]]
    table = knn_edges(squared_distance_matrix(frame_of(coords)), 2)
    assert list(table[0]) == [2, 5]


def test_knn_matches_sort_oracle(np_rng):
    for _ in range(25):
        n = int(np_rng.integers(1, 30))
        frame = random_frame(np_rng, n)
        d2 = squared_distance_matrix(frame)
        for K in (1, 5, 20):
            got = knn_edges(d2, K)
            expect = naive_knn(frame, K)
            assert np.array_equal(got, expect)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_knn_matches_oracle_on_grid_clouds_with_ties(data, n):
    # coordinates on a small integer grid: coincident points and many equal
    # distances, so the (k+1)-th distance often ties an entry left out
    coords = data.draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * 3), min_size=n, max_size=n))
    K = data.draw(st.integers(1, n + 2))
    frame = frame_of(coords)
    assert np.array_equal(knn_edges(squared_distance_matrix(frame), K), naive_knn(frame, K))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_knn_block_with_own_columns_matches_a_sort_oracle(data, n):
    # a block as _neighbours builds it: sorted target rows against a sorted
    # window of columns holding them, each row's own column at
    # searchsorted(cols, rows); grid coordinates make rows tie and points
    # coincide, so k + 1 zeros can precede the own column
    coords = data.draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * 3), min_size=n, max_size=n))
    is_row = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    rows = np.flatnonzero(is_row)
    cols = np.flatnonzero(is_row | ((lo <= np.arange(n)) & (np.arange(n) < hi)))
    K = data.draw(st.integers(1, n + 2))
    d2 = squared_distance_matrix(frame_of(coords), rows, cols)
    own = np.searchsorted(cols, rows)
    got = knn_edges(d2, K, own)
    k = max(min(K, len(cols) - 1), 0)
    assert got.shape == (len(rows), k)
    for i, row in enumerate(d2):
        nearest = sorted((v, j) for j, v in enumerate(row) if j != own[i])[:k]
        assert list(got[i]) == [j for _, j in nearest]


def test_knn_peak_memory_below_one_and_a_half_n_by_n(np_rng):
    # the peak is the n x n float64 copy np.partition makes, alive beside
    # the n x n bool candidate mask it is compared into (about 9 n x n bytes);
    # the flatnonzero indices and the sort cover only m (k+1) candidates.
    # A second n x n 8-byte array, such as a full argsort of the row or an
    # n x n index array, would pass 2 n x n x 8 bytes
    n = 512
    d2 = squared_distance_matrix(random_frame(np_rng, n))
    _, peak = traced_peak(knn_edges, d2, 20)
    assert peak < 1.5 * n * n * 8


def graphs_equal(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("node_features", "edges", "edge_features", "frame_features"))


def grid_frame(side):
    axis = np.arange(side, dtype=np.float64)
    return frame_of(np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3))


def outlier_frame(rng):
    coords = rng.normal(size=(600, 3))
    coords[300, 0] = 1e3
    return frame_of(coords)


def off_axis_outlier_frame(rng):
    # x stays the widest axis, but the outlier's nearest points are farther
    # than either end of the cloud along x
    coords = rng.normal(size=(600, 3)) * [10.0, 1.0, 1.0]
    coords[300] = [0.0, 40.0, 40.0]
    return frame_of(coords)


def two_clusters_frame(rng):
    coords = rng.normal(size=(600, 3))
    coords[::2, 0] += 1e3
    return frame_of(coords)


BLOCKING_CLOUDS = {
    "random_1024": lambda rng: random_frame(rng, 1024),
    # every distance an integer: rows tie across their (k+1)-th distance,
    # and points tie on the sort axis at window edges
    "grid_8x8x8": lambda rng: grid_frame(8),
    # 40 and 600 points on 4 distinct positions
    "coincident": lambda rng: frame_of(rng.integers(0, 2, size=(40, 3)) * [1.0, 2.0, 0.0]),
    "coincident_600": lambda rng: frame_of(rng.integers(0, 2, size=(600, 3)) * [1.0, 2.0, 0.0]),
    # one point 1,000 away along the sort axis, so its window widens toward
    # the cloud; one point off that axis, so its window is the whole cloud
    "far_outlier": outlier_frame,
    "off_axis_outlier": off_axis_outlier_frame,
    # two clusters 1,000 apart along the sort axis, interleaved by index
    "two_clusters": two_clusters_frame,
    # widest along y and along z, so each axis is the sort axis once
    "elongated_y": lambda rng: frame_of(rng.normal(size=(600, 3)) * [1.0, 10.0, 1.0]),
    "elongated_z": lambda rng: frame_of(rng.normal(size=(600, 3)) * [1.0, 1.0, 10.0]),
    # the 7-row budget's last block holds 6, 7 or 1 rows; the default
    # budget is one block at n = 256, two at n = 257 and 17 at n = 1,025
    **{f"n{n}": (lambda rng, n=n: random_frame(rng, n))
       for n in (1, 2, 6, 7, 8, 256, 257, 1025)},
}


@pytest.mark.parametrize("cloud", list(BLOCKING_CLOUDS))
def test_build_graph_does_not_depend_on_the_block_size(np_rng, monkeypatch, cloud):
    """Budgets of 1 row, 7 rows and the whole matrix give the same bits as
    the default budget and as the naive pipeline."""
    frame = BLOCKING_CLOUDS[cloud](np_rng)
    n = len(frame)
    cfg = PipelineConfig(K=20)
    default_rows = pipeline._D2_BLOCK_BYTES // (8 * n)
    if cloud in ("n256", "n257"):
        assert (default_rows >= n) == (cloud == "n256")
    want = build_graph([frame], cfg)
    assert graphs_equal(want, naive_build_graph([frame], cfg))
    for rows in (1, 7, n):
        monkeypatch.setattr(pipeline, "_D2_BLOCK_BYTES", 8 * n * rows)
        assert graphs_equal(build_graph([frame], cfg), want), rows


def distance_block_shapes(monkeypatch):
    """The shape of every block ``squared_distance_matrix`` returns from
    now on, in call order."""
    shapes = []
    kernel = pipeline.squared_distance_matrix

    def recorded(*args):
        d2 = kernel(*args)
        shapes.append(d2.shape)
        return d2

    monkeypatch.setattr(pipeline, "squared_distance_matrix", recorded)
    return shapes


def test_windowed_distances_compute_under_half_the_matrix(monkeypatch):
    # a 1,024-point stick-figure cloud: each block is compared with a window
    # of points near it along the sort axis, retries included
    frames, _ = generate(SyntheticSpec(num_frames=1, points_per_frame=1024, seed=7))
    n = len(frames[0])
    shapes = distance_block_shapes(monkeypatch)
    build_graph(frames, PipelineConfig(K=20))
    assert len(shapes) >= -(-n // (pipeline._D2_BLOCK_BYTES // (8 * n)))
    assert sum(m * w for m, w in shapes) < n * n / 2
    # the blocks and distances the window rule takes on this cloud, pinned
    # so that more retries or a wider window fail here, not only in a
    # benchmark run
    assert len(shapes) <= 20
    assert sum(m * w for m, w in shapes) <= 236_140


def test_build_graph_frees_neighbour_distances_before_edge_features(monkeypatch):
    # only node_features reads the n x k neighbour distances (164 KB here):
    # when edge_features starts, build_graph holds the fused points, the
    # node features, the table and the frame features, and the distances
    # are gone
    frames, _ = generate(SyntheticSpec(num_frames=1, points_per_frame=1024, seed=7))
    held = []

    def traced_edge_features(frame, table):
        held.append(tracemalloc.get_traced_memory()[0])
        return edge_features(frame, table)

    monkeypatch.setattr(pipeline, "edge_features", traced_edge_features)
    graph, _ = traced_peak(build_graph, frames, PipelineConfig(K=20))
    kept = (frames[0].points.nbytes + graph.node_features.nbytes + graph.neighbours.nbytes
            + graph.frame_features.nbytes)
    assert held[0] <= kept + (16 << 10)


def test_off_axis_outlier_widens_its_window_to_the_whole_cloud(np_rng, monkeypatch):
    frame = off_axis_outlier_frame(np_rng)
    shapes = distance_block_shapes(monkeypatch)
    build_graph([frame], PipelineConfig(K=20))
    assert all(m < len(frame) for m, _ in shapes)
    assert any(w == len(frame) for _, w in shapes)


def test_build_graph_peak_memory_below_one_n_by_n(np_rng):
    # distances and KNN run in row blocks: no n x n float64 array (8.4 MB)
    n = 1024
    frames = [random_frame(np_rng, n)]
    cfg = PipelineConfig(K=20)
    _, peak = traced_peak(build_graph, frames, cfg)
    assert peak < n * n * 8


def test_edge_count_invariant(np_rng):
    for n in (1, 2, 5, 30):
        frame = random_frame(np_rng, n)
        table = knn_edges(squared_distance_matrix(frame), 6)
        assert edges_from_table(table).shape[0] == n * min(6, n - 1)


def test_edges_from_table_peak_memory_is_its_output(np_rng):
    # one E x 2 array filled in place: no E-long target column, and no
    # second E x 2 array stacked from it
    n, k = 1024, 20
    table = np_rng.integers(0, n, size=(n, k))
    edges, peak = traced_peak(edges_from_table, table)
    assert np.array_equal(edges[:, 0], np.repeat(np.arange(n), k))
    assert np.array_equal(edges[:, 1], table.ravel())
    assert peak <= edges.nbytes + (16 << 10)


# -- node features -----------------------------------------------------------


def node_features_of(frame, K):
    d2 = squared_distance_matrix(frame)
    return node_features(frame, np.take_along_axis(d2, knn_edges(d2, K), axis=1))


def test_node_features_single_point():
    frame = frame_from_matrix(0, 0, [[1, 2, 3, 4, 5]])
    nf = node_features_of(frame, 20)
    assert nf.shape == (1, 19)
    assert np.array_equal(nf[0, :5], [1, 2, 3, 4, 5])
    assert np.array_equal(nf[0, 5:], np.zeros(14))


def test_node_features_two_points_hand_case():
    frame = frame_from_matrix(0, 0, [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]])
    nf = node_features_of(frame, 1)
    # each point's single neighbor distance is 1 -> constant-vector stats
    assert np.allclose(nf[0, 5:15], statbox_array([1.0]))
    assert np.allclose(nf[1, 5:15], statbox_array([1.0]))
    # centroid at (0.5, 0, 0)
    assert nf[0, 15] == pytest.approx(0.5)
    assert np.allclose(nf[0, 16:19], [1, 0, 0])
    assert nf[1, 15] == pytest.approx(0.5)
    assert np.allclose(nf[1, 16:19], [-1, 0, 0])


def test_node_features_width_is_19(np_rng):
    for n in (1, 2, 7, 40):
        nf = node_features_of(random_frame(np_rng, n), 20)
        assert nf.shape == (n, 19)


def test_node_features_direction_zero_at_centroid():
    # symmetric pair around a third point placed exactly at the centroid
    nf = node_features_of(frame_of([[-1, 0, 0], [1, 0, 0], [0, 0, 0]]), 2)
    assert nf[2, 15] == 0.0
    assert np.array_equal(nf[2, 16:19], np.zeros(3))


# -- edge features -----------------------------------------------------------


def test_edge_features_unit_displacement():
    frame = frame_from_matrix(0, 0, [[0, 0, 0, 0, 0], [1, 0, 0, 2, 3]])
    table = knn_edges(squared_distance_matrix(frame), 1)
    ef = edge_features(frame, table)
    # edge 0: target 0 -> source 1
    assert np.allclose(ef[0], [1, 1, 0, 0, 2, 3])


def test_edge_features_coincident_points_zero_direction():
    frame = frame_from_matrix(0, 0, [[0, 0, 0, 1, 4], [0, 0, 0, 3, 5]])
    table = knn_edges(squared_distance_matrix(frame), 1)
    ef = edge_features(frame, table)
    assert np.allclose(ef[0], [0, 0, 0, 0, 2, 1])
    assert np.allclose(ef[1], [0, 0, 0, 0, -2, -1])


def test_edge_features_peak_memory_is_its_output_and_one_block(np_rng):
    # the output, the 5 x n copy of the points and target rows in blocks
    # of half _D2_BLOCK_BYTES of temporaries: no 5 x E gather of the whole
    # table beside the E x 6 output (that peaks at about 2.8 times the
    # output)
    frame = random_frame(np_rng, 1024)
    table = knn_edges(squared_distance_matrix(frame), 20)
    out, peak = traced_peak(edge_features, frame, table)
    assert peak <= out.nbytes + frame.points.nbytes + pipeline._D2_BLOCK_BYTES // 2


def test_edge_features_antisymmetry(np_rng):
    frame = random_frame(np_rng, 10)
    d2 = squared_distance_matrix(frame)
    # fully connected table to check all ordered pairs
    table = knn_edges(d2, 9)
    edges = edges_from_table(table)
    ef = edge_features(frame, table)
    index = {(t, s): i for i, (t, s) in enumerate(map(tuple, edges))}
    for (t, s), i in index.items():
        j = index[(s, t)]
        assert ef[i, 0] == pytest.approx(ef[j, 0], abs=1e-15)
        assert np.allclose(ef[i, 1:], -ef[j, 1:], atol=1e-12)


# -- frame features ----------------------------------------------------------


def test_frame_features_single_point():
    nf = np.arange(19.0)[None, :]
    ff = frame_features(nf)
    assert ff.shape == (380,)
    # part 1: constant-vector case per column
    for d in range(19):
        assert ff[10 * d] == nf[0, d]  # mean
        assert ff[10 * d + 1] == 0.0  # std
    # part 2: squared deviations are all zero
    for d in range(19):
        block = ff[190 + 10 * d : 190 + 10 * (d + 1)]
        assert np.array_equal(block, statbox_array([0.0]))


def test_frame_features_length_380(np_rng):
    nf = np_rng.normal(size=(12, 19))
    assert frame_features(nf).shape == (380,)


def test_frame_features_permutation_invariant(np_rng):
    nf = np_rng.normal(size=(15, 19))
    perm = np_rng.permutation(15)
    a = frame_features(nf)
    b = frame_features(nf[perm])
    assert np.allclose(a, b, atol=1e-12, rtol=0)


def test_frame_features_empty_raises():
    with pytest.raises(EmptyInput):
        frame_features(np.zeros((0, 19)))


# -- build_graph -------------------------------------------------------------


def test_build_graph_dimensions(np_rng):
    frames = [random_frame(np_rng, n, frame_id=i) for i, n in enumerate((5, 6, 7))]
    cfg = PipelineConfig(K=20, F=3)
    g = build_graph(frames, cfg)
    assert g.node_features.shape == (18, 19)
    assert g.edge_features.shape[1] == 6
    assert g.frame_features.shape == (380,)
    assert g.frame_id == 2


def test_build_graph_all_flags_off(np_rng):
    frame = random_frame(np_rng, 8)
    cfg = PipelineConfig(
        enable_node_features=False,
        enable_edge_features=False,
        enable_frame_features=False,
    )
    g = build_graph([frame], cfg)
    assert g.node_features.shape == (8, 5)
    assert g.edge_features.shape == (g.num_edges, 0)
    assert g.frame_features.shape == (0,)


def test_build_graph_empty_frame():
    frame = RadarFrame(frame_id=3, sequence_id=1, points=())
    for enabled in (True, False):
        cfg = PipelineConfig(enable_node_features=enabled, enable_edge_features=enabled)
        g = build_graph([frame], cfg)
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.neighbours.shape == (0, 0)
        assert g.node_features.shape == (0, 19 if enabled else 5)
        assert g.edge_features.shape == (0, 6 if enabled else 0)
        assert g.frame_features.shape == (0,)
        assert graphs_equal(g, naive_build_graph([frame], cfg))


def test_shared_vs_naive_pipeline_bit_exact(np_rng):
    for _ in range(20):
        n = int(np_rng.integers(2, 30))
        frame = random_frame(np_rng, n)
        cfg = PipelineConfig(K=int(np_rng.integers(1, 10)))
        a = build_graph([frame], cfg)
        b = naive_build_graph([frame], cfg)
        assert np.array_equal(a.node_features, b.node_features)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.edge_features, b.edge_features)
        assert np.array_equal(a.frame_features, b.frame_features)


def test_permutation_equivariance(np_rng):
    n = 12
    frame = random_frame(np_rng, n)
    cfg = PipelineConfig(K=4)
    g = build_graph([frame], cfg)
    perm = np_rng.permutation(n)
    permuted = frame_from_matrix(0, 0, frame.as_matrix()[perm])
    gp = build_graph([permuted], cfg)
    # node rows move with the permutation
    assert np.allclose(gp.node_features, g.node_features[perm], atol=1e-12, rtol=0)
    # edge set maps through the permutation
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    mapped = {(int(inv[t]), int(inv[s])) for t, s in g.edges}
    assert mapped == {tuple(e) for e in gp.edges}
    # frame features unchanged
    assert np.allclose(gp.frame_features, g.frame_features, atol=1e-12, rtol=0)


def test_rigid_motion_behavior(np_rng):
    frame = random_frame(np_rng, 10)
    cfg = PipelineConfig(K=4)
    g = build_graph([frame], cfg)

    # global translation
    mat = frame.as_matrix().copy()
    mat[:, :3] += np.array([1.5, -2.0, 0.7])
    gt = build_graph([frame_from_matrix(0, 0, mat)], cfg)
    assert np.allclose(gt.node_features[:, 5:19], g.node_features[:, 5:19], atol=1e-9)
    assert np.allclose(gt.edge_features[:, 0], g.edge_features[:, 0], atol=1e-9)
    assert np.allclose(gt.node_features[:, :3], g.node_features[:, :3] + [1.5, -2.0, 0.7])

    # rotation about the centroid
    theta = 0.83
    rot = np.array(
        [[np.cos(theta), -np.sin(theta), 0], [np.sin(theta), np.cos(theta), 0], [0, 0, 1]]
    )
    mat = frame.as_matrix().copy()
    c = mat[:, :3].mean(axis=0)
    mat[:, :3] = (mat[:, :3] - c) @ rot.T + c
    gr = build_graph([frame_from_matrix(0, 0, mat)], cfg)
    assert np.allclose(gr.node_features[:, 5:15], g.node_features[:, 5:15], atol=1e-9)
    assert np.allclose(gr.node_features[:, 15], g.node_features[:, 15], atol=1e-9)


def test_build_graph_downsampling_reduces_edges(np_rng):
    frame = random_frame(np_rng, 300, scale=0.05)
    base = PipelineConfig(K=10)
    down = PipelineConfig(K=10, downsample_enabled=True, Q=1)
    g_full = build_graph([frame], base)
    g_down = build_graph([frame], down)
    assert g_down.num_edges < g_full.num_edges
