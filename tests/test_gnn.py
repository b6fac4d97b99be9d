import hashlib
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from cloudgraph import gnn
from cloudgraph.cli import main
from cloudgraph.config import ModelShape, PipelineConfig, mars_sequential_shape, serialize_config
from cloudgraph.errors import (
    DimensionMismatch,
    EmptyGraph,
    LabelOutOfRange,
    ManifestMismatch,
    MissingRecurrentParams,
)
from cloudgraph.gnn import (
    AffineLayer,
    FcnBlock,
    GatLayer,
    _edge_directions,
    _fcn_backward,
    _fcn_forward,
    _gat_backward,
    _gat_forward,
    _rep_forward_batch,
    _row_blocks,
    edge_pass,
    encode_graph,
    frame_representation,
    gat_forward,
    grad_check,
    init_params,
    load_params,
    network_loss,
    node_path,
    predict_framewise,
    predict_sequential,
    save_params,
)
from cloudgraph.metrics import cross_entropy, softmax
from cloudgraph.pipeline import build_graph
from cloudgraph.reference import gat_forward_reference
from cloudgraph.rng import SplitMix64
from cloudgraph.types import RadarFrame, edges_from_table

from conftest import append_tensor, random_frame, random_table, traced_peak


def random_graph(rng, n=None, K=4, cfg=None):
    if n is None:
        n = int(rng.integers(2, 15))
    cfg = cfg or PipelineConfig(K=K)
    return build_graph([random_frame(rng, n)], cfg)


SMALL_SHAPE = ModelShape(
    head="pose",
    output_size=4,
    mid_hip_index=0,
    edge_units=(6, 5),
    node_units=(8, 7),
    gat_units=(6, 5),
    frame_units=(9,),
    pred_units=(8,),
)


def small_params(rng_seed=11, shape=SMALL_SHAPE, cfg=None):
    cfg = cfg or PipelineConfig(K=4)
    return init_params(shape, cfg, SplitMix64(rng_seed)), cfg


# -- shared MLP blocks -------------------------------------------------------


def test_fcn_identity_weights_pass_through():
    block = FcnBlock([AffineLayer(np.eye(3), np.zeros(3))], policy="all_but_last")
    x = np.array([[-1.0, 2.0, 0.5]])
    assert np.array_equal(_fcn_forward(block, x), x)


def test_fcn_relu_placement_policies():
    w = np.eye(2)
    neg = np.array([[-1.0, -2.0]])
    two = FcnBlock(
        [AffineLayer(w, np.zeros(2)), AffineLayer(w, np.zeros(2))], policy="all"
    )
    assert np.array_equal(_fcn_forward(two, neg), [[0.0, 0.0]])
    two.policy = "all_but_first"
    # first layer keeps the sign, second rectifies
    assert np.array_equal(_fcn_forward(two, neg), [[0.0, 0.0]])
    two.policy = "all_but_last"
    # first rectifies (-> zeros), second affine leaves zeros
    assert np.array_equal(_fcn_forward(two, neg), [[0.0, 0.0]])
    pos = np.array([[1.0, -2.0]])
    two.policy = "all_but_last"
    assert np.array_equal(_fcn_forward(two, pos), [[1.0, 0.0]])
    two.policy = "all_but_first"
    assert np.array_equal(_fcn_forward(two, pos), [[1.0, 0.0]])


def test_fcn_hand_example():
    block = FcnBlock(
        [AffineLayer(np.array([[2.0], [1.0]]), np.array([-1.0]))], policy="all"
    )
    # [1, 3] @ [[2],[1]] - 1 = 4, relu -> 4
    out = _fcn_forward(block, np.array([[1.0, 3.0], [-1.0, 0.0]]))
    assert out[0, 0] == 4.0
    assert out[1, 0] == 0.0  # -3 rectified


def test_fcn_rows_equal_vector_calls(np_rng):
    blk = FcnBlock(
        [AffineLayer(np_rng.normal(size=(4, 3)), np_rng.normal(size=3))], policy="all"
    )
    X = np_rng.normal(size=(6, 4))
    batch = _fcn_forward(blk, X)
    for i in range(6):
        # matrix and single-row products may differ by summation order only
        assert np.allclose(batch[i], _fcn_forward(blk, X[i : i + 1])[0], rtol=1e-13, atol=1e-15)


def rectified(policy, i, total):
    return {"all": True, "all_but_first": i > 0, "all_but_last": i < total - 1}[policy]


def plain_fcn(block, X):
    """Every layer on its own as ``X @ W + b``, rectified where the policy
    says, with the pre-activations kept for a backward pass."""
    total = len(block.layers)
    steps = []
    for i, layer in enumerate(block.layers):
        Z = X @ layer.W + layer.b
        steps.append((X, Z))
        X = np.maximum(Z, 0.0) if rectified(block.policy, i, total) else Z
    return X, steps


def random_block(rng, policy, n_layers):
    widths = (6, 9, 7, 5)[: n_layers + 1]
    layers = [AffineLayer(rng.normal(size=(a, b)), rng.normal(size=b))
              for a, b in zip(widths, widths[1:])]
    return FcnBlock(layers, policy)


@pytest.mark.parametrize("rows", [0, 1, 37])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("policy", ["all", "all_but_first", "all_but_last"])
def test_fcn_forward_matches_plain_layer_loop(np_rng, policy, n_layers, rows):
    block = random_block(np_rng, policy, n_layers)
    X = np_rng.normal(size=(rows, 6))
    got, want = _fcn_forward(block, X), plain_fcn(block, X)[0]
    assert got.shape == want.shape
    if policy == "all_but_first" and n_layers > 1:
        # layers 0 and 1 run as one folded affine map: rounding differs
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)
    else:
        # in-place bias and rectifier round exactly as the plain expressions
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rows", [0, 1, 37, 9001])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("policy", ["all", "all_but_first", "all_but_last"])
def test_fcn_forward_with_a_head_matches_projected_rows(np_rng, policy, n_layers, rows):
    # 9,001 rows of at most 9-wide layer outputs make 2 or 3 row blocks,
    # the last a few rows shorter; with a cache the rows are one block
    block = random_block(np_rng, policy, n_layers)
    X = np_rng.normal(size=(rows, 6))
    V = np_rng.normal(size=(block.layers[-1].W.shape[1], 3))
    want = V.T @ _fcn_forward(block, X).T
    streamed = _fcn_forward(block, X, head=V)
    cache = []
    assert np.array_equal(_fcn_forward(block, X, cache, head=V), streamed)
    assert streamed.shape == want.shape
    assert np.abs(streamed - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)
    # the cache holds each layer's input and output row-major, as without a head
    plain = []
    _fcn_forward(block, X, plain)
    for (Xin, Y, relu), (Xin0, Y0, relu0) in zip(cache, plain, strict=True):
        assert relu == relu0 and Xin.shape == Xin0.shape and Y.shape == Y0.shape
        assert np.abs(Y - Y0).max(initial=0.0) <= 1e-12 * np.abs(Y0).max(initial=0.0)


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("policy", ["all", "all_but_first", "all_but_last"])
def test_fcn_backward_matches_plain_chain_rule(np_rng, policy, n_layers):
    block = random_block(np_rng, policy, n_layers)
    X = np_rng.normal(size=(23, 6))
    dY = np_rng.normal(size=(23, block.layers[-1].W.shape[1]))
    cache = []
    _fcn_forward(block, X, cache)
    grad = FcnBlock([AffineLayer(np.zeros_like(layer.W), np.zeros_like(layer.b))
                     for layer in block.layers], policy)
    dX = _fcn_backward(block, cache, dY, grad)
    _, steps = plain_fcn(block, X)
    d = dY
    for i in reversed(range(n_layers)):
        Xin, Z = steps[i]
        dZ = d * (Z > 0) if rectified(policy, i, n_layers) else d
        for name, want in (("W", Xin.T @ dZ), ("b", dZ.sum(axis=0))):
            got = getattr(grad.layers[i], name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), f"{i}.{name}"
        d = dZ @ block.layers[i].W.T
    assert np.abs(dX - d).max() <= 1e-12 * np.abs(d).max()


# -- attention layer ---------------------------------------------------------


def make_gat(rng, d_in, d_out, d_edge=None, slope=0.2):
    theta = rng.normal(size=(d_in, d_out))
    theta_e = rng.normal(size=(d_edge, d_out)) if d_edge else None
    attn = rng.normal(size=3 * d_out)
    return GatLayer(theta=theta, theta_e=theta_e, attn=attn, leaky_slope=slope)


def test_gat_isolated_node_is_theta_transform(np_rng):
    layer = make_gat(np_rng, 4, 3)
    x = np_rng.normal(size=(1, 4))
    out = gat_forward(layer, x, np.zeros((1, 0), dtype=np.int64))
    # softmax over the single self term is 1, output = theta^T x
    assert np.allclose(out, x @ layer.theta, atol=1e-14)


def test_gat_forward_rejects_mismatched_inputs(np_rng):
    layer = make_gat(np_rng, 4, 3, 2)
    x = np_rng.normal(size=(3, 4))
    table = np.array([[1], [2], [0]])
    # edge features of 1 row would broadcast over all three edges
    bad_edges = [(x, np.zeros((rows, 2))) for rows in (1, 2, 4)]
    # node states of the wrong width, and 1-D and 3-D ones with a row per node
    bad_states = [(x[:, :3], np.zeros((3, 2))), (x[:, 0], np.zeros((3, 2))),
                  (x[:, :, None], np.zeros((3, 2)))]
    for bad_x, ef in [(x, None), (x, np.zeros((3, 5)))] + bad_states + bad_edges:
        with pytest.raises(DimensionMismatch):
            gat_forward(layer, bad_x, table, ef)
    for bad_table in (table[:2], np.vstack([table, table[:1]]), table.reshape(-1)):
        with pytest.raises(DimensionMismatch, match="for 3 nodes"):
            gat_forward(layer, x, bad_table, np.zeros((3, 2)))


@pytest.mark.parametrize("edge", [(0, -1), (0, 3), (2, -1), (2, 3)])
def test_gat_forward_rejects_an_edge_outside_the_nodes(np_rng, edge):
    # a source of -1 would wrap round to node 2; 3 would index past the last node
    layer = make_gat(np_rng, 4, 3, 2)
    x = np_rng.normal(size=(3, 4))
    row, source = edge
    table = np.array([[1], [2], [0]])
    table[row, 0] = source
    with pytest.raises(DimensionMismatch, match="outside"):
        gat_forward(layer, x, table, np_rng.normal(size=(3, 2)))


def test_gat_identical_neighbors_average(np_rng):
    # two coincident node states: all logits equal, attention = 1/2 each,
    # output equals the (identical) transformed state
    layer = make_gat(np_rng, 4, 3)
    x = np.tile(np_rng.normal(size=(1, 4)), (2, 1))
    ef = np.zeros((2, 2))
    layer.theta_e = np.zeros((2, 3))
    out = gat_forward(layer, x, np.array([[1], [0]]), ef)
    assert np.allclose(out, x @ layer.theta, atol=1e-12)


def test_gat_matches_dense_reference(np_rng):
    for _ in range(10):
        n = int(np_rng.integers(1, 12))
        d_in, d_out, d_e = 5, 4, 3
        layer = make_gat(np_rng, d_in, d_out, d_e)
        x = np_rng.normal(size=(n, d_in))
        table = random_table(np_rng, n, int(np_rng.integers(0, n)))
        ef = np_rng.normal(size=(table.size, d_e))
        got = gat_forward(layer, x, table, ef)
        expect = gat_forward_reference(layer, x, edges_from_table(table), ef)
        assert np.allclose(got, expect, atol=1e-12, rtol=0)


@pytest.mark.parametrize("slope", [-0.5, 0.0, 1.0, 3.0])
def test_gat_matches_dense_reference_at_any_leaky_slope(np_rng, slope):
    # the leaky step takes the larger of z and slope * z up to slope 1 and
    # the smaller above; node 0's self logit and its edge from node 1 are 0
    layer = make_gat(np_rng, 5, 4, 3, slope=slope)
    x = np_rng.normal(size=(9, 5))
    x[:2] = 0.0
    table = random_table(np_rng, 9, 4)
    table[0, 0] = 1
    ef = np_rng.normal(size=(table.size, 3))
    ef[0] = 0.0
    got = gat_forward(layer, x, table, ef)
    expect = gat_forward_reference(layer, x, edges_from_table(table), ef)
    assert np.allclose(got, expect, atol=1e-12, rtol=0)


def test_gat_attention_rows_sum_to_one(np_rng):
    # with theta = I and a constant transformed state of ones, the output of
    # each node equals the attention row sum, which must be exactly 1
    n = 6
    layer = GatLayer(
        theta=np.eye(1),
        theta_e=np_rng.normal(size=(2, 1)),
        attn=np_rng.normal(size=3),
        leaky_slope=0.2,
    )
    x = np.ones((n, 1))
    table = np.array([[(t + 1) % n] for t in range(n)])
    ef = np_rng.normal(size=(n, 2))
    out = gat_forward(layer, x, table, ef)
    assert np.allclose(out, 1.0, atol=1e-12)


def gathered_sums(monkeypatch):
    """The row-block count of each gathered attention sum from here on: only
    that path asks ``_row_blocks`` for blocks, and it is the only caller
    when edge logits are passed in.  The dense path adds nothing."""
    counts = []
    real = gnn._row_blocks

    def spy(total, row_bytes):
        blocks = real(total, row_bytes)
        counts.append(len(blocks))
        return blocks

    monkeypatch.setattr(gnn, "_row_blocks", spy)
    return counts


def colliding_table(rng, n, k):
    """An n x k table with sources drawn with replacement, where target 0 is
    its own first source and, for k > 1, target 1 repeats its first source:
    a dense build that overwrote instead of adding up would drop a weight."""
    table = rng.integers(0, max(n, 1), size=(n, k))
    if k:
        table[0, 0] = 0
    if k > 1 and n > 1:
        table[1, 1] = table[1, 0]
    return table


@pytest.mark.parametrize("extra", [0, 1], ids=["n=8k", "n=8k+1"])
@pytest.mark.parametrize("k", [0, 1, 4, 20])
def test_gat_on_both_sides_of_the_dense_rule_matches_reference(np_rng, monkeypatch, k, extra):
    # n = 8k takes the n x n product, n = 8k + 1 the gathered sum; k = 0 is
    # a graph of isolated nodes, and an empty one (n = 0) is gathered too
    n = 8 * k + extra
    layer = make_gat(np_rng, 5, 6, 3)
    x = np_rng.normal(size=(n, 5))
    table = colliding_table(np_rng, n, k)
    ef = np_rng.normal(size=(table.size, 3))
    sums = gathered_sums(monkeypatch)
    got = gat_forward(layer, x, table, ef)
    assert len(sums) == (1 if extra or k == 0 else 0)
    expect = gat_forward_reference(layer, x, edges_from_table(table), ef)
    assert got.shape == (n, 6)
    assert np.allclose(got, expect, atol=1e-12, rtol=0)


@pytest.mark.parametrize("extra", [0, 1], ids=["n=8k", "n=8k+1"])
@pytest.mark.parametrize("k", [1, 4, 20])
def test_gat_attention_rows_sum_to_one_on_both_sides_of_the_dense_rule(np_rng, k, extra):
    # theta = I on a state of ones: each output is its target's attention
    # row sum, a repeated or self source included
    n = 8 * k + extra
    layer = GatLayer(theta=np.eye(1), theta_e=np_rng.normal(size=(2, 1)),
                     attn=np_rng.normal(size=3), leaky_slope=0.2)
    table = colliding_table(np_rng, n, k)
    out = gat_forward(layer, np.ones((n, 1)), table, np_rng.normal(size=(table.size, 2)))
    assert np.allclose(out, 1.0, atol=1e-12, rtol=0)


def test_gat_counts_a_repeated_source_once_per_copy(np_rng):
    # target 0 lists source 1 twice and source 2 once: with every logit equal
    # (zero attention vector), the weights are 1/4 self, 2/4 on 1, 1/4 on 2
    for n in (3, 25):  # dense (3 <= 8 * 3) and gathered (25 > 24)
        layer = GatLayer(theta=np.eye(2), theta_e=None, attn=np.zeros(6), leaky_slope=0.2)
        x = np_rng.normal(size=(n, 2))
        table = np.array([[1, 1, 2]] + [[0, 0, 0]] * (n - 1))
        out = gat_forward(layer, x, table)
        assert np.allclose(out[0], (x[0] + 2 * x[1] + x[2]) / 4, atol=1e-15, rtol=0), n


@pytest.mark.parametrize("n, d, gathered", [(1024, 16, True), (136, 16, False), (128, 64, False)],
                         ids=["dense_cloud", "sparse_fused", "sequential_pose"])
def test_gat_on_a_knn_table_matches_reference(np_rng, monkeypatch, n, d, gathered):
    # the benchmark workloads' attention shapes at K = 20, on the graph's own
    # table as the model runs it: 1,024 nodes take the gathered sum over
    # several row blocks, 136 and 128 nodes (n <= 8k) the n x n product
    graph = build_graph([random_frame(np_rng, n)], PipelineConfig(K=20))
    layer = make_gat(np_rng, 7, d, 6)
    X = np_rng.normal(size=(n, 7))
    Xe = np_rng.normal(size=(graph.num_edges, 6))
    e_logit = Xe @ _edge_directions([layer])[:, 0]
    sums = gathered_sums(monkeypatch)
    got = _gat_forward(layer, X, graph.neighbours, e_logit)
    if gathered:
        assert len(sums) == 1 and sums[0] > 1
    else:
        assert sums == []
    expect = gat_forward_reference(layer, X, graph.edges, Xe)
    assert np.allclose(got, expect, atol=1e-12, rtol=0)


def test_gat_rejects_a_source_index_out_of_range(np_rng):
    layer = make_gat(np_rng, 4, 3)
    X = np_rng.normal(size=(5, 4))
    src = np.array([[1], [2], [3], [4], [5]])  # 5 is past the last node
    with pytest.raises(IndexError):
        _gat_forward(layer, X, src, None)


@pytest.mark.parametrize("n, k", [(7, 4), (7, 6), (1, 0)], ids=["partial", "full", "isolated"])
def test_gat_backward_on_a_table_matches_finite_differences(np_rng, n, k):
    # theta_e and attn[2d:] reach a layer only through its edge logits; their
    # gradients are checked through the whole network by the grad_check tests.
    # n = 1 is an isolated node: k = 0 and the self term is its whole softmax
    d, step = 3, 1e-6
    layer = make_gat(np_rng, 4, d, 2)
    X = np_rng.normal(size=(n, 4))
    table = random_table(np_rng, n, k)
    e_logit = np_rng.normal(size=table.size)
    R = np_rng.normal(size=(n, d))  # loss = sum(R * out)
    cache = []
    _gat_forward(layer, X, table, e_logit, cache=cache)
    grad = GatLayer(np.zeros_like(layer.theta), np.zeros_like(layer.theta_e),
                    np.zeros_like(layer.attn))
    dX, de_logit = _gat_backward(layer, cache[0], R, grad)
    assert not grad.attn[2 * d :].any() and not grad.theta_e.any()
    analytic = {"theta": grad.theta, "attn[:2d]": grad.attn[: 2 * d],
                "X": dX, "e_logit": de_logit}
    tensors = {"theta": layer.theta, "attn[:2d]": layer.attn[: 2 * d], "X": X,
               "e_logit": e_logit}
    for name, tensor in tensors.items():
        flat = tensor.reshape(-1)
        numeric = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float((R * _gat_forward(layer, X, table, e_logit)).sum())
            flat[i] = orig - step
            down = float((R * _gat_forward(layer, X, table, e_logit)).sum())
            flat[i] = orig
            numeric[i] = (up - down) / (2 * step)
        assert np.allclose(analytic[name].reshape(-1), numeric, rtol=1e-5, atol=1e-7), name


def test_attention_output_identical_across_blas_threads():
    # 96, 12 and 64 nodes take the dense attention sum, 205 (> 8 * 20) the
    # gathered one.  The default shape's 16-wide edge block runs the 307-node
    # graph's 6,140 edges in three 2,048-row blocks
    script = (
        "import hashlib, numpy as np\n"
        "from cloudgraph.config import ModelShape, PipelineConfig, mars_sequential_shape\n"
        "from cloudgraph.gnn import (encode_graph, init_params, _rep_forward_batch,\n"
        "                            predict_framewise, predict_sequential)\n"
        "from cloudgraph.pipeline import build_graph\n"
        "from cloudgraph.rng import SplitMix64\n"
        "from cloudgraph.types import RadarFrame\n"
        "cfg = PipelineConfig(K=20)\n"
        "params = init_params(mars_sequential_shape(13, 0), cfg, SplitMix64(0))\n"
        "r = np.random.default_rng(3)\n"
        "graphs = [build_graph([RadarFrame(0, i, r.normal(size=(n, 5)))], cfg)\n"
        "          for i, n in enumerate((96, 12, 64, 205))]\n"
        "graphs = [encode_graph(params, g) for g in graphs]\n"
        "rep = _rep_forward_batch(params, graphs)\n"
        "out = predict_sequential(params, graphs)\n"
        "big = build_graph([RadarFrame(1, 0, r.normal(size=(307, 5)))], cfg)\n"
        "default = init_params(ModelShape(), cfg, SplitMix64(1))\n"
        "big = encode_graph(default, big)\n"
        "rep2 = _rep_forward_batch(default, [big])\n"
        "out2 = predict_framewise(default, big)\n"
        "print(hashlib.sha256(b''.join(a.tobytes() for a in (rep, out, rep2, out2))).hexdigest())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


# -- frame representation ----------------------------------------------------


def represent(params, graphs):
    """The window's representations, each graph encoded first."""
    return _rep_forward_batch(params, [encode_graph(params, g) for g in graphs])


def test_representation_single_node_graph(np_rng):
    params, cfg = small_params()
    g = build_graph([random_frame(np_rng, 1)], cfg)
    rep = frame_representation(params, g)
    assert rep.shape == (SMALL_SHAPE.gat_units[-1] + SMALL_SHAPE.frame_units[-1],)
    assert np.all(np.isfinite(rep))


def test_representation_batched_equals_unbatched(np_rng):
    params, cfg = small_params()
    graphs = [random_graph(np_rng, cfg=cfg) for _ in range(5)]
    batch = represent(params, graphs)
    for i, g in enumerate(graphs):
        single = frame_representation(params, g)
        assert np.allclose(batch[i], single, atol=1e-12, rtol=0)


def test_window_pools_each_graph_as_if_alone(np_rng):
    # a graph's node path runs on its own table, so its pooled columns do
    # not depend on the sizes of the other graphs in its window
    params, graphs = random_batch(np_rng, mars_sequential_shape(13, 0), (96, 12, 64))
    d = params.shape.gat_units[-1]
    window = represent(params, graphs)
    for i, g in enumerate(graphs):
        assert np.array_equal(window[i, :d], frame_representation(params, g)[:d]), i


def test_representation_batch_mixes_degrees(np_rng):
    params, cfg = small_params()
    sizes = (3, 12, 1, 7)
    graphs = [random_graph(np_rng, n=n, cfg=cfg) for n in sizes]
    batch = represent(params, graphs)
    for i, g in enumerate(graphs):
        assert np.allclose(batch[i], frame_representation(params, g), atol=1e-12, rtol=0)


def test_a_gradient_cache_takes_one_graph(np_rng):
    # one graph, encoded with the cache, fills every key the backward pass reads
    params, cfg = small_params()
    cache: dict = {}
    encoded = encode_graph(params, random_graph(np_rng, n=9, cfg=cfg), cache)
    _rep_forward_batch(params, [encoded], cache)
    assert cache["pooled_shape"][0] == 9 and len(cache["h_frame"]) == len(params.h_frame.layers)


def random_biases(params, rng, scale=0.3):
    """Non-zero biases in every block, so a gradient term proportional to
    a bias can show."""
    for name, arr in params.tensors.items():
        if name.endswith(".b"):
            arr[...] = rng.normal(scale=scale, size=arr.shape)
    return params


def random_batch(rng, shape, sizes, seed=0):
    cfg = PipelineConfig(K=20)
    params = random_biases(init_params(shape, cfg, SplitMix64(seed)), rng)
    graphs = [build_graph([random_frame(rng, n)], cfg) for n in sizes]
    return params, graphs


@pytest.mark.parametrize("total", [0, 5, 23, 1003])
@pytest.mark.parametrize("row_bytes", [1, 10082, 40000, 1 << 40])  # 10082: 26 rows, cut to 24
def test_row_blocks_are_aligned_and_leave_no_short_tail(total, row_bytes):
    blocks = _row_blocks(total, row_bytes)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(total))
    lengths = [b.stop - b.start for b in blocks]
    # no block but the last, which takes a short tail, is longer than the
    # budget's rows cut to a multiple of 8
    budget = gnn._BLOCK_BYTES // row_bytes // gnn._MIN_BLOCK_ROWS * gnn._MIN_BLOCK_ROWS
    assert all(n <= max(budget, gnn._MIN_BLOCK_ROWS) for n in lengths[:-1])
    assert len(set(lengths[:-1])) <= 1
    assert all(n % gnn._MIN_BLOCK_ROWS == 0 for n in lengths[:-1])
    assert len(blocks) <= 1 or lengths[-1] >= gnn._MIN_BLOCK_ROWS


@pytest.mark.parametrize("block_rows", [1, 13, 1 << 40])
@pytest.mark.parametrize("shape, sizes", [
    # each graph's edge block is blocked on its own; the last graph's edge
    # count is 4 past a multiple of both 8 and the default's rows.  77 nodes
    # at K = 20 and 64-wide edge states, three layers: 1,540 edges, 512 rows
    (mars_sequential_shape(13, 0), (96, 64, 77)),
    # 205 nodes, one 16-wide layer: 4,100 edges, 2,048 rows
    (ModelShape(), (512, 512, 205)),
    # a narrow edge block: 16 x 4 products taken row-major round a row
    # differently in small and large blocks.  1,024 nodes: 20,480 edges in
    # ten 2,048-row blocks
    (ModelShape(edge_units=(16, 4), edge_relu_policy="all_but_last"), (1024, 205)),
], ids=["mars_sequential", "default", "narrow_edge"])
def test_representation_does_not_depend_on_the_block_size(np_rng, monkeypatch, block_rows,
                                                          shape, sizes):
    # a budget of 1 or 13 edge rows makes blocks of 8: the rows a block
    # starts at stay aligned to BLAS's row groups
    params, graphs = random_batch(np_rng, shape, sizes)
    E = graphs[-1].num_edges
    row_bytes = 8 * max(shape.edge_units)
    default_rows = gnn._BLOCK_BYTES // row_bytes
    assert 0 < E % gnn._MIN_BLOCK_ROWS == E % default_rows < gnn._MIN_BLOCK_ROWS
    want = represent(params, graphs)
    # the cached path runs the edge block as one block; a cache takes one graph
    pooled = np.concatenate([encode_graph(params, g, {}).pooled for g in graphs])
    assert np.array_equal(pooled, want[:, : pooled.shape[1]])
    monkeypatch.setattr(gnn, "_BLOCK_BYTES", block_rows * row_bytes)
    assert np.array_equal(represent(params, graphs), want)


@pytest.mark.parametrize("block_bytes", [1, 1 << 40])
def test_gat_on_a_table_does_not_depend_on_the_block_size(np_rng, monkeypatch, block_bytes):
    # n = 29 > 8k takes the gathered sum; 8-row blocks leave a tail of 5,
    # folded into the block before it
    n, k = 29, 3
    layer = make_gat(np_rng, 5, 4, 3)
    X = np_rng.normal(size=(n, 5))
    table = random_table(np_rng, n, k)
    e_logit = np_rng.normal(size=table.size)
    want = _gat_forward(layer, X, table, e_logit)
    monkeypatch.setattr(gnn, "_BLOCK_BYTES", block_bytes)
    sums = gathered_sums(monkeypatch)
    assert np.array_equal(_gat_forward(layer, X, table, e_logit), want)
    assert sums == [3 if block_bytes == 1 else 1]


def test_representation_peak_memory_below_one_edge_state_array(np_rng):
    # the edge block and the attention sum run in row blocks: no E x 64
    # edge state and no n x k x 64 gathered source states
    params, graphs = random_batch(np_rng, mars_sequential_shape(13, 0), (128,) * 16)
    E = sum(g.num_edges for g in graphs)
    assert E >= 40960
    _, peak = traced_peak(represent, params, graphs)
    assert peak < E * 64 * 8


def test_gat_forward_without_a_cache_holds_two_n_by_k_arrays(np_rng):
    # the logits turn into the weights in one n x k array, and at width 1
    # the gathered source states are one block, the other n x k array; the
    # rest is n-long vectors
    n, k = 1024, 20
    layer = make_gat(np_rng, 4, 1, 3)
    X = np_rng.normal(size=(n, 4))
    table = np_rng.integers(0, n, size=(n, k))
    e_logit = np_rng.normal(size=n * k)
    _gat_forward(layer, X, table, e_logit)  # one-time allocations count in no peak
    out, peak = traced_peak(_gat_forward, layer, X, table, e_logit)
    assert peak - out.nbytes <= 2 * n * k * 8 + 16 * n * 8


def test_edge_pass_holds_no_reference_to_the_edge_section(np_rng):
    # the node path runs on what the edge pass returns, so a caller that
    # drops the graph frees its E x 6 section before attention runs
    params, cfg = small_params()
    graph = random_graph(np_rng, 12, cfg=cfg)
    want = encode_graph(params, graph)
    section = weakref.ref(graph.edge_features)
    passed = edge_pass(params, graph)
    del graph
    assert section() is None
    got = node_path(params, passed)
    assert got[:4] == want[:4]
    assert np.array_equal(got.pooled, want.pooled)
    assert np.array_equal(got.frame_features, want.frame_features)


@pytest.mark.parametrize("n", [1, 21, 1024])
def test_gat_forward_same_bits_with_and_without_a_cache(np_rng, n):
    # 21 nodes take the dense sum, 1,024 the gathered one; one node has no
    # neighbours
    layer = make_gat(np_rng, 5, 4, 3)
    X = np_rng.normal(size=(n, 5))
    table = random_table(np_rng, n, min(20, n - 1))
    e_logit = np_rng.normal(size=table.size)
    cache = []
    want = _gat_forward(layer, X, table, e_logit, cache)
    assert _gat_forward(layer, X, table, e_logit).tobytes() == want.tobytes()
    assert cache[0]["a_e"] is not cache[0]["z_e"]


def test_representation_permutation_invariant(np_rng):
    params, cfg = small_params()
    n = 10
    frame = random_frame(np_rng, n)
    g = build_graph([frame], cfg)
    perm = np_rng.permutation(n)
    gp = build_graph([RadarFrame(0, 0, frame.points[perm])], cfg)
    assert np.allclose(
        frame_representation(params, g), frame_representation(params, gp), atol=1e-9
    )


def test_shared_mlp_locality_without_attention(np_rng):
    # with no attention layers and the frame branch off, each node's pooled
    # contribution depends only on its own features: editing one node leaves
    # the other rows of the processed node matrix untouched
    shape = ModelShape(
        head="activity",
        output_size=3,
        node_units=(6,),
        gat_units=(),
        pred_units=(4,),
    )
    cfg = PipelineConfig(K=3, enable_edge_features=False, enable_frame_features=False)
    params = init_params(shape, cfg, SplitMix64(5))
    X = np_rng.normal(size=(7, 19))
    a = _fcn_forward(params.h_node, X)
    X2 = X.copy()
    X2[3] += 1.0
    b = _fcn_forward(params.h_node, X2)
    rows = np.arange(7) != 3
    assert np.array_equal(a[rows], b[rows])
    assert not np.array_equal(a[3], b[3])


# -- prediction heads --------------------------------------------------------


def zero_all(params):
    for arr in params.tensors.values():
        arr[...] = 0.0
    return params


def test_framewise_pose_shape_and_zero_weights(np_rng):
    shape = ModelShape(head="pose", output_size=17, mid_hip_index=8)
    cfg = PipelineConfig(K=4)
    params = zero_all(init_params(shape, cfg, SplitMix64(0)))
    g = random_graph(np_rng, cfg=cfg)
    out = predict_framewise(params, encode_graph(params, g))
    assert out.dtype == np.float64 and out.shape == (17, 3)
    assert np.array_equal(out, np.zeros((17, 3)))


def test_framewise_activity_scores(np_rng):
    shape = ModelShape(head="activity", output_size=6)
    cfg = PipelineConfig(K=4)
    params = init_params(shape, cfg, SplitMix64(2))
    g = random_graph(np_rng, cfg=cfg)
    out = predict_framewise(params, encode_graph(params, g))
    assert out.shape == (6,)
    assert np.all(np.isfinite(out))


def test_framewise_deterministic_rerun(np_rng):
    params, cfg = small_params()
    g = encode_graph(params, random_graph(np_rng, cfg=cfg))
    a = predict_framewise(params, g)
    b = predict_framewise(params, g)
    assert np.array_equal(a, b)


def test_sequential_requires_lstm(np_rng):
    params, cfg = small_params()
    g = encode_graph(params, random_graph(np_rng, cfg=cfg))
    with pytest.raises(MissingRecurrentParams):
        predict_sequential(params, [g])


def test_sequential_single_frame_and_zero_weights(np_rng):
    shape = ModelShape(
        head="pose", output_size=4, sequential=True, lstm_hidden=5,
        node_units=(6,), gat_units=(5,), frame_units=(6,), pred_units=(6,),
        edge_units=(4,),
    )
    cfg = PipelineConfig(K=3)
    params = init_params(shape, cfg, SplitMix64(4))
    g = encode_graph(params, random_graph(np_rng, cfg=cfg))
    out = predict_sequential(params, [g])
    assert out.dtype == np.float64 and out.shape == (4, 3)
    with pytest.raises(EmptyGraph):
        predict_sequential(params, [])
    zero_all(params)
    out0 = predict_sequential(params, [g])
    assert np.array_equal(out0, np.zeros((4, 3)))


def test_sequential_is_order_sensitive(np_rng):
    shape = ModelShape(
        head="pose", output_size=4, sequential=True, lstm_hidden=5,
        node_units=(6,), gat_units=(5,), frame_units=(6,), pred_units=(6,),
        edge_units=(4,),
    )
    cfg = PipelineConfig(K=3)
    params = init_params(shape, cfg, SplitMix64(4))
    graphs = [encode_graph(params, random_graph(np_rng, cfg=cfg)) for _ in range(4)]
    a = predict_sequential(params, graphs)
    b = predict_sequential(params, graphs[::-1])
    assert not np.allclose(a, b)


def full_lstm_states(d, xs):
    """Every hidden state of one LSTM direction, step by step."""
    H = d.Wh.shape[0]
    h, c, hs = np.zeros(H), np.zeros(H), np.zeros((len(xs), H))
    for t, x in enumerate(xs):
        g = x @ d.Wx + h @ d.Wh + d.b
        c = gnn._sigmoid(g[H : 2 * H]) * c + gnn._sigmoid(g[:H]) * np.tanh(g[2 * H : 3 * H])
        h = hs[t] = gnn._sigmoid(g[3 * H :]) * np.tanh(c)
    return hs


@pytest.mark.parametrize("frames", [1, 2, 7])
def test_sequential_equals_the_full_length_recursion(np_rng, frames):
    # only the forward state at t = L-1 and the backward state at position
    # L-1, its recursion's first step, reach h_pred
    params, graphs = random_batch(np_rng, mars_sequential_shape(13, 0), (24,) * frames)
    graphs = [encode_graph(params, g) for g in graphs]
    reps = _rep_forward_batch(params, graphs)
    hf = full_lstm_states(params.lstm.fwd, reps)
    hb = full_lstm_states(params.lstm.bwd, reps[::-1])
    assert np.array_equal(gnn._lstm_direction(params.lstm.fwd, reps), hf[-1])
    assert np.array_equal(gnn._lstm_direction(params.lstm.bwd, reps[-1:]), hb[0])
    want = _fcn_forward(params.h_pred, np.concatenate([hf[-1], hb[0]])[None, :])[0]
    got = predict_sequential(params, graphs).reshape(-1)
    assert np.array_equal(got, want)


def test_mars_preset_dimensions():
    shape = mars_sequential_shape(17, 8)
    assert shape.node_units == (64, 64, 64)
    assert shape.gat_units == (64, 64, 64)
    assert shape.pred_units == (64, 64, 64)
    assert shape.sequential and shape.lstm_hidden == 64
    assert shape.window == 16


# -- gradients ---------------------------------------------------------------


def test_grad_check_linear_network_tight(np_rng):
    # leaky slope 1 makes attention logits smooth; single-layer blocks with
    # no rectifier make the whole network kink-free, so the finite-difference
    # agreement should be near machine precision
    shape = ModelShape(
        head="activity", output_size=3, mid_hip_index=0,
        edge_units=(4,), node_units=(6,), gat_units=(5,),
        frame_units=(5,), pred_units=(), leaky_slope=1.0,
        edge_relu_policy="all_but_first",
    )
    cfg = PipelineConfig(K=3)
    params = init_params(shape, cfg, SplitMix64(21))
    for blk in (params.h_edge, params.h_node, params.h_frame, params.h_pred):
        if blk is not None:
            blk.policy = "all_but_last"  # single layer -> purely affine
    g = random_graph(np_rng, n=6, cfg=cfg)
    report = grad_check(params, g, "cross_entropy", 1, step=1e-4, denom_floor=1e-5)
    assert report["overall_max_rel_err"] < 1e-6
    assert all(v["kinks"] == 0 for k, v in report.items() if isinstance(v, dict))


def test_grad_check_full_network_both_losses(np_rng):
    params, cfg = small_params()
    g = random_graph(np_rng, n=8, cfg=cfg)
    target = np_rng.normal(size=12)
    rep = grad_check(params, g, "mse", target, max_entries_per_tensor=20,
                     rng=SplitMix64(1))
    assert rep["overall_max_rel_err"] < 1e-4

    shape_act = ModelShape(
        head="activity", output_size=5,
        edge_units=(6, 5), node_units=(8, 7), gat_units=(6, 5),
        frame_units=(9,), pred_units=(8,),
    )
    params_act = init_params(shape_act, cfg, SplitMix64(13))
    rep2 = grad_check(params_act, g, "cross_entropy", 3,
                      max_entries_per_tensor=20, rng=SplitMix64(2))
    assert rep2["overall_max_rel_err"] < 1e-4


@pytest.mark.parametrize("policy, edge_units", [
    ("all_but_last", (6, 5)),
    ("all_but_first", (6, 6, 5)),
    ("all_but_last", (6, 6, 5)),
])
def test_grad_check_edge_relu_policies(np_rng, policy, edge_units):
    # all_but_last leaves the edge layer that attention reads unrectified
    shape = ModelShape(
        head="pose", output_size=4, edge_units=edge_units, node_units=(8, 7),
        gat_units=(6, 5), frame_units=(9,), pred_units=(8,), edge_relu_policy=policy,
    )
    params, cfg = small_params(rng_seed=5, shape=shape)
    g = random_graph(np_rng, n=9, cfg=cfg)
    rep = grad_check(params, g, "mse", np_rng.normal(size=12), max_entries_per_tensor=20,
                     rng=SplitMix64(3))
    assert rep["overall_max_rel_err"] < 1e-4
    assert all(rep[f"h_edge.{i}.W"]["checked"] > 0 for i in range(len(edge_units)))


@pytest.mark.parametrize("policy, edge_units", [
    ("all_but_first", (6, 5)),
    ("all_but_first", (6, 6, 5)),
    ("all_but_last", (6, 5)),
    ("all_but_last", (6, 6, 5)),
])
def test_grad_check_with_nonzero_biases(np_rng, policy, edge_units):
    # init_params biases are all zero; these make every bias-proportional
    # term of the folded edge layers and every attention layer's edge path
    # count
    for head, loss, target, seed in (("pose", "mse", np_rng.normal(size=12), 5),
                                     ("activity", "cross_entropy", 2, 6)):
        shape = ModelShape(
            head=head, output_size=4, edge_units=edge_units, node_units=(8, 7),
            gat_units=(6, 6, 5), frame_units=(9,), pred_units=(8,), edge_relu_policy=policy,
        )
        params, cfg = small_params(rng_seed=seed, shape=shape)
        random_biases(params, np_rng)
        g = random_graph(np_rng, n=9, cfg=cfg)
        rep = grad_check(params, g, loss, target, max_entries_per_tensor=20, rng=SplitMix64(seed))
        assert rep["overall_max_rel_err"] < 1e-4, head
        checked = [k for k, v in rep.items() if isinstance(v, dict) and v["checked"]]
        assert {f"h_edge.{i}.{t}" for i in range(len(edge_units)) for t in "Wb"} <= set(checked)
        assert {f"gat.{i}.theta_e" for i in range(3)} <= set(checked)


def test_network_loss_values(np_rng):
    params, cfg = small_params()
    g = random_graph(np_rng, cfg=cfg)
    pred = predict_framewise(params, encode_graph(params, g)).reshape(-1)
    loss, grads, _ = network_loss(params, g, "mse", pred)
    assert loss == 0.0
    loss2, _, _ = network_loss(params, g, "mse", pred + 1.0)
    assert loss2 == pytest.approx(1.0)
    assert set(grads) == set(params.tensors)


def test_network_loss_cross_entropy_is_the_metric(np_rng):
    """The loss is metrics.cross_entropy of the head's scores; a label
    outside the 5 classes raises, where -1 used to score class 4 and 5 to
    raise IndexError."""
    params, cfg = small_params(shape=ModelShape(head="activity", output_size=5, edge_units=(6,),
                                                node_units=(8,), gat_units=(6,),
                                                frame_units=(8,), pred_units=(8,)))
    g = random_graph(np_rng, cfg=cfg)
    scores = predict_framewise(params, encode_graph(params, g))
    for label in range(5):
        loss, _, _ = network_loss(params, g, "cross_entropy", label)
        assert loss == pytest.approx(cross_entropy(scores, label), rel=1e-12)
        assert loss == pytest.approx(-np.log(softmax(scores)[label]), rel=1e-12)
    for label in (-1, 5):
        with pytest.raises(LabelOutOfRange, match=rf"^class index {label} outside \[0, 5\)$"):
            network_loss(params, g, "cross_entropy", label)


def test_network_loss_lstm_grads_absent_from_check(np_rng):
    # rep width (4 + 4) equals 2 * lstm_hidden so the frame-wise loss path
    # stays dimensionally valid while lstm tensors exist in the manifest
    shape = ModelShape(
        head="pose", output_size=3, sequential=True, lstm_hidden=4,
        node_units=(5,), gat_units=(4,), frame_units=(4,), pred_units=(),
        edge_units=(4,),
    )
    cfg = PipelineConfig(K=3)
    params = init_params(shape, cfg, SplitMix64(9))
    assert any(k.startswith("lstm.") for k in params.tensors)
    g = random_graph(np_rng, n=5, cfg=cfg)
    rep = grad_check(params, g, "mse", np.zeros(9), max_entries_per_tensor=3,
                     rng=SplitMix64(0))
    assert not any(k.startswith("lstm.") for k in rep if isinstance(rep[k], dict))


# -- init and persistence ----------------------------------------------------


def test_init_deterministic():
    cfg = PipelineConfig(K=4)
    a = init_params(SMALL_SHAPE, cfg, SplitMix64(77)).tensors
    b = init_params(SMALL_SHAPE, cfg, SplitMix64(77)).tensors
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k])
    c = init_params(SMALL_SHAPE, cfg, SplitMix64(78)).tensors
    assert any(not np.array_equal(a[k], c[k]) for k in a)


@pytest.mark.parametrize("shape", [ModelShape(), mars_sequential_shape(13, 0), SMALL_SHAPE],
                         ids=["default", "mars_sequential", "small"])
def test_init_draws_the_weights_as_one_run(shape):
    # every weight, in manifest order, is the next slice of one
    # doubles run mapped to (2u - 1) / sqrt(fan_in); biases are zeros
    cfg = PipelineConfig()
    drawn = SplitMix64(5)
    tensors = init_params(shape, cfg, drawn).tensors
    weights = {k: v for k, v in tensors.items() if not k.endswith(".b")}
    reference = SplitMix64(5)
    run = reference.doubles(sum(v.size for v in weights.values()))
    used = 0
    for name, value in tensors.items():
        if name in weights:
            # an attention vector is 3 x d_out long with fan-in d_out
            fan_in = value.shape[0] // 3 if name.endswith(".attn") else value.shape[0]
            u = run[used : used + value.size].reshape(value.shape)
            used += value.size
            assert np.array_equal(value, (u * 2.0 - 1.0) * (1.0 / np.sqrt(fan_in))), name
        else:
            assert value.ndim == 1 and not value.any(), name
    assert used == run.size
    assert drawn.next_u64() == reference.next_u64()  # nothing else was drawn


# perfbench's two models: the default and the MARS preset for its 13 joints
BENCHMARK_SHAPE = ModelShape(head="pose", output_size=13, mid_hip_index=0)


@pytest.mark.parametrize(
    "shape, seed, digest",
    [
        (ModelShape(), 0, "ea4d9a19efdaf8a301593e0beda5dcc967d0b2b8f52e3fa27d65723e6023f35e"),
        (mars_sequential_shape(13, 0), 0,
         "48361777a4ea3d8b686ba747f40c3e6a25af735fbbbbd76a547e54967eb7d3c3"),
        (BENCHMARK_SHAPE, 1, "023f0eca8a421a62022a8d1255b83608474157a8550a7f1659819a3002043324"),
        (mars_sequential_shape(13, 0), 1,
         "328438f88f0f0f852288c1408ad2c2f8049853048d36909a4b5bea4b96803460"),
    ],
    ids=["default", "mars_sequential", "benchmark_default_seed_1", "mars_sequential_seed_1"],
)
def test_init_weights_file_is_pinned(tmp_path, shape, seed, digest):
    # the weights written for a seed are fixed: any change to the RNG
    # stream or the draw order of init_params changes this digest
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(serialize_config(PipelineConfig(), shape), encoding="utf-8")
    out = tmp_path / "w.bin"
    assert main(["init-weights", "--config", str(cfg_path), "--seed", str(seed),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_init_respects_feature_flags():
    cfg = PipelineConfig(K=4, enable_edge_features=False, enable_frame_features=False)
    params = init_params(SMALL_SHAPE, cfg, SplitMix64(0))
    assert params.h_edge is None
    assert params.h_frame is None
    assert all(g.theta_e is None for g in params.gat_layers)
    cfg2 = PipelineConfig(K=4, enable_node_features=False)
    params2 = init_params(SMALL_SHAPE, cfg2, SplitMix64(0))
    assert params2.h_node.layers[0].W.shape[0] == 5
    assert params2.h_frame.layers[0].W.shape[0] == 100


def test_save_load_round_trip_bit_exact(tmp_path, np_rng):
    cfg = PipelineConfig(K=4)
    params = random_biases(init_params(SMALL_SHAPE, cfg, SplitMix64(31)), np_rng)
    path = tmp_path / "w.bin"
    save_params(params, path)
    loaded = load_params(path, SMALL_SHAPE, cfg)
    a, b = params.tensors, loaded.tensors
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k])
        # grad_check perturbs the loaded tensors in place
        assert b[k].dtype == np.float64 and b[k].flags.aligned and b[k].flags.writeable, k


def test_load_rejects_mismatched_shape(tmp_path):
    cfg = PipelineConfig(K=4)
    params = init_params(SMALL_SHAPE, cfg, SplitMix64(31))
    path = tmp_path / "w.bin"
    save_params(params, path)
    other = ModelShape(head="pose", output_size=4, node_units=(8, 9),
                       edge_units=(6, 5), gat_units=(6, 5), frame_units=(9,),
                       pred_units=(8,))
    with pytest.raises(ManifestMismatch):
        load_params(path, other, cfg)
    with pytest.raises(ManifestMismatch):
        load_params(path, SMALL_SHAPE, PipelineConfig(K=4, enable_edge_features=False))


def test_load_rejects_a_repeated_tensor_name(tmp_path):
    # the second copy, all 7.0, would otherwise replace the first
    cfg = PipelineConfig(K=4)
    params = init_params(SMALL_SHAPE, cfg, SplitMix64(31))
    path = tmp_path / "w.bin"
    save_params(params, path)
    size = path.stat().st_size
    append_tensor(path, "h_pred.1.b", np.full(params.h_pred.layers[1].b.shape, 7.0))
    message = f"{path}: {path.stat().st_size} bytes, but the model's manifest implies {size}"
    with pytest.raises(ManifestMismatch, match=re.escape(message)):
        load_params(path, SMALL_SHAPE, cfg)


@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_weights_manifest_names_the_tensor_holding_a_non_finite_value(tmp_path, at):
    params = init_params(SMALL_SHAPE, PipelineConfig(K=4), SplitMix64(31))
    tensors = params.tensors
    names = list(tensors)
    name = {"first": names[0], "middle": names[len(names) // 2], "last": names[-1]}[at]
    tensors[name].flat[0] = np.nan
    if at != "last":  # a later infinity does not change which tensor is named
        tensors[names[-1]].flat[-1] = np.inf
    path = tmp_path / "w.bin"
    save_params(params, path)
    with pytest.raises(ManifestMismatch, match=rf"tensor {name} has a non-finite value$"):
        load_params(path, SMALL_SHAPE, PipelineConfig(K=4))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ManifestMismatch):
        load_params(path, SMALL_SHAPE, PipelineConfig(K=4))


@pytest.mark.parametrize("ndim", [0, 3, 65, 255])
def test_weights_manifest_rejects_tensor_rank(tmp_path, ndim):
    # the file keeps its size, so only the first tensor's header, whose
    # rank byte follows the 12-byte file header, the u16 name length and
    # the name, tells it apart
    cfg = PipelineConfig(K=4)
    path = tmp_path / "w.bin"
    save_params(init_params(SMALL_SHAPE, cfg, SplitMix64(31)), path)
    data = bytearray(path.read_bytes())
    data[12 + 2 + len("h_edge.0.W")] = ndim
    path.write_bytes(data)
    message = f"{path}: expected tensor h_edge.0.W of shape (6, 6), the header differs"
    with pytest.raises(ManifestMismatch, match=re.escape(message)):
        load_params(path, SMALL_SHAPE, cfg)


def test_every_header_bit_of_a_weights_file_is_load_bearing(tmp_path):
    # the magic, version and count, then each tensor's name length, name,
    # rank and dims: a flip of any one bit of them is refused, naming the
    # file and the field or tensor it hit
    cfg = PipelineConfig(K=4)
    params = init_params(SMALL_SHAPE, cfg, SplitMix64(31))
    path = tmp_path / "w.bin"
    save_params(params, path)
    data = path.read_bytes()
    messages = ["not a weights file"] * 4 + ["unsupported weights version"] * 4
    messages += [f"tensors, but the model's manifest has {len(params.tensors)}"] * 4
    for name, tensor in params.tensors.items():
        header = 2 + len(name.encode("utf-8")) + 1 + 4 * tensor.ndim
        messages += [f"expected tensor {name} of shape {tensor.shape}"] * header
        messages += [None] * 8 * tensor.size
    assert len(messages) == len(data)
    for at, message in enumerate(messages):
        for bit in range(8 if message else 0):
            flipped = bytearray(data)
            flipped[at] ^= 1 << bit
            path.write_bytes(flipped)
            with pytest.raises(ManifestMismatch) as err:
                load_params(path, SMALL_SHAPE, cfg)
            assert str(err.value).startswith(f"{path}: ") and message in str(err.value), at
