"""Numeric forward pass and analytic gradients for the graph network.

Everything is plain float64 numpy: shared-MLP blocks for edge and node
features, a stack of edge-aware attention layers, mean pooling over nodes,
a parallel frame-feature branch, and the two prediction heads (frame-wise
and sequential via a bidirectional LSTM, forward-only).

Analytic parameter gradients cover the feed-forward and attention parts
(everything except the recurrent cell) and are verified against central
finite differences by ``grad_check``.  ``_build_params`` alone names the
tensors; the gradients are a zero model from the same build, so they
mirror the parameters block for block and name for name.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .config import ModelShape, PipelineConfig
from .errors import (
    DimensionMismatch,
    EmptyGraph,
    ManifestMismatch,
    MissingRecurrentParams,
    NonFiniteOutput,
)
from .metrics import cross_entropy, softmax
from .pipeline import EDGE_FEATURE_DIM, NODE_FEATURE_DIM
from .rng import SplitMix64
from .statbox import STAT_NAMES
from .types import POINT_FIELDS, PointGraph

# -- parameter containers ----------------------------------------------------


@dataclass
class AffineLayer:
    W: np.ndarray
    b: np.ndarray


@dataclass
class FcnBlock:
    """Stack of affine layers with a rectifier placement policy."""

    layers: List[AffineLayer]
    policy: str  # "all", "all_but_first", "all_but_last"


@dataclass
class GatLayer:
    """Single-head attention layer with an optional edge transform."""

    theta: np.ndarray  # d_in x d_out node transform
    theta_e: Optional[np.ndarray]  # d_edge x d_out edge transform
    attn: np.ndarray  # length 3 * d_out attention vector
    leaky_slope: float = 0.2


@dataclass
class LstmDirection:
    Wx: np.ndarray  # D x 4H, gate order (input, forget, cell, output)
    Wh: np.ndarray  # H x 4H
    b: np.ndarray  # 4H


@dataclass
class LstmParams:
    fwd: LstmDirection
    bwd: LstmDirection


@dataclass
class ModelParams:
    """The model that ``_build_params`` built for ``shape`` and ``config``.
    ``tensors`` maps each tensor's name to the array a block holds, in
    manifest order: the same objects, so a value changed in place in one
    is changed in the other.  A gradient is a model of the same build, so
    its ``tensors`` carry the same names."""

    shape: ModelShape
    config: PipelineConfig
    tensors: Dict[str, np.ndarray]
    h_node: FcnBlock
    h_pred: FcnBlock
    gat_layers: List[GatLayer]
    h_edge: Optional[FcnBlock] = None
    h_frame: Optional[FcnBlock] = None
    lstm: Optional[LstmParams] = None


def _act_at(policy: str, i: int, total: int) -> bool:
    if policy == "all":
        return True
    if policy == "all_but_first":
        return i > 0
    if policy == "all_but_last":
        return i < total - 1
    raise ValueError(f"unknown activation policy {policy!r}")


# -- initialization ----------------------------------------------------------


def representation_dim(shape: ModelShape, config: PipelineConfig) -> int:
    # an empty attention stack pools the processed node features directly
    d = shape.gat_units[-1] if shape.gat_units else shape.node_units[-1]
    if config.enable_frame_features:
        d += shape.frame_units[-1]
    return d


def head_output_dim(shape: ModelShape) -> int:
    return 3 * shape.output_size if shape.head == "pose" else shape.output_size


# ``source(name, dims, fan_in)`` supplies one named tensor to the builder;
# ``fan_in`` is None for a bias
_TensorSource = Callable[[str, Tuple[int, ...], Optional[int]], np.ndarray]


def _build_params(shape: ModelShape, config: PipelineConfig, source: _TensorSource) -> ModelParams:
    """The model that (shape, config) implies, each tensor from ``source``
    in manifest order.  This is the only code that names a tensor: the
    weights file, the gradients and ``grad_check`` read the names from the
    model's ``tensors``.

    The mode flags of ``config`` decide which blocks exist and the input
    widths (19D vs raw 5D node features, presence of edge and frame
    branches).
    """
    tensors: Dict[str, np.ndarray] = {}

    def tensor(name: str, dims: Tuple[int, ...], fan_in: Optional[int]) -> np.ndarray:
        tensors[name] = source(name, dims, fan_in)
        return tensors[name]

    def block(prefix: str, widths: Sequence[int], policy: str) -> FcnBlock:
        layers = [
            AffineLayer(
                W=tensor(f"{prefix}.{i}.W", (din, dout), din),
                b=tensor(f"{prefix}.{i}.b", (dout,), None),
            )
            for i, (din, dout) in enumerate(zip(widths, widths[1:]))
        ]
        return FcnBlock(layers=layers, policy=policy)

    def lstm_direction(tag: str, D: int, H: int) -> LstmDirection:
        return LstmDirection(
            Wx=tensor(f"lstm.{tag}.Wx", (D, 4 * H), D),
            Wh=tensor(f"lstm.{tag}.Wh", (H, 4 * H), H),
            b=tensor(f"lstm.{tag}.b", (4 * H,), None),
        )

    d_node_in = NODE_FEATURE_DIM if config.enable_node_features else len(POINT_FIELDS)
    h_edge = None
    if config.enable_edge_features:
        h_edge = block("h_edge", (EDGE_FEATURE_DIM, *shape.edge_units), shape.edge_relu_policy)
    h_node = block("h_node", (d_node_in, *shape.node_units), "all")
    gat_layers = []
    d_in = shape.node_units[-1]
    d_edge = shape.edge_units[-1]
    for l, d_out in enumerate(shape.gat_units):
        theta = tensor(f"gat.{l}.theta", (d_in, d_out), d_in)
        theta_e = (
            tensor(f"gat.{l}.theta_e", (d_edge, d_out), d_edge)
            if config.enable_edge_features
            else None
        )
        attn = tensor(f"gat.{l}.attn", (3 * d_out,), d_out)
        gat_layers.append(GatLayer(theta, theta_e, attn, shape.leaky_slope))
        d_in = d_out
    h_frame = None
    if config.enable_frame_features:
        # frame features: the statistics of each node-feature column and of
        # its squared deviations
        h_frame = block("h_frame", (len(STAT_NAMES) * 2 * d_node_in, *shape.frame_units), "all")
    pred_in = (
        2 * shape.lstm_hidden if shape.sequential else representation_dim(shape, config)
    )
    h_pred = block("h_pred", (pred_in, *shape.pred_units, head_output_dim(shape)), "all_but_last")
    lstm = None
    if shape.sequential:
        D = representation_dim(shape, config)
        H = shape.lstm_hidden
        lstm = LstmParams(fwd=lstm_direction("fwd", D, H), bwd=lstm_direction("bwd", D, H))
    return ModelParams(
        shape=shape,
        config=config,
        tensors=tensors,
        h_edge=h_edge,
        h_node=h_node,
        gat_layers=gat_layers,
        h_frame=h_frame,
        h_pred=h_pred,
        lstm=lstm,
    )


def init_params(shape: ModelShape, config: PipelineConfig, rng: SplitMix64) -> ModelParams:
    """Seeded symmetric-uniform, fan-in-scaled weights and zero biases.

    The weights, in manifest order, are consecutive slices of one
    ``rng.doubles`` run u, each reshaped and scaled in place to
    (2u - 1) / sqrt(fan_in)."""
    sizes: List[int] = []

    def count(name: str, dims: Tuple[int, ...], fan_in: Optional[int]) -> None:
        if fan_in is not None:
            sizes.append(math.prod(dims))

    _build_params(shape, config, count)
    run = rng.doubles(sum(sizes))
    run *= 2.0
    run -= 1.0
    used = 0

    def draw(name: str, dims: Tuple[int, ...], fan_in: Optional[int]) -> np.ndarray:
        nonlocal used
        if fan_in is None:
            return np.zeros(dims)
        weight = run[used : used + math.prod(dims)].reshape(dims)
        used += weight.size
        weight *= 1.0 / math.sqrt(fan_in)
        return weight

    return _build_params(shape, config, draw)


# -- feed-forward blocks -----------------------------------------------------


def _fcn_forward(block: FcnBlock, X: np.ndarray, cache=None, head=None) -> np.ndarray:
    """Apply the block row-wise.  An unrectified layer 0 followed by a layer 1
    is one affine map, evaluated as ``X @ (W0 @ W1) + (b0 @ W1 + b1)``, so
    the product over the rows of X runs over X's width (6 for edges), not
    layer 0's.  ``cache`` receives (input, rectified output, rectified?)
    per evaluated layer, each rows x width.

    With ``head``, a d_out x L matrix, the result is ``head.T @ Y.T``, L x
    rows, computed feature-major: each layer is packed once per call as the
    C-contiguous ``[W; b].T`` and applied to a block of rows as
    ``[W; b].T @ [X.T; 1]``, so its bias is the last term of the product
    and no pass adds it.  Blocks of at most about ``_BLOCK_BYTES`` per
    layer output run through buffers allocated once per call, whose last
    row stays ones, and each block's last layer is projected straight into
    the result.  With a cache the rows are one block.  Each output is one
    dot product over its layer's input and a one, which the block bounds
    do not reorder, so on every shape the tests try a row rounds alike in
    any block; row-major ``X @ W`` does not for narrow layers such as
    16 x 4."""
    layers = block.layers
    total = len(layers)
    steps = [(layer.W, layer.b, _act_at(block.policy, i, total)) for i, layer in enumerate(layers)]
    if total > 1 and not steps[0][2]:
        W1, b1 = layers[1].W, layers[1].b
        steps[:2] = [(layers[0].W @ W1, layers[0].b @ W1 + b1, steps[1][2])]
    if head is None:
        for W, b, use_relu in steps:
            Y = X @ W
            Y += b
            if use_relu:
                np.maximum(Y, 0.0, out=Y)
            if cache is not None:
                cache.append((X, Y, use_relu))
            X = Y
        return X
    packed = [np.concatenate([W.T, b[:, None]], axis=1) for W, b, _ in steps]
    if cache is not None:
        blocks = [slice(0, len(X))]
    else:
        blocks = _row_blocks(len(X), 8 * max(P.shape[0] for P in packed))
    cols = max(rows.stop - rows.start for rows in blocks)
    bufs = [np.empty((P.shape[1], cols)) for P in packed] + [np.empty((len(packed[-1]) + 1, cols))]
    for buf in bufs:
        buf[-1] = 1.0
    out = np.empty((head.shape[1], len(X)))
    for rows in blocks:
        m = rows.stop - rows.start
        A = bufs[0][:, :m]
        A[:-1] = X[rows].T
        for P, (_, _, use_relu), buf in zip(packed, steps, bufs[1:]):
            Y = buf[:-1, :m]
            np.matmul(P, A, out=Y)
            if use_relu:
                np.maximum(Y, 0.0, out=Y)
            if cache is not None:
                cache.append((A[:-1].T, Y.T, use_relu))
            A = buf[:, :m]
        np.matmul(head.T, A[:-1], out=out[:, rows])
    return out


def _fcn_backward(block: FcnBlock, cache, dY, grad: FcnBlock) -> np.ndarray:
    """Adds the block's parameter gradients into ``grad``, the same block of
    a gradient model; returns the gradient of the block's input."""
    layers = block.layers
    folded = len(layers) - len(cache)  # 1 when cache[0] is layers 0 and 1
    for j in reversed(range(len(cache))):
        Xin, Y, use_relu = cache[j]
        dZ = dY * (Y > 0) if use_relu else dY
        G = Xin.T @ dZ
        s = dZ.sum(axis=0)
        if j == 0 and folded:
            # every gradient of the pair from the narrow G, no E x d product
            W0, W1 = layers[0].W, layers[1].W
            grad.layers[1].W += W0.T @ G + np.outer(layers[0].b, s)
            grad.layers[1].b += s
            grad.layers[0].W += G @ W1.T
            grad.layers[0].b += s @ W1.T
            dY = dZ @ (W0 @ W1).T
        else:
            i = j + folded
            grad.layers[i].W += G
            grad.layers[i].b += s
            dY = dZ @ layers[i].W.T
    return dY


# -- attention layer ---------------------------------------------------------


# Bytes, at most, of one layer's output in one row block of the streamed
# edge pass, and of the largest temporary in one block of the gathered
# attention sum.
# Median CPU ms of one whole `infer` at 128 / 256 / 512 / 1,024 KB, the
# sizes interleaved over 60 rounds in one process (2-vCPU x86_64, one BLAS
# thread), on two input seeds each:
#   one 1,024-point frame, default shape: 3.40 / 2.96 / 3.32 / 3.49 and
#     2.92 / 2.87 / 3.03 / 3.12;
#   12 fused ~130-node graphs: 5.25 / 5.31 / 5.23 / 5.22 and
#     5.60 / 5.55 / 5.35 / 5.47;
#   16 frames of 128 points, mars_sequential: 23.0 / 23.5 / 23.4 / 23.2 and
#     28.6 / 29.0 / 28.6 / 29.0.
# Only the 1,024-point frame tells the sizes apart, and 256 KB wins there.
# Every size gives the same bits.
_BLOCK_BYTES = 1 << 18
# Every block but the last is a multiple of this many rows, and the last is
# at least this long.  OpenBLAS's gemv takes rows in groups of four and
# rounds a leftover row differently, so blocks aligned to the groups of the
# whole product, with no short tail, keep every row's rounding: no block
# size changes a bit.
_MIN_BLOCK_ROWS = 8


def _row_blocks(total: int, row_bytes: int) -> List[slice]:
    """Slices covering ``range(total)`` in as few blocks of at most about
    ``_BLOCK_BYTES`` as it takes, of near-equal length, so a total just
    past one block makes two halves, not a full block and a sliver; a tail
    shorter than ``_MIN_BLOCK_ROWS`` joins the block before it."""
    rows = _BLOCK_BYTES // max(row_bytes, 1) // _MIN_BLOCK_ROWS * _MIN_BLOCK_ROWS
    rows = max(rows, _MIN_BLOCK_ROWS)
    count = max(-(-total // rows), 1)
    rows = max(-(-total // (count * _MIN_BLOCK_ROWS)) * _MIN_BLOCK_ROWS, _MIN_BLOCK_ROWS)
    starts = range(0, max(total - _MIN_BLOCK_ROWS + 1, 1), rows)
    return [slice(a, a + rows) for a in starts[:-1]] + [slice(starts[-1], total)]


def _edge_directions(gat_layers: Sequence[GatLayer]) -> np.ndarray:
    """d_edge x L: layer l reads a processed edge feature xe only through
    ``xe @ V[:, l] = w3 . (theta_e^T xe)``."""
    return np.column_stack([g.theta_e @ g.attn[2 * g.theta.shape[1] :] for g in gat_layers])


def _gat_forward(
    layer: GatLayer,
    X: np.ndarray,
    table: np.ndarray,
    e_logit: Optional[np.ndarray],
    cache=None,
):
    """One attention layer on an n x k neighbour table: edge i * k + j runs
    from ``table[i, j]`` into target i.  ``e_logit[i * k + j]`` is that
    edge's term of its logit, ``w3 . (theta_e^T xe)``, or None without edge
    features.  Where ``0 < n <= 8 * k`` the weights form one n x n matrix, at
    most 205 KB at k = 20, and the sum is one product; otherwise source states
    are gathered in row blocks.  The rule reads only n and k, so no block
    budget changes a bit.  The sum alone at k = 20, gathered -> dense, median
    us of CPU time (2-vCPU x86_64, one BLAS thread): n = 128, d = 64: 127 ->
    61; n = 136, d = 16: 52 -> 27; n = 160: 44 -> 35 (d = 16), 155 -> 120
    (d = 64); dense loses at n = 256, d = 16 (70 vs 103) and n = 1,024, d =
    16 (413 vs 2,095)."""
    d = layer.theta.shape[1]
    Q = X @ layer.theta
    qw1 = Q @ layer.attn[:d]
    qw2 = Q @ layer.attn[d : 2 * d]
    z_self = qw1 + qw2  # self logit uses the zero edge-feature vector
    z_e = qw1[:, None] + qw2[table]
    if e_logit is not None:
        z_e += e_logit.reshape(z_e.shape)
    slope = layer.leaky_slope
    # the leaky step, z for z > 0 and slope * z otherwise, is the larger of
    # the two for slope <= 1 and the smaller above: two branch-free passes.
    # A mask from the signs, through np.where or a masked multiply, took
    # 1.3-10x as long at 130-1,024 nodes, k = 20 (2-vCPU x86_64)
    leaky = np.maximum if slope <= 1 else np.minimum
    l_self = leaky(z_self, z_self * slope)
    # the logits turn into the weights in place; the backward pass reads both
    a_e = z_e if cache is None else z_e.copy()
    leaky(a_e, a_e * slope, out=a_e)
    # softmax per target over {self} + neighbors, max-subtracted
    mx = np.maximum(l_self, a_e.max(axis=1, initial=-np.inf))
    exp_self = np.exp(l_self - mx)
    a_e -= mx[:, None]
    np.exp(a_e, out=a_e)
    denom = exp_self + a_e.sum(axis=1)
    a_self = exp_self / denom
    a_e /= denom[:, None]
    n, k = table.shape
    if 0 < n <= 8 * k:  # n = 0 would make bincount return int64
        # bincount adds up every copy of a source that a row repeats
        A = np.bincount((np.arange(n)[:, None] * n + table).ravel(), a_e.ravel(), n * n)
        A[:: n + 1] += a_self  # the diagonal of A as an n x n matrix
        out = A.reshape(n, n) @ Q
    else:
        # source states gathered one block of targets at a time, never n x k x d;
        # each target is its own 1 x k by k x d product, so blocks change no bit
        out = a_self[:, None] * Q
        for rows in _row_blocks(n, 8 * d * k):
            out[rows] += np.matmul(a_e[rows, None, :], np.take(Q, table[rows], axis=0))[:, 0]
    if cache is not None:
        cache.append(
            dict(X=X, Q=Q, z_self=z_self, z_e=z_e, a_self=a_self, a_e=a_e, table=table)
        )
    return out


def _gat_backward(layer: GatLayer, c: dict, G: np.ndarray, grad: GatLayer):
    """Adds the gradients of theta and ``attn[:2d]`` into ``grad``, the same
    layer of a gradient model; returns the gradients of the
    node states and of the edge logit terms, the latter in edge order
    i * k + j.  ``theta_e`` and ``attn[2d:]`` reach the loss only through
    the edge logits, so ``_rep_backward_batch`` takes their gradients for
    all layers at once."""
    d = layer.theta.shape[1]
    w1 = layer.attn[:d]
    w2 = layer.attn[d : 2 * d]
    Q, table = c["Q"], c["table"]
    Qs = np.take(Q, table, axis=0)
    a_self, a_e = c["a_self"], c["a_e"]
    slope = layer.leaky_slope

    da_self = (G * Q).sum(axis=1)
    da_e = np.matmul(Qs, G[:, :, None])[..., 0]
    dot = a_self * da_self + (a_e * da_e).sum(axis=1)
    dl_self = a_self * (da_self - dot)
    dl_e = a_e * (da_e - dot[:, None])
    dz_self = dl_self * np.where(c["z_self"] > 0, 1.0, slope)
    dz_e = dl_e * np.where(c["z_e"] > 0, 1.0, slope)
    dz_tgt = dz_self + dz_e.sum(axis=1)

    grad.attn[:d] += dz_tgt @ Q
    grad.attn[d : 2 * d] += dz_self @ Q + dz_e.reshape(-1) @ Qs.reshape(-1, d)
    dQ = a_self[:, None] * G + dz_self[:, None] * w2 + dz_tgt[:, None] * w1
    # source side: each edge sends its share back to its source node
    np.add.at(dQ, table, a_e[:, :, None] * G[:, None, :] + dz_e[:, :, None] * w2)
    grad.theta += c["X"].T @ dQ
    dX = dQ @ layer.theta.T
    return dX, dz_e.reshape(-1)


def gat_forward(layer: GatLayer, node_feats, neighbours, processed_edge_feats=None) -> np.ndarray:
    """One attention layer on an n x k neighbour table, edge i * k + j from
    ``neighbours[i, j]`` into target i: softmax-normalized neighbor
    weighting with a self term (zero edge-feature vector) included in the
    softmax.  The node states need ``layer.theta``'s input width, the table
    one row per node and sources in [0, n), and ``processed_edge_feats`` one
    row per edge, or DimensionMismatch is raised."""
    X = np.asarray(node_feats, dtype=np.float64)
    table = np.asarray(neighbours, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != layer.theta.shape[0]:
        raise DimensionMismatch(f"node states of shape {X.shape} for theta {layer.theta.shape}")
    n = X.shape[0]
    if table.ndim != 2 or table.shape[0] != n:
        raise DimensionMismatch(f"neighbour table of shape {table.shape} for {n} nodes")
    if table.size and (table.min() < 0 or table.max() >= n):
        raise DimensionMismatch(f"neighbour index outside the {n} nodes")
    e_logit = None
    if layer.theta_e is not None and table.size:
        Xe = np.asarray(processed_edge_feats, dtype=np.float64)
        want = (table.size, layer.theta_e.shape[0])
        if Xe.shape != want:
            raise DimensionMismatch(f"processed edge features of shape {Xe.shape}, expected {want}")
        e_logit = Xe @ _edge_directions([layer])[:, 0]
    return _gat_forward(layer, X, table, e_logit)


# -- frame representation ----------------------------------------------------


def _check_graph_matches(params: ModelParams, graph: PointGraph):
    if graph.node_features.shape[1] != params.h_node.layers[0].W.shape[0]:
        raise DimensionMismatch(
            f"graph node width {graph.node_features.shape[1]} does not match model"
        )
    if params.h_edge is not None and graph.edge_features.shape[1] != params.h_edge.layers[0].W.shape[0]:
        raise DimensionMismatch("graph edge features do not match the edge block")
    if params.h_frame is not None and graph.frame_features.shape[0] != params.h_frame.layers[0].W.shape[0]:
        raise DimensionMismatch("graph frame features do not match the frame block")


class LogitGraph(NamedTuple):
    """A graph after its edge pass: the edge section replaced by the L x E
    edge logits, all that attention reads of it (None without an edge block
    or attention layers)."""

    sequence_id: int
    frame_id: int
    node_features: np.ndarray
    neighbours: np.ndarray
    e_logits: Optional[np.ndarray]
    frame_features: np.ndarray


class EncodedGraph(NamedTuple):
    """A graph as prediction reads it: pooled node states (1 x d) and frame features."""

    sequence_id: int
    frame_id: int
    num_nodes: int
    num_edges: int
    pooled: np.ndarray
    frame_features: np.ndarray


def edge_pass(params: ModelParams, graph: PointGraph, cache=None) -> LogitGraph:
    """Check a graph against the model and run its edge block: the only
    code that reads ``graph.edge_features``.  The result holds none of the
    graph's edge section, so a caller that drops the graph frees it before
    the node path runs.

    The edge logits are every attention layer's edge term as an L x E
    array, row l for layer l: the edge block with the L edge directions as
    its ``head``, so ``_fcn_forward`` packs and folds the block once per
    graph and streams the edges feature-major, projecting each row block
    inside the call.  Without a cache no E x d array is held; with one, the
    edges are one block and ``cache["h_edge"]`` keeps each layer's input
    and output, the last output being the processed edge features the
    backward pass reads.  Both round every edge alike."""
    if graph.num_nodes == 0:
        raise EmptyGraph("cannot represent a graph with zero nodes")
    _check_graph_matches(params, graph)
    e_logits = None
    if params.h_edge is not None and params.gat_layers:
        ec = [] if cache is not None else None
        e_logits = _fcn_forward(params.h_edge, graph.edge_features, ec,
                                head=_edge_directions(params.gat_layers))
        if cache is not None:
            cache["h_edge"] = ec
    return LogitGraph(graph.sequence_id, graph.frame_id, graph.node_features, graph.neighbours,
                      e_logits, graph.frame_features)


def node_path(params: ModelParams, graph: LogitGraph, cache=None) -> EncodedGraph:
    """A graph's node states through the node block and every attention
    layer, on the graph's own neighbour table, mean-pooled to 1 x d.  The
    rectified output of an inner attention layer is cached once, as the
    next layer's input ``X``."""
    nc = [] if cache is not None else None
    X = _fcn_forward(params.h_node, graph.node_features, nc)
    if cache is not None:
        cache.update(h_node=nc, gat=[])
    n_layers = len(params.gat_layers)
    e_logits = graph.e_logits
    for i, layer in enumerate(params.gat_layers):
        gc = cache["gat"] if cache is not None else None
        X = _gat_forward(layer, X, graph.neighbours, None if e_logits is None else e_logits[i], gc)
        if i < n_layers - 1:  # rectifier after every attention layer except the last
            np.maximum(X, 0.0, out=X)
    if cache is not None:
        cache["pooled_shape"] = X.shape
    n = len(X)
    return EncodedGraph(graph.sequence_id, graph.frame_id, n, graph.neighbours.size,
                        np.add.reduceat(X, [0], axis=0) / n, graph.frame_features)


def encode_graph(params: ModelParams, graph: PointGraph, cache=None) -> EncodedGraph:
    """Run a graph's edge pass, then its node path, keeping what prediction
    reads."""
    return node_path(params, edge_pass(params, graph, cache), cache)


def _rep_forward_batch(
    params: ModelParams, graphs: Sequence[EncodedGraph], cache=None
) -> np.ndarray:
    """Representations of a non-empty window of graphs encoded by
    ``encode_graph`` (or ``node_path``), one row per graph.  ``edge_pass``
    checked each graph's widths against the model, so nothing is checked
    here.  A graph's node path runs on its own neighbour table, so its
    pooled vector does not depend on the other graphs; the frame branch is
    one product over the window's stacked frame features.  A gradient cache
    describes one graph, ``network_loss``'s: it receives the frame branch
    here and the node path from ``encode_graph``."""
    rep = np.concatenate([g.pooled for g in graphs])
    if params.h_frame is not None:
        fc = [] if cache is not None else None
        Xf = _fcn_forward(params.h_frame, np.stack([g.frame_features for g in graphs]), fc)
        if cache is not None:
            cache["h_frame"] = fc
        rep = np.concatenate([rep, Xf], axis=1)
    return rep


def _rep_backward_batch(params: ModelParams, cache, dRep, grads: ModelParams):
    """Adds the gradients of everything below ``h_pred`` into ``grads``."""
    n, pool_dim = cache["pooled_shape"]
    if params.h_frame is not None:
        _fcn_backward(params.h_frame, cache["h_frame"], dRep[:, pool_dim:], grads.h_frame)
    dX = np.repeat(dRep[:, :pool_dim] / n, n, axis=0)
    de_logits = []
    n_layers = len(params.gat_layers)
    for i in reversed(range(n_layers)):
        if i < n_layers - 1:  # the rectified output is layer i + 1's input
            dX = dX * (cache["gat"][i + 1]["X"] > 0)
        dX, de_logit = _gat_backward(params.gat_layers[i], cache["gat"][i], dX, grads.gat_layers[i])
        de_logits.insert(0, de_logit)
    _fcn_backward(params.h_node, cache["h_node"], dX, grads.h_node)
    if "h_edge" in cache:
        # layer l's edge logits are Xe @ V[:, l], V[:, l] = theta_e_l @ w3_l,
        # Xe the edge block's output
        D = np.stack(de_logits)  # L x E
        XeD = cache["h_edge"][-1][1].T @ D.T  # d_edge x L
        for i, (layer, grad) in enumerate(zip(params.gat_layers, grads.gat_layers)):
            d = layer.theta.shape[1]
            grad.theta_e += np.outer(XeD[:, i], layer.attn[2 * d :])
            grad.attn[2 * d :] += XeD[:, i] @ layer.theta_e
        dXe = D.T @ _edge_directions(params.gat_layers).T
        _fcn_backward(params.h_edge, cache["h_edge"], dXe, grads.h_edge)


def frame_representation(params: ModelParams, graph: PointGraph) -> np.ndarray:
    """Single-frame representation of a graph as extracted, encoded here:
    pooled node states, concatenated with the processed frame-feature
    vector when the frame branch exists."""
    return _rep_forward_batch(params, [encode_graph(params, graph)])[0]


# -- prediction heads --------------------------------------------------------


def _head_output(params: ModelParams, vec: np.ndarray, graph: EncodedGraph) -> np.ndarray:
    """Shape the h_pred output for the head: M x 3 for pose, C scores for
    activity; ``graph`` is the frame the prediction is reported under."""
    shape = params.shape
    if not np.isfinite(vec).all():
        raise NonFiniteOutput(
            f"non-finite prediction for sequence {graph.sequence_id} frame {graph.frame_id}"
        )
    if shape.head == "pose":
        return vec.reshape(shape.output_size, 3)
    return vec


def _predict(params: ModelParams, graphs: Sequence[EncodedGraph], lstm: Optional[LstmParams]):
    """Both heads: the window's last representation through h_pred, or
    with ``lstm`` the bidirectional LSTM's output at the last time index,
    where the backward recursion has read only the last frame."""
    reps = _rep_forward_batch(params, graphs)
    last = reps[-1]
    if lstm is not None:
        last = np.concatenate([_lstm_direction(lstm.fwd, reps), _lstm_direction(lstm.bwd, [last])])
    out = _fcn_forward(params.h_pred, last[None, :])[0]
    return _head_output(params, out, graphs[-1])


def predict_framewise(params: ModelParams, graph: EncodedGraph) -> np.ndarray:
    """Frame-wise head: the representation vector of a graph encoded by
    ``encode_graph`` (or ``node_path``), through h_pred.  ``edge_pass``
    checked the graph's widths against the model.  Pose output is an M x 3
    array of keypoints; activity output is raw class scores."""
    return _predict(params, [graph], None)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_direction(d: LstmDirection, xs: np.ndarray) -> np.ndarray:
    """The hidden state after one LSTM direction has read the rows of xs."""
    H = d.Wh.shape[0]
    h = np.zeros(H)
    c = np.zeros(H)
    for x in xs:
        g = x @ d.Wx + h @ d.Wh + d.b
        i = _sigmoid(g[:H])
        f = _sigmoid(g[H : 2 * H])
        gg = np.tanh(g[2 * H : 3 * H])
        o = _sigmoid(g[3 * H :])
        c = f * c + i * gg
        h = o * np.tanh(c)
    return h


def predict_sequential(params: ModelParams, graphs: Sequence[EncodedGraph]) -> np.ndarray:
    """Sequential head: a window of graphs encoded by ``encode_graph`` (or
    ``node_path``), whose widths ``edge_pass`` checked, through a
    bidirectional LSTM; the concatenated output at the last time index
    feeds h_pred.  An empty window raises EmptyGraph.  The output is shaped
    as in ``predict_framewise``."""
    if params.lstm is None:
        raise MissingRecurrentParams("model has no recurrent cell parameters")
    if not graphs:
        raise EmptyGraph("sequential prediction needs at least one graph")
    return _predict(params, graphs, params.lstm)


# -- losses and gradients ----------------------------------------------------


def _sign_pattern(cache: dict) -> np.ndarray:
    """The sign of every rectifier input of one forward pass, read from its
    gradient cache: rectified FCN layers, the rectifier after each inner
    attention layer, and the leaky logits of each attention layer.  The
    cache keeps rectified outputs, and ``max(z, 0) > 0`` exactly where
    ``z > 0``."""
    fcn = [c for key in ("h_edge", "h_node", "h_frame", "h_pred") for c in cache.get(key, ())]
    parts = [Y > 0 for _, Y, use_relu in fcn if use_relu]
    parts += [c["X"] > 0 for c in cache["gat"][1:]]  # the inner rectifiers' outputs
    for c in cache["gat"]:
        parts += [c["z_self"] > 0, c["z_e"] > 0]
    return np.concatenate([p.ravel() for p in parts] or [np.zeros(0, bool)])


def network_loss(
    params: ModelParams,
    graph: PointGraph,
    loss_kind: str,
    target,
    compute_grads: bool = True,
):
    """Frame-wise forward pass plus loss; optionally full analytic gradients.

    loss_kind is "mse" (target: flat vector matching the head width) or
    "cross_entropy" (target: integer class index; LabelOutOfRange outside
    the head's classes).  Returns (loss, grads_or_None,
    activation_sign_pattern); the gradients are the ``tensors`` of a zero
    model built like ``params``, so they carry its names and shapes.
    """
    cache: dict = {"h_pred": []}
    rep = _rep_forward_batch(params, [encode_graph(params, graph, cache)], cache)
    pred = _fcn_forward(params.h_pred, rep, cache["h_pred"])[0]
    if loss_kind == "mse":
        target = np.asarray(target, dtype=np.float64).reshape(-1)
        if target.shape != pred.shape:
            raise DimensionMismatch("mse target width does not match prediction")
        r = pred - target
        loss = float(np.mean(r * r))
        dpred = 2.0 * r / r.size
    elif loss_kind == "cross_entropy":
        label = int(target)
        loss = cross_entropy(pred, label)
        dpred = softmax(pred)
        dpred[label] -= 1.0
    else:
        raise ValueError(f"unknown loss {loss_kind!r}")
    pattern = _sign_pattern(cache)
    if not compute_grads:
        return loss, None, pattern
    grads = _build_params(params.shape, params.config, lambda name, dims, fan_in: np.zeros(dims))
    dRep = _fcn_backward(params.h_pred, cache["h_pred"], dpred[None, :], grads.h_pred)
    _rep_backward_batch(params, cache, dRep, grads)
    return loss, grads.tensors, pattern


def grad_check(
    params: ModelParams,
    graph: PointGraph,
    loss_selector: str,
    target,
    step: float = 1e-5,
    max_entries_per_tensor: Optional[int] = None,
    rng: Optional[SplitMix64] = None,
    denom_floor: float = 1e-6,
) -> dict:
    """Compare analytic gradients against central finite differences.

    Entries where the perturbation flips any rectifier pre-activation sign
    are kink-flagged and excluded from the per-tensor maximum (the analytic
    subgradient is not comparable across a kink).  Large tensors can be
    subsampled via max_entries_per_tensor (seeded, reproducible).
    The recurrent cell is excluded (forward-only by design).

    The relative error denominator is floored at ``denom_floor``: central
    differences at step h resolve a derivative only down to roughly
    eps_machine * |loss| / h (about 1e-11 here), so entries whose true
    gradient sits below the floor are measured against it instead of
    against pure roundoff noise.
    """
    _, grads, _ = network_loss(params, graph, loss_selector, target)
    report: dict = {}
    sampler = rng or SplitMix64(0)
    overall = 0.0
    for name, tensor in params.tensors.items():
        if name.startswith("lstm."):
            continue
        flat = tensor.reshape(-1)
        size = flat.size
        if max_entries_per_tensor is not None and size > max_entries_per_tensor:
            idx = sorted(sampler.partial_shuffle_picks([size], max_entries_per_tensor)[0].tolist())
        else:
            idx = range(size)
        gflat = grads[name].reshape(-1)
        max_rel = 0.0
        kinks = 0
        checked = 0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            lp, _, sp = network_loss(params, graph, loss_selector, target, compute_grads=False)
            flat[i] = orig - step
            lm, _, sm = network_loss(params, graph, loss_selector, target, compute_grads=False)
            flat[i] = orig
            if sp.shape != sm.shape or not np.array_equal(sp, sm):
                kinks += 1
                continue
            numeric = (lp - lm) / (2.0 * step)
            analytic = gflat[i]
            denom = max(abs(numeric), abs(analytic), denom_floor)
            max_rel = max(max_rel, abs(numeric - analytic) / denom)
            checked += 1
        report[name] = {"max_rel_err": max_rel, "checked": checked, "kinks": kinks}
        overall = max(overall, max_rel)
    report["overall_max_rel_err"] = overall
    return report


# -- weights file ------------------------------------------------------------

_WEIGHTS_MAGIC = b"PCGW"
_WEIGHTS_VERSION = 1


def _tensor_header(name: str, dims: Tuple[int, ...]) -> bytes:
    """The bytes before a tensor's values: u16 name length, UTF-8 name, u8
    rank, u32 dims."""
    nb = name.encode("utf-8")
    return struct.pack(f"<H{len(nb)}sB{len(dims)}I", len(nb), nb, len(dims), *dims)


def save_params(params: ModelParams, path) -> None:
    """Magic, u32 version and tensor count, then each tensor in manifest
    order: its header and its little-endian float64 values, one write each,
    straight from its array."""
    tensors = params.tensors
    with open(path, "wb") as fh:
        fh.write(_WEIGHTS_MAGIC + struct.pack("<II", _WEIGHTS_VERSION, len(tensors)))
        for name, arr in tensors.items():
            fh.write(_tensor_header(name, arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_params(path, shape: ModelShape, config: PipelineConfig) -> ModelParams:
    """The model of (shape, config) with its values read from a file that
    holds exactly the bytes ``save_params`` writes for that model, with any
    finite values.  The values go into one float64 array sized from the
    model, never from the file: each tensor is an aligned, writable view of
    it.  The file's magic, version and size are checked before any tensor
    is read, then each tensor header must equal the model's, so a wrong
    file raises ManifestMismatch naming it."""
    sizes: List[int] = []
    _build_params(shape, config, lambda name, dims, fan_in: sizes.append(math.prod(dims)))
    ends = list(itertools.accumulate(sizes))
    values = np.empty(ends[-1], dtype="<f8")
    bounds = iter(zip([0, *ends], ends))
    params = _build_params(
        shape, config, lambda name, dims, fan_in: values[slice(*next(bounds))].reshape(dims)
    )
    tensors = params.tensors
    headers = [_tensor_header(name, t.shape) for name, t in tensors.items()]
    start = _WEIGHTS_MAGIC + struct.pack("<II", _WEIGHTS_VERSION, len(tensors))
    want = len(start) + sum(map(len, headers)) + values.nbytes
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(start))
        if head[:4] != _WEIGHTS_MAGIC:
            raise ManifestMismatch(f"{path}: not a weights file")
        if len(head) >= 8 and head[4:8] != start[4:8]:
            (version,) = struct.unpack_from("<I", head, 4)
            raise ManifestMismatch(f"{path}: unsupported weights version {version}")
        if size != want:
            raise ManifestMismatch(f"{path}: {size} bytes, but the model's manifest implies {want}")
        if head != start:
            (count,) = struct.unpack_from("<I", head, 8)
            raise ManifestMismatch(f"{path}: {count} tensors, but the model's manifest has {len(tensors)}")
        for (name, tensor), header in zip(tensors.items(), headers):
            if fh.read(len(header)) != header:
                raise ManifestMismatch(
                    f"{path}: expected tensor {name} of shape {tensor.shape}, the header differs"
                )
            if fh.readinto(tensor) != tensor.nbytes:
                raise ManifestMismatch(f"{path}: changed while it was read")
    finite = np.isfinite(values)
    if not finite.all():
        # name the tensor that holds the first non-finite value
        name = list(tensors)[np.searchsorted(ends, finite.argmin(), side="right")]
        raise ManifestMismatch(f"{path}: tensor {name} has a non-finite value")
    return params
