"""The benchmark in perfbench/ traces the library by rebinding module-level
names.  These checks make a refactor that drops or reshapes one of those
bindings fail here, not only in a traced benchmark run."""

import importlib
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from cloudgraph.config import ModelShape, PipelineConfig, serialize_config
from cloudgraph.formats import (read_graph_record, read_skeletons, write_frames,
                                write_graph_record)
from cloudgraph.pipeline import build_graph
from cloudgraph.reference import naive_build_graph
from cloudgraph.synthetic import NUM_JOINTS
from cloudgraph.types import frame_from_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(monkeypatch):
    """perfbench's span module and the module namespace its runner builds.

    Importing the runner pins thread-count variables in os.environ; they
    are restored afterwards.  No bytecode is written under perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    with mock.patch.dict(os.environ):
        run = importlib.import_module("run")
        cg = run.import_cloudgraph()
    return importlib.import_module("spans"), cg


def test_benchmark_inputs_read_back_as_one_pose_array_per_frame(monkeypatch, tmp_path):
    """The benchmark writes ``generate()``'s poses with ``write_skeletons``
    and counts predictions as ``len(read_skeletons(path, 0))``.  A pose API
    that stops taking those rows or returning one entry per frame fails
    here, not only in a benchmark run."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    paths = workloads.write_inputs(workloads.WORKLOADS["sparse_fused"], 1, tmp_path)
    poses = read_skeletons(paths["truth"], 0)
    assert len(poses) == 16
    for pose in poses.values():
        assert isinstance(pose, np.ndarray)
        assert pose.dtype == np.float64 and pose.shape == (NUM_JOINTS, 3) == (13, 3)


def test_install_wraps_and_uninstall_restores_every_binding(monkeypatch):
    spans, cg = load_perfbench(monkeypatch)
    tracer = spans.Tracer()
    spans.install(tracer, cg)
    patched = list(tracer._patches)
    try:
        wrapped = [getattr(owner, attr) is not original for owner, attr, original in patched]
    finally:
        tracer.uninstall()
    assert patched and all(wrapped)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_gate_fingerprints_agree_for_shared_naive_and_read_back_graphs(monkeypatch, tmp_path,
                                                                     np_rng):
    """The benchmark's correctness gate fingerprints the arrays a graph
    exposes; a graph change that breaks those fingerprints fails here."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gate = importlib.import_module("gate")
    frames = [frame_from_matrix(3, i, np_rng.normal(size=(9, 5))) for i in range(2)]
    cfg = PipelineConfig(K=4, F=2)
    shared = build_graph(frames, cfg)
    write_graph_record(shared, tmp_path / "g.bin")
    want = gate.fingerprint(shared)
    assert want[:2] == (3, 1)
    assert gate.fingerprint(naive_build_graph(frames, cfg)) == want
    assert gate.fingerprint(read_graph_record(tmp_path / "g.bin")) == want


def test_traced_extract_builds_no_edge_list_and_counts_statbox_calls(
    monkeypatch, tmp_path, np_rng
):
    spans, cg = load_perfbench(monkeypatch)
    frames = [frame_from_matrix(0, i, np_rng.normal(size=(12, 5))) for i in range(4)]
    write_frames(frames, tmp_path / "frames.csv")
    (tmp_path / "run.cfg").write_text(serialize_config(PipelineConfig(K=5, F=2)), encoding="utf-8")
    tracer = spans.Tracer()
    spans.install(tracer, cg)
    try:
        rc = cg.cli.main(["extract", str(tmp_path / "frames.csv"), "--config",
                          str(tmp_path / "run.cfg"), "--out", str(tmp_path / "graphs")])
    finally:
        tracer.uninstall()
    assert rc == 0
    _, _, calls = spans.span_totals(tracer.spans)
    graphs = calls["pipeline.build_graph"]
    assert graphs == 3
    # graphs keep the KNN table; nothing flattens it into pairs
    assert calls["pipeline.edges_from_table"] == 0
    # distances and KNN run once per block of target rows, at least once
    # per graph, through the names the spans wrap
    assert calls["pipeline.squared_distance_matrix"] >= graphs
    assert calls["pipeline.knn_edges"] >= graphs
    assert calls["statbox.statbox_array"] == 3 * graphs
    assert calls["statbox.statbox_columns"] == 2 * graphs
    assert tracer.counts["pipeline.points_kept"] == 3 * 24
    # each stage a per-layer metric times keeps its own call, so folding
    # one into its caller cannot leave that metric at 0 unnoticed
    assert calls["formats.read_frames"] == 1
    assert calls["pipeline.edge_features"] == graphs
    assert calls["formats.write_graph_record"] == graphs


def test_traced_fused_extract_spans_one_downsample_per_window(monkeypatch, tmp_path, np_rng):
    """``_fuse_window`` calls the module-level ``pipeline.downsample``, the
    binding the benchmark wraps, once per fused window."""
    spans, cg = load_perfbench(monkeypatch)
    frames = [frame_from_matrix(0, i, np_rng.normal(size=(30, 5)) * 0.05) for i in range(5)]
    write_frames(frames, tmp_path / "frames.csv")
    cfg = PipelineConfig(K=4, F=3, downsample_enabled=True, Q=1)
    (tmp_path / "run.cfg").write_text(serialize_config(cfg), encoding="utf-8")
    tracer = spans.Tracer()
    spans.install(tracer, cg)
    try:
        rc = cg.cli.main(["extract", str(tmp_path / "frames.csv"), "--config",
                          str(tmp_path / "run.cfg"), "--out", str(tmp_path / "graphs")])
    finally:
        tracer.uninstall()
    assert rc == 0
    _, _, calls = spans.span_totals(tracer.spans)
    windows = len(frames) - cfg.F + 1
    assert calls["pipeline.build_graph"] == windows
    assert calls["pipeline.downsample"] == windows
    for name, _, _, parent in tracer.spans:
        if name == "pipeline.downsample":
            assert tracer.spans[parent][0] == "pipeline.build_graph"
    # downsampling dropped points, so the span timed real work
    assert tracer.counts["pipeline.points_kept"] < tracer.counts["pipeline.points_in"]


def test_traced_extract_of_a_multi_block_frame_spans_every_block(monkeypatch, tmp_path, np_rng):
    """A frame bigger than one block of distances runs each block, and each
    retry of a block's window, through the names the spans wrap."""
    spans, cg = load_perfbench(monkeypatch)
    n = 600
    blocks = -(-n // (cg.pipeline._D2_BLOCK_BYTES // (8 * n)))
    assert blocks > 1
    write_frames([frame_from_matrix(0, 0, np_rng.normal(size=(n, 5)))], tmp_path / "frames.csv")
    (tmp_path / "run.cfg").write_text(serialize_config(PipelineConfig(K=20)), encoding="utf-8")
    tracer = spans.Tracer()
    spans.install(tracer, cg)
    try:
        rc = cg.cli.main(["extract", str(tmp_path / "frames.csv"), "--config",
                          str(tmp_path / "run.cfg"), "--out", str(tmp_path / "graphs")])
    finally:
        tracer.uninstall()
    assert rc == 0
    _, _, calls = spans.span_totals(tracer.spans)
    assert calls["pipeline.build_graph"] == 1
    assert calls["pipeline.squared_distance_matrix"] >= blocks
    assert calls["pipeline.knn_edges"] == calls["pipeline.squared_distance_matrix"]


def test_traced_sequential_infer_names_every_block_span(monkeypatch, tmp_path, np_rng):
    """Each MLP block's span is named by the block object that load_params
    returned, so a forward pass that evaluated some other block object would
    record an anonymous ``gnn.fcn`` span and leave that block's metric at 0.
    The edge block is one ``gnn.h_edge`` span per graph, its projection
    onto the edge logits included, and attention is one ``gnn.gat`` span
    per layer and graph."""
    spans, cg = load_perfbench(monkeypatch)
    frames = [frame_from_matrix(0, i, np_rng.normal(size=(12, 5))) for i in range(3)]
    write_frames(frames, tmp_path / "frames.csv")
    shape = ModelShape(head="pose", output_size=4, edge_units=(6, 5), node_units=(7,),
                       gat_units=(5, 5, 5), frame_units=(6,), pred_units=(6,), sequential=True,
                       lstm_hidden=4, window=3)
    cfg = str(tmp_path / "run.cfg")
    (tmp_path / "run.cfg").write_text(serialize_config(PipelineConfig(K=4), shape), encoding="utf-8")
    graphs, weights = str(tmp_path / "graphs"), str(tmp_path / "w.bin")
    assert cg.cli.main(["extract", str(tmp_path / "frames.csv"), "--config", cfg, "--out", graphs]) == 0
    assert cg.cli.main(["init-weights", "--config", cfg, "--out", weights]) == 0
    tracer = spans.Tracer()
    spans.install(tracer, cg)
    try:
        rc = cg.cli.main(["infer", graphs, "--weights", weights, "--config", cfg,
                          "--out", str(tmp_path / "preds.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    _, _, calls = spans.span_totals(tracer.spans)
    for block in ("h_edge", "h_node", "h_frame", "h_pred"):
        assert calls["gnn." + block] > 0, block
    assert calls["gnn.fcn"] == 0
    assert calls["gnn.frame_representation"] == 1
    assert calls["gnn.gat"] == 3 * 3
    # the three graphs make one window, predicted once, and every node and
    # edge the records hold is counted
    assert calls["gnn.predict_sequential"] == 1
    records = [cg.formats.read_graph_record(p) for p in Path(graphs).glob("graph_*.bin")]
    assert len(records) == 3
    assert tracer.counts["gnn.nodes"] == sum(g.num_nodes for g in records) > 0
    assert tracer.counts["gnn.edges"] == sum(g.num_edges for g in records) > 0


def test_traced_framewise_infer_names_every_block_span(monkeypatch, tmp_path, np_rng):
    """The frame-wise twin of the sequential test above: one prediction,
    one representation and one attention span per layer for each record."""
    spans, cg = load_perfbench(monkeypatch)
    frames = [frame_from_matrix(0, i, np_rng.normal(size=(12, 5))) for i in range(4)]
    write_frames(frames, tmp_path / "frames.csv")
    shape = ModelShape(head="pose", output_size=4, edge_units=(6, 5), node_units=(7,),
                       gat_units=(5, 5), frame_units=(6,), pred_units=(6,))
    cfg = str(tmp_path / "run.cfg")
    (tmp_path / "run.cfg").write_text(serialize_config(PipelineConfig(K=4), shape), encoding="utf-8")
    graphs, weights = str(tmp_path / "graphs"), str(tmp_path / "w.bin")
    assert cg.cli.main(["extract", str(tmp_path / "frames.csv"), "--config", cfg, "--out", graphs]) == 0
    assert cg.cli.main(["init-weights", "--config", cfg, "--out", weights]) == 0
    tracer = spans.Tracer()
    spans.install(tracer, cg)
    try:
        rc = cg.cli.main(["infer", graphs, "--weights", weights, "--config", cfg,
                          "--out", str(tmp_path / "preds.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    _, _, calls = spans.span_totals(tracer.spans)
    for block in ("h_edge", "h_node", "h_frame", "h_pred"):
        assert calls["gnn." + block] > 0, block
    assert calls["gnn.fcn"] == 0
    assert calls["gnn.predict_framewise"] == calls["gnn.frame_representation"] == 4
    assert calls["gnn.predict_sequential"] == 0
    assert calls["gnn.gat"] == 4 * 2
    records = [cg.formats.read_graph_record(p) for p in Path(graphs).glob("graph_*.bin")]
    assert len(records) == 4
    assert tracer.counts["gnn.nodes"] == sum(g.num_nodes for g in records) > 0
    assert tracer.counts["gnn.edges"] == sum(g.num_edges for g in records) > 0


def test_cli_spans_enclose_library_spans_after_an_untraced_call(monkeypatch, tmp_path):
    """The benchmark's untimed reference pass calls ``cli.main`` before
    ``install`` rebinds the ``cli.cmd_*`` names.  Each later command must
    still run through the rebound name, or its span, and with it every
    ``cli.*.self_s`` metric, reads 0."""
    spans, cg = load_perfbench(monkeypatch)
    frames, truth = tmp_path / "frames.csv", tmp_path / "frames_gt.csv"
    assert cg.cli.main(["gen-synthetic", "--frames", "3", "--points", "12", "--out", str(frames)]) == 0
    shape = ModelShape(head="pose", output_size=NUM_JOINTS, edge_units=(6,),
                       node_units=(7,), gat_units=(5,), frame_units=(6,), pred_units=(6,))
    cfg = str(tmp_path / "run.cfg")
    (tmp_path / "run.cfg").write_text(serialize_config(PipelineConfig(K=4), shape), encoding="utf-8")
    graphs, weights, preds = str(tmp_path / "graphs"), str(tmp_path / "w.bin"), str(tmp_path / "p.csv")
    assert cg.cli.main(["init-weights", "--config", cfg, "--out", weights]) == 0
    tracer = spans.Tracer()
    spans.install(tracer, cg)
    try:
        assert cg.cli.main(["extract", str(frames), "--config", cfg, "--out", graphs]) == 0
        assert cg.cli.main(["infer", graphs, "--weights", weights, "--config", cfg, "--out", preds]) == 0
        assert cg.cli.main(["eval", preds, str(truth), "--task", "pose", "--config", cfg]) == 0
    finally:
        tracer.uninstall()

    def command_of(i):
        while i >= 0 and not tracer.spans[i][0].startswith("cli."):
            i = tracer.spans[i][3]
        return tracer.spans[i][0] if i >= 0 else None

    _, _, calls = spans.span_totals(tracer.spans)
    for command, library in (
        ("cli.extract", ("formats.read_frames", "pipeline.build_graph", "formats.write_graph_record")),
        ("cli.infer", ("gnn.load_params", "formats.read_graph_record", "gnn.predict_framewise",
                       "formats.write_skeletons")),
        ("cli.eval", ("formats.read_skeletons", "metrics.mpjpe")),
    ):
        assert calls[command] == 1, command
        for name in library:
            found = [i for i, span in enumerate(tracer.spans) if span[0] == name]
            assert found and all(command_of(i) == command for i in found), name
