"""In-memory span recording around cloudgraph's module-level bindings.

A span is ``[name, start, end, parent]``, where ``parent`` indexes the span
that was open when this one started (-1 at the top).  Each wrapper goes on
the binding the caller actually looks up: ``cli.build_graph`` rather than
``pipeline.build_graph``, ``pipeline.statbox_array`` for the per-point calls
and ``statbox.statbox_array`` for the calls made by ``statbox_columns``.
The library itself is not edited, and ``uninstall`` puts every original
binding back.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.block_names: dict = {}  # id(FcnBlock) -> span name
        self._stack: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name, on_return=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's positional
        arguments; ``on_return(args, result)`` runs after the span closes.
        """
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label = name if callable(name) else (lambda args: name)

        def traced(*args, **kwargs):
            record = [label(args), 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls without a span.  The wrapper costs more than a call as
        fine-grained as ``next_u64``, so it is only installed in untimed passes."""
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.block_names.clear()


def install(tracer: Tracer, cg) -> None:
    """Wrap every layer boundary the per-layer metrics need.

    ``cg`` is a namespace holding the imported cloudgraph modules.
    """
    cli, formats, pipeline, gnn, metrics = cg.cli, cg.formats, cg.pipeline, cg.gnn, cg.metrics
    counts = tracer.counts

    for attr, name in (
        ("cmd_init_weights", "cli.init_weights"),
        ("cmd_extract", "cli.extract"),
        ("cmd_infer", "cli.infer"),
        ("cmd_eval", "cli.eval"),
    ):
        tracer.wrap(cli, attr, name)
    for attr in (
        "read_frames",
        "write_graph_record",
        "write_graph_debug_dump",
        "read_graph_record",
        "write_skeletons",
        "read_skeletons",
    ):
        tracer.wrap(formats, attr, "formats." + attr)

    def graph_built(args, graph):
        counts["pipeline.points_kept"] += graph.num_nodes
        counts["pipeline.edges"] += graph.num_edges

    def fused(args, frame):
        counts["pipeline.points_in"] += len(frame)

    tracer.wrap(cli, "build_graph", "pipeline.build_graph", graph_built)
    tracer.wrap(pipeline, "fuse_frames", "pipeline.fuse_frames", fused)
    for attr in (
        "downsample",
        "squared_distance_matrix",
        "knn_edges",
        "edges_from_table",
        "node_features",
        "edge_features",
        "frame_features",
    ):
        tracer.wrap(pipeline, attr, "pipeline." + attr)
    tracer.wrap(pipeline, "statbox_array", "statbox.statbox_array")
    tracer.wrap(pipeline, "statbox_columns", "statbox.statbox_columns")
    tracer.wrap(cg.statbox, "statbox_array", "statbox.statbox_array")
    tracer.wrap(cg.types.RadarFrame, "as_matrix", "types.as_matrix")

    def loaded(args, params):
        for block in ("h_edge", "h_node", "h_frame", "h_pred"):
            if getattr(params, block) is not None:
                tracer.block_names[id(getattr(params, block))] = "gnn." + block

    def represented(args, rep):
        counts["gnn.nodes"] += sum(g.num_nodes for g in args[1])
        counts["gnn.edges"] += sum(g.num_edges for g in args[1])

    tracer.wrap(cli, "init_params", "gnn.init_params")
    tracer.wrap(gnn, "init_params", "gnn.init_params")  # load_params builds a template model
    tracer.wrap(cli, "save_params", "gnn.save_params")
    tracer.wrap(cli, "load_params", "gnn.load_params", loaded)
    tracer.wrap(cli, "predict_framewise", "gnn.predict_framewise")
    tracer.wrap(cli, "predict_sequential", "gnn.predict_sequential")
    tracer.wrap(gnn, "_rep_forward_batch", "gnn.frame_representation", represented)
    tracer.wrap(gnn, "_fcn_forward", lambda args: tracer.block_names.get(id(args[0]), "gnn.fcn"))
    tracer.wrap(gnn, "_gat_forward", "gnn.gat")

    def evaluated(args, value):
        counts["metrics.samples"] += len(args[0])

    tracer.wrap(metrics, "mpjpe", "metrics.mpjpe", evaluated)
    tracer.wrap(metrics, "pa_mpjpe", "metrics.pa_mpjpe")


def span_totals(spans: list):
    """Inclusive seconds, self seconds and call count per span name."""
    inclusive: dict = defaultdict(float)
    own: dict = defaultdict(float)
    calls: Counter = Counter()
    for name, start, end, parent in spans:
        duration = end - start
        inclusive[name] += duration
        own[name] += duration
        calls[name] += 1
        if parent >= 0:
            own[spans[parent][0]] -= duration
    return inclusive, own, calls


def layer_metrics(spans: list, counts: Counter, record_bytes: int, dump_bytes: int) -> dict:
    """Per-layer values of one traced pass, keyed by BENCHMARK.json name.

    A layer the workload never enters reads 0.
    """
    inclusive, own, calls = span_totals(spans)
    out = {
        "cli.extract.self_s": own["cli.extract"],
        "cli.infer.self_s": own["cli.infer"],
        "cli.eval.self_s": own["cli.eval"],
    }
    for name in (
        "formats.read_frames",
        "formats.write_graph_record",
        "formats.write_graph_debug_dump",
        "formats.read_graph_record",
        "formats.write_skeletons",
        "formats.read_skeletons",
    ):
        out[name + ".s"] = inclusive[name]
    out["formats.record_bytes"] = record_bytes
    out["formats.dump_bytes"] = dump_bytes
    out["pipeline.build_graph.s"] = inclusive["pipeline.build_graph"]
    out["pipeline.build_graph.self_s"] = own["pipeline.build_graph"]
    for name in (
        "fuse_frames",
        "downsample",
        "squared_distance_matrix",
        "knn_edges",
        "edges_from_table",
        "node_features",
        "edge_features",
        "frame_features",
    ):
        out[f"pipeline.{name}.s"] = inclusive["pipeline." + name]
    out["pipeline.edges_from_table.calls"] = calls["pipeline.edges_from_table"]
    out["pipeline.points_in"] = counts["pipeline.points_in"]
    out["pipeline.points_kept"] = counts["pipeline.points_kept"]
    out["pipeline.downsample.keep_ratio"] = (
        counts["pipeline.points_kept"] / counts["pipeline.points_in"]
    )
    out["pipeline.edges"] = counts["pipeline.edges"]
    for name in ("statbox.statbox_array", "statbox.statbox_columns", "types.as_matrix"):
        out[name + ".calls"] = calls[name]
        out[name + ".s"] = inclusive[name]
    for name in (
        "init_params",
        "save_params",
        "load_params",
        "frame_representation",
        "h_edge",
        "h_node",
        "gat",
        "h_frame",
        "h_pred",
    ):
        out[f"gnn.{name}.s"] = inclusive["gnn." + name]
    out["gnn.gat.calls"] = calls["gnn.gat"]
    # pooling and the LSTM have no binding of their own: they are the self
    # time of the span that encloses them
    out["gnn.pool.s"] = own["gnn.frame_representation"]
    out["gnn.lstm.s"] = own["gnn.predict_sequential"]
    out["gnn.nodes"] = counts["gnn.nodes"]
    out["gnn.edges"] = counts["gnn.edges"]
    out["metrics.mpjpe.s"] = inclusive["metrics.mpjpe"]
    out["metrics.pa_mpjpe.s"] = inclusive["metrics.pa_mpjpe"]
    out["metrics.samples"] = counts["metrics.samples"]
    return out
