"""Command-line surface: extract, show, infer, eval, gen-synthetic, init-weights.

Exit codes: 0 success, 2 parse error, 3 I/O error, 4 weights/format
mismatch, 5 id mismatch, 6 config error, 7 other pipeline/model error.
Every command is deterministic given identical inputs and seed; manifests
keep wall-clock figures under ``timing_`` keys, which are the only
non-reproducible fields.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import formats
from .config import load_config, serialize_config
from .errors import (
    CloudGraphError,
    ConfigError,
    FormatVersionError,
    IdMismatch,
    ManifestMismatch,
    NumericOverflow,
    ParseError,
    ShapeMismatch,
)
from .gnn import init_params, load_params, predict_framewise, predict_sequential, save_params
from .metrics import ActivityLabel, PoseBatch, activity_report, pose_report
from .pipeline import build_graph
from .rng import SplitMix64
from .synthetic import MID_HIP_INDEX, SyntheticSpec, generate

log = logging.getLogger("cloudgraph")


def _windows(frames, F):
    """Full fusion windows per sequence: frame i consumes frames i-F+1..i.

    A window whose frame ids are not consecutive spans a gap and is
    dropped, so the windows start again after each gap.  Returns the
    windows kept and the number dropped.
    """
    by_seq: dict = {}
    for f in frames:
        by_seq.setdefault(f.sequence_id, []).append(f)
    kept, dropped = [], 0
    for seq_frames in by_seq.values():
        for i in range(F - 1, len(seq_frames)):
            window = seq_frames[i - F + 1 : i + 1]
            if all(b.frame_id == a.frame_id + 1 for a, b in zip(window, window[1:])):
                kept.append(window)
            else:
                dropped += 1
    return kept, dropped


def cmd_extract(args) -> int:
    pipeline_cfg, _ = load_config(args.config)
    if args.seed is not None:
        pipeline_cfg = replace(pipeline_cfg, seed=args.seed)
    frames = formats.read_frames(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    windows, dropped_gap = _windows(frames, pipeline_cfg.F)
    # the manifest's counters, in manifest order, tallied under their keys
    entries = {
        "seed": pipeline_cfg.seed,
        "frames_in": len(frames),
        "graphs_out": 0,
        "frames_skipped_empty": 0,
        "windows_dropped_gap": dropped_gap,
        "points_in": sum(len(f) for f in frames),
        "nodes_out": 0,
        "points_dropped_downsample": 0,
        "graphs_below_k": 0,
        "edges": 0,
    }
    if pipeline_cfg.enable_edge_features:
        entries["edges_coincident"] = 0
    if pipeline_cfg.enable_node_features:
        entries["nodes_at_centroid"] = 0
    for window in windows:
        graph = build_graph(window, pipeline_cfg)
        if graph.num_nodes == 0:
            log.info(
                "skipping empty frame %d of sequence %d",
                graph.frame_id,
                graph.sequence_id,
            )
            entries["frames_skipped_empty"] += 1
            continue
        section = formats.non_finite_section(
            graph.node_features, graph.edge_features, graph.frame_features
        )
        if section:
            raise NumericOverflow(
                graph.sequence_id, graph.frame_id, f"non-finite {section} features"
            )
        name = formats.graph_record_name(graph)
        formats.write_graph_record(graph, out_dir / name)
        entries["graphs_out"] += 1
        entries["nodes_out"] += graph.num_nodes
        entries["points_dropped_downsample"] += sum(len(f) for f in window) - graph.num_nodes
        entries["graphs_below_k"] += graph.num_nodes <= pipeline_cfg.K
        entries["edges"] += graph.num_edges
        # the zero-direction cases, read off the features already computed:
        # edge length (column 0) 0, and node distance to the centroid
        # (column 15) below epsilon
        if pipeline_cfg.enable_edge_features:
            entries["edges_coincident"] += np.count_nonzero(graph.edge_features[:, 0] == 0)
        if pipeline_cfg.enable_node_features:
            to_centroid = graph.node_features[:, 15]
            entries["nodes_at_centroid"] += np.count_nonzero(to_centroid < pipeline_cfg.epsilon)
    elapsed = time.perf_counter() - t0
    entries["timing_extract_seconds"] = f"{elapsed:.6f}"
    for line in serialize_config(pipeline_cfg).strip().splitlines():
        if "=" in line:
            key, value = (p.strip() for p in line.split("=", 1))
            entries[f"config_{key}"] = value
    formats.write_manifest(entries, out_dir / "manifest.txt")
    log.info("wrote %d graph records to %s", entries["graphs_out"], out_dir)
    return 0


def cmd_show(args) -> int:
    """Print one graph record as the text dump, built from what ``infer``
    reads back."""
    formats.write_graph_debug_dump(formats.read_graph_record(args.record), sys.stdout)
    return 0


def _load_graphs(graphs_dir):
    paths = sorted(Path(graphs_dir).glob("graph_*.bin"))
    return [formats.read_graph_record(p) for p in paths]


def cmd_infer(args) -> int:
    pipeline_cfg, shape = load_config(args.config)
    params = load_params(args.weights, shape, pipeline_cfg)
    graphs = _load_graphs(args.graphs)
    rows = []
    if shape.sequential:
        by_seq: dict = {}
        for g in graphs:
            by_seq.setdefault(g.sequence_id, []).append(g)
        for seq, seq_graphs in by_seq.items():
            L = shape.window
            for start in range(0, len(seq_graphs) - L + 1, shape.stride):
                chunk = seq_graphs[start : start + L]
                rows.append((seq, chunk[-1].frame_id, predict_sequential(params, chunk)))
    else:
        for g in graphs:
            rows.append((g.sequence_id, g.frame_id, predict_framewise(params, g)))
    write = formats.write_skeletons if shape.head == "pose" else formats.write_scores
    write(rows, args.out)
    log.info("wrote %d predictions to %s", len(rows), args.out)
    return 0


def cmd_eval(args) -> int:
    _, shape = load_config(args.config) if args.config else (None, None)
    mid_hip = shape.mid_hip_index if shape else args.mid_hip_index
    if args.task == "pose":
        preds = formats.read_skeletons(args.predictions, mid_hip)
        gts = formats.read_skeletons(args.ground_truth, mid_hip)
    else:
        preds = formats.read_scores(args.predictions)
        gts = formats.read_labels(args.ground_truth)
    keys = sorted(preds)
    if not keys:
        raise ShapeMismatch(f"{args.predictions}: no predictions")
    missing = [k for k in keys if k not in gts]
    if missing:
        raise IdMismatch(f"no ground truth for ids {missing[:5]}")
    coverage = len(keys) / len(gts)
    if args.task == "pose":
        batch = PoseBatch([preds[k] for k in keys], [gts[k] for k in keys])
        report = pose_report(batch, per_keypoint=args.per_keypoint, coverage=coverage)
    else:
        num_classes = len(preds[keys[0]])
        labels = [ActivityLabel(gts[k], num_classes) for k in keys]
        report = activity_report([preds[k] for k in keys], labels, coverage=coverage)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    sys.stdout.write(report)
    return 0


def cmd_gen_synthetic(args) -> int:
    spec = SyntheticSpec(
        num_frames=args.frames,
        points_per_frame=args.points,
        motion=args.motion,
        noise=args.noise,
        seed=args.seed if args.seed is not None else 0,
    )
    frames, skeletons = generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    formats.write_frames(frames, out)
    gt_path = out.with_name(out.stem + "_gt.csv")
    formats.write_skeletons(
        [(f.sequence_id, f.frame_id, sk) for f, sk in zip(frames, skeletons)], gt_path
    )
    log.info("wrote %s and %s (mid-hip index %d)", out, gt_path, MID_HIP_INDEX)
    return 0


def cmd_init_weights(args) -> int:
    """Convenience: seeded random weights for the configured model shape."""
    pipeline_cfg, shape = load_config(args.config)
    seed = args.seed if args.seed is not None else pipeline_cfg.seed
    params = init_params(shape, pipeline_cfg, SplitMix64(seed))
    save_params(params, args.out)
    log.info("wrote weights to %s", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudgraph",
        description="Point-cloud graph feature extraction, inference, and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="frames file -> graph records")
    p.add_argument("input")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("show", help="graph record -> text dump on stdout")
    p.add_argument("record")
    p.set_defaults(fn=cmd_show)

    p = sub.add_parser("infer", help="graph records + weights -> predictions")
    p.add_argument("graphs")
    p.add_argument("--weights", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="predictions vs ground truth -> metric report")
    p.add_argument("predictions")
    p.add_argument("ground_truth")
    p.add_argument("--task", choices=("pose", "activity"), required=True)
    p.add_argument("--config")
    p.add_argument("--mid-hip-index", type=int, default=0)
    p.add_argument("--per-keypoint", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gen-synthetic", help="generate synthetic frames + ground truth")
    p.add_argument("--frames", type=int, default=30)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--motion", choices=("walk", "static"), default="walk")
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_synthetic)

    p = sub.add_parser("init-weights", help="seeded random weights for the config's model shape")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_init_weights)

    return parser


_EXIT_CODES = (
    (ParseError, 2),
    (OSError, 3),
    (ManifestMismatch, 4),
    (FormatVersionError, 4),
    (IdMismatch, 5),
    (ConfigError, 6),
    (CloudGraphError, 7),
)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except tuple(exc for exc, _ in _EXIT_CODES) as err:
        for exc_type, code in _EXIT_CODES:
            if isinstance(err, exc_type):
                log.error("%s", err)
                return code
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
