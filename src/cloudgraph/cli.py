"""Command-line surface: extract, show, infer, eval, gen-synthetic, init-weights.

Exit codes: 0 success, 2 parse error, 3 I/O error, 4 weights/format
mismatch, 5 id mismatch, 6 config error, 7 other pipeline/model error.
Every command is deterministic given identical inputs and seed; manifests
keep wall-clock figures under ``timing_`` keys, which are the only
non-reproducible fields.
"""

from __future__ import annotations

import argparse
import functools
import logging
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import formats
from .config import field_texts, load_config
from .errors import (
    CloudGraphError,
    ConfigError,
    FormatVersionError,
    IdMismatch,
    LabelOutOfRange,
    ManifestMismatch,
    NumericOverflow,
    ParseError,
    ShapeMismatch,
)
from .gnn import (edge_pass, init_params, load_params, node_path, predict_framewise,
                  predict_sequential, save_params)
from .metrics import activity_report, pose_report
from .pipeline import build_graph
from .rng import SplitMix64
from .synthetic import MID_HIP_INDEX, SyntheticSpec, generate

log = logging.getLogger("cloudgraph")


def _windows(items, size, stride=1):
    """Full windows of ``size`` items per sequence, one every ``stride``
    items of the sequence in frame id order: the window ending at item i
    holds items i-size+1..i, for i = size-1, size-1+stride, ...  The items
    are frames (fusion windows) or encoded graphs (LSTM windows).

    A window whose frame ids are not consecutive spans a gap and is
    dropped.  Returns the windows kept and the number dropped.
    """
    by_seq: dict = {}
    for item in items:
        by_seq.setdefault(item.sequence_id, []).append(item)
    kept, dropped = [], 0
    for seq_items in by_seq.values():
        seq_items.sort(key=lambda item: item.frame_id)
        for i in range(size - 1, len(seq_items), stride):
            window = seq_items[i - size + 1 : i + 1]
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
    entries.update((f"config_{name}", text) for name, text in field_texts(pipeline_cfg).items())
    formats.write_manifest(entries, out_dir / "manifest.txt")
    log.info("wrote %d graph records to %s", entries["graphs_out"], out_dir)
    return 0


def cmd_show(args) -> int:
    """Print one graph record as the text dump, built from what ``infer``
    reads back."""
    formats.write_graph_debug_dump(formats.read_graph_record(args.record), sys.stdout)
    return 0


def _name_ids(path) -> list:
    return [int(i) for i in re.findall(r"\d+", path.name)]


def _encoded_records(graphs_dir, params):
    """Every record, encoded as it is read, in the order of the ids in its
    name: names pad ids to a width that larger ids outgrow, so sorted names
    misorder them.  A record's header must hold its name's two ids.

    Only the edge pass reads a record's edge section, and nothing holds the
    record past that call, so the section is freed before attention runs."""
    for path in sorted(Path(graphs_dir).glob("graph_*.bin"), key=_name_ids):
        encoded = node_path(params, edge_pass(params, formats.read_graph_record(path)))
        if [encoded.sequence_id, encoded.frame_id] != _name_ids(path):
            raise FormatVersionError(f"{path}: header ids {encoded[:2]} differ from its name")
        yield encoded


def cmd_infer(args) -> int:
    if not Path(args.graphs).is_dir():
        raise NotADirectoryError(f"{args.graphs}: not a directory of graph records")
    pipeline_cfg, shape = load_config(args.config)
    params = load_params(args.weights, shape, pipeline_cfg)
    graphs = _encoded_records(args.graphs, params)
    if shape.sequential:
        windows, dropped_gap = _windows(graphs, shape.window, shape.stride)
        log.info("windows dropped at frame gaps: %d", dropped_gap)
        rows = [(w[-1].sequence_id, w[-1].frame_id, predict_sequential(params, w)) for w in windows]
    else:
        rows = [(g.sequence_id, g.frame_id, predict_framewise(params, g)) for g in graphs]
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
        pred = np.stack([preds[k] for k in keys])
        gt = np.stack([gts[k] for k in keys])
        if pred.shape[1] != gt.shape[1]:
            raise ShapeMismatch(f"{args.predictions} has {pred.shape[1]} keypoints per pose, "
                                f"{args.ground_truth} has {gt.shape[1]}")
        report = pose_report(pred, gt, mid_hip, per_keypoint=args.per_keypoint, coverage=coverage)
    else:
        try:
            report = activity_report(np.stack([preds[k] for k in keys]),
                                     [gts[k] for k in keys], coverage=coverage)
        except LabelOutOfRange as exc:
            raise LabelOutOfRange(f"{args.ground_truth}: (sequence, frame) {keys[exc.row]}: {exc}") from None
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
    frames, poses = generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    formats.write_frames(frames, out)
    gt_path = out.with_name(out.stem + "_gt.csv")
    formats.write_skeletons(
        [(f.sequence_id, f.frame_id, pose) for f, pose in zip(frames, poses)], gt_path
    )
    log.info("wrote %s and %s (mid-hip index %d)", out, gt_path, MID_HIP_INDEX)
    return 0


def cmd_init_weights(args) -> int:
    """Convenience: seeded random weights for the configured model shape."""
    pipeline_cfg, shape = load_config(args.config)
    if args.seed is not None:
        pipeline_cfg = replace(pipeline_cfg, seed=args.seed)
    params = init_params(shape, pipeline_cfg, SplitMix64(pipeline_cfg.seed))
    save_params(params, args.out)
    log.info("wrote weights to %s", args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on its first call and shared: do not
    change it.  ``main`` finds ``cmd_<command>`` by name at each call."""
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

    p = sub.add_parser("show", help="graph record -> text dump on stdout")
    p.add_argument("record")

    p = sub.add_parser("infer", help="graph records + weights -> predictions")
    p.add_argument("graphs")
    p.add_argument("--weights", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="predictions vs ground truth -> metric report")
    p.add_argument("predictions")
    p.add_argument("ground_truth")
    p.add_argument("--task", choices=("pose", "activity"), required=True)
    p.add_argument("--config")
    p.add_argument("--mid-hip-index", type=int, default=0)
    p.add_argument("--per-keypoint", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("gen-synthetic", help="generate synthetic frames + ground truth")
    p.add_argument("--frames", type=int, default=30)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--motion", choices=("walk", "static"), default="walk")
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("init-weights", help="seeded random weights for the config's model shape")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

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
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except tuple(exc for exc, _ in _EXIT_CODES) as err:
        log.error("%s", err)
        return next(code for exc_type, code in _EXIT_CODES if isinstance(err, exc_type))


if __name__ == "__main__":
    sys.exit(main())
