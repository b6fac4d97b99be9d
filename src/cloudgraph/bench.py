"""Timing harness for the pipeline stages and the shared-matrix speedup."""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from .config import PipelineConfig
from .pipeline import (
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
from .reference import naive_build_graph
from .rng import SplitMix64, derive_seed
from .types import RadarFrame

BENCH_HEADER = "q,k,f,stage,seconds,peak_bytes,frames,points,edges"


@dataclass(frozen=True)
class BenchRow:
    q: str  # "1", "5", or "off"
    k: int
    f: int
    stage: str
    seconds: float
    peak_bytes: int
    frames: int
    points: int
    edges: int

    def as_csv(self) -> str:
        return (
            f"{self.q},{self.k},{self.f},{self.stage},{self.seconds:.6f},"
            f"{self.peak_bytes},{self.frames},{self.points},{self.edges}"
        )


def _timed(fn):
    tracemalloc.start()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def _stage_rows(frames: Sequence[RadarFrame], config: PipelineConfig, q_label: str) -> List[BenchRow]:
    rows: List[BenchRow] = []
    total_points = 0
    total_edges = 0
    stage_time = {"downsample": 0.0, "distance_matrix": 0.0, "knn": 0.0, "features": 0.0}
    stage_peak = {k: 0 for k in stage_time}
    for frame in frames:
        work = frame
        if config.downsample_enabled and len(work) > 0:
            rng = SplitMix64(derive_seed(config.seed, work.sequence_id, work.frame_id))
            work, sec, peak = _timed(
                lambda w=work, r=rng: downsample(w, config.cell_width, config.Q, r)
            )
            stage_time["downsample"] += sec
            stage_peak["downsample"] = max(stage_peak["downsample"], peak)
        if len(work) == 0:
            continue
        d2, sec, peak = _timed(lambda w=work: squared_distance_matrix(w))
        stage_time["distance_matrix"] += sec
        stage_peak["distance_matrix"] = max(stage_peak["distance_matrix"], peak)
        table, sec, peak = _timed(lambda: knn_edges(d2, config.K))
        stage_time["knn"] += sec
        stage_peak["knn"] = max(stage_peak["knn"], peak)

        def run_features(w=work, d=d2, t=table):
            nf = node_features(w, d, t, config.epsilon)
            ef = edge_features(w, edges_from_table(t))
            ff = frame_features(nf, config.epsilon)
            return nf, ef, ff

        _, sec, peak = _timed(run_features)
        stage_time["features"] += sec
        stage_peak["features"] = max(stage_peak["features"], peak)
        total_points += len(work)
        total_edges += table.size
    for stage, seconds in stage_time.items():
        rows.append(
            BenchRow(
                q=q_label,
                k=config.K,
                f=config.F,
                stage=stage,
                seconds=seconds,
                peak_bytes=stage_peak[stage],
                frames=len(frames),
                points=total_points,
                edges=total_edges,
            )
        )
    return rows


def run_bench(
    frames: Sequence[RadarFrame],
    base_config: PipelineConfig,
    q_options: Sequence = (1, 5, None),
) -> List[BenchRow]:
    """Per-stage timings across the downsampling grid, plus the naive-vs-
    shared distance-matrix comparison (outputs verified equal)."""
    rows: List[BenchRow] = []
    if not frames:
        return rows
    for q in q_options:
        if q is None:
            cfg = replace(base_config, downsample_enabled=False)
            label = "off"
        else:
            cfg = replace(base_config, downsample_enabled=True, Q=int(q))
            label = str(q)
        rows.extend(_stage_rows(frames, cfg, label))

    # shared vs naive: identical outputs required, speedup reported
    cfg = replace(base_config, downsample_enabled=False)

    def shared_all():
        return [build_graph([f], cfg) for f in frames if len(f)]

    def naive_all():
        return [naive_build_graph([f], cfg) for f in frames if len(f)]

    shared_graphs, shared_sec, shared_peak = _timed(shared_all)
    naive_graphs, naive_sec, naive_peak = _timed(naive_all)
    for a, b in zip(shared_graphs, naive_graphs):
        if not (
            np.array_equal(a.node_features, b.node_features)
            and np.array_equal(a.edges, b.edges)
            and np.array_equal(a.edge_features, b.edge_features)
            and np.array_equal(a.frame_features, b.frame_features)
        ):
            raise AssertionError(
                f"shared and naive pipelines disagree on frame {a.frame_id}"
            )
    n_pts = sum(len(f) for f in frames)
    rows.append(
        BenchRow("off", cfg.K, cfg.F, "pipeline_shared", shared_sec, shared_peak,
                 len(frames), n_pts, sum(g.num_edges for g in shared_graphs))
    )
    rows.append(
        BenchRow("off", cfg.K, cfg.F, "pipeline_naive", naive_sec, naive_peak,
                 len(frames), n_pts, sum(g.num_edges for g in naive_graphs))
    )
    return rows


def bench_report(rows: Sequence[BenchRow]) -> str:
    lines = [BENCH_HEADER]
    lines.extend(row.as_csv() for row in rows)
    shared = next((r for r in rows if r.stage == "pipeline_shared"), None)
    naive = next((r for r in rows if r.stage == "pipeline_naive"), None)
    if shared and naive and shared.seconds > 0:
        lines.append(f"# shared_vs_naive_speedup = {naive.seconds / shared.seconds:.3f}x")
    return "\n".join(lines) + "\n"
