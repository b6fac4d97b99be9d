"""Acceptance suite: ten pass/fail checks over the whole package.

Each test prints one line, "PASS <name>" on success, with the measured
figure and its budgeted runtime.  Tolerances are stated inline.  Designed
to run standalone: ``pytest tests/test_acceptance.py -s``.
"""

import time

import numpy as np
import pytest

from cloudgraph import formats
from cloudgraph.cli import main
from cloudgraph.config import ModelShape, PipelineConfig, serialize_config
from cloudgraph.gnn import (
    GatLayer,
    frame_representation,
    gat_forward,
    grad_check,
    init_params,
)
from cloudgraph.metrics import (
    cross_entropy,
    mpjpe,
    mse,
    pa_mpjpe,
    rmse,
)
from cloudgraph.pipeline import (
    build_graph,
    downsample,
    knn_edges,
    squared_distance_matrix,
)
from cloudgraph.reference import gat_forward_reference, naive_build_graph, naive_knn
from cloudgraph.rng import SplitMix64
from cloudgraph.statbox import statbox_array
from cloudgraph.types import edges_from_table, frame_from_matrix

from conftest import random_frame, random_table
from test_statbox import oracle_stats


def report(name, start, budget, detail=""):
    elapsed = time.perf_counter() - start
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {name}: {elapsed:.2f}s of {budget:.0f}s budget{suffix}")
    assert elapsed < budget


def test_acceptance_01_dimension_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for n in (2, 3, 8, 25, 64):
        g = build_graph([random_frame(rng, n)], PipelineConfig(K=20))
        assert g.node_features.shape == (n, 19)
        assert g.edge_features.shape == (g.num_edges, 6)
        assert g.frame_features.shape == (380,)
    report("dimension contract 19/6/380", t0, 1.0)


def test_acceptance_02_statbox_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        v = rng.normal(size=n) * float(rng.uniform(0.05, 20.0))
        got = statbox_array(v)
        expect = np.array(oracle_stats(v))
        denom = np.maximum(1.0, np.maximum(np.abs(got), np.abs(expect)))
        worst = max(worst, float(np.max(np.abs(got - expect) / denom)))
    assert worst < 1e-9
    # properties: exact permutation invariance, translation and scale
    for _ in range(50):
        v = rng.normal(size=int(rng.integers(2, 30)))
        p = rng.permutation(v.size)
        assert np.array_equal(statbox_array(v), statbox_array(v[p]))
        c, s = float(rng.normal()), float(rng.uniform(0.5, 2.0))
        base = statbox_array(v)
        shifted = statbox_array(v + c)
        for i in (0, 2, 6, 7, 8, 9):  # location statistics
            assert abs(shifted[i] - (base[i] + c)) < 1e-9 * max(1.0, abs(base[i] + c))
        scaled = statbox_array(v * s)
        for i in (0, 1, 2, 6, 7, 8, 9):
            assert abs(scaled[i] - base[i] * s) < 1e-9 * max(1.0, abs(base[i] * s))
    report("statbox vs brute-force oracle", t0, 10.0, f"max rel err {worst:.2e}")


def test_acceptance_03_shared_vs_naive_bit_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        frame = random_frame(rng, n)
        cfg = PipelineConfig(K=int(rng.integers(1, 21)))
        a = build_graph([frame], cfg)
        b = naive_build_graph([frame], cfg)
        assert np.array_equal(a.node_features, b.node_features)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.edge_features, b.edge_features)
        assert np.array_equal(a.frame_features, b.frame_features)
    report("shared-matrix pipeline bit-exact vs naive (200 frames)", t0, 30.0)


def test_acceptance_04_knn_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(1, 65))
        frame = random_frame(rng, n)
        d2 = squared_distance_matrix(frame)
        for K in (1, 5, 20):
            got = knn_edges(d2, K)
            expect = naive_knn(frame, K)
            assert np.array_equal(got, expect)
            checked += 1
    report("knn vs O(n^2) sort oracle", t0, 10.0, f"{checked} tables")


def test_acceptance_05_attention_normalization_and_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 15))
        d_in, d_out, d_e = 5, 4, 3
        layer = GatLayer(
            theta=rng.normal(size=(d_in, d_out)),
            theta_e=rng.normal(size=(d_e, d_out)),
            attn=rng.normal(size=3 * d_out),
            leaky_slope=0.2,
        )
        X = rng.normal(size=(n, d_in))
        # k from 0 (every node isolated) to n - 1 (every other node)
        table = random_table(rng, n, int(rng.integers(0, n)))
        Xe = rng.normal(size=(table.size, d_e))
        got = gat_forward(layer, X, table, Xe)
        expect = gat_forward_reference(layer, X, edges_from_table(table), Xe)
        worst = max(worst, float(np.max(np.abs(got - expect))) if got.size else 0.0)
        assert np.allclose(got, expect, atol=1e-12, rtol=0)
        # attention rows sum to 1: run the same layer over constant ones with
        # theta = identity so the output is exactly the row sum
        probe = GatLayer(theta=np.eye(1), theta_e=rng.normal(size=(d_e, 1)),
                         attn=rng.normal(size=3), leaky_slope=0.2)
        row_sums = gat_forward(probe, np.ones((n, 1)), table, Xe)
        assert np.allclose(row_sums, 1.0, atol=1e-12, rtol=0)
    report("attention sums to 1 and matches dense oracle", t0, 10.0,
           f"max abs dev {worst:.2e}")


def test_acceptance_06_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    overall = 0.0
    for case in range(50):
        n_gat = 1 + case % 3
        head = "mse" if case % 2 == 0 else "cross_entropy"
        units = int(rng.integers(4, 8))
        shape = ModelShape(
            head="pose" if head == "mse" else "activity",
            output_size=4,
            mid_hip_index=0,
            edge_units=(5, units),
            node_units=(7, units),
            gat_units=(units,) * n_gat,
            frame_units=(6,),
            pred_units=(6,),
        )
        cfg = PipelineConfig(K=4)
        params = init_params(shape, cfg, SplitMix64(case))
        g = build_graph([random_frame(rng, 8)], cfg)
        target = rng.normal(size=12) if head == "mse" else int(rng.integers(0, 4))
        rep = grad_check(params, g, head, target, max_entries_per_tensor=12,
                         rng=SplitMix64(1000 + case))
        overall = max(overall, rep["overall_max_rel_err"])
    assert overall < 1e-4
    report("gradient check, 50 instances, both losses", t0, 60.0,
           f"max rel err {overall:.2e}")


def test_acceptance_07_permutation_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    shape = ModelShape(head="pose", output_size=4, edge_units=(6,),
                       node_units=(8,), gat_units=(6,), frame_units=(8,),
                       pred_units=(6,))
    cfg = PipelineConfig(K=5)
    params = init_params(shape, cfg, SplitMix64(0))
    for _ in range(20):
        n = int(rng.integers(4, 30))
        frame = random_frame(rng, n)
        perm = rng.permutation(n)
        g = build_graph([frame], cfg)
        gp = build_graph([frame_from_matrix(0, 0, frame.as_matrix()[perm])], cfg)
        assert np.allclose(g.frame_features, gp.frame_features, atol=1e-9, rtol=0)
        ra = frame_representation(params, g)
        rb = frame_representation(params, gp)
        assert np.allclose(ra, rb, atol=1e-9, rtol=0)
    report("permutation invariance of frame features and representation", t0, 10.0)


def test_acceptance_08_metric_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    pred = rng.normal(size=(1, 13, 3))
    gt = rng.normal(size=(1, 13, 3))
    base = mpjpe(pred, gt, 0)
    moved = pred + [3.0, -7.0, 1.0]
    assert abs(mpjpe(moved, gt, 0) - base) <= 1e-12

    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    sim = 1.7 * gt @ rot.T + [0.5, 0.2, -0.3]
    assert pa_mpjpe(sim, gt) <= 1e-9

    a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    assert abs(rmse(a, b) ** 2 - mse(a, b)) <= 1e-12

    for C in (2, 5, 11):
        val = cross_entropy(np.full(C, 3.3), 0)
        assert abs(val - np.log(C)) <= 1e-12
    report("metric identities (mpjpe, pa-mpjpe, rmse/mse, cross-entropy)", t0, 10.0)


def test_acceptance_09_downsampling_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    # dense cloud in a 20 cm cube, far more points than 3.5 cm cells
    mat = np.zeros((400, 5))
    mat[:, :3] = rng.uniform(0.0, 0.2, size=(400, 3))
    frame = frame_from_matrix(0, 0, mat)
    cell = (0.035, 0.035, 0.035)
    down = downsample(frame, cell, 1, SplitMix64(42))
    pts = down.as_matrix()[:, :3]
    mins = frame.as_matrix()[:, :3].min(axis=0)
    cells_kept = {tuple(c) for c in np.floor((pts - mins) / 0.035).astype(int)}
    assert len(cells_kept) == len(down)  # exactly one survivor per cell
    all_cells = {
        tuple(c)
        for c in np.floor((frame.as_matrix()[:, :3] - mins) / 0.035).astype(int)
    }
    assert cells_kept == all_cells  # every occupied cell retains a point

    cfg_off = PipelineConfig(K=10)
    cfg_on = PipelineConfig(K=10, downsample_enabled=True, cell_width=cell, Q=1)
    assert build_graph([frame], cfg_on).num_edges < build_graph([frame], cfg_off).num_edges

    again = downsample(frame, cell, 1, SplitMix64(42))
    assert np.array_equal(down.points, again.points)  # seed-reproducible, byte-exact
    report("downsampling contract (Q=1, 3.5 cm cells)", t0, 10.0,
           f"{len(frame)} -> {len(down)} points")


def test_acceptance_10_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    frames_path = tmp_path / "frames.csv"
    assert main(["gen-synthetic", "--frames", "10", "--points", "48",
                 "--seed", "77", "--out", str(frames_path)]) == 0
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        serialize_config(
            PipelineConfig(K=6, downsample_enabled=True, Q=2, seed=5),
            ModelShape(head="pose", output_size=13, mid_hip_index=0,
                       edge_units=(8,), node_units=(12,), gat_units=(8,),
                       frame_units=(10,), pred_units=(10,)),
        ),
        encoding="utf-8",
    )
    weights = tmp_path / "w.bin"
    assert main(["init-weights", "--config", str(cfg_path), "--seed", "3",
                 "--out", str(weights)]) == 0
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        assert main(["extract", str(frames_path), "--config", str(cfg_path),
                     "--out", str(out_dir)]) == 0
        preds = tmp_path / f"preds_{run}.csv"
        assert main(["infer", str(out_dir), "--weights", str(weights),
                     "--config", str(cfg_path), "--out", str(preds)]) == 0
        records = {
            p.name: p.read_bytes() for p in sorted(out_dir.glob("graph_*.bin"))
        }
        outputs.append((records, preds.read_bytes()))
    (rec_a, pred_a), (rec_b, pred_b) = outputs
    assert rec_a.keys() == rec_b.keys() and len(rec_a) == 10
    for name in rec_a:
        assert rec_a[name] == rec_b[name]
    assert pred_a == pred_b
    report("end-to-end extract+infer byte-identical across reruns", t0, 30.0)
