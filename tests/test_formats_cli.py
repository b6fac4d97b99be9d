import numpy as np
import pytest

from cloudgraph import formats
from cloudgraph.cli import main
from cloudgraph.config import ModelShape, PipelineConfig, serialize_config
from cloudgraph.errors import FormatVersionError, ParseError
from cloudgraph.pipeline import build_graph
from cloudgraph.synthetic import (
    MID_HIP_INDEX,
    NUM_JOINTS,
    SyntheticSpec,
    generate,
    joint_positions,
)
from cloudgraph.types import RadarFrame, Skeleton, frame_from_matrix

from conftest import random_frame


def assert_frames_equal(a, b):
    """Same ids in the same order and bit-identical point arrays."""
    assert [(f.sequence_id, f.frame_id) for f in a] == [(f.sequence_id, f.frame_id) for f in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.points, y.points)


def write_config(path, pipe=None, model=None):
    pipe = pipe or PipelineConfig(K=4)
    model = model or ModelShape(head="pose", output_size=5, mid_hip_index=0,
                                edge_units=(6,), node_units=(8,), gat_units=(6,),
                                frame_units=(8,), pred_units=(8,))
    path.write_text(serialize_config(pipe, model), encoding="utf-8")
    return pipe, model


# -- frames csv --------------------------------------------------------------


def test_frames_round_trip_bit_exact(tmp_path, np_rng):
    frames = [
        random_frame(np_rng, 4, sequence_id=1, frame_id=0),
        RadarFrame(frame_id=1, sequence_id=1, points=()),  # empty frame kept
        random_frame(np_rng, 2, sequence_id=2, frame_id=0),
    ]
    path = tmp_path / "frames.csv"
    formats.write_frames(frames, path)
    back = formats.read_frames(path)
    assert_frames_equal(back, frames)  # repr round trip is exact for float64


def test_frames_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        formats.read_frames(path)
    assert exc.value.line_number == 1


def test_frames_bad_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        formats.FRAMES_HEADER + "\n0,0,1.0,2.0,3.0,0.0,1.0\n0,1,oops,2,3,0,1\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as exc:
        formats.read_frames(path)
    assert exc.value.line_number == 3


def test_frames_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(formats.FRAMES_HEADER + "\n0,0,1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        formats.read_frames(path)
    assert exc.value.line_number == 2


# -- skeleton / score / label csv --------------------------------------------


def test_skeletons_round_trip(tmp_path, np_rng):
    rows = [
        (0, 0, Skeleton(np_rng.normal(size=(5, 3)), 1)),
        (0, 1, Skeleton(np_rng.normal(size=(5, 3)), 1)),
    ]
    path = tmp_path / "sk.csv"
    formats.write_skeletons(rows, path)
    back = formats.read_skeletons(path, mid_hip_index=1)
    assert set(back) == {(0, 0), (0, 1)}
    for seq, fid, sk in rows:
        assert np.array_equal(back[(seq, fid)].keypoints, sk.keypoints)
        assert back[(seq, fid)].mid_hip_index == 1


def test_scores_round_trip(tmp_path, np_rng):
    rows = [(0, 0, np_rng.normal(size=4)), (1, 7, np_rng.normal(size=4))]
    path = tmp_path / "scores.csv"
    formats.write_scores(rows, path)
    back = formats.read_scores(path)
    for seq, fid, s in rows:
        assert np.array_equal(back[(seq, fid)], s)


def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    formats.write_labels([(0, 0, 2), (0, 1, 4)], path)
    assert formats.read_labels(path) == {(0, 0): 2, (0, 1): 4}


# -- graph records -----------------------------------------------------------


def test_graph_record_round_trip(tmp_path, np_rng):
    g = build_graph([random_frame(np_rng, 9, sequence_id=3, frame_id=12)],
                    PipelineConfig(K=4))
    path = tmp_path / formats.graph_record_name(g)
    assert path.name == "graph_00003_000012.bin"
    formats.write_graph_record(g, path)
    back = formats.read_graph_record(path)
    assert back.sequence_id == 3 and back.frame_id == 12
    assert np.array_equal(back.node_features, g.node_features)
    assert np.array_equal(back.edges, g.edges)
    assert np.array_equal(back.edge_features, g.edge_features)
    assert np.array_equal(back.frame_features, g.frame_features)


def test_graph_record_bad_magic(tmp_path):
    path = tmp_path / "g.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(FormatVersionError):
        formats.read_graph_record(path)


def test_graph_record_bad_version(tmp_path, np_rng):
    g = build_graph([random_frame(np_rng, 4)], PipelineConfig(K=2))
    path = tmp_path / "g.bin"
    formats.write_graph_record(g, path)
    data = bytearray(path.read_bytes())
    data[4] = 99  # bump the version field
    path.write_bytes(bytes(data))
    with pytest.raises(FormatVersionError):
        formats.read_graph_record(path)


def test_manifest_round_trip_and_version(tmp_path):
    path = tmp_path / "manifest.txt"
    formats.write_manifest({"a": 1, "timing_x": "0.5"}, path)
    back = formats.read_manifest(path)
    assert back["a"] == "1"
    path.write_text("format_version = 999\n", encoding="utf-8")
    with pytest.raises(FormatVersionError):
        formats.read_manifest(path)


# -- synthetic generator -----------------------------------------------------


def test_synthetic_deterministic():
    spec = SyntheticSpec(num_frames=5, points_per_frame=20, seed=7)
    a_frames, a_sk = generate(spec)
    b_frames, b_sk = generate(spec)
    assert_frames_equal(a_frames, b_frames)
    for x, y in zip(a_sk, b_sk):
        assert np.array_equal(x.keypoints, y.keypoints)


def test_synthetic_zero_noise_points_sit_on_joints():
    spec = SyntheticSpec(num_frames=2, points_per_frame=40, noise=0.0, seed=3)
    frames, skeletons = generate(spec)
    for frame, sk in zip(frames, skeletons):
        for xyz in frame.points[:, :3]:
            d = np.linalg.norm(sk.keypoints - xyz, axis=1)
            assert d.min() < 1e-12


def test_synthetic_zero_points():
    frames, skeletons = generate(SyntheticSpec(num_frames=3, points_per_frame=0))
    assert all(len(f) == 0 for f in frames)
    assert len(skeletons) == 3


def test_synthetic_static_motion_is_constant():
    spec = SyntheticSpec(num_frames=1, points_per_frame=1, motion="static")
    a = joint_positions(spec, 0.0)
    b = joint_positions(spec, 5.0)
    assert np.array_equal(a, b)
    assert a.shape == (NUM_JOINTS, 3)
    assert MID_HIP_INDEX == 0


# -- cli ---------------------------------------------------------------------


def gen_inputs(tmp_path, frames=6, points=30, seed=11):
    frames_path = tmp_path / "frames.csv"
    rc = main([
        "gen-synthetic", "--frames", str(frames), "--points", str(points),
        "--seed", str(seed), "--out", str(frames_path),
    ])
    assert rc == 0
    return frames_path, tmp_path / "frames_gt.csv"


def test_cli_gen_synthetic_writes_frames_and_gt(tmp_path):
    frames_path, gt_path = gen_inputs(tmp_path)
    frames = formats.read_frames(frames_path)
    assert len(frames) == 6
    gts = formats.read_skeletons(gt_path, MID_HIP_INDEX)
    assert len(gts) == 6


def test_cli_extract_deterministic_rerun(tmp_path):
    frames_path, _ = gen_inputs(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out_a)]) == 0
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.glob("graph_*.bin"))
    assert names == sorted(p.name for p in out_b.glob("graph_*.bin"))
    assert len(names) == 6
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # manifests match once wall-clock entries are dropped
    ma = {k: v for k, v in formats.read_manifest(out_a / "manifest.txt").items()
          if not k.startswith("timing_")}
    mb = {k: v for k, v in formats.read_manifest(out_b / "manifest.txt").items()
          if not k.startswith("timing_")}
    assert ma == mb


def test_cli_extract_skips_empty_frames(tmp_path):
    frames = [
        frame_from_matrix(0, 0, np.random.default_rng(0).normal(size=(5, 5))),
        RadarFrame(frame_id=1, sequence_id=0, points=()),
    ]
    frames_path = tmp_path / "frames.csv"
    formats.write_frames(frames, frames_path)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    out = tmp_path / "out"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    assert len(list(out.glob("graph_*.bin"))) == 1
    manifest = formats.read_manifest(out / "manifest.txt")
    assert manifest["frames_skipped_empty"] == "1"


def test_cli_infer_zero_weights_zero_skeletons(tmp_path):
    frames_path, _ = gen_inputs(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    _, model = write_config(cfg_path)
    out_dir = tmp_path / "graphs"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    weights = tmp_path / "w.bin"
    assert main(["init-weights", "--config", str(cfg_path), "--seed", "0",
                 "--out", str(weights)]) == 0
    # zero out every tensor in the weights file payload: easier through the api
    from cloudgraph.gnn import init_params, named_tensors, save_params
    from cloudgraph.rng import SplitMix64

    params = init_params(model, PipelineConfig(K=4), SplitMix64(0))
    for arr in named_tensors(params).values():
        arr[...] = 0.0
    save_params(params, weights)
    preds_path = tmp_path / "preds.csv"
    assert main(["infer", str(out_dir), "--weights", str(weights),
                 "--config", str(cfg_path), "--out", str(preds_path)]) == 0
    preds = formats.read_skeletons(preds_path, 0)
    assert len(preds) == 6
    for sk in preds.values():
        assert np.array_equal(sk.keypoints, np.zeros((5, 3)))


def test_cli_infer_missing_weights_exit_3(tmp_path):
    frames_path, _ = gen_inputs(tmp_path)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    out_dir = tmp_path / "graphs"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    rc = main(["infer", str(out_dir), "--weights", str(tmp_path / "absent.bin"),
               "--config", str(cfg_path), "--out", str(tmp_path / "p.csv")])
    assert rc == 3


def test_cli_eval_pose_identity_and_shift(tmp_path, capsys):
    _, gt_path = gen_inputs(tmp_path)
    report_path = tmp_path / "report.txt"
    assert main(["eval", str(gt_path), str(gt_path), "--task", "pose",
                 "--mid-hip-index", "0", "--out", str(report_path)]) == 0
    text = report_path.read_text(encoding="utf-8")
    values = dict(line.split(maxsplit=1) for line in text.strip().splitlines()[1:])
    assert float(values["mpjpe_mm"]) == pytest.approx(0.0, abs=1e-9)
    assert float(values["pa_mpjpe_mm"]) == pytest.approx(0.0, abs=1e-6)
    assert float(values["rmse_cm"]) == pytest.approx(0.0, abs=1e-9)

    # shift every prediction by 10 cm: rmse sees it, mpjpe does not
    gts = formats.read_skeletons(gt_path, 0)
    shifted = [(s, f, Skeleton(sk.keypoints + [0.1, 0.0, 0.0], 0))
               for (s, f), sk in sorted(gts.items())]
    shifted_path = tmp_path / "shifted.csv"
    formats.write_skeletons(shifted, shifted_path)
    assert main(["eval", str(shifted_path), str(gt_path), "--task", "pose",
                 "--out", str(report_path)]) == 0
    values = dict(
        line.split(maxsplit=1)
        for line in report_path.read_text(encoding="utf-8").strip().splitlines()[1:]
    )
    assert float(values["mpjpe_mm"]) == pytest.approx(0.0, abs=1e-9)
    assert float(values["rmse_cm"]) == pytest.approx(10.0 / np.sqrt(3.0), rel=1e-6)
    capsys.readouterr()


def test_cli_eval_id_mismatch_exit_5(tmp_path, np_rng):
    preds = [(0, 0, Skeleton(np_rng.normal(size=(4, 3)), 0))]
    gts = [(9, 9, Skeleton(np_rng.normal(size=(4, 3)), 0))]
    p_path, g_path = tmp_path / "p.csv", tmp_path / "g.csv"
    formats.write_skeletons(preds, p_path)
    formats.write_skeletons(gts, g_path)
    assert main(["eval", str(p_path), str(g_path), "--task", "pose"]) == 5


def test_cli_eval_activity(tmp_path, capsys):
    scores = [(0, 0, np.array([3.0, 0.0])), (0, 1, np.array([0.0, 3.0]))]
    labels = [(0, 0, 0), (0, 1, 0)]
    s_path, l_path = tmp_path / "s.csv", tmp_path / "l.csv"
    formats.write_scores(scores, s_path)
    formats.write_labels(labels, l_path)
    assert main(["eval", str(s_path), str(l_path), "--task", "activity"]) == 0
    out = capsys.readouterr().out
    assert "accuracy        0.500000" in out


def test_cli_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,frames,file\n", encoding="utf-8")
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    rc = main(["extract", str(bad), "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_cli_config_error_exit_6(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("K = 0\n", encoding="utf-8")
    rc = main(["extract", str(tmp_path / "missing.csv"),
               "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 6


@pytest.mark.parametrize("line", [
    "cell_width = nan,0.1,0.1",
    "cell_width = inf,0.1,0.1",
    "epsilon = nan",
    "epsilon = inf",
    "model_leaky_slope = nan",
    "model_leaky_slope = -inf",
])
def test_cli_non_finite_config_exit_6(tmp_path, line):
    frames_path, _ = gen_inputs(tmp_path, frames=1, points=20)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(line + "\n", encoding="utf-8")
    rc = main(["extract", str(frames_path), "--config", str(cfg_path),
               "--out", str(tmp_path / "out")])
    assert rc == 6
    assert not (tmp_path / "out").exists()


def test_cli_truncated_or_overlong_binaries_exit_4(tmp_path):
    frames_path, _ = gen_inputs(tmp_path, frames=1, points=20)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    graphs = tmp_path / "graphs"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(graphs)]) == 0
    weights = tmp_path / "w.bin"
    assert main(["init-weights", "--config", str(cfg_path), "--out", str(weights)]) == 0
    (record,) = graphs.glob("graph_*.bin")

    def infer():
        return main(["infer", str(graphs), "--weights", str(weights),
                     "--config", str(cfg_path), "--out", str(tmp_path / "p.csv")])

    assert infer() == 0
    for path in (record, weights):
        data = path.read_bytes()
        # cut inside the magic, the fixed header, the first tensor or array,
        # and at the last byte; then one byte too many
        cut = [data[:size] for size in (0, 3, 6, 10, 63, 64, 200, len(data) - 1)]
        for bad in cut + [data + b"\x00"]:
            path.write_bytes(bad)
            assert infer() == 4, (path.name, len(bad))
        path.write_bytes(data)


def test_cli_bench_q_grid(tmp_path, capsys):
    frames_path, _ = gen_inputs(tmp_path, frames=3, points=40)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path)
    report_path = tmp_path / "bench.txt"
    assert main(["bench", str(frames_path), "--config", str(cfg_path),
                 "--out", str(report_path)]) == 0
    text = report_path.read_text(encoding="utf-8")
    q_values = {line.split(",")[0] for line in text.strip().splitlines()[1:]
                if not line.startswith("#")}
    assert {"1", "5", "off"} <= q_values
    assert "shared_vs_naive_speedup" in text
    capsys.readouterr()


def test_cli_sequential_infer_window(tmp_path):
    frames_path, _ = gen_inputs(tmp_path, frames=8)
    cfg_path = tmp_path / "run.cfg"
    model = ModelShape(head="pose", output_size=5, mid_hip_index=0,
                       edge_units=(6,), node_units=(8,), gat_units=(6,),
                       frame_units=(8,), pred_units=(8,), sequential=True,
                       lstm_hidden=6, window=4, stride=2)
    write_config(cfg_path, model=model)
    out_dir = tmp_path / "graphs"
    assert main(["extract", str(frames_path), "--config", str(cfg_path),
                 "--out", str(out_dir)]) == 0
    weights = tmp_path / "w.bin"
    assert main(["init-weights", "--config", str(cfg_path), "--seed", "5",
                 "--out", str(weights)]) == 0
    preds_path = tmp_path / "preds.csv"
    assert main(["infer", str(out_dir), "--weights", str(weights),
                 "--config", str(cfg_path), "--out", str(preds_path)]) == 0
    preds = formats.read_skeletons(preds_path, 0)
    # windows end at frames 3, 5, 7 with stride 2
    assert sorted(f for _, f in preds) == [3, 5, 7]
