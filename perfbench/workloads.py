"""The three workloads and the synthetic inputs each one runs on.

Why each workload exists is in README.md next to this file.  Inputs are a
pure function of the workload and the ``--seed`` argument, and are written
before any timing starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from cloudgraph import formats
from cloudgraph.config import ModelShape, PipelineConfig, mars_sequential_shape, serialize_config
from cloudgraph.synthetic import MID_HIP_INDEX, NUM_JOINTS, SyntheticSpec, generate


@dataclass(frozen=True)
class Workload:
    sequences: int
    frames_per_sequence: int
    points_per_frame: int
    F: int
    downsample: bool
    sequential: bool
    gate_windows: int  # windows checked against reference.naive_build_graph
    # calls per pass timed as one block of roughly 0.2-0.5 s: long against
    # the calibration loop around it, short enough that the host seldom
    # changes speed inside it
    setup_reps: int  # init-weights
    infer_reps: int  # infer

    def pipeline_config(self, seed: int) -> PipelineConfig:
        return PipelineConfig(K=20, F=self.F, downsample_enabled=self.downsample, Q=1, seed=seed)

    def generator_seed(self, seed: int, sequence: int) -> int:
        return seed * 64 + sequence

    def model_shape(self) -> ModelShape:
        if self.sequential:
            return mars_sequential_shape(NUM_JOINTS, MID_HIP_INDEX)
        return ModelShape(head="pose", output_size=NUM_JOINTS, mid_hip_index=MID_HIP_INDEX)

    @property
    def input_frames(self) -> int:
        return self.sequences * self.frames_per_sequence

    @property
    def windows(self) -> int:
        return self.sequences * (self.frames_per_sequence - self.F + 1)

    @property
    def predictions(self) -> int:
        if not self.sequential:
            return self.windows
        shape = self.model_shape()
        per_seq = self.frames_per_sequence - self.F + 1
        return self.sequences * len(range(0, per_seq - shape.window + 1, shape.stride))


WORKLOADS = {
    "dense_cloud": Workload(
        sequences=1, frames_per_sequence=1, points_per_frame=1024, F=1,
        downsample=False, sequential=False, gate_windows=1, setup_reps=20, infer_reps=10,
    ),
    "sparse_fused": Workload(
        sequences=2, frames_per_sequence=8, points_per_frame=64, F=3,
        downsample=True, sequential=False, gate_windows=4, setup_reps=20, infer_reps=10,
    ),
    "sequential_pose": Workload(
        sequences=1, frames_per_sequence=16, points_per_frame=128, F=1,
        downsample=False, sequential=True, gate_windows=2, setup_reps=1, infer_reps=1,
    ),
}


def write_inputs(wl: Workload, seed: int, out: Path) -> dict:
    """Frames CSV, ground-truth skeleton CSV and run config under ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    frames, truth = [], []
    for seq in range(wl.sequences):
        spec = SyntheticSpec(
            num_frames=wl.frames_per_sequence,
            points_per_frame=wl.points_per_frame,
            seed=wl.generator_seed(seed, seq),
            sequence_id=seq,
        )
        seq_frames, seq_truth = generate(spec)
        frames += seq_frames
        truth += [(f.sequence_id, f.frame_id, sk) for f, sk in zip(seq_frames, seq_truth)]
    paths = {"frames": out / "frames.csv", "truth": out / "truth.csv", "config": out / "run.cfg"}
    formats.write_frames(frames, paths["frames"])
    formats.write_skeletons(truth, paths["truth"])
    paths["config"].write_text(
        serialize_config(wl.pipeline_config(seed), wl.model_shape()), encoding="utf-8"
    )
    return paths
