"""Desk-scale synthetic radar data around an articulated stick figure.

Points are sampled on (or near) the joints of a parametric moving skeleton;
per-point Doppler velocity is the joint velocity projected on the line of
sight plus noise.  Ground-truth skeletons are emitted alongside, so the
pipeline and metrics can be exercised without any proprietary dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConfigError
from .rng import SplitMix64
from .types import RadarFrame

# 13-joint template (meters), mid-hip first so mid_hip_index = 0.
_TEMPLATE = np.array(
    [
        [0.00, 0.00, 0.90],  # 0 mid-hip
        [0.00, 0.00, 1.35],  # 1 chest
        [0.00, 0.00, 1.60],  # 2 head
        [-0.20, 0.00, 1.40],  # 3 left shoulder
        [0.20, 0.00, 1.40],  # 4 right shoulder
        [-0.30, 0.00, 1.10],  # 5 left hand
        [0.30, 0.00, 1.10],  # 6 right hand
        [-0.10, 0.00, 0.90],  # 7 left hip
        [0.10, 0.00, 0.90],  # 8 right hip
        [-0.12, 0.00, 0.50],  # 9 left knee
        [0.12, 0.00, 0.50],  # 10 right knee
        [-0.12, 0.00, 0.05],  # 11 left foot
        [0.12, 0.00, 0.05],  # 12 right foot
    ]
)

NUM_JOINTS = _TEMPLATE.shape[0]
MID_HIP_INDEX = 0
FRAME_PERIOD_S = 0.1  # 10 Hz sweep rate
_STANDOFF_M = 3.0  # distance of the figure from the sensor along y
_DT_S = 1e-4  # half-step of the central difference for joint velocities


@dataclass(frozen=True)
class SyntheticSpec:
    num_frames: int
    points_per_frame: int
    motion: str = "walk"  # "walk" or "static"
    noise: float = 0.02
    seed: int = 0
    sequence_id: int = 0

    def __post_init__(self):
        if self.num_frames < 0 or self.points_per_frame < 0:
            raise ConfigError("frame and point counts must not be negative")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ConfigError(f"noise must be finite and non-negative, got {self.noise}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")


def joint_positions(spec: SyntheticSpec, t: float) -> np.ndarray:
    """Joint positions (meters) of the figure at time t seconds."""
    joints = _TEMPLATE.copy()
    joints[:, 1] += _STANDOFF_M
    if spec.motion == "static":
        return joints
    if spec.motion != "walk":
        raise ValueError(f"unknown motion model {spec.motion!r}")
    # slow lateral drift plus limb swing
    drift = 0.3 * math.sin(2.0 * math.pi * t / 8.0)
    joints[:, 0] += drift
    swing = 0.15 * math.sin(2.0 * math.pi * t / 1.2)
    for left, right in ((5, 6), (9, 10), (11, 12)):
        joints[left, 1] += swing
        joints[right, 1] -= swing
    joints[2, 2] += 0.02 * math.sin(2.0 * math.pi * t / 2.0)
    return joints


def joint_velocities(spec: SyntheticSpec, t: float) -> np.ndarray:
    return (joint_positions(spec, t + _DT_S) - joint_positions(spec, t - _DT_S)) / (2.0 * _DT_S)


def generate(spec: SyntheticSpec) -> Tuple[List[RadarFrame], List[np.ndarray]]:
    """Frames and matching ground-truth poses, one M x 3 array (meters) per
    frame, fully seeded."""
    rng = SplitMix64(spec.seed)
    frames: List[RadarFrame] = []
    poses: List[np.ndarray] = []
    for f in range(spec.num_frames):
        t = f * FRAME_PERIOD_S
        joints = joint_positions(spec, t)
        vels = joint_velocities(spec, t)
        points = []
        for _ in range(spec.points_per_frame):
            j = rng.randbelow(NUM_JOINTS)
            offset = np.array([rng.normal(), rng.normal(), rng.normal()]) * spec.noise
            pos = joints[j] + offset
            los = pos / max(float(np.linalg.norm(pos)), 1e-9)
            doppler = float(vels[j] @ los) + rng.normal() * spec.noise
            intensity = rng.next_double()
            points.append((pos[0], pos[1], pos[2], doppler, intensity))
        frames.append(RadarFrame(frame_id=f, sequence_id=spec.sequence_id, points=points))
        poses.append(joints)
    return frames, poses
