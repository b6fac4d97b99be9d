"""Pose metric behavior under translation, rotation, and scaling.

MPJPE pins the mid-hip before measuring, so rigid translation of a
prediction costs nothing.  PA-MPJPE additionally removes rotation and
scale through a closed-form similarity alignment, but it refuses to
mirror: a reflected skeleton keeps a large error.  Every metric takes the
predictions and ground truths as two B x M x 3 arrays, here with B = 1.

Run: python3 demos/pose_metrics.py
"""

import numpy as np

from cloudgraph.metrics import mpjpe, pa_mpjpe, pose_report
from cloudgraph.synthetic import MID_HIP_INDEX, SyntheticSpec, joint_positions

spec = SyntheticSpec(num_frames=1, points_per_frame=1)
gt = joint_positions(spec, 0.4)[None]

rng = np.random.default_rng(3)
noisy = gt + rng.normal(scale=0.01, size=gt.shape)

variants = {
    "noisy (1 cm sigma)": noisy,
    "noisy + 2 m shift": noisy + [2.0, 0.0, 0.0],
    "noisy, 1.5x scaled": noisy * 1.5,
    "mirrored": gt * [-1.0, 1.0, 1.0],
}

print(f"{'prediction':22s} {'mpjpe_mm':>10s} {'pa_mpjpe_mm':>12s}")
for name, pred in variants.items():
    print(f"{name:22s} {mpjpe(pred, gt, MID_HIP_INDEX) * 1000:10.3f} {pa_mpjpe(pred, gt) * 1000:12.3f}")

print()
print(pose_report(noisy, gt, MID_HIP_INDEX))
