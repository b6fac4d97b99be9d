"""Verify the analytic gradients of the attention network numerically.

Builds a small random graph, runs the frame-wise network under both loss
heads, and compares every sampled parameter's analytic gradient against a
central finite difference.  Entries where the perturbation crosses a
rectifier kink are flagged and excluded.

Run: python3 demos/gradient_verification.py
"""

import numpy as np

from cloudgraph.config import ModelShape, PipelineConfig
from cloudgraph.gnn import grad_check, init_params
from cloudgraph.pipeline import build_graph
from cloudgraph.rng import SplitMix64
from cloudgraph.types import RadarFrame

rng = np.random.default_rng(0)
frame = RadarFrame(0, 0, rng.normal(size=(8, 5)))
cfg = PipelineConfig(K=4)
graph = build_graph([frame], cfg)

shape = ModelShape(
    head="activity",
    output_size=5,
    edge_units=(6, 6),
    node_units=(10, 8),
    gat_units=(8, 6),
    frame_units=(8,),
    pred_units=(8,),
)
params = init_params(shape, cfg, SplitMix64(7))

for loss_kind, target in (("cross_entropy", 2), ("mse", rng.normal(size=5))):
    report = grad_check(params, graph, loss_kind, target,
                        max_entries_per_tensor=25, rng=SplitMix64(1))
    print(f"{loss_kind}:")
    for name, row in report.items():
        if not isinstance(row, dict):
            continue
        print(f"  {name:16s} max rel err {row['max_rel_err']:.2e}"
              f"  checked {row['checked']:3d}  kinks {row['kinks']}")
    print(f"  overall: {report['overall_max_rel_err']:.2e}\n")
