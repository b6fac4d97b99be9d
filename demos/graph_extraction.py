"""Build a point-cloud graph step by step and compare against the naive path.

Shows the stage outputs of the extraction pipeline: fusion, grid
downsampling, squared distances, KNN edges, and the three
feature families (19D node, 6D edge, 380D frame).

Run: python3 demos/graph_extraction.py
"""

import numpy as np

from cloudgraph.config import PipelineConfig
from cloudgraph.pipeline import (
    build_graph,
    downsample,
    fuse_frames,
    knn_edges,
    squared_distance_matrix,
)
from cloudgraph.reference import naive_build_graph
from cloudgraph.rng import SplitMix64
from cloudgraph.synthetic import SyntheticSpec, generate

frames, _ = generate(SyntheticSpec(num_frames=3, points_per_frame=60, seed=1))

fused = fuse_frames(frames)
print("fused 3 frames:", len(fused), "points, frame id", fused.frame_id)

small = downsample(fused, (0.035, 0.035, 0.035), 2, SplitMix64(0))
print("after 3.5 cm grid downsample (Q=2):", len(small), "points")

d2 = squared_distance_matrix(small)
table = knn_edges(d2, 8)
print("distance matrix", d2.shape, "- first point's neighbors:", list(table[0]))

cfg = PipelineConfig(K=8, F=3, downsample_enabled=True, Q=2)
graph = build_graph(frames, cfg)
print("neighbour table:", graph.neighbours.shape, "- one row of k sources per node")
print("node features:", graph.node_features.shape)
print("edge features:", graph.edge_features.shape)
print("frame features:", graph.frame_features.shape)

# the optimized pipeline is bit-identical to a loop-based recomputation
reference = naive_build_graph(frames, cfg)
assert np.array_equal(graph.node_features, reference.node_features)
assert np.array_equal(graph.neighbours, reference.neighbours)
assert np.array_equal(graph.frame_features, reference.frame_features)
print("naive-path check: bit-exact match")
