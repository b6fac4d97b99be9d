"""cloudgraph: point-cloud-as-graph feature extraction and modeling.

Sparse 3D radar sweeps become directed KNN graphs carrying statistical
node, edge, and frame features; a from-scratch numpy graph-attention
network with verified analytic gradients consumes them; pose and activity
metrics evaluate the predictions.
"""

__version__ = "0.1.0"
