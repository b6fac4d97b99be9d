"""cloudgraph: point-cloud-as-graph feature extraction and modeling.

Sparse 3D radar sweeps become directed KNN graphs carrying statistical
node, edge, and frame features; a from-scratch numpy graph-attention
network with verified analytic gradients consumes them; pose and activity
metrics evaluate the predictions.
"""

from .config import (
    ModelShape,
    PipelineConfig,
    load_config,
    mars_sequential_shape,
    parse_config,
    serialize_config,
)
from .gnn import (
    FcnBlock,
    GatLayer,
    ModelParams,
    fcn_forward,
    frame_representation,
    gat_forward,
    grad_check,
    init_params,
    load_params,
    network_loss,
    predict_framewise,
    predict_sequential,
    save_params,
)
from .metrics import (
    accuracy,
    cross_entropy,
    mae,
    mpjpe,
    mse,
    pa_mpjpe,
    rmse,
)
from .pipeline import (
    build_graph,
    downsample,
    edge_features,
    frame_features,
    fuse_frames,
    knn_edges,
    node_features,
    squared_distance_matrix,
)
from .rng import SplitMix64, derive_seed
from .statbox import statbox_array, statbox_columns
from .types import PointGraph, RadarFrame

__version__ = "0.1.0"
