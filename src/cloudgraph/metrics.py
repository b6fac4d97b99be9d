"""Losses and evaluation metrics for pose and activity tasks, on arrays.

Pose metrics compare a prediction with a ground truth given as two float64
B x M x 3 arrays (B poses of M keypoints); MPJPE also takes the index of
the mid-hip keypoint.  Activity metrics score a B x C array against B
integer labels, and a label outside [0, C) raises LabelOutOfRange.

All skeleton math runs in meters; conversion to mm or cm belongs to the
reporting layer.  The pose-alignment metric uses a similarity transform
(rotation + scale + translation, closed form, proper rotation enforced) so
mirrored skeletons are never rewarded.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    DegenerateConfiguration,
    LabelOutOfRange,
    NonFiniteOutput,
    ShapeMismatch,
)


def _pair(pred, gt) -> Tuple[np.ndarray, np.ndarray]:
    """Both arguments as float64 arrays of one shape, else ShapeMismatch."""
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(gt, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    return a, b


def _pose_pair(pred, gt) -> Tuple[np.ndarray, np.ndarray]:
    """Predicted and ground-truth poses as two float64 B x M x 3 arrays with
    B and M at least 1, else ShapeMismatch."""
    a, b = _pair(pred, gt)
    if a.ndim != 3 or a.shape[2] != 3 or 0 in a.shape:
        raise ShapeMismatch(f"poses must be B x M x 3 with B, M >= 1, got shape {a.shape}")
    return a, b


def _mean_joint_error(placed: np.ndarray, gt: np.ndarray) -> float:
    """Mean over samples of the mean joint distance from ``placed`` to the
    ground truth (B x M x 3 each)."""
    return float(np.linalg.norm(placed - gt, axis=2).mean(axis=1).mean())


def mpjpe(pred, gt, mid_hip_index: int) -> float:
    """Mean per-joint position error (meters) of B x M x 3 predictions,
    each translated so its mid-hip keypoint lands on the ground truth's."""
    a, b = _pose_pair(pred, gt)
    if not 0 <= mid_hip_index < a.shape[1]:
        raise ShapeMismatch(f"mid-hip index {mid_hip_index} outside {a.shape[1]} keypoints")
    return _mean_joint_error(a + (b[:, mid_hip_index] - a[:, mid_hip_index])[:, None], b)


def similarity_align(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Least-squares similarity alignment of pred onto gt (M x 3 each).

    Closed form: center both clouds, rotate by the polar factor of the
    cross-covariance (determinant-corrected to a proper rotation), scale by
    the trace ratio, translate onto the target centroid.  Raises
    ``NonFiniteOutput`` where that would overflow into a wrong alignment.
    """
    mu_p = pred.mean(axis=0)
    mu_g = gt.mean(axis=0)
    xc = pred - mu_p
    yc = gt - mu_g
    sv = np.linalg.svd(yc, compute_uv=False)
    if sv.size < 2 or sv[1] < 1e-12 * max(sv[0], 1.0):
        raise DegenerateConfiguration(
            "ground-truth keypoints are collinear or coincident"
        )
    cov = xc.T @ yc
    var_p = (xc * xc).sum()
    if not np.isfinite(cov).all() or not np.isfinite(var_p):
        raise NonFiniteOutput("prediction variance or covariance overflows in pa_mpjpe alignment")
    u, s, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(u @ vt))
    corr = np.ones(3)
    corr[-1] = d
    rot = (u * corr) @ vt
    if var_p <= 0:
        # all predicted keypoints coincide: best fit is the gt centroid
        return np.tile(mu_g, (pred.shape[0], 1))
    scale = (s * corr).sum() / var_p
    return scale * (xc @ rot) + mu_g


def pa_mpjpe(pred, gt) -> float:
    """MPJPE after per-sample similarity (Procrustes) alignment."""
    a, b = _pose_pair(pred, gt)
    return _mean_joint_error(np.stack([similarity_align(p, g) for p, g in zip(a, b)]), b)


def mse(pred, gt) -> float:
    """Mean squared error over all coordinates of two equal-shape arrays."""
    a, b = _pair(pred, gt)
    d = a - b
    return float(np.mean(d * d))


def rmse(pred, gt) -> float:
    return float(np.sqrt(mse(pred, gt)))


def mae(pred, gt) -> float:
    a, b = _pair(pred, gt)
    return float(np.mean(np.abs(a - b)))


def per_keypoint_errors(pred, gt) -> dict:
    """MAE and RMSE per keypoint over B x M x 3 poses (meters)."""
    a, b = _pose_pair(pred, gt)
    d = a - b
    out_mae = np.abs(d).mean(axis=(0, 2))
    out_rmse = np.sqrt((d * d).mean(axis=(0, 2)))
    return {"mae": out_mae, "rmse": out_rmse}


def softmax(scores: np.ndarray) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    shifted = s - s.max()
    e = np.exp(shifted)
    return e / e.sum()


def _check_labels(labels, num_classes: int) -> None:
    """LabelOutOfRange for the first label outside [0, num_classes), with
    its position as ``row``.  The labels are compared as given, so an
    integer too large for int64 is named exactly."""
    for row, label in enumerate(labels):
        if not 0 <= label < num_classes:
            raise LabelOutOfRange(f"class index {label} outside [0, {num_classes})", row)


def cross_entropy(scores, label: int) -> float:
    """Negative log softmax probability of class ``label`` for one vector of
    C scores (max-subtracted)."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ShapeMismatch(f"expected one score vector, got shape {s.shape}")
    _check_labels([label], s.size)
    shifted = s - s.max()
    log_z = float(np.log(np.exp(shifted).sum()))
    return log_z - float(shifted[label])


def accuracy(scores, labels) -> float:
    """Fraction of the B rows of a B x C score array whose argmax (ties to
    the lowest index) is the row's integer label."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or not len(s):
        raise ShapeMismatch(f"scores must be B x C with B >= 1, got shape {s.shape}")
    if len(labels) != len(s):
        raise ShapeMismatch(f"{len(s)} score rows for {len(labels)} labels")
    _check_labels(labels, s.shape[1])
    return float(np.mean(np.argmax(s, axis=1) == np.asarray(labels)))


def _table(rows: List[tuple], coverage: Optional[float]) -> List[str]:
    """The metric/value lines; a non-finite value raises, naming its metric."""
    rows = rows + ([] if coverage is None else [("coverage", coverage)])
    bad = [name for name, value in rows if not np.isfinite(value)]
    if bad:
        raise NonFiniteOutput(f"{bad[0]} is not finite")
    return ["metric          value"] + [f"{name:<16}{value:.6f}" for name, value in rows]


def pose_report(
    pred, gt, mid_hip_index: int, per_keypoint: bool = False, coverage: Optional[float] = None
) -> str:
    """Text table for B x M x 3 poses: MPJPE / PA-MPJPE in mm, RMSE / MAE
    in cm, and, when given, the share of ground-truth ids that have a
    prediction."""
    lines = _table([
        ("mpjpe_mm", mpjpe(pred, gt, mid_hip_index) * 1000.0),
        ("pa_mpjpe_mm", pa_mpjpe(pred, gt) * 1000.0),
        ("rmse_cm", rmse(pred, gt) * 100.0),
        ("mae_cm", mae(pred, gt) * 100.0),
    ], coverage)
    if per_keypoint:
        # a finite rmse_cm bounds every squared error, so these are finite
        pk = per_keypoint_errors(pred, gt)
        lines.append("keypoint  mae_cm  rmse_cm")
        for i, (a, r) in enumerate(zip(pk["mae"], pk["rmse"])):
            lines.append(f"{i:8d}  {a * 100.0:.6f}  {r * 100.0:.6f}")
    return "\n".join(lines) + "\n"


def activity_report(scores, labels, coverage: Optional[float] = None) -> str:
    """Text table of the accuracy of B x C scores against B integer labels."""
    lines = _table([("accuracy", accuracy(scores, labels))], coverage)
    return "\n".join(lines) + "\n"
