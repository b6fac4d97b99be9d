"""Losses and evaluation metrics for pose and activity tasks.

All skeleton math runs in meters; conversion to mm or cm belongs to the
reporting layer.  The pose-alignment metric uses a similarity transform
(rotation + scale + translation, closed form, proper rotation enforced) so
mirrored skeletons are never rewarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateConfiguration,
    LabelOutOfRange,
    ShapeMismatch,
)
from .types import ActivityLabel, Skeleton


@dataclass(frozen=True)
class PoseBatch:
    """Paired predictions and ground truths, equal length and keypoint count."""

    predictions: List[Skeleton]
    ground_truths: List[Skeleton]

    def __post_init__(self):
        if len(self.predictions) != len(self.ground_truths):
            raise ShapeMismatch("batch lengths differ")
        if not self.predictions:
            raise ShapeMismatch("empty batch")
        m = self.predictions[0].num_keypoints
        for s in (*self.predictions, *self.ground_truths):
            if s.num_keypoints != m:
                raise ShapeMismatch("keypoint counts differ within batch")

    def __len__(self) -> int:
        return len(self.predictions)


def midhip_adjust(pred: Skeleton, gt: Skeleton) -> Skeleton:
    """Translate the prediction so its mid-hip lands on the ground truth's."""
    if pred.num_keypoints != gt.num_keypoints:
        raise ShapeMismatch("keypoint counts differ")
    if pred.mid_hip_index != gt.mid_hip_index:
        raise ShapeMismatch("mid-hip indices differ")
    shift = gt.keypoints[gt.mid_hip_index] - pred.keypoints[pred.mid_hip_index]
    return Skeleton(pred.keypoints + shift, pred.mid_hip_index)


def mpjpe(batch: PoseBatch) -> float:
    """Mean per-joint position error after mid-hip adjustment (meters)."""
    total = 0.0
    for pred, gt in zip(batch.predictions, batch.ground_truths):
        adj = midhip_adjust(pred, gt)
        err = np.linalg.norm(adj.keypoints - gt.keypoints, axis=1)
        total += float(err.mean())
    return total / len(batch)


def similarity_align(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Least-squares similarity alignment of pred onto gt (M x 3 each).

    Closed form: center both clouds, rotate by the polar factor of the
    cross-covariance (determinant-corrected to a proper rotation), scale by
    the trace ratio, translate onto the target centroid.
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
    u, s, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(u @ vt))
    corr = np.ones(3)
    corr[-1] = d
    rot = (u * corr) @ vt
    var_p = (xc * xc).sum()
    if var_p <= 0:
        # all predicted keypoints coincide: best fit is the gt centroid
        return np.tile(mu_g, (pred.shape[0], 1))
    scale = (s * corr).sum() / var_p
    return scale * (xc @ rot) + mu_g


def pa_mpjpe(batch: PoseBatch) -> float:
    """MPJPE after per-sample similarity (Procrustes) alignment."""
    total = 0.0
    for pred, gt in zip(batch.predictions, batch.ground_truths):
        if pred.num_keypoints != gt.num_keypoints:
            raise ShapeMismatch("keypoint counts differ")
        aligned = similarity_align(pred.keypoints, gt.keypoints)
        err = np.linalg.norm(aligned - gt.keypoints, axis=1)
        total += float(err.mean())
    return total / len(batch)


def _flatten_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(pred, PoseBatch):
        raise TypeError("pass (predictions, ground_truths) arrays or a PoseBatch to mse/rmse/mae")
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(gt, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} vs {b.shape}")
    return a.reshape(-1), b.reshape(-1)


def _batch_arrays(batch: PoseBatch) -> tuple[np.ndarray, np.ndarray]:
    p = np.stack([s.keypoints for s in batch.predictions])
    g = np.stack([s.keypoints for s in batch.ground_truths])
    return p, g


def mse(pred, gt=None) -> float:
    """Mean squared error over all keypoint coordinates (raw, unadjusted)."""
    if isinstance(pred, PoseBatch):
        pred, gt = _batch_arrays(pred)
    a, b = _flatten_pair(pred, gt)
    d = a - b
    return float(np.mean(d * d))


def rmse(pred, gt=None) -> float:
    return float(np.sqrt(mse(pred, gt)))


def mae(pred, gt=None) -> float:
    if isinstance(pred, PoseBatch):
        pred, gt = _batch_arrays(pred)
    a, b = _flatten_pair(pred, gt)
    return float(np.mean(np.abs(a - b)))


def per_keypoint_errors(batch: PoseBatch) -> dict:
    """MAE and RMSE per keypoint over the batch (meters)."""
    p, g = _batch_arrays(batch)
    d = p - g  # B x M x 3
    out_mae = np.abs(d).mean(axis=(0, 2))
    out_rmse = np.sqrt((d * d).mean(axis=(0, 2)))
    return {"mae": out_mae, "rmse": out_rmse}


def softmax(scores: np.ndarray) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    shifted = s - s.max()
    e = np.exp(shifted)
    return e / e.sum()


def cross_entropy(scores, label: ActivityLabel) -> float:
    """Negative log softmax probability of the true class (max-subtracted)."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if s.size != label.num_classes:
        raise ShapeMismatch(f"{s.size} scores for {label.num_classes} classes")
    shifted = s - s.max()
    log_z = float(np.log(np.exp(shifted).sum()))
    return log_z - float(shifted[label.class_index])


def accuracy(score_rows: Sequence, labels: Sequence[ActivityLabel]) -> float:
    """Fraction of rows whose argmax (ties to the lowest index) hits the label."""
    if len(score_rows) != len(labels):
        raise ShapeMismatch("score/label counts differ")
    if not labels:
        raise ShapeMismatch("empty batch")
    hits = 0
    for row, label in zip(score_rows, labels):
        s = np.asarray(row, dtype=np.float64).reshape(-1)
        if not 0 <= label.class_index < s.size:
            raise LabelOutOfRange(str(label.class_index))
        if int(np.argmax(s)) == label.class_index:
            hits += 1
    return hits / len(labels)


def _coverage_lines(coverage: Optional[float]) -> List[str]:
    return [] if coverage is None else [f"coverage        {coverage:.6f}"]


def pose_report(
    batch: PoseBatch, per_keypoint: bool = False, coverage: Optional[float] = None
) -> str:
    """Text table: MPJPE / PA-MPJPE in mm, RMSE / MAE in cm, and, when
    given, the share of ground-truth ids that have a prediction."""
    lines = [
        "metric          value",
        f"mpjpe_mm        {mpjpe(batch) * 1000.0:.6f}",
        f"pa_mpjpe_mm     {pa_mpjpe(batch) * 1000.0:.6f}",
        f"rmse_cm         {rmse(batch) * 100.0:.6f}",
        f"mae_cm          {mae(batch) * 100.0:.6f}",
    ] + _coverage_lines(coverage)
    if per_keypoint:
        pk = per_keypoint_errors(batch)
        lines.append("keypoint  mae_cm  rmse_cm")
        for i, (a, r) in enumerate(zip(pk["mae"], pk["rmse"])):
            lines.append(f"{i:8d}  {a * 100.0:.6f}  {r * 100.0:.6f}")
    return "\n".join(lines) + "\n"


def activity_report(
    score_rows: Sequence, labels: Sequence[ActivityLabel], coverage: Optional[float] = None
) -> str:
    lines = [
        "metric          value",
        f"accuracy        {accuracy(score_rows, labels):.6f}",
    ] + _coverage_lines(coverage)
    return "\n".join(lines) + "\n"
