import math

import numpy as np
import pytest
import scipy.optimize
import scipy.spatial.transform

from cloudgraph.errors import (
    DegenerateConfiguration,
    LabelOutOfRange,
    ShapeMismatch,
)
from cloudgraph.metrics import (
    PoseBatch,
    accuracy,
    activity_report,
    cross_entropy,
    mae,
    midhip_adjust,
    mpjpe,
    mse,
    pa_mpjpe,
    per_keypoint_errors,
    pose_report,
    rmse,
    similarity_align,
    softmax,
)
from cloudgraph.types import ActivityLabel, Skeleton


def skel(arr, mid_hip=0):
    return Skeleton(np.asarray(arr, dtype=np.float64), mid_hip)


def random_skeleton(rng, m=13, mid_hip=0, scale=1.0):
    return skel(rng.normal(size=(m, 3)) * scale, mid_hip)


def random_rotation(rng):
    q = rng.normal(size=4)
    return scipy.spatial.transform.Rotation.from_quat(q / np.linalg.norm(q)).as_matrix()


# -- mid-hip adjustment and MPJPE --------------------------------------------


def test_midhip_adjust_pins_root():
    pred = skel([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
    gt = skel([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    adj = midhip_adjust(pred, gt)
    assert np.array_equal(adj.keypoints[0], gt.keypoints[0])
    assert np.allclose(adj.keypoints[1], [1.0, 0.0, 0.0])


def test_midhip_adjust_rejects_mismatched():
    with pytest.raises(ShapeMismatch):
        midhip_adjust(skel(np.zeros((2, 3))), skel(np.zeros((3, 3))))
    with pytest.raises(ShapeMismatch):
        midhip_adjust(skel(np.zeros((2, 3)), 0), skel(np.zeros((2, 3)), 1))


def test_mpjpe_hand_value():
    # after pinning the root, joint 1 sits 0.5 m off: mean over joints = 0.25
    pred = skel([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
    gt = skel([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    batch = PoseBatch([pred], [gt])
    assert mpjpe(batch) == pytest.approx(0.25, abs=1e-15)


def test_mpjpe_zero_on_identical(np_rng):
    s = random_skeleton(np_rng)
    assert mpjpe(PoseBatch([s], [s])) == 0.0


def test_mpjpe_translation_invariant(np_rng):
    pred = random_skeleton(np_rng)
    gt = random_skeleton(np_rng)
    base = mpjpe(PoseBatch([pred], [gt]))
    moved = skel(pred.keypoints + np.array([10.0, -3.0, 2.0]))
    assert mpjpe(PoseBatch([moved], [gt])) == pytest.approx(base, abs=1e-12)


def test_mpjpe_batch_is_mean_of_singles(np_rng):
    preds = [random_skeleton(np_rng) for _ in range(3)]
    gts = [random_skeleton(np_rng) for _ in range(3)]
    singles = [mpjpe(PoseBatch([p], [g])) for p, g in zip(preds, gts)]
    assert mpjpe(PoseBatch(preds, gts)) == pytest.approx(np.mean(singles), rel=1e-14)


# -- similarity alignment and PA-MPJPE ---------------------------------------


def test_align_recovers_similarity_transform(np_rng):
    gt = np_rng.normal(size=(13, 3))
    rot = random_rotation(np_rng)
    pred = 2.5 * gt @ rot.T + np.array([4.0, -1.0, 0.5])
    aligned = similarity_align(pred, gt)
    assert np.allclose(aligned, gt, atol=1e-9)


def test_pa_mpjpe_zero_under_similarity(np_rng):
    gt = random_skeleton(np_rng)
    rot = random_rotation(np_rng)
    pred = skel(0.7 * gt.keypoints @ rot.T + [1.0, 2.0, 3.0])
    assert pa_mpjpe(PoseBatch([pred], [gt])) == pytest.approx(0.0, abs=1e-9)


def test_pa_mpjpe_not_fooled_by_mirror(np_rng):
    # reflected skeletons must not align to zero error: the solver is
    # restricted to proper rotations
    gt = np_rng.normal(size=(13, 3))
    mirrored = gt * np.array([-1.0, 1.0, 1.0])
    err = pa_mpjpe(PoseBatch([skel(mirrored)], [skel(gt)]))
    assert err > 1e-3


def test_pa_mpjpe_never_exceeds_mpjpe(np_rng):
    for _ in range(20):
        pred = random_skeleton(np_rng)
        gt = random_skeleton(np_rng)
        batch = PoseBatch([pred], [gt])
        assert pa_mpjpe(batch) <= mpjpe(batch) + 1e-12


def brute_force_alignment(pred, gt):
    """Independent oracle: numeric minimization of the summed squared joint
    error over (rotation vector, log scale, translation).  The alignment
    step optimizes the squared loss; the metric is then read off as the mean
    joint distance at the optimum."""

    def transformed(theta):
        rot = scipy.spatial.transform.Rotation.from_rotvec(theta[:3]).as_matrix()
        return math.exp(theta[3]) * pred @ rot.T + theta[4:]

    def cost(theta):
        d = transformed(theta) - gt
        return (d * d).sum()

    best = None
    best_cost = np.inf
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x0 = np.concatenate([rng.normal(size=3), [rng.normal() * 0.3],
                             gt.mean(0) - pred.mean(0)])
        res = scipy.optimize.minimize(cost, x0, method="Nelder-Mead",
                                      options={"xatol": 1e-12, "fatol": 1e-14,
                                               "maxiter": 40000, "maxfev": 40000})
        if res.fun < best_cost:
            best_cost = res.fun
            best = res.x
    return transformed(best), best_cost


def test_pa_mpjpe_matches_numeric_oracle(np_rng):
    for _ in range(3):
        pred = np_rng.normal(size=(8, 3))
        gt = np_rng.normal(size=(8, 3))
        closed = pa_mpjpe(PoseBatch([skel(pred)], [skel(gt)]))
        aligned_num, cost_num = brute_force_alignment(pred, gt)
        closed_pts = similarity_align(pred, gt)
        closed_cost = ((closed_pts - gt) ** 2).sum()
        # the closed form is the squared-loss optimum
        assert closed_cost <= cost_num + 1e-8
        numeric = np.linalg.norm(aligned_num - gt, axis=1).mean()
        assert abs(closed - numeric) < 1e-6


def test_align_degenerate_collinear_raises():
    gt = np.outer(np.arange(5.0), [1.0, 0.0, 0.0])  # collinear
    pred = np.random.default_rng(0).normal(size=(5, 3))
    with pytest.raises(DegenerateConfiguration):
        similarity_align(pred, gt)


def test_align_coincident_prediction_maps_to_centroid(np_rng):
    gt = np_rng.normal(size=(6, 3))
    pred = np.tile([1.0, 2.0, 3.0], (6, 1))
    aligned = similarity_align(pred, gt)
    assert np.allclose(aligned, gt.mean(axis=0), atol=1e-12)


# -- elementwise regression metrics ------------------------------------------


def test_mse_rmse_mae_hand_values():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 2.0, 2.0]])
    assert mse(a, b) == pytest.approx(3.0)
    assert rmse(a, b) == pytest.approx(math.sqrt(3.0))
    assert mae(a, b) == pytest.approx(5.0 / 3.0)


def test_rmse_squared_is_mse(np_rng):
    a = np_rng.normal(size=(4, 13, 3))
    b = np_rng.normal(size=(4, 13, 3))
    assert rmse(a, b) ** 2 == pytest.approx(mse(a, b), rel=1e-12)


def test_elementwise_metrics_accept_pose_batch(np_rng):
    preds = [random_skeleton(np_rng) for _ in range(3)]
    gts = [random_skeleton(np_rng) for _ in range(3)]
    batch = PoseBatch(preds, gts)
    p = np.stack([s.keypoints for s in preds])
    g = np.stack([s.keypoints for s in gts])
    assert mse(batch) == pytest.approx(mse(p, g), rel=1e-15)
    assert mae(batch) == pytest.approx(mae(p, g), rel=1e-15)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        mse(np.zeros((2, 3)), np.zeros((3, 3)))


def test_per_keypoint_errors(np_rng):
    preds = [random_skeleton(np_rng, m=4) for _ in range(5)]
    gts = [random_skeleton(np_rng, m=4) for _ in range(5)]
    pk = per_keypoint_errors(PoseBatch(preds, gts))
    assert pk["mae"].shape == (4,)
    d = np.stack([p.keypoints - g.keypoints for p, g in zip(preds, gts)])
    assert np.allclose(pk["rmse"], np.sqrt((d * d).mean(axis=(0, 2))))


# -- classification metrics --------------------------------------------------


def test_softmax_properties(np_rng):
    s = np_rng.normal(size=7) * 50
    p = softmax(s)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p >= 0)
    # shift invariance
    assert np.allclose(softmax(s + 123.0), p, atol=1e-12)


def test_cross_entropy_uniform_scores():
    label = ActivityLabel(class_index=2, num_classes=5)
    assert cross_entropy(np.zeros(5), label) == pytest.approx(math.log(5.0), abs=1e-12)


def test_cross_entropy_confident_correct():
    label = ActivityLabel(class_index=1, num_classes=3)
    scores = np.array([0.0, 100.0, 0.0])
    assert cross_entropy(scores, label) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_extreme_scores_finite():
    label = ActivityLabel(class_index=0, num_classes=2)
    val = cross_entropy(np.array([1e4, -1e4]), label)
    assert math.isfinite(val)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_validation():
    with pytest.raises(ShapeMismatch):
        cross_entropy(np.zeros(4), ActivityLabel(class_index=0, num_classes=5))


def test_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        ActivityLabel(class_index=7, num_classes=5)


def test_accuracy_with_argmax_ties():
    labels = [ActivityLabel(0, 3), ActivityLabel(1, 3), ActivityLabel(2, 3)]
    rows = [
        [1.0, 1.0, 0.0],  # tie 0/1 -> 0, correct
        [1.0, 1.0, 0.0],  # tie -> 0, wrong
        [0.0, 0.0, 5.0],  # correct
    ]
    assert accuracy(rows, labels) == pytest.approx(2.0 / 3.0)


def test_accuracy_validation():
    with pytest.raises(ShapeMismatch):
        accuracy([[1.0, 0.0]], [])
    with pytest.raises(LabelOutOfRange):
        accuracy([[1.0, 0.0]], [ActivityLabel(3, 4)])


# -- reports -----------------------------------------------------------------


def test_pose_report_units(np_rng):
    gt = random_skeleton(np_rng)
    pred = skel(gt.keypoints + 0.001)  # 1 mm offset on every coordinate
    text = pose_report(PoseBatch([pred], [gt]))
    lines = dict(
        line.split(maxsplit=1) for line in text.strip().splitlines()[1:]
    )
    # a uniform offset vanishes under root pinning but not in rmse/mae
    assert float(lines["mpjpe_mm"]) == pytest.approx(0.0, abs=1e-9)
    assert float(lines["rmse_cm"]) == pytest.approx(0.1, rel=1e-6)
    assert float(lines["mae_cm"]) == pytest.approx(0.1, rel=1e-6)
    # a 10 mm displacement of one non-root joint out of 13
    kp = gt.keypoints.copy()
    kp[5] += np.array([0.0, 0.0, 0.01])
    text2 = pose_report(PoseBatch([skel(kp)], [gt]))
    lines2 = dict(line.split(maxsplit=1) for line in text2.strip().splitlines()[1:])
    assert float(lines2["mpjpe_mm"]) == pytest.approx(10.0 / 13.0, rel=1e-5)


def test_pose_report_per_keypoint_rows(np_rng):
    batch = PoseBatch([random_skeleton(np_rng, m=3)], [random_skeleton(np_rng, m=3)])
    text = pose_report(batch, per_keypoint=True)
    assert len(text.strip().splitlines()) == 5 + 1 + 3


def test_activity_report():
    labels = [ActivityLabel(0, 2), ActivityLabel(1, 2)]
    text = activity_report([[2.0, 0.0], [0.0, 2.0]], labels)
    assert "accuracy        1.000000" in text
