import math

import numpy as np
import pytest
import scipy.optimize
import scipy.spatial.transform

from cloudgraph.errors import (
    DegenerateConfiguration,
    LabelOutOfRange,
    NonFiniteOutput,
    ShapeMismatch,
)
from cloudgraph.metrics import (
    accuracy,
    activity_report,
    cross_entropy,
    mae,
    mpjpe,
    mse,
    pa_mpjpe,
    per_keypoint_errors,
    pose_report,
    rmse,
    similarity_align,
    softmax,
)


def batch(*poses):
    """One B x M x 3 array from B M x 3 poses."""
    return np.array(poses, dtype=np.float64)


def random_pose(rng, m=13, scale=1.0):
    return rng.normal(size=(m, 3)) * scale


def random_rotation(rng):
    q = rng.normal(size=4)
    return scipy.spatial.transform.Rotation.from_quat(q / np.linalg.norm(q)).as_matrix()


# -- pose pairs and MPJPE ----------------------------------------------------


BAD_POSE_PAIRS = [
    ((2, 13, 3), (3, 13, 3)),  # batch lengths differ
    ((1, 13, 3), (1, 12, 3)),  # keypoint counts differ
    ((13, 3), (13, 3)),  # one pose, not a batch
    ((1, 13, 2), (1, 13, 2)),  # 2D keypoints
    ((0, 13, 3), (0, 13, 3)),  # empty batch
    ((1, 0, 3), (1, 0, 3)),  # no keypoints
]


@pytest.mark.parametrize("metric", [
    lambda p, g: mpjpe(p, g, 0),
    pa_mpjpe,
    per_keypoint_errors,
    lambda p, g: pose_report(p, g, 0),
], ids=["mpjpe", "pa_mpjpe", "per_keypoint_errors", "pose_report"])
@pytest.mark.parametrize("shapes", BAD_POSE_PAIRS, ids=lambda s: f"{s[0]}-{s[1]}")
def test_pose_metrics_take_one_b_by_m_by_3_shape(metric, shapes):
    with pytest.raises(ShapeMismatch):
        metric(np.ones(shapes[0]), np.ones(shapes[1]))


@pytest.mark.parametrize("index", [-1, 2])
def test_mpjpe_mid_hip_index_outside_the_keypoints(index):
    with pytest.raises(ShapeMismatch, match=f"mid-hip index {index} outside 2 keypoints"):
        mpjpe(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), index)


def test_mpjpe_hand_value():
    # after pinning the root, joint 1 sits 0.5 m off: mean over joints = 0.25
    pred = batch([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]])
    gt = batch([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    assert mpjpe(pred, gt, 0) == pytest.approx(0.25, abs=1e-15)
    # pinned at joint 1 instead, joint 0 sits 0.5 m off
    assert mpjpe(pred, gt, 1) == pytest.approx(0.25, abs=1e-15)


def test_mpjpe_zero_on_identical(np_rng):
    s = batch(random_pose(np_rng))
    assert mpjpe(s, s, 0) == 0.0


def test_mpjpe_translation_invariant(np_rng):
    pred = batch(random_pose(np_rng), random_pose(np_rng))
    gt = batch(random_pose(np_rng), random_pose(np_rng))
    base = mpjpe(pred, gt, 3)
    moved = pred + np.array([[[10.0, -3.0, 2.0]], [[-1.0, 4.0, 0.5]]])
    assert mpjpe(moved, gt, 3) == pytest.approx(base, abs=1e-12)


def test_mpjpe_batch_is_mean_of_singles(np_rng):
    preds = batch(*[random_pose(np_rng) for _ in range(3)])
    gts = batch(*[random_pose(np_rng) for _ in range(3)])
    singles = [mpjpe(p[None], g[None], 0) for p, g in zip(preds, gts)]
    assert mpjpe(preds, gts, 0) == pytest.approx(np.mean(singles), rel=1e-14)


# -- similarity alignment and PA-MPJPE ---------------------------------------


def test_align_recovers_similarity_transform(np_rng):
    gt = np_rng.normal(size=(13, 3))
    rot = random_rotation(np_rng)
    pred = 2.5 * gt @ rot.T + np.array([4.0, -1.0, 0.5])
    aligned = similarity_align(pred, gt)
    assert np.allclose(aligned, gt, atol=1e-9)


def test_pa_mpjpe_zero_under_similarity(np_rng):
    gt = random_pose(np_rng)
    rot = random_rotation(np_rng)
    pred = 0.7 * gt @ rot.T + [1.0, 2.0, 3.0]
    assert pa_mpjpe(batch(pred), batch(gt)) == pytest.approx(0.0, abs=1e-9)


def test_pa_mpjpe_not_fooled_by_mirror(np_rng):
    # reflected skeletons must not align to zero error: the solver is
    # restricted to proper rotations
    gt = np_rng.normal(size=(13, 3))
    mirrored = gt * np.array([-1.0, 1.0, 1.0])
    err = pa_mpjpe(batch(mirrored), batch(gt))
    assert err > 1e-3


def test_pa_mpjpe_never_exceeds_mpjpe(np_rng):
    for _ in range(20):
        pred = batch(random_pose(np_rng))
        gt = batch(random_pose(np_rng))
        assert pa_mpjpe(pred, gt) <= mpjpe(pred, gt, 0) + 1e-12


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
        closed = pa_mpjpe(batch(pred), batch(gt))
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


@pytest.mark.parametrize("spread", [1e160, 1e308])
def test_align_raises_when_the_prediction_overflows(np_rng, spread):
    # 1e160: the prediction's variance overflows and used to give scale 0,
    # every keypoint on the centroid; 1e308: the centroid overflows and the
    # covariance holds inf and NaN
    gt = np_rng.uniform(-1, 1, size=(5, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteOutput, match="overflows in pa_mpjpe alignment"):
            similarity_align(gt * spread, gt)


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


def test_shape_mismatch_rejected():
    for metric in (mse, rmse, mae):
        with pytest.raises(ShapeMismatch):
            metric(np.zeros((2, 3)), np.zeros((3, 3)))


def test_per_keypoint_errors(np_rng):
    preds = batch(*[random_pose(np_rng, m=4) for _ in range(5)])
    gts = batch(*[random_pose(np_rng, m=4) for _ in range(5)])
    pk = per_keypoint_errors(preds, gts)
    assert pk["mae"].shape == (4,)
    d = preds - gts
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
    assert cross_entropy(np.zeros(5), 2) == pytest.approx(math.log(5.0), abs=1e-12)


def test_cross_entropy_confident_correct():
    scores = np.array([0.0, 100.0, 0.0])
    assert cross_entropy(scores, 1) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_extreme_scores_finite():
    val = cross_entropy(np.array([1e4, -1e4]), 0)
    assert math.isfinite(val)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_validation():
    with pytest.raises(ShapeMismatch):
        cross_entropy(np.zeros((1, 4)), 0)


def test_label_out_of_range():
    for label in (-1, 5, 7):
        message = rf"^class index {label} outside \[0, 5\)$"
        with pytest.raises(LabelOutOfRange, match=message):
            cross_entropy(np.zeros(5), label)
        with pytest.raises(LabelOutOfRange, match=message) as exc:
            accuracy(np.zeros((3, 5)), [0, label, label])
        assert exc.value.row == 1


def test_accuracy_with_argmax_ties():
    labels = [0, 1, 2]
    rows = [
        [1.0, 1.0, 0.0],  # tie 0/1 -> 0, correct
        [1.0, 1.0, 0.0],  # tie -> 0, wrong
        [0.0, 0.0, 5.0],  # correct
    ]
    assert accuracy(rows, labels) == pytest.approx(2.0 / 3.0)


def test_accuracy_validation():
    with pytest.raises(ShapeMismatch):
        accuracy([[1.0, 0.0]], [])
    with pytest.raises(ShapeMismatch):
        accuracy(np.zeros((0, 2)), [])
    with pytest.raises(ShapeMismatch):
        accuracy([1.0, 0.0], [0])
    with pytest.raises(LabelOutOfRange):
        accuracy([[1.0, 0.0]], [3])


# -- reports -----------------------------------------------------------------


def test_pose_report_units(np_rng):
    gt = batch(random_pose(np_rng))
    pred = gt + 0.001  # 1 mm offset on every coordinate
    text = pose_report(pred, gt, 0)
    lines = dict(
        line.split(maxsplit=1) for line in text.strip().splitlines()[1:]
    )
    # a uniform offset vanishes under root pinning but not in rmse/mae
    assert float(lines["mpjpe_mm"]) == pytest.approx(0.0, abs=1e-9)
    assert float(lines["rmse_cm"]) == pytest.approx(0.1, rel=1e-6)
    assert float(lines["mae_cm"]) == pytest.approx(0.1, rel=1e-6)
    # a 10 mm displacement of one non-root joint out of 13
    kp = gt.copy()
    kp[0, 5] += np.array([0.0, 0.0, 0.01])
    text2 = pose_report(kp, gt, 0)
    lines2 = dict(line.split(maxsplit=1) for line in text2.strip().splitlines()[1:])
    assert float(lines2["mpjpe_mm"]) == pytest.approx(10.0 / 13.0, rel=1e-5)


def test_pose_report_per_keypoint_rows(np_rng):
    text = pose_report(batch(random_pose(np_rng, m=3)), batch(random_pose(np_rng, m=3)), 0,
                       per_keypoint=True)
    assert len(text.strip().splitlines()) == 5 + 1 + 3


def test_reports_known_answer():
    # pinned from the reports before the finiteness check: a finite report
    # keeps every character
    rng = np.random.default_rng(7)
    gts = batch(*[rng.normal(size=(4, 3)) for _ in range(2)])
    preds = batch(*[g + rng.normal(scale=0.05, size=(4, 3)) for g in gts])
    assert pose_report(preds, gts, 0, per_keypoint=True, coverage=2 / 3) == (
        "metric          value\nmpjpe_mm        77.824508\npa_mpjpe_mm     41.699031\n"
        "rmse_cm         4.599571\nmae_cm          3.374372\ncoverage        0.666667\n"
        "keypoint  mae_cm  rmse_cm\n       0  3.634128  5.596646\n"
        "       1  0.822042  1.179917\n       2  4.705356  5.354135\n"
        "       3  4.335960  4.821081\n"
    )
    labels = [0, 0, 1]
    assert activity_report([[0.3, 0.1], [0.2, 0.9], [0.5, 0.4]], labels, coverage=0.75) == (
        "metric          value\naccuracy        0.333333\ncoverage        0.750000\n"
    )


def test_pose_report_refuses_a_non_finite_metric(np_rng):
    # a uniform shift of 1e160 leaves mpjpe and pa_mpjpe finite, but the
    # squared errors of rmse overflow; the report used to print "inf"
    gt = batch(random_pose(np_rng))
    pred = gt + 1e160
    assert np.isfinite([mpjpe(pred, gt, 0), pa_mpjpe(pred, gt)]).all()
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteOutput, match="^rmse_cm is not finite$"):
            pose_report(pred, gt, 0, per_keypoint=True)


def test_activity_report():
    labels = [0, 1]
    text = activity_report([[2.0, 0.0], [0.0, 2.0]], labels)
    assert "accuracy        1.000000" in text
