import numpy as np
import pytest

from mlx import autodiff as ad
from mlx import config, data
from mlx.model import MlpSpec, init_params, linear_model, logits, param_tensors
from mlx.perturb import PerturbConfig
from mlx.rng import stream
from mlx.train import (
    TrainingConfig,
    TrainingDiverged,
    alpha_schedule,
    eps_schedule,
    grad_reg_term,
    importance_scores,
    total_loss_graph,
    train,
)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(method="dropout")
    with pytest.raises(ValueError):
        TrainingConfig(lam=-1)
    with pytest.raises(ValueError):
        TrainingConfig(ramp_fraction=0.0)


def test_schedules_endpoints_and_monotonicity():
    cfg = TrainingConfig(method="ibp-ex", eps_max=2.0, ramp_fraction=0.5)
    fracs = np.linspace(0, 1, 21)
    eps = [eps_schedule(cfg, t) for t in fracs]
    alpha = [alpha_schedule(cfg, t) for t in fracs]
    assert eps[0] == 0.0 and eps[-1] == 2.0
    assert alpha[0] == 1.0 and alpha[-1] == 0.5
    assert all(a <= b + 1e-12 for a, b in zip(eps, eps[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(alpha, alpha[1:]))
    assert eps_schedule(cfg, 0.5) == 2.0  # ramp complete at ramp_fraction
    assert alpha_schedule(cfg, 0.25) == pytest.approx(0.75)


def test_importance_scores_linear_single_logit():
    params = linear_model(np.array([[3.0], [-2.0]]))
    scores = importance_scores(params, np.array([[0.3, 0.8], [5.0, -2.0]]))
    assert scores == pytest.approx(np.array([[3.0, -2.0], [3.0, -2.0]]))


def test_importance_scores_zero_weights():
    params = init_params(MlpSpec(4, (5,), 3), 0)
    for w in params.weights:
        w[:] = 0.0
    assert np.all(importance_scores(params, np.ones((2, 4))) == 0.0)


def test_importance_scores_match_finite_differences():
    rng = np.random.default_rng(0)
    params = init_params(MlpSpec(3, (6,), 4), 1)
    x = rng.normal(size=(1, 3))
    got = importance_scores(params, x)

    def score(xv):
        z = logits(params, xv)
        zs = z - z.max(axis=1, keepdims=True)
        return (zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))).sum()

    eps = 1e-6
    for j in range(3):
        xp, xm = x.copy(), x.copy()
        xp[0, j] += eps
        xm[0, j] -= eps
        fd = (score(xp) - score(xm)) / (2 * eps)
        assert got[0, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_grad_reg_term_examples():
    params = linear_model(np.array([[3.0], [-2.0]]))
    x = np.tile(np.array([[0.5, 1.5]]), (4, 1))
    assert grad_reg_term(params, x, np.zeros_like(x)) == 0.0
    # saliency is w = [3, -2] per example; mask [1, 0]: 4 * 3^2 = 36
    m = np.tile(np.array([[1.0, 0.0]]), (4, 1))
    assert grad_reg_term(params, x, m) == pytest.approx(36.0)


def test_grad_reg_lambda_scaling():
    params = init_params(MlpSpec(3, (4,), 2), 2)
    x = np.random.default_rng(0).normal(size=(3, 3))
    y = [0, 1, 0]
    m = np.ones_like(x)
    base = TrainingConfig(method="grad-reg", lam=1.0)
    double = TrainingConfig(method="grad-reg", lam=2.0)
    pt = param_tensors(params)
    _, parts1 = total_loss_graph(pt, x, y, m, base, 0.0)
    _, parts2 = total_loss_graph(param_tensors(params), x, y, m, double, 0.0)
    assert parts2["reg"] == pytest.approx(2 * parts1["reg"])


def sum_ce(params, x, y):
    return ad.cross_entropy(ad.tensor(logits(params, x)), y, reduction="sum").item()


def loss_value(params, x, y, m, cfg, step_fraction):
    loss, _ = total_loss_graph(param_tensors(params), x, y, m, cfg, step_fraction)
    return loss.item()


def test_total_loss_erm_is_task_plus_decay():
    params = init_params(MlpSpec(3, (4,), 2), 3)
    x = np.random.default_rng(1).normal(size=(4, 3))
    y = [0, 1, 1, 0]
    m = np.ones_like(x)
    cfg = TrainingConfig(method="erm", beta=0.1)
    got = loss_value(params, x, y, m, cfg, 0.5)
    sq_norm = sum(np.sum(a * a) for a in params.flat())
    assert got == pytest.approx(sum_ce(params, x, y) + 0.05 * sq_norm)


def test_total_loss_ibp_at_start_degenerates():
    params = init_params(MlpSpec(3, (4,), 2), 4)
    x = np.random.default_rng(2).normal(size=(2, 3))
    y = [1, 0]
    cfg = TrainingConfig(method="ibp-ex", eps_max=1.0)
    got = loss_value(params, x, y, np.ones_like(x), cfg, 0.0)
    assert got == pytest.approx((1 + 1.0) * sum_ce(params, x, y))
    # avg-ex with zero noise degenerates the same way, at its own alpha
    cfg = TrainingConfig(method="avg-ex", perturb=PerturbConfig(sigma=0.0, k_samples=3, alpha=0.7))
    loss, _ = total_loss_graph(param_tensors(params), x, y, np.ones_like(x), cfg, 0.0, np.random.default_rng(0))
    assert loss.item() == pytest.approx((1 + 0.7) * sum_ce(params, x, y))


def test_total_loss_combined_is_additive():
    params = init_params(MlpSpec(4, (5,), 3), 5)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 4))
    y = [0, 2, 1]
    m = (rng.random((3, 4)) < 0.5).astype(float)
    pcfg = PerturbConfig(method="pgd", kappa=0.3, steps=3, alpha=0.8)
    combined = TrainingConfig(method="pgd+grad", lam=2.0, perturb=pcfg)
    alone = TrainingConfig(method="pgd-ex", perturb=pcfg)
    got = loss_value(params, x, y, m, combined, 0.4)
    expected = loss_value(params, x, y, m, alone, 0.4) + 2.0 * grad_reg_term(params, x, m)
    assert got == pytest.approx(expected)


def test_total_loss_gradient_matches_finite_differences():
    # includes the double-backprop penalty path
    rng = np.random.default_rng(4)
    params = init_params(MlpSpec(3, (5,), 2), 6)
    x = rng.normal(size=(3, 3))
    y = [0, 1, 1]
    m = np.ones_like(x)
    cfg = TrainingConfig(method="grad-reg", lam=0.5, beta=0.2)
    pt = param_tensors(params)
    loss, _ = total_loss_graph(pt, x, y, m, cfg, 0.0)
    grads = ad.grad(loss, pt)
    w0 = params.weights[0]
    eps = 1e-5
    fd = np.zeros_like(w0)
    for i in range(fd.shape[0]):
        for j in range(fd.shape[1]):
            pp = params.copy()
            pp.weights[0][i, j] += eps
            pm = params.copy()
            pm.weights[0][i, j] -= eps
            fd[i, j] = (
                loss_value(pp, x, y, m, cfg, 0.0) - loss_value(pm, x, y, m, cfg, 0.0)
            ) / (2 * eps)
    denom = max(np.abs(fd).max(), 1e-12)
    assert np.abs(grads[0].data - fd).max() / denom < 1e-4


def test_total_loss_unknown_step_fraction():
    params = init_params(MlpSpec(2, (3,), 2), 0)
    cfg = TrainingConfig(method="erm")
    with pytest.raises(ValueError):
        loss_value(params, np.zeros((1, 2)), [0], np.zeros((1, 2)), cfg, 1.5)


def test_train_reaches_high_accuracy_on_toy():
    splits = data.gen_toy2d(400, seed=0)
    cfg = TrainingConfig(method="erm", epochs=60, batch_size=64, lr=5e-3, seed=1)
    res = train(splits, cfg, spec=MlpSpec(2, (32, 32), 2))
    preds = np.argmax(logits(res.final_params, splits.train.x), axis=1)
    assert (preds == splits.train.y).mean() > 0.95


def test_train_deterministic_history():
    splits = data.gen_toy2d(200, seed=3)
    cfg = TrainingConfig(method="erm", epochs=5, batch_size=32, lr=5e-3, seed=2)
    res1 = train(splits, cfg, spec=MlpSpec(2, (8,), 2))
    res2 = train(splits, cfg, spec=MlpSpec(2, (8,), 2))
    assert res1.history == res2.history
    for a, b in zip(res1.params.flat(), res2.params.flat()):
        assert np.array_equal(a, b)


def test_history_train_loss_is_per_example_mean():
    splits = data.gen_toy2d(200, seed=8)
    spec = MlpSpec(2, (8,), 2)
    cfg = TrainingConfig(method="erm", epochs=1, batch_size=8, lr=0.0, seed=4)
    res = train(splits, cfg, spec=spec)
    # lr 0 leaves the init parameters in place for the whole epoch
    init = init_params(spec, stream(cfg.seed, "init"))
    z = logits(init, splits.train.x)
    zs = z - z.max(axis=1, keepdims=True)
    log_p = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
    expected = -log_p[np.arange(len(splits.train)), splits.train.y].mean()
    assert res.history[0]["train_loss"] == pytest.approx(expected, rel=1e-6)
    assert res.history[0]["robust_loss"] == 0.0


def test_avg_ex_from_config_trains():
    cfg = config.training_config({"training": {"method": "avg-ex", "epochs": 1}}, 0)
    assert cfg.method == "avg-ex"
    res = train(data.gen_toy2d(200, seed=9), cfg, spec=MlpSpec(2, (8,), 2))
    robust = res.history[0]["robust_loss"]
    assert np.isfinite(robust) and robust > 0.0


def test_all_methods_collapse_to_erm_with_zero_weights():
    splits = data.gen_toy2d(200, seed=4)
    spec = MlpSpec(2, (8,), 2)
    histories = []
    for method in ("erm", "grad-reg", "pgd-ex", "ibp-ex", "pgd+grad"):
        cfg = TrainingConfig(
            method=method,
            lam=0.0,
            beta=0.0,
            eps_max=0.0,
            perturb=PerturbConfig(method="pgd", kappa=0.0, steps=1, alpha=0.0),
            epochs=3,
            batch_size=50,
            lr=5e-3,
            seed=5,
        )
        res = train(splits, cfg, spec=spec)
        histories.append([row["train_loss"] for row in res.history])
    for other in histories[1:]:
        assert other == pytest.approx(histories[0])


def test_train_divergence_aborts():
    splits = data.gen_toy2d(200, seed=6)
    # lr so large that the first Adam update overflows the float32 parameters
    cfg = TrainingConfig(method="erm", epochs=3, batch_size=50, lr=1e200, seed=0)
    with pytest.raises(TrainingDiverged):
        train(splits, cfg, spec=MlpSpec(2, (8,), 2))


def test_train_divergence_names_the_overflowing_update():
    splits = data.gen_toy2d(200, seed=6)
    cfg = TrainingConfig(method="erm", epochs=3, batch_size=50, lr=1e200, seed=0)
    with pytest.raises(TrainingDiverged, match=r"the Adam update of step 0 made the parameters non-finite"):
        train(splits, cfg, spec=MlpSpec(2, (8,), 2))


def test_selection_prefers_best_val_wg_earliest():
    splits = data.gen_toy2d(300, seed=7)
    cfg = TrainingConfig(method="erm", epochs=10, batch_size=64, lr=5e-3, seed=3)
    res = train(splits, cfg, spec=MlpSpec(2, (16,), 2))
    wgs = [row["val_wg_acc"] for row in res.history]
    best = max(wgs)
    assert res.best_epoch == wgs.index(best)


def all_methods_config(method):
    return TrainingConfig(
        method=method,
        lam=0.5,
        beta=0.1,
        eps_max=0.3,
        ramp_fraction=0.5,
        perturb=PerturbConfig(sigma=0.3, k_samples=2, kappa=0.2, steps=2, alpha=0.7),
        clamp=(-5.0, 5.0),
        epochs=1,
        batch_size=64,
        seed=1,
    )


def recorded_graph_dtypes(monkeypatch, run):
    """Dtypes of every node reachable from the outputs and results of each
    ``ad.grad`` call that ``run`` makes."""
    roots = []
    real_grad = ad.grad

    def recording_grad(output, wrt):
        grads = real_grad(output, wrt)
        roots.extend([output, *grads])
        return grads

    monkeypatch.setattr(ad, "grad", recording_grad)
    run()
    monkeypatch.undo()
    assert roots
    return {node.data.dtype for node in ad._topo(roots)}


@pytest.mark.parametrize("method", ["erm", "grad-reg", "avg-ex", "pgd-ex", "ibp-ex", "pgd+grad", "ibp+grad"])
def test_training_step_builds_only_float32_nodes(monkeypatch, method):
    splits = data.gen_toy2d(100, seed=2)  # two steps, the second with a box of nonzero width
    dtypes = recorded_graph_dtypes(
        monkeypatch, lambda: train(splits, all_methods_config(method), spec=MlpSpec(2, (8, 8), 2))
    )
    assert dtypes == {np.dtype(np.float32)}


@pytest.mark.parametrize("method", ["erm", "grad-reg", "avg-ex", "pgd-ex", "ibp-ex", "pgd+grad", "ibp+grad"])
def test_losses_on_float64_leaves_build_only_float64_nodes(monkeypatch, method):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 3)).astype(np.float32)  # the leaves, not the batch, pick the dtype
    m = (rng.random((6, 3)) < 0.5).astype(np.float32)
    y = [0, 1, 2, 0, 1, 2]
    pt = param_tensors(init_params(MlpSpec(3, (5,), 3), 8))

    def step():
        loss, _ = total_loss_graph(pt, x, y, m, all_methods_config(method), 0.6, np.random.default_rng(0))
        ad.grad(loss, pt)

    assert recorded_graph_dtypes(monkeypatch, step) == {np.dtype(np.float64)}


def test_trained_parameters_are_float64_holding_float32_values():
    splits = data.gen_toy2d(200, seed=1)
    res = train(splits, TrainingConfig(method="erm", epochs=2, batch_size=32, lr=5e-3), spec=MlpSpec(2, (8,), 2))
    for params in (res.params, res.final_params):
        for a in params.flat():
            assert a.dtype == np.float64
            assert np.array_equal(a.astype(np.float32).astype(np.float64), a)
