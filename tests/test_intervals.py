import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlx import autodiff as ad
from mlx.intervals import (
    BoxInterval,
    input_box,
    propagate,
    propagate_graph,
    worst_case_logits,
    worst_case_loss_graph,
)
from mlx.model import MlpSpec, init_params, linear_model, logits, param_tensors


def affine_corner_bounds(w, b, box):
    """Oracle: exact output extremes of one affine layer by corner enumeration."""
    d = box.lower.shape[-1]
    lo = np.full(w.shape[1], np.inf)
    hi = np.full(w.shape[1], -np.inf)
    for corner in itertools.product(*[(box.lower[0, i], box.upper[0, i]) for i in range(d)]):
        z = np.asarray(corner) @ w + b
        lo = np.minimum(lo, z)
        hi = np.maximum(hi, z)
    return lo, hi


def test_input_box_formula():
    box = input_box(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.3)
    assert box.lower.tolist() == [0.2, 0.5]
    assert box.upper.tolist() == [0.8, 0.5]


def test_input_box_degenerate():
    x = np.array([0.1, 0.9])
    assert np.array_equal(input_box(x, np.ones(2), 0.0).lower, x)
    assert np.array_equal(input_box(x, np.zeros(2), 5.0).upper, x)


def test_input_box_clamp_and_negative_kappa():
    box = input_box(np.array([0.9]), np.array([1.0]), 0.5, clamp=(0.0, 1.0))
    assert box.lower.tolist() == [0.4]
    assert box.upper.tolist() == [1.0]
    with pytest.raises(ValueError):
        input_box(np.zeros(2), np.ones(2), -0.1)


def test_box_invariant():
    with pytest.raises(ValueError):
        BoxInterval(np.array([1.0]), np.array([0.0]))


def test_single_affine_matches_corner_oracle():
    w = np.array([[1.0, 2.0], [-1.0, 0.0]])
    b = np.array([0.0, 1.0])
    box = input_box(np.zeros(2), np.ones(2), 1.0)
    got = propagate(linear_model(w, b), box)
    lo, hi = affine_corner_bounds(w, b, BoxInterval(box.lower[None, :], box.upper[None, :]))
    assert got.lower.ravel() == pytest.approx(lo, abs=1e-12)
    assert got.upper.ravel() == pytest.approx(hi, abs=1e-12)


def test_single_affine_exact_random():
    rng = np.random.default_rng(0)
    for _ in range(30):
        d, c = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        w = rng.normal(size=(d, c))
        b = rng.normal(size=c)
        x = rng.normal(size=d)
        m = (rng.random(d) < 0.7).astype(float)
        box = input_box(x, m, float(rng.uniform(0, 2)))
        got = propagate(linear_model(w, b), box)
        lo, hi = affine_corner_bounds(w, b, BoxInterval(box.lower[None, :], box.upper[None, :]))
        assert np.abs(got.lower.ravel() - lo).max() < 1e-12
        assert np.abs(got.upper.ravel() - hi).max() < 1e-12


def test_degenerate_box_equals_forward():
    params = init_params(MlpSpec(4, (6, 5), 3), 1)
    x = np.random.default_rng(2).normal(size=(3, 4))
    out = propagate(params, input_box(x, np.ones_like(x), 0.0))
    z = logits(params, x)
    assert out.lower == pytest.approx(z, abs=1e-12)
    assert out.upper == pytest.approx(z, abs=1e-12)


def test_soundness_sampled_points():
    rng = np.random.default_rng(4)
    for _ in range(5):
        params = init_params(MlpSpec(5, (8, 6), 4), int(rng.integers(1000)))
        x = rng.normal(size=(3, 5))
        m = (rng.random((3, 5)) < 0.6).astype(float)
        box = input_box(x, m, 0.4)
        out = propagate(params, box)
        u = rng.random((500, 3, 5))
        pts = box.lower[None] + u * (box.upper - box.lower)[None]
        for k in range(500):
            z = logits(params, pts[k])
            assert np.all(z >= out.lower - 1e-9)
            assert np.all(z <= out.upper + 1e-9)


def test_monotone_in_kappa():
    params = init_params(MlpSpec(4, (6,), 3), 7)
    x = np.random.default_rng(1).normal(size=(2, 4))
    m = np.ones_like(x)
    prev = propagate(params, input_box(x, m, 0.1))
    for kappa in (0.2, 0.5, 1.0):
        cur = propagate(params, input_box(x, m, kappa))
        assert np.all(cur.lower <= prev.lower + 1e-12)
        assert np.all(cur.upper >= prev.upper - 1e-12)
        prev = cur


def test_worst_case_logits_assembly():
    box = BoxInterval(np.array([[0.2, -1.0]]), np.array([[1.0, 0.5]]))
    assert worst_case_logits(box, [0]).ravel().tolist() == [0.2, 0.5]
    assert worst_case_logits(box, [1]).ravel().tolist() == [1.0, -1.0]


def test_worst_case_degenerate_is_forward():
    params = init_params(MlpSpec(3, (5,), 4), 3)
    x = np.random.default_rng(0).normal(size=(2, 3))
    out = propagate(params, input_box(x, np.ones_like(x), 0.0))
    wc = worst_case_logits(out, [1, 2])
    assert wc == pytest.approx(logits(params, x), abs=1e-12)


def test_worst_case_loss_dominates_clean_loss():
    rng = np.random.default_rng(9)
    for _ in range(100):
        params = init_params(MlpSpec(4, (6,), 3), int(rng.integers(10000)))
        x = rng.normal(size=(1, 4))
        m = (rng.random((1, 4)) < 0.7).astype(float)
        y = [int(rng.integers(0, 3))]
        out = propagate(params, input_box(x, m, float(rng.uniform(0.05, 0.8))))
        wc_loss = ad.cross_entropy(ad.tensor(worst_case_logits(out, y)), y).item()
        clean = ad.cross_entropy(ad.tensor(logits(params, x)), y).item()
        assert wc_loss >= clean - 1e-10


def test_ibp_loss_degenerate_cases():
    params = init_params(MlpSpec(3, (4,), 2), 5)
    x = np.random.default_rng(3).normal(size=(2, 3))
    m = np.ones_like(x)
    y = [0, 1]
    clean = ad.cross_entropy(ad.tensor(logits(params, x)), y, reduction="sum").item()
    assert worst_case_loss_graph(param_tensors(params), x, y, m, 0.0).item() == pytest.approx(clean)


def test_ibp_loss_hand_linear_case():
    # one affine layer: bounds computable by hand interval arithmetic
    w = np.array([[1.0, -1.0]])
    params = linear_model(w)
    x = np.array([[0.0]])
    m = np.array([[1.0]])
    y = [0]
    # box [-k, k]: logits z = [x, -x]; lower = [-k, -k], upper = [k, k]
    # worst case for y=0: [-k, k]
    k = 0.5
    wc = np.log(1 + np.exp(2 * k))
    assert worst_case_loss_graph(param_tensors(params), x, y, m, k).item() == pytest.approx(wc)


def test_propagate_graph_matches_numpy():
    rng = np.random.default_rng(11)
    params = init_params(MlpSpec(5, (7, 6), 3), 2)
    x = rng.normal(size=(4, 5))
    m = (rng.random((4, 5)) < 0.5).astype(float)
    box = input_box(x, m, 0.3)
    ref = propagate(params, box)
    lo, hi = propagate_graph(param_tensors(params), box)
    assert lo.data == pytest.approx(ref.lower)
    assert hi.data == pytest.approx(ref.upper)


@settings(deadline=None, max_examples=60)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=3, max_size=5),
    n=st.integers(1, 3),
    kappa=st.floats(0.0, 2.0),
    clamp=st.one_of(st.none(), st.tuples(st.floats(-2.0, 0.0), st.floats(0.1, 2.0))),
    seed=st.integers(0, 2**32 - 1),
)
def test_ibp_sound_and_graph_equal_on_random_nets(sizes, n, kappa, clamp, seed):
    rng = np.random.default_rng(seed)
    params = init_params(MlpSpec(sizes[0], tuple(sizes[1:-1]), sizes[-1]), rng)
    params.biases = [rng.normal(size=b.shape) for b in params.biases]
    x = rng.normal(size=(n, sizes[0]))
    m = (rng.random(x.shape) < 0.6).astype(float)
    box = input_box(x, m, kappa, clamp=clamp)
    out = propagate(params, box)
    lo, hi = propagate_graph(param_tensors(params), box)
    np.testing.assert_allclose(lo.data, out.lower, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(hi.data, out.upper, rtol=1e-12, atol=1e-12)
    # the box's two extreme corners and uniform draws inside it
    u = np.concatenate([np.zeros((1, *x.shape)), np.ones((1, *x.shape)), rng.random((30, *x.shape))])
    for pts in box.lower + u * (box.upper - box.lower):
        z = logits(params, pts)
        assert np.all(z >= out.lower - 1e-9)
        assert np.all(z <= out.upper + 1e-9)
