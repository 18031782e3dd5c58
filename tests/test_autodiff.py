import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mlx import autodiff as ad


def mlp_loss_tensors(weights, biases, x, y):
    pt = [ad.tensor(a) for pair in zip(weights, biases) for a in pair]
    h = ad.tensor(x)
    for i in range(len(weights)):
        h = ad.affine(h, pt[2 * i], pt[2 * i + 1])
        if i < len(weights) - 1:
            h = ad.relu(h)
    return ad.cross_entropy(h, y), pt


def numpy_mlp_loss(weights, biases, x, y):
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
    z = h - h.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(y)), y].mean()


def random_net(rng, sizes):
    weights = [rng.normal(size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [rng.normal(size=(b,)) for b in sizes[1:]]
    return weights, biases


def test_affine_hand_value():
    out = ad.affine(ad.tensor([[1.0, 1.0]]), ad.tensor([[1.0], [2.0]]), ad.tensor([0.0]))
    assert out.data.ravel() == pytest.approx([3.0])


def test_relu_definition():
    assert ad.relu(ad.tensor([-1.0, 0.0, 2.0])).data.tolist() == [0.0, 0.0, 2.0]


def test_cross_entropy_uniform():
    assert ad.cross_entropy(ad.tensor([[0.0, 0.0]]), [0]).item() == pytest.approx(np.log(2))


def test_grad_linear():
    x = ad.tensor([[1.0, 1.0]])
    w = ad.tensor([[3.0], [-2.0]])
    (g,) = ad.grad(ad.matmul(x, w), [x])
    assert g.data.ravel().tolist() == [3.0, -2.0]


def test_grad_quadratic_matrix():
    # d/dW of |Wx|^2 at W=[[1]], x=[2] is 2*W*x*x = 8
    w = ad.tensor([[1.0]])
    x = ad.tensor([[2.0]])
    out = ad.tsum(ad.square(ad.matmul(x, w)))
    (gw,) = ad.grad(out, [w])
    assert gw.data.ravel() == pytest.approx([8.0])


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(20):
        sizes = [int(rng.integers(2, 6)) for _ in range(4)]
        weights, biases = random_net(rng, sizes)
        x = rng.normal(size=(4, sizes[0]))
        y = rng.integers(0, sizes[-1], size=4)
        loss, pt = mlp_loss_tensors(weights, biases, x, y)
        grads = ad.grad(loss, pt)
        # check the first weight matrix coordinate-by-coordinate
        g0 = grads[0].data
        eps = 1e-6
        fd = np.zeros_like(weights[0])
        for i in range(fd.shape[0]):
            for j in range(fd.shape[1]):
                wp = [w.copy() for w in weights]
                wm = [w.copy() for w in weights]
                wp[0][i, j] += eps
                wm[0][i, j] -= eps
                fd[i, j] = (numpy_mlp_loss(wp, biases, x, y) - numpy_mlp_loss(wm, biases, x, y)) / (2 * eps)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(g0 - fd).max() / denom < 1e-5


def test_double_backprop_polynomial():
    # f(x) = w.x, penalty (df/dx1)^2 = w1^2, so d/dw1 = 2 w1 = 6 at w1 = 3
    x = ad.tensor([[1.0, 1.0]])
    w = ad.tensor([[3.0], [-2.0]])
    (gx,) = ad.grad(ad.matmul(x, w), [x])
    penalty = ad.tsum(ad.square(ad.mul(gx, ad.tensor([[1.0, 0.0]]))))
    (gw,) = ad.grad(penalty, [w])
    assert gw.data.ravel() == pytest.approx([6.0, 0.0])


def test_double_backprop_relu_frozen_pattern():
    # f(x) = relu(w x) with x > 0 and w x > 0: (df/dx)^2 = w^2, d/dw = 2w
    w = ad.tensor([[1.5]])
    x = ad.tensor([[2.0]])
    (gx,) = ad.grad(ad.relu(ad.matmul(x, w)), [x])
    penalty = ad.tsum(ad.square(gx))
    (gw,) = ad.grad(penalty, [w])
    assert gw.data.ravel() == pytest.approx([3.0])


def test_double_backprop_matches_finite_differences():
    rng = np.random.default_rng(7)
    sizes = [3, 6, 2]

    def penalty_value(weights, biases, x):
        pt = [ad.tensor(a) for pair in zip(weights, biases) for a in pair]
        xt = ad.tensor(x)
        h = ad.relu(ad.affine(xt, pt[0], pt[1]))
        out = ad.affine(h, pt[2], pt[3])
        score = ad.tsum(ad.log_softmax(out, axis=-1))
        (gx,) = ad.grad(score, [xt])
        return ad.tsum(ad.square(gx)), pt

    for _ in range(5):
        weights, biases = random_net(rng, sizes)
        # keep pre-activations away from the relu kink
        while True:
            x = rng.normal(size=(3, 3))
            pre = x @ weights[0] + biases[0]
            if np.abs(pre).min() > 1e-3:
                break
        penalty, pt = penalty_value(weights, biases, x)
        (gw0,) = (ad.grad(penalty, [pt[0]]))
        eps = 1e-5
        fd = np.zeros_like(weights[0])
        for i in range(3):
            for j in range(6):
                wp = [w.copy() for w in weights]
                wm = [w.copy() for w in weights]
                wp[0][i, j] += eps
                wm[0][i, j] -= eps
                fd[i, j] = (penalty_value(wp, biases, x)[0].item() - penalty_value(wm, biases, x)[0].item()) / (2 * eps)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(gw0.data - fd).max() / denom < 1e-4


def test_grad_requires_scalar_or_seed():
    x = ad.tensor([[1.0, 2.0]])
    out = ad.mul(x, x)
    with pytest.raises(ad.ShapeError):
        ad.grad(out, [x])


def test_unreached_wrt_gets_zero_gradient():
    x = ad.tensor([1.0])
    other = ad.tensor([5.0])
    (g,) = ad.grad(ad.tsum(ad.square(x)), [other])
    assert g.data.tolist() == [0.0]


def test_shape_mismatch_raises():
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError):
        ad.cross_entropy(np.zeros((2, 3)), [0])


def test_non_finite_raises():
    with pytest.raises(ad.NonFiniteError):
        ad.log(ad.tensor([0.0]))
    with pytest.raises(ad.NonFiniteError):
        ad.exp(ad.tensor([1000.0]))
    with pytest.raises(ad.NonFiniteError):
        ad.tensor([np.inf])
    with pytest.raises(ad.NonFiniteError, match="'sum'"):
        ad.tsum(ad.tensor([1e308, 1e308]))


def test_grad_names_the_unchecked_op_that_overflowed():
    # mul is not scanned when it runs; grad finds the overflow in its output
    with pytest.raises(ad.NonFiniteError, match="'mul'"):
        x = ad.tensor(np.full(3, 1e5))
        loss = ad.mul(ad.tensor(1e300), ad.tsum(ad.square(x)))
        ad.grad(loss, [x])


def test_transpose_is_a_view():
    t = ad.tensor(np.arange(6.0).reshape(2, 3))
    assert np.shares_memory(ad.transpose(t).data, t.data)


def test_leaves_keep_float32_or_float64_and_everything_else_becomes_float64():
    assert ad.tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
    assert ad.tensor(np.ones(2)).data.dtype == np.float64
    assert ad.tensor([1, 2]).data.dtype == np.float64
    assert ad.tensor(np.ones(2, dtype=np.float16)).data.dtype == np.float64
    assert ad.tensor(0.5, np.float32).data.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("reduction", ["none", "sum", "mean"])
def test_graph_on_leaves_of_one_dtype_stays_in_it(dtype, reduction):
    g = np.random.default_rng(0)
    w = ad.tensor(g.normal(size=(4, 3)).astype(dtype))
    x = ad.tensor(g.normal(size=(5, 4)).astype(dtype))
    z = ad.relu(ad.matmul(x, ad.absval(w)))
    loss = ad.tsum(ad.cross_entropy(z, [0, 1, 2, 0, 1], reduction=reduction))
    (gw,) = ad.grad(loss, [w])
    (gww,) = ad.grad(ad.tsum(ad.square(gw)), [w])
    (unreached,) = ad.grad(loss, [ad.tensor(np.ones(2, dtype=dtype))])
    assert {t.data.dtype for t in ad._topo([loss, gw, gww, unreached])} == {np.dtype(dtype)}


def test_logsumexp_stability():
    z = ad.tensor([[1000.0, 1000.0]])
    assert ad.cross_entropy(z, [0]).item() == pytest.approx(np.log(2))


# ---------------------------------------------------------------------------
# every primitive's VJP against central finite differences on random shapes

SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, max_side=4)
SEEDS = st.integers(0, 2**32 - 1)


def values(seed, shape, low=-2.0, high=2.0, signed=False):
    """Uniform draws in [low, high], with a random sign when ``signed``."""
    rng = np.random.default_rng(seed)
    out = rng.uniform(low, high, size=shape)
    if signed:
        out = out * rng.choice([-1.0, 1.0], size=shape)
    return np.asarray(out)  # an array also for shape ()


def assert_vjp_matches_fd(f, *arrays, eps=1e-6):
    """Gradient of sum(f(*arrays) * w), for a fixed random w, against central differences."""
    leaves = [ad.tensor(a) for a in arrays]
    out = f(*leaves)
    w = np.random.default_rng(0).normal(size=out.shape)
    grads = ad.grad(ad.tsum(ad.mul(out, ad.tensor(w))), leaves)

    def objective(args):
        return float(np.sum(f(*[ad.tensor(a) for a in args]).data * w))

    for i, (a, g) in enumerate(zip(arrays, grads)):
        assert g.shape == a.shape
        fd = np.zeros_like(a)
        for idx in np.ndindex(a.shape):
            plus, minus = [b.copy() for b in arrays], [b.copy() for b in arrays]
            plus[i][idx] += eps
            minus[i][idx] -= eps
            fd[idx] = (objective(plus) - objective(minus)) / (2 * eps)
        np.testing.assert_allclose(g.data, fd, rtol=1e-5, atol=1e-6)


@settings(deadline=None)
@given(
    op=st.sampled_from(["add", "mul", "div"]),
    shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4),
    seed=SEEDS,
)
def test_binary_vjp_broadcasting(op, shapes, seed):
    a_shape, b_shape = shapes.input_shapes
    a = values(seed, a_shape)
    # div keeps its denominator away from zero
    b = values(seed + 1, b_shape, 0.5, 2.0, signed=True) if op == "div" else values(seed + 1, b_shape)
    assert_vjp_matches_fd(getattr(ad, op), a, b)


@settings(deadline=None)
@given(op=st.sampled_from(["neg", "relu", "absval", "exp", "log", "transpose"]), shape=SHAPES, seed=SEEDS)
def test_unary_vjp(op, shape, seed):
    if op == "transpose":
        shape = (shape[0], shape[-1])
    # relu and absval are drawn away from their kink at 0, log from its pole
    a = values(seed, shape, 0.5, 2.0) if op == "log" else values(seed, shape, 0.1, 2.0, signed=True)
    assert_vjp_matches_fd(getattr(ad, op), a)


@settings(deadline=None)
@given(m=st.integers(1, 4), k=st.integers(1, 4), n=st.integers(1, 4), seed=SEEDS)
def test_matmul_vjp(m, k, n, seed):
    assert_vjp_matches_fd(ad.matmul, values(seed, (m, k)), values(seed + 1, (k, n)))


@settings(deadline=None)
@given(shape=SHAPES, order=st.sampled_from(["flat", "reversed", "lead1"]), seed=SEEDS)
def test_reshape_vjp(shape, order, seed):
    target = {"flat": (int(np.prod(shape)),), "reversed": shape[::-1], "lead1": (1, *shape)}[order]
    assert_vjp_matches_fd(lambda a: ad.reshape(a, target), values(seed, shape))


@settings(deadline=None)
@given(target=SHAPES, data=st.data(), seed=SEEDS)
def test_broadcast_to_vjp(target, data, seed):
    # drop some leading axes of the target and shrink some of the rest to 1
    kept = target[data.draw(st.integers(0, len(target) - 1)) :]
    shape = tuple(data.draw(st.sampled_from([1, n])) for n in kept)
    assert_vjp_matches_fd(lambda a: ad.broadcast_to(a, target), values(seed, shape))


@settings(deadline=None)
@given(shape=SHAPES, data=st.data(), keepdims=st.booleans(), seed=SEEDS)
def test_tsum_vjp(shape, data, keepdims, seed):
    ndim = len(shape)
    axis = data.draw(
        st.one_of(
            st.none(),
            st.integers(-ndim, ndim - 1),
            st.lists(st.integers(0, ndim - 1), unique=True, max_size=ndim).map(tuple),
        )
    )
    assert_vjp_matches_fd(lambda a: ad.tsum(a, axis=axis, keepdims=keepdims), values(seed, shape))


@settings(deadline=None)
@given(
    n=st.integers(1, 5),
    classes=st.integers(1, 5),
    reduction=st.sampled_from(["none", "sum", "mean"]),
    data=st.data(),
    seed=SEEDS,
)
def test_cross_entropy_vjp(n, classes, reduction, data, seed):
    labels = data.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    logits = values(seed, (n, classes), -3.0, 3.0)
    assert_vjp_matches_fd(lambda z: ad.cross_entropy(z, labels, reduction=reduction), logits)
