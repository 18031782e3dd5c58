"""Reverse-mode automatic differentiation over dense float arrays.

The engine is define-by-run: calling an op executes it eagerly on numpy
arrays and links the result :class:`Tensor` to its parents. Every op's
vector-Jacobian product is itself expressed with these same ops, which
makes the backward pass differentiable and gives second-order gradients
(double backprop) for free via nested :func:`grad` calls.

Conventions chosen for determinism:

* a tensor holds float32 or float64: a leaf keeps the dtype of a
  float32 or float64 array and turns anything else into float64, and
  every value the engine creates itself (one-hot masks, relu/abs masks,
  sums, the log-sum-exp shift, gradient seeds and zero cotangents) takes
  the dtype of the tensor it serves, so a graph built on float32 leaves
  stays float32. Callers bring scalar weights in at their leaves' dtype
  (``tensor(w, dtype)``): a 0-d float64 array would promote a float32
  operand to float64,
* any NaN/Inf produced by an op raises :class:`NonFiniteError`
  immediately,
* relu'(0) = 0 and d|x|/dx at 0 = 0 (subgradient, frozen as constants in
  the backward graph, so second derivatives treat relu as piecewise
  linear with the activation pattern locked at the evaluation point).

Supported primitives: add, mul, div, neg, matmul, transpose, reshape,
relu, absval, exp, log, sum, broadcast_to. Affine layers, log-softmax
and cross-entropy are stable compositions of these (log-sum-exp uses a
detached max shift, which is exact at every differentiation order;
cross-entropy picks each label's log-probability with a one-hot mask).
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the op."""


_FLOAT_TYPES = (np.float32, np.float64)


def _float_array(value, dtype=None) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    return arr if arr.dtype.type in _FLOAT_TYPES else arr.astype(np.float64)


def _checked(data: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite value produced by op '{op}'")
    return data


class Tensor:
    """Node of the computation graph: a float32 or float64 array plus provenance.

    ``op`` is the primitive name ('const' for leaves), ``parents`` the
    input tensors, ``aux`` the non-differentiable op arguments (axes,
    shapes, frozen masks) its vector-Jacobian product needs.
    A tensor's array is read, never written, once the tensor exists.
    """

    __slots__ = ("data", "op", "parents", "aux", "_transposed")

    def __init__(self, data, op: str = "const", parents: tuple = (), aux: tuple = ()):
        self.data = _float_array(data)
        self.op = op
        self.parents = parents
        self.aux = aux
        self._transposed = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"


def tensor(value, dtype=None) -> Tensor:
    """Wrap an array-like as a leaf tensor, cast to ``dtype`` when given."""
    arr = _float_array(value, dtype)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("leaf tensor holds non-finite values")
    return Tensor(arr)


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else tensor(value)


# ---------------------------------------------------------------------------
# primitives


def _unbroadcast(g: Tensor, shape: tuple) -> Tensor:
    """Reduce a broadcast cotangent back to ``shape`` (sum over expanded axes)."""
    if g.shape == shape:
        return g
    extra = g.data.ndim - len(shape)
    if extra > 0:
        g = tsum(g, axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = tsum(g, axis=axes, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return Tensor(_checked(a.data + b.data, "add"), "add", (a, b))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return Tensor(_checked(a.data * b.data, "mul"), "mul", (a, b))


def div(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return Tensor(_checked(a.data / b.data, "div"), "div", (a, b))


def neg(a) -> Tensor:
    a = _lift(a)
    return Tensor(-a.data, "neg", (a,))


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return Tensor(_checked(a.data @ b.data, "matmul"), "matmul", (a, b))


def transpose(a) -> Tensor:
    # every backward pass through a weight transposes it: keep one copy (an array; a node would form a cycle)
    a = _lift(a)
    if a._transposed is None:
        a._transposed = a.data.T.copy()
    return Tensor(a._transposed, "transpose", (a,))


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(int(s) for s in shape)
    return Tensor(a.data.reshape(shape), "reshape", (a,))


def broadcast_to(a, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(int(s) for s in shape)
    return Tensor(np.broadcast_to(a.data, shape), "broadcast_to", (a,))


def relu(a) -> Tensor:
    a = _lift(a)
    mask = (a.data > 0).astype(a.data.dtype)
    return Tensor(np.maximum(a.data, 0.0), "relu", (a,), (mask,))


def absval(a) -> Tensor:
    a = _lift(a)
    sign = np.sign(a.data)
    return Tensor(np.abs(a.data), "absval", (a,), (sign,))


def exp(a) -> Tensor:
    a = _lift(a)
    return Tensor(_checked(np.exp(a.data), "exp"), "exp", (a,))


def log(a) -> Tensor:
    a = _lift(a)
    return Tensor(_checked(np.log(a.data), "log"), "log", (a,))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _lift(a)
    if axis is not None:
        if not isinstance(axis, tuple):
            axis = (int(axis),)
        axis = tuple(ax % a.data.ndim for ax in axis)
    out = np.asarray(np.sum(a.data, axis=axis, keepdims=keepdims))
    return Tensor(_checked(out, "sum"), "sum", (a,), (axis, keepdims, a.shape))


# One vector-Jacobian product per parent, so the reverse pass only
# builds the cotangents of parents that lead to a requested tensor.
_VJPS = {
    "add": (lambda t, g: _unbroadcast(g, t.parents[0].shape), lambda t, g: _unbroadcast(g, t.parents[1].shape)),
    "mul": (
        lambda t, g: _unbroadcast(mul(g, t.parents[1]), t.parents[0].shape),
        lambda t, g: _unbroadcast(mul(g, t.parents[0]), t.parents[1].shape),
    ),
    "div": (
        lambda t, g: _unbroadcast(div(g, t.parents[1]), t.parents[0].shape),
        lambda t, g: _unbroadcast(neg(div(mul(g, t), t.parents[1])), t.parents[1].shape),
    ),
    "neg": (lambda t, g: neg(g),),
    "matmul": (lambda t, g: matmul(g, transpose(t.parents[1])), lambda t, g: matmul(transpose(t.parents[0]), g)),
    "transpose": (lambda t, g: transpose(g),),
    "reshape": (lambda t, g: reshape(g, t.parents[0].shape),),
    "broadcast_to": (lambda t, g: _unbroadcast(g, t.parents[0].shape),),
    "relu": (lambda t, g: mul(g, Tensor(t.aux[0])),),
    "absval": (lambda t, g: mul(g, Tensor(t.aux[0])),),
    "exp": (lambda t, g: mul(g, t),),
    "log": (lambda t, g: div(g, t.parents[0]),),
    "sum": (lambda t, g: _sum_vjp(t, g),),
}


def _sum_vjp(t: Tensor, g: Tensor) -> Tensor:
    axis, keepdims, in_shape = t.aux
    if axis is None:
        return broadcast_to(reshape(g, (1,) * len(in_shape)), in_shape) if in_shape else g
    if not keepdims:
        kd = list(in_shape)
        for ax in axis:
            kd[ax] = 1
        g = reshape(g, tuple(kd))
    return broadcast_to(g, in_shape)


# ---------------------------------------------------------------------------
# compositions used by every model in the package


def affine(x, w, b) -> Tensor:
    """x @ w + b with b broadcast over rows."""
    return add(matmul(x, w), b)


def logsumexp(z, axis: int = -1) -> Tensor:
    z = _lift(z)
    axis = axis % z.data.ndim
    # Detached max shift: exact at every order since d(lse)/d(shift) == 0.
    shift = Tensor(np.max(z.data, axis=axis, keepdims=True))
    return add(log(tsum(exp(sub(z, shift)), axis=axis, keepdims=True)), shift)


def log_softmax(z, axis: int = -1) -> Tensor:
    return sub(z, logsumexp(z, axis=axis))


def one_hot(labels, classes: int, dtype=np.float64) -> np.ndarray:
    """(n, classes) mask holding a 1 at each example's label column."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= classes:
        raise IndexError(f"label out of range [0, {classes})")
    mask = np.zeros((labels.shape[0], classes), dtype=dtype)
    mask[np.arange(labels.shape[0]), labels] = 1.0
    return mask


def cross_entropy(logits, labels, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy; labels are integer class indices.

    reduction 'none' keeps the per-example loss vector, 'mean'/'sum'
    reduce over the batch.
    """
    logits = _lift(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (n, classes) logits, got {logits.shape}")
    mask = one_hot(labels, logits.shape[1], logits.data.dtype)
    if mask.shape != logits.shape:
        raise ShapeError(f"cross_entropy got {mask.shape[0]} labels for {logits.shape[0]} examples")
    nll = neg(tsum(mul(log_softmax(logits, axis=-1), Tensor(mask)), axis=1))
    if reduction == "none":
        return nll
    if reduction == "sum":
        return tsum(nll)
    if reduction == "mean":
        return div(tsum(nll), tensor(mask.shape[0], mask.dtype))
    raise ValueError(f"unknown reduction {reduction!r}")


def square(a) -> Tensor:
    a = _lift(a)
    return mul(a, a)


# ---------------------------------------------------------------------------
# reverse pass


def _topo(outputs) -> list:
    order, seen = [], set()
    stack = [(t, False) for t in outputs]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            order.append(node)
        else:
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
    return order


def grad(output: Tensor, wrt) -> list[Tensor]:
    """Reverse-mode gradients of a scalar ``output`` w.r.t. each tensor in ``wrt``.

    The returned tensors are graph nodes themselves, so a scalar built
    from them can be passed to ``grad`` again for second-order
    derivatives.
    """
    if output.size != 1:
        raise ShapeError(f"grad needs a scalar output, got shape {output.shape}")
    wrt = list(wrt)
    wrt_ids = {id(w) for w in wrt}

    order = _topo([output])
    # Only propagate into nodes from which a requested tensor is reachable.
    needed = set()
    for node in order:  # parents precede children
        if id(node) in wrt_ids or any(id(p) in needed for p in node.parents):
            needed.add(id(node))

    cotangent: dict[int, Tensor] = {id(output): Tensor(np.ones_like(output.data))}
    final: dict[int, Tensor] = {}
    for node in reversed(order):
        g = cotangent.pop(id(node), None)
        if g is None:
            continue
        if id(node) in wrt_ids:
            final[id(node)] = g
        if not node.parents or not any(id(p) in needed for p in node.parents):
            continue
        for parent, vjp in zip(node.parents, _VJPS[node.op]):
            if id(parent) not in needed:
                continue
            pg = vjp(node, g)
            prev = cotangent.get(id(parent))
            cotangent[id(parent)] = pg if prev is None else add(prev, pg)

    return [final[id(w)] if id(w) in final else Tensor(np.zeros_like(w.data)) for w in wrt]

