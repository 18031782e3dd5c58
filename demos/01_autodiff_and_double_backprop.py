"""Tour of the autodiff engine: gradients and double backprop.

Run:  python demos/01_autodiff_and_double_backprop.py
"""

import numpy as np

from mlx import autodiff as ad

print("== first-order gradients ==")
x = ad.tensor([[1.0, 1.0]])
w = ad.tensor([[3.0], [-2.0]])
out = ad.matmul(x, w)
(gx,) = ad.grad(out, [x])
print("f(x) = w.x with w=[3,-2]; df/dx =", gx.data.ravel())

print("\n== a relu MLP against finite differences ==")
rng = np.random.default_rng(0)
W1, b1 = ad.tensor(rng.normal(size=(4, 8))), ad.tensor(np.zeros(8))
W2, b2 = ad.tensor(rng.normal(size=(8, 3))), ad.tensor(np.zeros(3))
xv = rng.normal(size=(5, 4))
yv = rng.integers(0, 3, size=5)

def loss_tensor(w1):
    h = ad.relu(ad.affine(ad.tensor(xv), w1, b1))
    return ad.cross_entropy(ad.affine(h, W2, b2), yv)

loss = loss_tensor(W1)
(gW1,) = ad.grad(loss, [W1])
eps = 1e-6
probe = np.zeros_like(W1.data)
probe[0, 0] = eps
fd = (loss_tensor(ad.tensor(W1.data + probe)).item() - loss_tensor(ad.tensor(W1.data - probe)).item()) / (2 * eps)
print(f"analytic dL/dW1[0,0] = {gW1.data[0,0]:.10f}")
print(f"finite difference    = {fd:.10f}")

print("\n== double backprop: differentiate a gradient penalty ==")
# penalty R = |df/dx|^2 for f = sum of log-probabilities; dR/dtheta needs
# a second pass through the backward graph
xt = ad.tensor(xv)
h = ad.relu(ad.affine(xt, W1, b1))
score = ad.tsum(ad.log_softmax(ad.affine(h, W2, b2), axis=-1))
(gx,) = ad.grad(score, [xt])
penalty = ad.tsum(ad.square(gx))
(gW1_pen,) = ad.grad(penalty, [W1])
print("dR/dW1 has shape", gW1_pen.data.shape, "and norm", float(np.linalg.norm(gW1_pen.data)))
