"""Linear SVM trained by Pegasos-style stochastic subgradient descent on
hinge loss with L2 regularization.

The bias is folded into the weight vector through a constant feature, so the
regularizer is lambda/2 * ||(w, b)||^2 with lambda = 1 / (C * n). Steps use
the 1/(lambda * t) schedule with the classic projection onto the
1/sqrt(lambda) ball; the visiting order is a seeded permutation per epoch,
making training a deterministic function of (data, seed). Every dot product
and norm, in fit and predict, is ``_row_dot``: a numpy sum along one row of
products, in an order the row length alone fixes. No BLAS kernel is called,
so a model does not depend on the CPU, nor a margin on the rows beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import fields


@dataclass
class SvmParams:
    """Weights of shape (n_features,) and a bias; construction raises
    ValueError otherwise."""

    w: np.ndarray
    b: float
    n_features: int = 0

    def __post_init__(self):
        self.w = fields.column(self.w, np.float64, "SvmParams.w")
        self.b = fields.read(self.b, "SvmParams.b", "a finite number")
        self.n_features = fields.read(self.n_features, "n_features", "an integer of at least 0")
        if self.w.shape != (self.n_features,):
            raise ValueError(f"svm w has shape {self.w.shape}, "
                             f"expected ({self.n_features},)")


def _row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.add.reduce(A * B, axis=-1)


def fit_svm(X: np.ndarray, y: np.ndarray, c: float = 1.0,
            epochs: int = 100, seed: int = 0) -> list:
    """One ``SvmParams`` per dataset of X (datasets, n, d) and y (datasets,
    n), fitted in lockstep: they share n and the seed, so every step size
    and permutation, and each equals its fit alone, bit for bit."""
    k, n, d = X.shape
    lam = 1.0 / (c * n)
    radius = 1.0 / np.sqrt(lam)
    # Row i of every dataset, times its class sign (+-1: exact), in one block.
    signed = (2.0 * y - 1.0)[:, :, None] * np.concatenate([X, np.ones((k, n, 1))], axis=2)
    signed = signed.transpose(1, 0, 2).copy()
    W = np.zeros((k, d + 1))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = 1
    for _ in range(epochs):
        for i in rng.permutation(n):
            eta = 1.0 / (lam * t)
            hinge = _row_dot(signed[i], W) < 1.0
            W *= 1.0 - eta * lam
            np.add(W, eta * signed[i], out=W, where=hinge[:, None])
            norm = np.sqrt(_row_dot(W, W))
            over = norm > radius
            if over.any():
                W *= np.divide(radius, norm, out=np.ones(k), where=over)[:, None]
            t += 1
    return [SvmParams(w=w[:d].copy(), b=float(w[d]), n_features=d) for w in W]


def predict_svm(params: SvmParams, X: np.ndarray) -> np.ndarray:
    """Signed margin w.x + b, in the order ``fit_svm`` sums it."""
    return _row_dot(np.hstack([X, np.ones((len(X), 1))]), np.append(params.w, params.b))
