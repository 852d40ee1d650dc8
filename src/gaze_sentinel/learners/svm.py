"""Linear SVM trained by Pegasos-style stochastic subgradient descent on
hinge loss with L2 regularization.

The bias is folded into the weight vector through a constant feature, so the
regularizer is lambda/2 * ||(w, b)||^2 with lambda = 1 / (C * n). Steps use
the 1/(lambda * t) schedule with the classic projection onto the
1/sqrt(lambda) ball; the visiting order is a seeded permutation per epoch,
making training a deterministic function of (data, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class SvmParams:
    w: np.ndarray
    b: float
    n_features: int = 0


def fit_svm(X: np.ndarray, y: np.ndarray, c: float = 1.0,
            epochs: int = 100, seed: int = 0) -> SvmParams:
    n, d = X.shape
    s = 2.0 * y.astype(np.float64) - 1.0
    lam = 1.0 / (c * n)
    radius = 1.0 / np.sqrt(lam)
    Xa = np.hstack([X, np.ones((n, 1))])
    w = np.zeros(d + 1, dtype=np.float64)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = 1
    for _ in range(epochs):
        for i in rng.permutation(n):
            eta = 1.0 / (lam * t)
            row = Xa[i]
            margin = s[i] * float(row @ w)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * s[i] * row
            norm = math.sqrt(float(w @ w))  # np.linalg.norm(w), without its overhead
            if norm > radius:
                w *= radius / norm
            t += 1
    return SvmParams(w=w[:d].copy(), b=float(w[d]), n_features=d)


def predict_svm(params: SvmParams, X: np.ndarray) -> np.ndarray:
    """Signed margin w.x + b."""
    return X @ params.w + params.b
