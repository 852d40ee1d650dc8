"""AdaBoost over depth-1 decision stumps with SAMME weight updates.

Boosting stops early when a round's weighted error reaches 0.5 (no usable
stump left) or hits 0 (a perfect stump, kept with unit weight).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import fields
from .gbt import best_cut, presort
from .trees import ObliviousTree, TreeNodes


@dataclass
class AdaParams:
    """One stump per round: its arrays are 1-D and of equal length, its
    features lie in [0, n_features), its low and high values are classes 0
    or 1 and its alphas are above 0; construction raises ValueError
    otherwise. ``nodes`` holds the stumps as one table of one-level
    oblivious trees whose leaves vote -1 or +1."""

    feature: np.ndarray
    threshold: np.ndarray
    low_value: np.ndarray  # class predicted when x[feature] < threshold
    high_value: np.ndarray
    alpha: np.ndarray
    n_features: int = 0
    nodes: TreeNodes = field(init=False, repr=False, compare=False)
    dtypes = {"feature": np.int64, "threshold": np.float64, "low_value": np.int64,
              "high_value": np.int64, "alpha": np.float64}

    def __post_init__(self):
        for name, dtype in self.dtypes.items():
            setattr(self, name, fields.column(getattr(self, name), dtype, f"AdaParams.{name}"))
        self.n_features = fields.read(self.n_features, "n_features", "an integer of at least 0")
        shapes = [getattr(self, name).shape for name in self.dtypes]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(f"ada arrays must be 1-D and of equal length, got shapes {shapes}")
        if not np.isin([self.low_value, self.high_value], (0, 1)).all():
            raise ValueError("ada low and high values must be classes 0 or 1")
        if not (self.alpha > 0).all():
            raise ValueError("ada alphas must be above 0")
        votes = np.stack([2.0 * self.low_value - 1.0, 2.0 * self.high_value - 1.0], axis=1)
        self.nodes = ObliviousTree(self.feature, self.threshold, votes.ravel(),
                                   np.ones_like(self.feature)).nodes(self.n_features)


def _negated_errors(left, total):
    """Minus each cut's weighted error from the sums of [w*y, w*(1-y)]:
    polarity A (1 below the threshold, 0 at or above it), then B (0, 1)."""
    return -(left[::-1] + (total - left))


def fit_ada(X: np.ndarray, y: np.ndarray, rounds: int) -> AdaParams:
    n, d = X.shape
    order, xs = presort(X)
    w = np.full(n, 1.0 / n)
    feats, thrs, lows, highs, alphas = [], [], [], [], []
    for _ in range(rounds):
        cut = best_cut(order, xs, np.array([w * y, w * (1 - y)]), _negated_errors)
        if cut is None:  # every feature is constant
            break
        _, polarity, f, thr = cut
        low, high = 1 - polarity, polarity
        pred = np.where(X[:, f] < thr, low, high)
        miss = pred != y
        err = float(w[miss].sum())
        if err >= 0.5 - 1e-12:
            break
        alpha = 1.0 if err < 1e-12 else float(np.log((1.0 - err) / err))
        feats.append(f), thrs.append(thr), lows.append(low), highs.append(high)
        alphas.append(alpha)
        if err < 1e-12:  # a perfect stump, kept with unit weight
            break
        w = w * np.exp(alpha * miss)
        w /= w.sum()
    return AdaParams(feats, thrs, lows, highs, alphas, n_features=d)


def predict_ada(params: AdaParams, X: np.ndarray) -> np.ndarray:
    """Weighted vote margin in [-1, 1]; 0 when no stumps survived."""
    margin = np.zeros(X.shape[0], dtype=np.float64)
    for a, vote in zip(params.alpha, params.nodes.leaf_values(X)):
        margin += a * vote
    return margin / params.alpha.sum() if params.alpha.size else margin
