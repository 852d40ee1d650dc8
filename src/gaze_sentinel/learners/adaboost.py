"""AdaBoost over depth-1 decision stumps with SAMME weight updates.

Boosting stops early when a round's weighted error reaches 0.5 (no usable
stump left) or hits 0 (a perfect stump, kept with unit weight).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .data import check_features


@dataclass
class AdaParams:
    """One stump per round: its arrays are 1-D and of equal length, its
    features lie in [0, n_features), its low and high values are classes 0
    or 1 and its alphas are above 0; construction raises ValueError
    otherwise."""

    feature: np.ndarray
    threshold: np.ndarray
    low_value: np.ndarray  # class predicted when x[feature] < threshold
    high_value: np.ndarray
    alpha: np.ndarray
    n_features: int = 0

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.low_value = np.asarray(self.low_value, dtype=np.int64)
        self.high_value = np.asarray(self.high_value, dtype=np.int64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.n_features = operator.index(self.n_features)
        shapes = [a.shape for a in (self.feature, self.threshold, self.low_value,
                                    self.high_value, self.alpha)]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(f"ada arrays must be 1-D and of equal length, got shapes {shapes}")
        check_features("ada", self.feature, self.n_features)
        if not np.isin([self.low_value, self.high_value], (0, 1)).all():
            raise ValueError("ada low and high values must be classes 0 or 1")
        if not (self.alpha > 0).all():
            raise ValueError("ada alphas must be above 0")


def _presort(X: np.ndarray, y: np.ndarray):
    """X's stable column argsort, X and y and 1 - y in that order, and the
    mask of sorted positions whose next value ties. X is the same in every
    round, so a fit computes these once."""
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    return order, xs, ys, 1 - ys, xs[1:] <= xs[:-1]


def _fit_stump(presorted, w: np.ndarray):
    """Minimum weighted-error stump over all features and both polarities,
    from ``_presort``'s arrays and the row weights ``w``.

    Returns (feature, threshold, low_class, high_class, error) or None when
    every feature is constant.
    """
    order, xs, ys, not_ys, invalid = presorted
    d = xs.shape[1]
    ws = w[order]
    w_pos = np.cumsum(ws * ys, axis=0)
    w_neg = np.cumsum(ws * not_ys, axis=0)
    total_pos = w_pos[-1]
    total_neg = w_neg[-1]

    # Polarity A: predict 1 below the threshold, 0 at or above it.
    err_a = w_neg[:-1] + (total_pos[None, :] - w_pos[:-1])
    # Polarity B: predict 0 below the threshold, 1 at or above it.
    err_b = w_pos[:-1] + (total_neg[None, :] - w_neg[:-1])
    err_a = np.where(invalid, np.inf, err_a)
    err_b = np.where(invalid, np.inf, err_b)

    stacked = np.stack([err_a, err_b])
    flat = int(np.argmin(stacked))
    polarity, rest = divmod(flat, err_a.size)
    i, j = divmod(rest, d)
    best = stacked[polarity].flat[rest]
    if not np.isfinite(best):
        return None
    threshold = 0.5 * (xs[i, j] + xs[i + 1, j])
    low, high = (1, 0) if polarity == 0 else (0, 1)
    return j, float(threshold), low, high, float(best)


def fit_ada(X: np.ndarray, y: np.ndarray, rounds: int) -> AdaParams:
    n, d = X.shape
    presorted = _presort(X, y)
    w = np.full(n, 1.0 / n)
    feats, thrs, lows, highs, alphas = [], [], [], [], []
    for _ in range(rounds):
        stump = _fit_stump(presorted, w)
        if stump is None:
            break
        f, thr, low, high, _ = stump
        pred = np.where(X[:, f] < thr, low, high)
        miss = pred != y
        err = float(w[miss].sum())
        if err >= 0.5 - 1e-12:
            break
        if err < 1e-12:
            feats.append(f), thrs.append(thr), lows.append(low), highs.append(high)
            alphas.append(1.0)
            break
        alpha = float(np.log((1.0 - err) / err))
        feats.append(f), thrs.append(thr), lows.append(low), highs.append(high)
        alphas.append(alpha)
        w = w * np.exp(alpha * miss)
        w /= w.sum()
    return AdaParams(
        feature=np.array(feats, dtype=np.int64),
        threshold=np.array(thrs, dtype=np.float64),
        low_value=np.array(lows, dtype=np.int64),
        high_value=np.array(highs, dtype=np.int64),
        alpha=np.array(alphas, dtype=np.float64),
        n_features=d,
    )


def predict_ada(params: AdaParams, X: np.ndarray) -> np.ndarray:
    """Weighted vote margin in [-1, 1]; 0 when no stumps survived."""
    if params.alpha.size == 0:
        return np.zeros(X.shape[0], dtype=np.float64)
    margin = np.zeros(X.shape[0], dtype=np.float64)
    for f, thr, low, high, a in zip(
        params.feature, params.threshold, params.low_value, params.high_value, params.alpha
    ):
        pred = np.where(X[:, f] < thr, low, high)
        margin += a * (2.0 * pred - 1.0)
    return margin / params.alpha.sum()
