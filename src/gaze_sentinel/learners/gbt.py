"""Gradient-boosted trees on logistic loss with Newton leaf values.

Two tree shapes share the boosting loop: a greedy depth-limited variant
(independent splits per node) and an oblivious variant where every node of a
level shares one (feature, threshold) pair, giving 2^depth leaves. Leaf
values are -G / (H + lambda); splits are kept only when their second-order
gain is positive, which keeps training loss non-increasing at the shrinkage
rates used here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .forest import PackedTrees, TreeNodes, _LEAF, pack_trees


@dataclass
class ObliviousTree:
    features: np.ndarray  # one feature index per level
    thresholds: np.ndarray
    leaf_values: np.ndarray  # 2^levels; level 0 is the most significant bit

    def apply(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int64)
        for f, thr in zip(self.features, self.thresholds):
            idx = 2 * idx + (X[:, f] >= thr)
        return self.leaf_values[idx]


@dataclass
class GbtParams:
    """Boosted trees: ``TreeNodes`` (gbt-a) or ``ObliviousTree`` (gbt-b)."""

    trees: list = field(default_factory=list)
    learning_rate: float = 0.1
    n_features: int = 0
    packed: Optional[PackedTrees] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Oblivious trees already route a whole level in one step.
        self.packed = (pack_trees(self.trees, self.n_features)
                       if all(isinstance(t, TreeNodes) for t in self.trees) else None)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logloss(F: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, F) - y * F))


def _newton_split(X: np.ndarray, g: np.ndarray, h: np.ndarray, lam: float):
    """Best split by second-order gain over all features, or None."""
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    GL = np.cumsum(g[order], axis=0)
    HL = np.cumsum(h[order], axis=0)
    G, H = GL[-1], HL[-1]
    gl, hl = GL[:-1], HL[:-1]
    gr, hr = G[None, :] - gl, H[None, :] - hl
    gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam)
                  - (G * G / (H + lam))[None, :])
    gain[xs[1:] <= xs[:-1]] = -np.inf
    flat = int(np.argmax(gain))
    i, j = divmod(flat, gain.shape[1])
    best = gain[i, j]
    if not np.isfinite(best) or best <= 1e-12:
        return None
    return int(j), 0.5 * float(xs[i, j] + xs[i + 1, j]), float(best)


def _grow_newton(X: np.ndarray, g: np.ndarray, h: np.ndarray,
                 max_depth: int, lam: float) -> TreeNodes:
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(0)
        right.append(0)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(np.arange(X.shape[0]), root, 0)]
    while stack:
        rows, slot, depth = stack.pop()
        gs, hs = g[rows], h[rows]
        split = _newton_split(X[rows], gs, hs, lam) if (
            depth < max_depth and rows.shape[0] >= 2) else None
        if split is None:
            value[slot] = float(-gs.sum() / (hs.sum() + lam))
            continue
        f, thr, _ = split
        goes_left = X[rows, f] < thr
        feature[slot] = f
        threshold[slot] = thr
        l_slot, r_slot = new_node(), new_node()
        left[slot], right[slot] = l_slot, r_slot
        stack.append((rows[~goes_left], r_slot, depth + 1))
        stack.append((rows[goes_left], l_slot, depth + 1))

    return TreeNodes(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )


def fit_gbt(X: np.ndarray, y: np.ndarray, rounds: int, learning_rate: float,
            max_depth: int, lam: float = 1.0):
    """Greedy-tree booster; returns (params, per-round training loss)."""
    y = y.astype(np.float64)
    F = np.zeros(X.shape[0], dtype=np.float64)
    losses = [_logloss(F, y)]
    trees = []
    for _ in range(rounds):
        p = _sigmoid(F)
        g = p - y
        h = p * (1.0 - p)
        tree = _grow_newton(X, g, h, max_depth, lam)
        trees.append(tree)
        F += learning_rate * tree.apply(X)
        losses.append(_logloss(F, y))
    params = GbtParams(trees=trees, learning_rate=learning_rate, n_features=X.shape[1])
    return params, losses


def _oblivious_level(codes, n_bins, g, h, leaf, n_leaves, lam):
    """Best shared (feature, bin) for one level; returns (f, bin, gain)."""
    best = None
    for j, code in enumerate(codes):
        bins = n_bins[j]
        if bins < 2:
            continue
        flat = leaf * bins + code
        Gh = np.bincount(flat, weights=g, minlength=n_leaves * bins).reshape(n_leaves, bins)
        Hh = np.bincount(flat, weights=h, minlength=n_leaves * bins).reshape(n_leaves, bins)
        GL = np.cumsum(Gh, axis=1)[:, :-1]
        HL = np.cumsum(Hh, axis=1)[:, :-1]
        Gt = Gh.sum(axis=1, keepdims=True)
        Ht = Hh.sum(axis=1, keepdims=True)
        GR, HR = Gt - GL, Ht - HL
        gain = (0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam)
                       - Gt * Gt / (Ht + lam))).sum(axis=0)
        b = int(np.argmax(gain))
        if best is None or gain[b] > best[2]:
            best = (j, b, float(gain[b]))
    return best


def fit_oblivious_gbt(X: np.ndarray, y: np.ndarray, rounds: int,
                      learning_rate: float, depth: int, lam: float = 1.0,
                      max_bins: int = 64):
    """Oblivious-tree booster; returns (params, per-round training loss).

    Features are quantized once into at most ``max_bins`` border values
    (exact distinct values when there are few enough); candidate thresholds
    are midpoints between a border and the next observed value above it,
    evaluated through per-leaf histograms.
    """
    y = y.astype(np.float64)
    n, d = X.shape
    codes, n_bins, midpoints = [], [], []
    for j in range(d):
        uniq = np.unique(X[:, j])
        if uniq.size <= max_bins:
            borders = uniq
        else:
            pos = np.unique(np.linspace(0, uniq.size - 1, max_bins).round().astype(int))
            borders = uniq[pos]
        # bin b holds values in (borders[b-1], borders[b]]
        codes.append(np.searchsorted(borders, X[:, j], side="left").astype(np.int64))
        n_bins.append(borders.size)
        next_above = uniq[np.searchsorted(uniq, borders[:-1], side="right")]
        midpoints.append(0.5 * (borders[:-1] + next_above))

    F = np.zeros(n, dtype=np.float64)
    losses = [_logloss(F, y)]
    trees = []
    for _ in range(rounds):
        p = _sigmoid(F)
        g = p - y
        h = p * (1.0 - p)
        leaf = np.zeros(n, dtype=np.int64)
        n_leaves = 1
        feats, thrs = [], []
        for _level in range(depth):
            pick = _oblivious_level(codes, n_bins, g, h, leaf, n_leaves, lam)
            if pick is None or pick[2] <= 1e-12:
                break
            j, b, _ = pick
            feats.append(j)
            thrs.append(float(midpoints[j][b]))
            leaf = 2 * leaf + (codes[j] > b)
            n_leaves *= 2
        Gs = np.bincount(leaf, weights=g, minlength=n_leaves)
        Hs = np.bincount(leaf, weights=h, minlength=n_leaves)
        values = -Gs / (Hs + lam)
        tree = ObliviousTree(
            features=np.array(feats, dtype=np.int64),
            thresholds=np.array(thrs, dtype=np.float64),
            leaf_values=values,
        )
        trees.append(tree)
        F += learning_rate * values[leaf]
        losses.append(_logloss(F, y))
    params = GbtParams(trees=trees, learning_rate=learning_rate, n_features=d)
    return params, losses


def predict_gbt(params: GbtParams, X: np.ndarray) -> np.ndarray:
    """Logistic probability of class 1."""
    if params.packed is not None:
        leaves = params.packed.leaf_values(X)
    else:
        leaves = [tree.apply(X) for tree in params.trees]
    F = np.zeros(X.shape[0], dtype=np.float64)
    for leaf in leaves:
        F += params.learning_rate * leaf
    return _sigmoid(F)
