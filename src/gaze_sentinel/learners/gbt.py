"""Gradient-boosted trees on logistic loss with Newton leaf values.

Two tree shapes share the boosting loop: a greedy depth-limited variant
(independent splits per node) and an oblivious variant where every node of a
level shares one (feature, threshold) pair, giving 2^depth leaves. Leaf
values are -G / (H + lambda); splits are kept only when their second-order
gain is positive, which keeps training loss non-increasing at the shrinkage
rates used here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import check_features
from .forest import PackedTrees, TreeNodes, grow_tree, pack_trees


@dataclass
class ObliviousTree:
    """One (feature, threshold) per level and 2^levels leaf values;
    construction raises ValueError otherwise."""

    features: np.ndarray  # one feature index per level
    thresholds: np.ndarray
    leaf_values: np.ndarray  # 2^levels; level 0 is the most significant bit

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.int64)
        self.thresholds = np.asarray(self.thresholds, dtype=np.float64)
        self.leaf_values = np.asarray(self.leaf_values, dtype=np.float64)
        if self.features.ndim != 1 or self.thresholds.shape != self.features.shape:
            raise ValueError(f"oblivious tree: features {self.features.shape} and "
                             f"thresholds {self.thresholds.shape} differ in shape")
        levels = self.features.shape[0]
        if self.leaf_values.shape != (2 ** levels,):
            raise ValueError(f"oblivious tree: {self.leaf_values.shape} leaf values "
                             f"for {levels} levels, expected {2 ** levels}")

    def apply(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int64)
        for f, thr in zip(self.features, self.thresholds):
            idx = 2 * idx + (X[:, f] >= thr)
        return self.leaf_values[idx]


@dataclass
class GbtParams:
    """Boosted trees: ``TreeNodes`` (gbt-a) or ``ObliviousTree`` (gbt-b),
    their features in [0, n_features); construction raises ValueError
    otherwise."""

    trees: list = field(default_factory=list)
    learning_rate: float = 0.1
    n_features: int = 0
    packed: Optional[PackedTrees] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.learning_rate = float(self.learning_rate)
        self.n_features = operator.index(self.n_features)
        self.packed = None
        if all(isinstance(t, TreeNodes) for t in self.trees):
            self.packed = pack_trees(self.trees, self.n_features)
        else:  # oblivious trees already route a whole level in one step
            for k, tree in enumerate(self.trees):
                check_features(f"tree {k}", tree.features, self.n_features)


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
    def node(rows, depth):
        gs, hs = g[rows], h[rows]
        split = _newton_split(X[rows], gs, hs, lam) if (
            depth < max_depth and rows.shape[0] >= 2) else None
        if split is None:
            return float(-gs.sum() / (hs.sum() + lam))
        return split[:2]

    return grow_tree(X, node)


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


def _bin_groups(codes, n_bins) -> dict:
    """{bin count: (features, their stacked codes)} over features with at
    least two bins, the only ones a level can split."""
    feats: dict = {}
    for j, bins in enumerate(n_bins):
        if bins >= 2:
            feats.setdefault(bins, []).append(j)
    return {bins: (js, np.array([codes[j] for j in js])) for bins, js in feats.items()}


def _oblivious_level(groups, g, h, leaf, n_leaves, lam):
    """Best shared (feature, bin) for one level; returns (f, bin, gain).

    ``groups`` maps a bin count to its features and their stacked bin codes.
    A group is scored at once: one bincount per statistic fills its
    (feature, leaf, bin) histograms, each bucket adding its rows in row
    order, and every later sum runs along the axis it would for one
    feature, so gains are bit-identical to scoring features one by one.
    """
    picks = {}
    for bins, (feats, codes) in groups.items():
        k = len(feats)
        flat = ((np.arange(k)[:, None] * n_leaves + leaf) * bins + codes).ravel()
        size = k * n_leaves * bins
        Gh = np.bincount(flat, weights=np.tile(g, k), minlength=size).reshape(k, n_leaves, bins)
        Hh = np.bincount(flat, weights=np.tile(h, k), minlength=size).reshape(k, n_leaves, bins)
        GL = np.cumsum(Gh, axis=2)[:, :, :-1]
        HL = np.cumsum(Hh, axis=2)[:, :, :-1]
        Gt = Gh.sum(axis=2, keepdims=True)
        Ht = Hh.sum(axis=2, keepdims=True)
        GR, HR = Gt - GL, Ht - HL
        gain = (0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam)
                       - Gt * Gt / (Ht + lam))).sum(axis=1)
        for j, row in zip(feats, gain):
            b = int(np.argmax(row))
            picks[j] = (j, b, float(row[b]))
    best = None
    for j in sorted(picks):
        if best is None or picks[j][2] > best[2]:
            best = picks[j]
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

    groups = _bin_groups(codes, n_bins)
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
            pick = _oblivious_level(groups, g, h, leaf, n_leaves, lam)
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
