"""Gradient-boosted trees on logistic loss with Newton leaf values.

Two tree shapes share the boosting loop (``_boost``): a greedy
depth-limited variant (independent splits per node) and an oblivious variant
where every node of a level shares one (feature, threshold) pair, giving
2^depth leaves. Leaf values are -G / (H + LAMBDA); splits are kept only when
their second-order gain is positive, which keeps training loss
non-increasing at the shrinkage rates used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import fields
from .trees import DfsTree, ObliviousTree, TreeNodes

LAMBDA = 1.0  # L2 penalty on leaf values
MAX_BINS = 64  # gbt-b's candidate thresholds per feature


@dataclass
class GbtParams:
    """Boosted trees: one ``TreeNodes`` (gbt-a) or ``ObliviousTree`` (gbt-b)
    table over ``n_features`` features, or construction raises ValueError.
    ``nodes`` is the ``TreeNodes`` table the walk reads."""

    trees: object
    learning_rate: float = 0.1
    n_features: int = 0
    nodes: TreeNodes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.learning_rate = fields.read(self.learning_rate, "learning_rate", "a number > 0")
        self.n_features = fields.read(self.n_features, "n_features", "an integer of at least 0")
        self.nodes = self.trees.nodes(self.n_features)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logloss(F: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, F) - y * F))


def presort(X: np.ndarray):
    """X's rows stably sorted by each feature, as (features, rows) arrays of
    row indices and their values. X is the same in every round, so a fit
    sorts it once."""
    order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
    return order, np.take_along_axis(X.T, order, axis=1)


def best_cut(order, xs, stats, score):
    """The first best cut of one node, as (value, polarity, feature,
    threshold), or None when no value is finite.

    ``order`` and ``xs`` are the node's ``presort`` arrays, and each row of
    ``stats`` a per-row statistic, summed in each feature's sorted order.
    ``score(left, total)`` maps the (statistics, features, cuts) sums left of
    each cut and the (statistics, features, 1) totals to (polarities,
    features, cuts) values. A cut between equal values scores -inf. The
    first maximum is taken in (polarity, left size, feature) order, and the
    threshold is the midpoint of the values either side of it.
    """
    # take() gathers several times faster here than stats[:, order] does
    sums = np.add.accumulate(stats.take(order, axis=1), axis=2)
    value = score(sums[:, :, :-1], sums[:, :, -1:])
    np.copyto(value, -np.inf, where=xs[:, 1:] <= xs[:, :-1])
    p, rest = divmod(int(value.swapaxes(1, 2).argmax()), value[0].size)
    i, j = divmod(rest, value.shape[1])
    best = float(value[p, j, i])
    if not math.isfinite(best):
        return None
    return best, p, j, 0.5 * float(xs[j, i] + xs[j, i + 1])


def _newton_gain(left, total):
    """Second-order gain of each cut from the sums of [g, h], one polarity."""
    gl, hl, G, H = left[:1], left[1:], total[:1], total[1:]
    gr, hr = G - gl, H - hl
    return 0.5 * (gl * gl / (hl + LAMBDA) + gr * gr / (hr + LAMBDA) - G * G / (H + LAMBDA))


def _grow_presorted(X, order, xs, g, h, max_depth):
    """One Newton tree over all rows, grown depth first from X's presorted
    ``order`` and values ``xs`` (both (features, rows)); returns the tree's
    record and each row's leaf value.

    A node carries its rows in ascending order, and below the last split
    level its per-feature sorted rows and values, which a split partitions
    stably; leaf values sum g and h in row order.
    """
    n = X.shape[0]
    gh = np.array([g, h])
    leaf_value = np.empty(n)
    tree = DfsTree((np.arange(n), order, xs))
    while (popped := tree.pop()) is not None:
        (rows, order, xs), slot, depth = popped
        cut = None
        if depth < max_depth and rows.shape[0] >= 2:
            cut = best_cut(order, xs, gh, _newton_gain)
        if cut is None or cut[0] <= 1e-12:
            value = float(-g[rows].sum() / (h[rows].sum() + LAMBDA))
            tree.leaf(slot, value)
            leaf_value[rows] = value
            continue
        _, _, f, thr = cut
        goes_left = X[rows, f] < thr
        left, right = rows[goes_left], rows[~goes_left]
        if depth + 1 < max_depth:
            mark = np.zeros(n, dtype=bool)
            mark[left] = True
            on_left = mark[order]
            d = order.shape[0]
            left = (left, order[on_left].reshape(d, -1), xs[on_left].reshape(d, -1))
            right = (right, order[~on_left].reshape(d, -1), xs[~on_left].reshape(d, -1))
        else:
            left, right = (left, None, None), (right, None, None)
        tree.split(slot, depth, f, thr, left, right)
    return tree.record(), leaf_value


def _boost(X, y, rounds: int, learning_rate: float, tree_type, grow):
    """The boosting loop of both tree shapes; returns (params, per-round
    training loss). ``grow(g, h)`` fits one round's tree to the gradients
    and Hessians and returns its record, as ``tree_type.from_records``
    takes it, with each row's leaf value."""
    y = y.astype(np.float64)
    F = np.zeros(X.shape[0], dtype=np.float64)
    losses = [_logloss(F, y)]
    records = []
    for _ in range(rounds):
        p = _sigmoid(F)
        record, leaf_value = grow(p - y, p * (1.0 - p))
        records.append(record)
        F += learning_rate * leaf_value
        losses.append(_logloss(F, y))
    params = GbtParams(trees=tree_type.from_records(records), learning_rate=learning_rate,
                       n_features=X.shape[1])
    return params, losses


def fit_gbt(X: np.ndarray, y: np.ndarray, rounds: int, learning_rate: float,
            max_depth: int):
    """Greedy-tree booster; returns (params, per-round training loss)."""
    order, xs = presort(X)
    return _boost(X, y, rounds, learning_rate, TreeNodes,
                  lambda g, h: _grow_presorted(X, order, xs, g, h, max_depth))


def _bin_groups(codes, n_bins) -> dict:
    """{bin count: (features, their stacked codes)} over features with at
    least two bins, the only ones a level can split."""
    feats: dict = {}
    for j, bins in enumerate(n_bins):
        if bins >= 2:
            feats.setdefault(bins, []).append(j)
    return {bins: (js, np.array([codes[j] for j in js])) for bins, js in feats.items()}


def _oblivious_level(groups, g, h, leaf, n_leaves):
    """Best shared (feature, bin) for one level; returns (f, bin, gain).

    ``groups`` maps a bin count to its features and their stacked bin codes;
    ``g`` and ``h`` hold the round's statistics tiled once per round, as
    many copies as the largest group has features. A group is scored at
    once: one bincount per statistic fills its (feature, leaf, bin)
    histograms, each bucket adding its rows in row order, and every later
    sum runs along the axis it would for one feature, so gains are
    bit-identical to scoring features one by one. The best gain wins, the
    lowest feature among equals.
    """
    n = leaf.shape[0]
    best = None
    for bins, (feats, codes) in groups.items():
        k = len(feats)
        flat = ((np.arange(k)[:, None] * n_leaves + leaf) * bins + codes).ravel()
        size = k * n_leaves * bins
        Gh = np.bincount(flat, weights=g[:k * n], minlength=size).reshape(k, n_leaves, bins)
        Hh = np.bincount(flat, weights=h[:k * n], minlength=size).reshape(k, n_leaves, bins)
        # The gain in place on every bin. The last bin (no split) is dropped
        # before the leaf sum, which then runs in the same order as on a
        # fresh (k, leaves, bins - 1) array: pairwise when bins is 2.
        GL = np.cumsum(Gh, axis=2)
        HL = np.cumsum(Hh, axis=2)
        Gt = Gh.sum(axis=2, keepdims=True)
        Ht = Hh.sum(axis=2, keepdims=True)
        GR, HR = Gt - GL, Ht - HL
        np.divide(np.multiply(GL, GL, out=GL), np.add(HL, LAMBDA, out=HL), out=GL)
        np.divide(np.multiply(GR, GR, out=GR), np.add(HR, LAMBDA, out=HR), out=GR)
        np.subtract(np.add(GL, GR, out=GL), Gt * Gt / (Ht + LAMBDA), out=GL)
        gain = np.multiply(0.5, GL, out=GL)[:, :, :-1].sum(axis=1)
        b = gain.argmax(axis=1)
        top = gain[np.arange(k), b]
        for j, bj, gj in zip(feats, b.tolist(), top.tolist()):
            if best is None or gj > best[2] or (gj == best[2] and j < best[0]):
                best = (j, bj, gj)
    return best


def _quantize(X: np.ndarray):
    """Per feature: each row's bin code, the bin count (at most
    ``MAX_BINS``), and the candidate threshold after each bin but the last."""
    codes, n_bins, midpoints = [], [], []
    for j in range(X.shape[1]):
        uniq = np.unique(X[:, j])
        if uniq.size <= MAX_BINS:
            borders = uniq
        else:
            pos = np.unique(np.linspace(0, uniq.size - 1, MAX_BINS).round().astype(int))
            borders = uniq[pos]
        # bin b holds values in (borders[b-1], borders[b]]
        codes.append(np.searchsorted(borders, X[:, j], side="left").astype(np.int64))
        n_bins.append(borders.size)
        next_above = uniq[np.searchsorted(uniq, borders[:-1], side="right")]
        midpoints.append(0.5 * (borders[:-1] + next_above))
    return codes, n_bins, midpoints


def _grow_oblivious(codes, midpoints, groups, widest, g, h, depth):
    """One oblivious tree of at most ``depth`` levels; returns its record
    and each row's leaf value."""
    gt, ht = np.tile(g, widest), np.tile(h, widest)
    leaf = np.zeros(g.shape[0], dtype=np.int64)
    n_leaves = 1
    feats, thrs = [], []
    for _level in range(depth):
        # An empty leaf adds +0.0 to every gain, so only occupied ones are
        # scored, in leaf order.
        rank = np.cumsum(np.bincount(leaf, minlength=n_leaves) > 0)
        pick = _oblivious_level(groups, gt, ht, rank[leaf] - 1, int(rank[-1]))
        if pick is None or pick[2] <= 1e-12:
            break
        j, b, _ = pick
        feats.append(j)
        thrs.append(float(midpoints[j][b]))
        leaf = 2 * leaf + (codes[j] > b)
        n_leaves *= 2
    Gs = np.bincount(leaf, weights=g, minlength=n_leaves)
    Hs = np.bincount(leaf, weights=h, minlength=n_leaves)
    values = -Gs / (Hs + LAMBDA)
    record = {"features": feats, "thresholds": thrs, "leaf_values": values.tolist()}
    return record, values[leaf]


def fit_oblivious_gbt(X: np.ndarray, y: np.ndarray, rounds: int,
                      learning_rate: float, depth: int):
    """Oblivious-tree booster; returns (params, per-round training loss).

    Features are quantized once into at most ``MAX_BINS`` border values
    (exact distinct values when there are few enough); candidate thresholds
    are midpoints between a border and the next observed value above it,
    evaluated through per-leaf histograms.
    """
    codes, n_bins, midpoints = _quantize(X)
    groups = _bin_groups(codes, n_bins)
    widest = max((len(feats) for feats, _ in groups.values()), default=0)
    return _boost(X, y, rounds, learning_rate, ObliviousTree,
                  lambda g, h: _grow_oblivious(codes, midpoints, groups, widest, g, h, depth))


def predict_gbt(params: GbtParams, X: np.ndarray) -> np.ndarray:
    """Logistic probability of class 1."""
    F = np.zeros(X.shape[0], dtype=np.float64)
    for leaf in params.nodes.leaf_values(X):
        F += params.learning_rate * leaf
    return _sigmoid(F)
