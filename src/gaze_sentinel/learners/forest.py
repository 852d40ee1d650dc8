"""Bagged CART forest: Gini splits over random feature subsets, unlimited
depth, bootstrap per tree, majority-vote aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import FeatureArityError

_LEAF = -1


@dataclass
class TreeNodes:
    """Flat array representation of one binary tree.

    ``feature`` is -1 at leaves; ``value`` holds the leaf prediction. Rows
    route left when x[feature] < threshold. An internal node's children come
    after it (``i < left[i], right[i] < len(feature)``); ``pack_trees``
    refuses a tree that breaks this.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return pack_trees([self], X.shape[1]).leaf_values(X)[0]


@dataclass(frozen=True)
class PackedTrees:
    """Every tree of an ensemble in one set of flat arrays.

    Node arrays are concatenated, child indices offset by their tree's root.
    ``child[2 * i + goes_left]`` is node i's next node; a leaf points to
    itself both ways and reads feature 0, so ``depth`` steps (the longest
    root-to-leaf path of any tree) bring every (tree, row) pair to its leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int
    n_features: int

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_rows) leaf value of each row in each tree."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise FeatureArityError(
                f"expected {self.n_features} features, got shape {X.shape}")
        n = X.shape[0]
        flat = X.ravel()
        row_base = np.tile(np.arange(n, dtype=np.int64) * self.n_features,
                           self.roots.shape[0])
        idx = np.repeat(self.roots, n)
        for _ in range(self.depth):
            x = flat.take(row_base + self.feature.take(idx))
            idx = self.child.take(2 * idx + (x < self.threshold.take(idx)))
        return self.value.take(idx).reshape(self.roots.shape[0], n)


def pack_trees(trees: list, n_features: int) -> PackedTrees:
    """Validate ``trees`` and pack them for one walk; raises ValueError on a
    tree whose arrays differ in length, whose child indices are out of range
    or point backward, or whose features lie outside [0, n_features)."""
    for k, tree in enumerate(trees):
        shapes = [a.shape for a in (tree.feature, tree.threshold, tree.left,
                                    tree.right, tree.value)]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1 or shapes[0][0] == 0:
            raise ValueError(f"tree {k}: node arrays must be 1-D, non-empty and "
                             f"of equal length, got shapes {shapes}")
    if not trees:
        empty = np.zeros(0, dtype=np.int64)
        return PackedTrees(empty, np.zeros(0), empty, np.zeros(0), empty, 0, n_features)
    sizes = np.array([t.feature.shape[0] for t in trees], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes
    offset = np.repeat(roots, sizes)
    feature = np.concatenate([t.feature for t in trees])
    left = np.concatenate([t.left for t in trees]) + offset
    right = np.concatenate([t.right for t in trees]) + offset
    nodes = np.arange(feature.shape[0], dtype=np.int64)
    internal = feature != _LEAF
    end = offset + np.repeat(sizes, sizes)
    checks = (("left child", left - offset, (left <= nodes) | (left >= end)),
              ("right child", right - offset, (right <= nodes) | (right >= end)),
              ("feature", feature, (feature < 0) | (feature >= n_features)))
    for what, column, out in checks:
        bad = np.flatnonzero(internal & out)
        if bad.size:
            i = bad[0]
            k = int(np.searchsorted(roots, i, side="right")) - 1
            node = i - roots[k]
            allowed = (f"[0, {n_features})" if what == "feature"
                       else f"({node}, {sizes[k]})")
            raise ValueError(f"tree {k}: node {node} has {what} {column[i]}, "
                             f"outside {allowed}")
    child = np.stack([np.where(internal, right, nodes),
                      np.where(internal, left, nodes)], axis=1).ravel()
    # Children point forward, so the frontier's smallest index grows every
    # level and the loop ends within the longest root-to-leaf path.
    depth = 0
    frontier = roots[internal[roots]]
    while frontier.size:
        depth += 1
        frontier = np.unique(np.concatenate([left[frontier], right[frontier]]))
        frontier = frontier[internal[frontier]]
    return PackedTrees(
        feature=np.where(internal, feature, 0),
        threshold=np.concatenate([t.threshold for t in trees]),
        child=child,
        value=np.concatenate([t.value for t in trees]),
        roots=roots,
        depth=depth,
        n_features=n_features,
    )


@dataclass
class ForestParams:
    trees: list = field(default_factory=list)
    n_features: int = 0
    packed: PackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.packed = pack_trees(self.trees, self.n_features)
        # predict_forest sums 0/1 votes, which is exact in any order.
        if not np.isin(self.packed.value, (0.0, 1.0)).all():
            raise ValueError("forest leaf values must be 0 or 1 votes")


def _gini_split(X: np.ndarray, y: np.ndarray, cols: np.ndarray):
    """Best (feature, threshold) over candidate columns, or None.

    Vectorised scan of every midpoint between distinct consecutive sorted
    values; ties resolve to the first minimum in scan order.
    """
    m = y.shape[0]
    sub = X[:, cols]
    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    ys = y[order]
    pos = np.cumsum(ys, axis=0, dtype=np.float64)
    total_pos = pos[-1]

    n_left = np.arange(1, m, dtype=np.float64)[:, None]
    pos_left = pos[:-1]
    n_right = m - n_left
    pos_right = total_pos[None, :] - pos_left
    pl = pos_left / n_left
    pr = pos_right / n_right
    cost = (n_left * (1.0 - pl * pl - (1.0 - pl) ** 2)
            + n_right * (1.0 - pr * pr - (1.0 - pr) ** 2)) / m
    cost[xs[1:] <= xs[:-1]] = np.inf

    flat = int(np.argmin(cost))
    i, j = divmod(flat, cost.shape[1])
    best = cost[i, j]
    if not np.isfinite(best):
        return None
    threshold = 0.5 * (xs[i, j] + xs[i + 1, j])
    return int(cols[j]), float(threshold), float(best)


def _node_impurity(y: np.ndarray) -> float:
    p = float(np.mean(y))
    return 1.0 - p * p - (1.0 - p) ** 2


def _majority(y: np.ndarray) -> float:
    # Exact tie breaks toward class 0.
    return 1.0 if 2 * int(y.sum()) > y.shape[0] else 0.0


def grow_tree(X: np.ndarray, node) -> TreeNodes:
    """A binary tree over the rows of ``X``, grown depth first, left subtree
    first. ``node(rows, depth)`` gives the split (feature, threshold) of the
    node holding ``rows``, or its leaf value."""
    nodes = [[_LEAF, 0.0, 0, 0, 0.0]]  # feature, threshold, left, right, value
    stack = [(np.arange(X.shape[0]), 0, 0)]
    while stack:
        rows, slot, depth = stack.pop()
        split = node(rows, depth)
        if not isinstance(split, tuple):
            nodes[slot][4] = split
            continue
        f, thr = split
        goes_left = X[rows, f] < thr
        nodes[slot][:4] = [f, thr, len(nodes), len(nodes) + 1]
        stack.append((rows[~goes_left], len(nodes) + 1, depth + 1))
        stack.append((rows[goes_left], len(nodes), depth + 1))
        nodes += [[_LEAF, 0.0, 0, 0, 0.0], [_LEAF, 0.0, 0, 0, 0.0]]
    feature, threshold, left, right, value = zip(*nodes)
    return TreeNodes(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=np.float64),
    )


def grow_cart(X: np.ndarray, y: np.ndarray, rng: np.random.Generator,
              max_features: int) -> TreeNodes:
    def node(rows, depth):
        ys = y[rows]
        pos = int(ys.sum())
        if pos == 0 or pos == rows.shape[0] or rows.shape[0] < 2:
            return _majority(ys)
        cols = rng.permutation(X.shape[1])[:max_features]
        split = _gini_split(X[rows], ys, cols)
        if split is None or split[2] >= _node_impurity(ys) - 1e-12:
            return _majority(ys)
        return split[:2]

    return grow_tree(X, node)


def fit_forest(X: np.ndarray, y: np.ndarray, n_trees: int, seed: int) -> ForestParams:
    n, d = X.shape
    max_features = min(d, math.ceil(math.sqrt(d)))
    children = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for child in children:
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n)
        trees.append(grow_cart(X[boot], y[boot], rng, max_features))
    return ForestParams(trees=trees, n_features=d)


def predict_forest(params: ForestParams, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting class 1, in [0, 1]."""
    votes = params.packed.leaf_values(X).sum(axis=0)
    return votes / max(len(params.trees), 1)
