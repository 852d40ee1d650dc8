"""Bagged CART forest: Gini splits over random feature subsets, unlimited
depth, bootstrap per tree, majority-vote aggregation."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from ..errors import FeatureArityError

_LEAF = -1


@dataclass
class TreeNodes:
    """Flat array representation of one binary tree.

    ``feature`` is -1 at leaves; ``value`` holds the leaf prediction. Rows
    route left when x[feature] < threshold. The arrays are 1-D, non-empty
    and of equal length, or construction raises ValueError. An internal
    node's children come after it (``i < left[i], right[i] < len(feature)``);
    ``pack_trees`` refuses a tree that breaks this.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    # Each array's dtype, which construction converts it to.
    dtypes = {"feature": np.int64, "threshold": np.float64, "left": np.int64,
              "right": np.int64, "value": np.float64}

    def __post_init__(self):
        for name, dtype in self.dtypes.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        shapes = [a.shape for a in (self.feature, self.threshold, self.left,
                                    self.right, self.value)]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1 or shapes[0][0] == 0:
            raise ValueError(f"tree node arrays must be 1-D, non-empty and of "
                             f"equal length, got shapes {shapes}")


@dataclass(frozen=True)
class PackedTrees:
    """Every tree of an ensemble in one set of flat arrays.

    Node arrays are concatenated, child indices offset by their tree's root.
    ``child[2 * i + goes_left]`` is node i's next node; a leaf points to
    itself both ways and reads feature 0, so ``depth`` steps (the longest
    root-to-leaf path of any tree) bring every (tree, row) pair to its leaf.
    ``internal`` marks the nodes that are not leaves.
    """

    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    internal: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int
    n_features: int

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_rows) leaf value of each row in each tree. After a step
        that leaves at most half the walked pairs moving, only those walk on."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise FeatureArityError(
                f"expected {self.n_features} features, got shape {X.shape}")
        n = X.shape[0]
        flat = X.ravel()
        base = np.tile(np.arange(n) * self.n_features, self.roots.shape[0])
        leaf = idx = np.repeat(self.roots, n)
        pair = np.arange(idx.shape[0])
        for _ in range(self.depth):
            x = flat.take(base + self.feature.take(idx))
            idx = self.child.take(2 * idx + (x < self.threshold.take(idx)))
            moving = self.internal.take(idx)
            if 2 * np.count_nonzero(moving) <= idx.shape[0]:
                leaf[pair] = idx
                pair, idx, base = pair[moving], idx[moving], base[moving]
        leaf[pair] = idx
        return self.value.take(leaf).reshape(self.roots.shape[0], n)


def pack_trees(trees: list, n_features: int) -> PackedTrees:
    """Validate ``trees`` and pack them for one walk; raises ValueError on a
    tree whose child indices are out of range or point backward, or whose
    features lie outside [0, n_features)."""
    if not trees:
        empty = np.zeros(0, dtype=np.int64)
        return PackedTrees(empty, np.zeros(0), empty, empty == 0, np.zeros(0), empty, 0, n_features)
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
        reached = np.zeros_like(internal)
        reached[left[frontier]] = reached[right[frontier]] = True
        frontier = np.flatnonzero(reached & internal)
    return PackedTrees(
        feature=np.where(internal, feature, 0),
        threshold=np.concatenate([t.threshold for t in trees]),
        child=child,
        internal=internal,
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
        self.n_features = operator.index(self.n_features)
        self.packed = pack_trees(self.trees, self.n_features)
        # predict_forest sums 0/1 votes, which is exact in any order.
        if not np.isin(self.packed.value, (0.0, 1.0)).all():
            raise ValueError("forest leaf values must be 0 or 1 votes")


class DfsTree:
    """Node slots of one binary tree grown depth first, left subtree first.

    ``pop()`` gives the next node to decide as (data, slot, depth), or None
    once the tree is complete; ``leaf`` or ``split`` decides it. A split
    takes its two children's slots at the end of the node list and stacks
    them, so every child comes after its parent.
    """

    def __init__(self, root):
        self._nodes = [[_LEAF, 0.0, 0, 0, 0.0]]  # feature, threshold, left, right, value
        self._stack = [(root, 0, 0)]

    def pop(self):
        return self._stack.pop() if self._stack else None

    def leaf(self, slot: int, value: float) -> None:
        self._nodes[slot][4] = value

    def split(self, slot: int, depth: int, feature: int, threshold: float,
              left, right) -> None:
        k = len(self._nodes)
        self._nodes[slot][:4] = [feature, threshold, k, k + 1]
        self._nodes += [[_LEAF, 0.0, 0, 0, 0.0], [_LEAF, 0.0, 0, 0, 0.0]]
        self._stack += [(right, k + 1, depth + 1), (left, k, depth + 1)]

    def tree(self) -> TreeNodes:
        feature, threshold, left, right, value = zip(*self._nodes)
        return TreeNodes(feature, threshold, left, right, value)


def _majority(m: int, pos: int) -> float:
    # Exact tie breaks toward class 0.
    return 1.0 if 2 * pos > m else 0.0


def _gini_search(nodes, coded, values, max_features):
    """Best Gini split of each node in ``nodes``: a (cost, feature,
    threshold) tuple, or None when its candidates are all constant on it.

    ``nodes`` holds (rows, class-1 count, candidate features) triples, and
    ``coded[f, r]`` is 2 * (row r's rank among the distinct values
    ``values[f]`` of feature f) + its class. Each (node, candidate, value
    rank) bin that holds rows gets its row and class-1 counts from one sort
    of their keys, and every bin but a segment's last is the split after
    that value. The counts are whole numbers, exact in float64, so the
    costs are the bits a per-node scan of the sorted column computes, and
    the first minimum in (left size, candidate position) order is its first
    minimum.
    """
    k_nodes, n_vals = len(nodes), values.shape[1]
    sizes = np.array([rows.shape[0] for rows, _, _ in nodes])
    cands = np.array([c for _, _, c in nodes])
    rows = np.concatenate([rows for rows, _, _ in nodes])
    span = 2 * n_vals * max_features  # the range of one node's keys
    key = coded.take(np.repeat(cands * coded.shape[1], sizes, axis=0) + rows[:, None])
    key += np.repeat(np.arange(k_nodes)[:, None] * span
                     + np.arange(0, span, 2 * n_vals).astype(key.dtype), sizes, axis=0)
    key = np.sort(key, axis=None)
    # Each (node, candidate) segment holds its node's size in keys; a bin
    # ends where the key leaves it, and a bin ending before its segment
    # does is a split.
    seg_end = np.cumsum(np.repeat(sizes, max_features))
    seg_start = seg_end - np.repeat(sizes, max_features)
    bin_end = np.append((key[1:] ^ key[:-1]) > 1, True)
    bin_end[seg_end - 1] = False
    ends = np.flatnonzero(bin_end)
    class1 = np.cumsum(key & 1, dtype=key.dtype)
    seg = key[ends] // (2 * n_vals)
    k, c = np.divmod(seg, max_features)
    m = sizes.astype(np.float64)[k]
    n_left = (ends + 1 - seg_start[seg]).astype(np.float64)
    pos_left = (class1[ends] - np.append(0, class1)[seg_start][seg]).astype(np.float64)
    n_right = m - n_left
    pos_right = np.array([pos for _, pos, _ in nodes], dtype=np.float64)[k] - pos_left
    pl = pos_left / n_left
    pr = pos_right / n_right
    cost = (n_left * (1.0 - pl * pl - (1.0 - pl) ** 2)
            + n_right * (1.0 - pr * pr - (1.0 - pr) ** 2)) / m

    # Each node's minimum cost; among equal ones, the first in (left size,
    # candidate) order.
    out = [None] * k_nodes
    found = np.flatnonzero(np.bincount(k, minlength=k_nodes))
    if not found.size:
        return out
    first = np.searchsorted(k, found)
    low = np.flatnonzero(cost == np.repeat(np.minimum.reduceat(cost, first),
                                           np.diff(np.append(first, k.shape[0]))))
    low = low[np.lexsort((c[low], n_left[low], k[low]))]
    best = low[np.append(True, k[low][1:] != k[low][:-1])]
    f = cands[k[best], c[best]]
    rank = (key[ends[best]] >> 1) % n_vals
    next_rank = (key[ends[best] + 1] >> 1) % n_vals
    threshold = 0.5 * (values[f, rank] + values[f, next_rank])
    for i, b, feat, thr in zip(found.tolist(), cost[best].tolist(), f.tolist(),
                               threshold.tolist()):
        out[i] = (b, feat, thr)
    return out


# A search holds about a hundred bytes per key at once; batches of this
# many keys cap that memory.
_BATCH_KEYS = 1 << 15


def _batches(nodes, max_features):
    """``nodes`` (as ``_gini_search`` takes them) in consecutive runs of at
    most ``_BATCH_KEYS`` keys, or of one node when it alone holds more."""
    start = keys = 0
    for i, (rows, _, _) in enumerate(nodes):
        keys += rows.shape[0] * max_features
        if keys > _BATCH_KEYS and i > start:
            yield nodes[start:i]
            start, keys = i, rows.shape[0] * max_features
    yield nodes[start:]


def _split_all(X, y, splitting) -> None:
    """Split each (tree, slot, depth, rows, class-1 count, feature,
    threshold) node: rows with x[feature] < threshold go left. One pass
    over the rows of all the nodes routes them and counts each child's
    class-1 rows."""
    sizes = [rows.shape[0] for _, _, _, rows, _, _, _ in splitting]
    rows = np.concatenate([rows for _, _, _, rows, _, _, _ in splitting])
    node = np.repeat(np.arange(len(splitting)), sizes)
    f = np.array([f for *_, f, _ in splitting])
    thr = np.array([thr for *_, thr in splitting])
    goes_left = X[rows, f[node]] < thr[node]
    n_left = np.bincount(node[goes_left], minlength=len(splitting)).tolist()
    pos_left = np.bincount(node[goes_left & (y[rows] == 1)],
                           minlength=len(splitting)).tolist()
    left, right = rows[goes_left], rows[~goes_left]
    a = b = 0
    for (tree, slot, depth, _, pos, f, thr), m, nl, pl in zip(splitting, sizes, n_left,
                                                           pos_left):
        tree.split(slot, depth, f, thr, (left[a:a + nl], pl),
                   (right[b:b + m - nl], pos - pl))
        a, b = a + nl, b + m - nl


def fit_forest(X: np.ndarray, y: np.ndarray, n_trees: int, seed: int) -> ForestParams:
    """Bagged CART trees, all grown in lockstep.

    Each tree draws its bootstrap and, for every node it has to search, its
    candidate features from its own generator in depth-first order; one
    ``_gini_search`` per step serves the current node of every tree. A
    node's rows are original row indices (a bootstrap draws some twice),
    in no particular order: only their counts decide a split.
    """
    n, d = X.shape
    max_features = min(d, math.ceil(math.sqrt(d)))
    uniq = [np.unique(X[:, j]) for j in range(d)]
    values = np.zeros((d, max(u.shape[0] for u in uniq)))
    for j, u in enumerate(uniq):
        values[j, :u.shape[0]] = u
    # keys stay below 2 * n * d * n_trees, and so do the counts of keys
    dtype = np.int32 if 2 * n * d * n_trees < 2 ** 31 else np.int64
    coded = np.stack([2 * np.searchsorted(u, X[:, j]) for j, u in enumerate(uniq)]
                     ).astype(dtype) + y.astype(dtype)
    growing = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n)
        growing.append((DfsTree((boot, int(y[boot].sum()))), rng))
    trees = [tree for tree, _ in growing]
    while growing:
        current, searching = [], []
        for tree, rng in growing:
            while (popped := tree.pop()) is not None:
                (rows, pos), slot, depth = popped
                m = rows.shape[0]
                if pos == 0 or pos == m or m < 2:
                    tree.leaf(slot, _majority(m, pos))
                    continue
                current.append((tree, rng, slot, depth))
                searching.append((rows, pos, rng.permutation(d)[:max_features]))
                break
        if not current:
            break
        found = []
        for batch in _batches(searching, max_features):
            found += _gini_search(batch, coded, values, max_features)
        splitting = []
        for (tree, _, slot, depth), (rows, pos, _), split in zip(current, searching, found):
            m = rows.shape[0]
            p = pos / m
            if split is None or split[0] >= 1.0 - p * p - (1.0 - p) ** 2 - 1e-12:
                tree.leaf(slot, _majority(m, pos))
            else:
                splitting.append((tree, slot, depth, rows, pos, *split[1:]))
        if splitting:
            _split_all(X, y, splitting)
        growing = [(tree, rng) for tree, rng, _, _ in current]
    return ForestParams(trees=[tree.tree() for tree in trees], n_features=d)


def predict_forest(params: ForestParams, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting class 1, in [0, 1]."""
    votes = params.packed.leaf_values(X).sum(axis=0)
    return votes / max(len(params.trees), 1)
