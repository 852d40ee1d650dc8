"""Bagged CART forest: Gini splits over random feature subsets, unlimited
depth, bootstrap per tree, majority-vote aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import fields
from .trees import DfsTree, TreeNodes


@dataclass
class ForestParams:
    """Bagged trees as one ``TreeNodes`` table (``nodes`` too) over
    ``n_features`` features, each leaf a 0/1 vote, or raises ValueError."""

    trees: TreeNodes
    n_features: int = 0
    nodes: TreeNodes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.n_features = fields.read(self.n_features, "n_features", "an integer of at least 0")
        self.nodes = self.trees.nodes(self.n_features)
        # predict_forest sums 0/1 votes, which is exact in any order.
        if not np.isin(self.nodes.value, (0.0, 1.0)).all():
            raise ValueError("forest leaf values must be 0 or 1 votes")


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
    return ForestParams(trees=TreeNodes.from_records([tree.record() for tree in trees]),
                        n_features=d)


def predict_forest(params: ForestParams, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting class 1, in [0, 1]."""
    votes = params.nodes.leaf_values(X).sum(axis=0)
    return votes / max(len(params.nodes), 1)
