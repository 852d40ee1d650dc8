"""The tree format of the four tree ensembles: every tree of a model in one
table, ``TreeNodes`` for binary trees (forest, gbt-a) and ``ObliviousTree``
for level-shared ones (gbt-b, and ada's stumps). A model file, like a fit,
gives each tree as an object of its own part of every column; a table joins
each column over all trees and splits it back, so a file keeps its bytes.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import FeatureArityError, ModelFormatError
from ..fields import column

_LEAF = -1


def require_fields(name: str, names: list, records) -> None:
    """Refuse any of ``records`` but an object of exactly the fields ``names``."""
    for record in records:
        if not isinstance(record, dict) or set(record) != set(names):
            got = sorted(record) if isinstance(record, dict) else type(record).__name__
            raise ModelFormatError(f"{name} needs the fields {names}, got {got}")


class _Table:
    """Columns (``dtypes``) over all trees back to back and each tree's count,
    from which ``_lengths`` gives its length in each column (NaN for a count
    no tree has); a column of another length raises ValueError (``rule``)."""

    def __init__(self, columns, counts):
        for (name, dtype), values in zip(self.dtypes.items(), columns):
            setattr(self, name, column(values, dtype, f"{type(self).__name__}.{name}"))
        self.counts = np.asarray(counts, dtype=np.int64)
        shapes = [getattr(self, name).shape for name in self.dtypes]
        want = self._lengths(self.counts).sum(axis=-1) if self.counts.ndim == 1 else [-1]
        if shapes != [(n,) for n in want]:
            raise ValueError(f"{self.rule}, got shapes {shapes}, counts {self.counts.tolist()}")

    @classmethod
    def from_records(cls, records):
        """The table of ``records``: each tree an object of its part of every column."""
        records = list(records)
        require_fields(cls.__name__, list(cls.dtypes), records)
        parts = [[record[name] for record in records] for name in cls.dtypes]
        lengths = np.array([[len(p) if type(p) is list else -1 for p in field]
                            for field in parts], dtype=np.int64)
        for k in np.flatnonzero((lengths != cls._lengths(lengths[0])).any(axis=0)):
            raise ValueError(f"{cls.rule}, got lengths {lengths[:, k].tolist()} in tree {k}")
        return cls(*(list(itertools.chain.from_iterable(p)) for p in parts), lengths[0])

    def records(self) -> list:
        """Each tree as an object of its own part of every column, as lists."""
        split = []
        for name, sizes in zip(self.dtypes, self._lengths(self.counts).astype(int).tolist()):
            values = getattr(self, name).tolist()
            split.append([values[end - size:end]
                          for size, end in zip(sizes, itertools.accumulate(sizes))])
        return [dict(zip(self.dtypes, parts)) for parts in zip(*split)]

    def __len__(self) -> int:
        return self.counts.shape[0]


class TreeNodes(_Table):
    """Every binary tree of an ensemble as one node table: each tree's nodes
    in turn, ``counts`` their number per tree. ``feature`` is -1 at leaves
    and ``value`` the leaf prediction; rows route left when x[feature] <
    threshold. Child indices are local to their tree, where an internal
    node's children come after it and its feature is not negative, or
    construction raises ValueError. The walk of all trees at once takes
    ``child[2 * i + goes_left]`` as node i's next node (a leaf's is itself,
    reading feature 0 in ``reads``), ``depth`` steps from ``roots``: the
    longest root-to-leaf path of any tree."""

    dtypes = {"feature": np.int64, "threshold": np.float64, "left": np.int64,
              "right": np.int64, "value": np.float64}
    rule = "tree node arrays must be 1-D, non-empty and of equal length"

    @staticmethod
    def _lengths(counts):
        return np.array([np.where(counts > 0, counts, np.nan)] * 5)

    def __init__(self, feature, threshold, left, right, value, counts):
        super().__init__((feature, threshold, left, right, value), counts)
        self.roots = np.cumsum(self.counts) - self.counts
        offset = np.repeat(self.roots, self.counts)
        nodes = np.arange(offset.shape[0])
        local = nodes - offset  # each node's index in its tree
        size = np.repeat(self.counts, self.counts)
        self.internal = internal = self.feature != _LEAF
        for what, values, low, high in (("left child", self.left, local + 1, size),
                                        ("right child", self.right, local + 1, size),
                                        ("feature", self.feature, 0, np.inf)):
            bad = np.flatnonzero(internal & ((values < low) | (values >= high)))
            if bad.size:
                i, k = bad[0], np.searchsorted(self.roots, bad[0], side="right") - 1
                low, high = (np.broadcast_to(bound, local.shape)[i] for bound in (low, high))
                raise ValueError(f"tree {k}: node {local[i]} has {what} {values[i]}, "
                                 f"outside [{low}, {high})")
        left, right = self.left + offset, self.right + offset
        self.reads = np.where(internal, self.feature, 0)
        self.child = np.stack([np.where(internal, right, nodes),
                               np.where(internal, left, nodes)], axis=1).ravel()
        # Children point forward, so the frontier's smallest index grows every
        # level and the loop ends within the longest root-to-leaf path.
        self.depth = 0
        frontier = self.roots[internal[self.roots]]
        while frontier.size:
            self.depth += 1
            reached = np.zeros_like(internal)
            reached[left[frontier]] = reached[right[frontier]] = True
            frontier = np.flatnonzero(reached & internal)

    def nodes(self, n_features: int) -> TreeNodes:
        """This table, once every split feature is found below ``n_features``."""
        top = self.reads.max(initial=-1)
        if top >= n_features:
            raise ValueError(f"a tree splits on feature {top}, outside [0, {n_features})")
        return self

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_rows) leaf values; once at most half the walked pairs
        still move after a step, only those walk on."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        width = self.reads.max(initial=-1) + 1
        if X.ndim != 2 or X.shape[1] < width:
            raise FeatureArityError(f"the trees read {width} features, got shape {X.shape}")
        n, d = X.shape
        flat = X.ravel()
        base = np.tile(np.arange(n) * d, self.roots.shape[0])
        leaf = idx = np.repeat(self.roots, n)
        pair = np.arange(idx.shape[0])
        for _ in range(self.depth):
            x = flat.take(base + self.reads.take(idx))
            idx = self.child.take(2 * idx + (x < self.threshold.take(idx)))
            moving = self.internal.take(idx)
            if 2 * np.count_nonzero(moving) <= idx.shape[0]:
                leaf[pair] = idx
                pair, idx, base = pair[moving], idx[moving], base[moving]
        leaf[pair] = idx
        return self.value.take(leaf).reshape(self.roots.shape[0], n)


class ObliviousTree(_Table):
    """Every oblivious tree of an ensemble as one table: each tree's levels
    (a feature and threshold each) in turn, its 2^levels leaf values in turn
    (level 0 is a leaf index's most significant bit), and ``counts`` its
    level count. A negative feature raises ValueError (-1 would read as a
    leaf); ``nodes`` checks the features' upper bound."""

    dtypes = {"features": np.int64, "thresholds": np.float64, "leaf_values": np.float64}
    rule = "an oblivious tree holds a threshold per level and 2^levels leaf values"

    @staticmethod
    def _lengths(levels):
        levels = np.where(levels >= 0, levels, np.nan)
        return np.array([levels, levels, 2.0 ** np.minimum(levels, 64)])

    def __init__(self, features, thresholds, leaf_values, levels):
        super().__init__((features, thresholds, leaf_values), levels)
        if (self.features < 0).any():
            raise ValueError(f"oblivious tree: feature {self.features.min()} is negative")

    def nodes(self, n_features: int) -> TreeNodes:
        """Every tree in heap order, checked as ``TreeNodes.nodes`` checks it:
        node i's children are 2i + 1 (x < its threshold) and 2i + 2, and leaf
        b is the b-th of the last level."""
        levels = self.counts
        leaves = 2 ** levels
        sizes = 2 * leaves - 1
        i = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        level = np.frexp(i + 1.0)[1] - 1  # i's level in its tree
        inner = level < np.repeat(levels, sizes)
        at = np.where(inner, np.repeat(np.cumsum(levels) - levels, sizes) + level,
                      self.features.shape[0])
        leaf = np.repeat(np.cumsum(leaves) - 2 * leaves + 2, sizes) + i
        left = np.where(inner, 2 * i + 1, 0)
        return TreeNodes(np.append(self.features, _LEAF)[at],
                         np.append(self.thresholds, 0.0)[at], left,
                         np.where(inner, left + 1, 0),
                         np.append(0.0, self.leaf_values)[np.where(inner, 0, leaf)],
                         sizes).nodes(n_features)


class DfsTree:
    """Node slots of one binary tree grown depth first, left subtree first.
    ``pop()`` gives the next node to decide as (data, slot, depth), or None
    once the tree is complete; ``leaf`` or ``split`` decides it. A split's
    children take the next two slots, so every child comes after its parent.
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

    def record(self) -> dict:
        """The tree as ``TreeNodes.from_records`` takes it."""
        return dict(zip(TreeNodes.dtypes, map(list, zip(*self._nodes))))
