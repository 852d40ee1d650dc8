"""The tree format of the four tree ensembles: every tree of a model in one
table, ``TreeNodes`` for binary trees (forest, gbt-a) and ``ObliviousTree``
for level-shared ones (gbt-b, and ada's stumps). A model file, like a fit,
gives each tree as an object of its own part of every column; a table joins
each column over all trees and splits it back, so a file keeps its bytes.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..errors import FeatureArityError, ModelFormatError
from ..fields import column

_LEAF = -1
BLOCK_WORDS = 64  # the widest row of a walk's table: 512 bytes
BLOCK_BITS = 64 * BLOCK_WORDS
MAX_LEAVES = BLOCK_BITS  # a tree's leaves fill at most one block
_ONES = np.uint64(2 ** 64 - 1)
_LOW = np.array([2 ** k - 1 for k in range(65)], dtype=np.uint64)  # k low bits set


def require_fields(name: str, names: list, records) -> None:
    """Refuse any of ``records`` but an object of exactly the fields ``names``."""
    for record in records:
        if not isinstance(record, dict) or set(record) != set(names):
            got = sorted(record) if isinstance(record, dict) else type(record).__name__
            raise ModelFormatError(f"{name} needs the fields {names}, got {got}")


def _where(roots, local, i) -> str:
    """Node ``i`` of a table as an error names it: its tree and its index there."""
    return f"tree {np.searchsorted(roots, i, side='right') - 1}: node {local[i]}"


def _first_bits(leaves):
    """Each tree's first leaf bit, trees in order as ``LeafBits`` lays them
    out, and the bit after the last tree."""
    first, end = [], 0
    for n in leaves.tolist():
        if n > 64 - end % 64:  # more than the current word's free bits
            end += -end % 64
            if n > BLOCK_BITS - end % BLOCK_BITS:
                end += -end % BLOCK_BITS
        first.append(end)
        end += n if n <= 64 else -(-n // 64) * 64
    return np.array(first, dtype=np.int64), end


def _lowest_bit(words: np.ndarray) -> np.ndarray:
    """The index of each nonzero word's lowest set bit: the exponent of
    that bit alone as a float64."""
    return ((words & -words).astype(np.float64).view(np.int64) >> 52) - 1023


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
    node's children come after it, every other node is the child of exactly
    one node, no tree has more than ``MAX_LEAVES`` leaves and no feature is
    negative, or construction raises ValueError (``ModelFormatError`` for
    too many leaves). ``bits`` walks them, built on the first walk."""

    dtypes = {"feature": np.int64, "threshold": np.float64, "left": np.int64,
              "right": np.int64, "value": np.float64}
    rule = "tree node arrays must be 1-D, non-empty and of equal length"

    @staticmethod
    def _lengths(counts):
        return np.array([np.where(counts > 0, counts, np.nan)] * 5)

    def __init__(self, feature, threshold, left, right, value, counts):
        super().__init__((feature, threshold, left, right, value), counts)
        roots = np.cumsum(self.counts) - self.counts
        offset = np.repeat(roots, self.counts)
        nodes = np.arange(offset.shape[0])
        local = nodes - offset  # each node's index in its tree
        size = np.repeat(self.counts, self.counts)
        internal = self.feature != _LEAF
        for what, values, low, high in (("left child", self.left, local + 1, size),
                                        ("right child", self.right, local + 1, size),
                                        ("feature", self.feature, 0, np.inf)):
            bad = np.flatnonzero(internal & ((values < low) | (values >= high)))
            if bad.size:
                i = bad[0]
                low, high = (np.broadcast_to(bound, local.shape)[i] for bound in (low, high))
                raise ValueError(f"{_where(roots, local, i)} has {what} {values[i]}, "
                                 f"outside [{low}, {high})")
        inner = np.flatnonzero(internal)
        self._children = inner, self.left[inner] + offset[inner], self.right[inner] + offset[inner]
        parents = np.bincount(np.concatenate(self._children[1:]), minlength=nodes.shape[0])
        bad = np.flatnonzero(parents != (local > 0))
        if bad.size:
            raise ValueError(f"{_where(roots, local, bad[0])} is the child of "
                             f"{parents[bad[0]]} nodes, not {int(local[bad[0]] > 0)}")
        leaves = (self.counts + 1) // 2
        if leaves.max(initial=0) > MAX_LEAVES:
            k = int(np.argmax(leaves))
            raise ModelFormatError(f"tree {k} has {leaves[k]} leaves; the walk packs at "
                                   f"most {MAX_LEAVES}")
        self.width = self.feature.max(initial=-1) + 1

    @functools.cached_property
    def bits(self) -> LeafBits:
        # Built on the first walk, not with the table: tables built in a
        # set-up, among its long-lived arrays, raised live-detect's peak RSS
        # by 7 MB.
        return LeafBits(self)

    def nodes(self, n_features: int) -> TreeNodes:
        """This table, once every split feature is found below ``n_features``."""
        if self.width > n_features:
            raise ValueError(f"a tree splits on feature {self.width - 1}, "
                             f"outside [0, {n_features})")
        return self

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_rows) leaf values of the rows of X."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] < self.width:
            raise FeatureArityError(f"the trees read {self.width} features, got shape {X.shape}")
        return self.bits.leaf_values(X)


class LeafBits:
    """The walk of a ``TreeNodes`` table by leaf bitvectors. Each tree's
    leaves, numbered left to right, are bits of uint64 words from its
    ``first_bit``: a tree of at most 64 leaves takes the next bits of the
    current word when they fit, a wider one whole words, and no tree
    crosses a block of 64 words (``words`` in all). An internal node's mask
    clears its left subtree's leaves. ``table`` has a row per distinct
    (block, feature, threshold), in order: the AND of the masks of the
    block's nodes on that feature at that threshold or a lower one, which
    are the bits a row keeps when its x[feature] is at or above them. A row
    is at most a block wide, so the table takes at most 512 bytes per
    internal node."""

    def __init__(self, nodes: TreeNodes):
        inner, left, right = nodes._children
        leaves = (nodes.counts + 1) // 2
        n = nodes.feature.shape[0]
        # Pointer jumping, in as many rounds as a tree's longest chain needs:
        # the leftmost and rightmost leaf under each node, then each leaf's
        # rank left to right, where the leaf before the leftmost under a
        # right child is the rightmost under its sibling.
        rounds = int(leaves.max(initial=1) - 1).bit_length()
        jump = np.arange(2 * n)
        jump[inner], jump[inner + n] = left, right + n
        for _ in range(rounds):
            jump = jump.take(jump)
        first, last = jump[:n], jump[n:] - n
        before = np.arange(n)
        before[first[right]] = last[left]
        rank = (before != np.arange(n)).astype(np.int64)
        for _ in range(rounds):
            rank += rank.take(before)
            before = before.take(before)
        self.first_bit, end = _first_bits(leaves)
        bit = np.repeat(self.first_bit, nodes.counts) + rank
        self.words = -(-end // 64)
        self._word = self.first_bit // 64
        self._from = (_ONES << (self.first_bit % 64).astype(np.uint64))[:, None]
        wide = np.flatnonzero(leaves > 64)  # each with its words [first, end)
        first_word = self._word[wide]
        self._wide = list(zip(wide.tolist(), first_word.tolist(),
                              (first_word - (-leaves[wide] // 64)).tolist()))
        leaf = np.flatnonzero(nodes.feature == _LEAF)
        self._leaf_value = np.zeros(64 * self.words)
        self._leaf_value[bit[leaf]] = nodes.value[leaf]
        self._tables(bit[first[left]], bit[last[left]] + 1, nodes.feature[inner],
                     nodes.threshold[inner], int(nodes.width))

    def _tables(self, lo, hi, feature, threshold, width):
        """``table`` and ``_parts`` from each internal node's cleared bits
        [lo, hi), feature and threshold. A part is one (block, feature): the
        block's words [start, end), the feature, its thresholds, the table's
        columns for the block and the row before the part's first."""
        key = lo // BLOCK_BITS * width + feature  # (block, feature)
        order = np.argsort(threshold)
        order = order[np.argsort(key[order], kind="stable")]
        lo, hi, key, threshold = lo[order], hi[order], key[order], threshold[order]
        new = np.ones(order.shape[0], dtype=bool)
        new[1:] = (key[1:] != key[:-1]) | (threshold[1:] != threshold[:-1])
        row = np.cumsum(new) - 1
        # A node's mask is ~0 but in the words its cleared bits touch.
        span = (hi - 1) // 64 - lo // 64 + 1
        at = np.repeat(np.arange(order.shape[0]), span)
        word = np.arange(at.shape[0]) - np.repeat(np.cumsum(span) - span, span) + lo[at] // 64
        keep = np.minimum(np.maximum(lo[at] - 64 * word, 0), 64)
        stop = np.minimum(hi[at] - 64 * word, 64)
        self.table = np.full((np.count_nonzero(new), min(self.words, BLOCK_WORDS)), _ONES)
        np.bitwise_and.at(self.table, (row[at], word % BLOCK_WORDS), ~(_LOW[stop] ^ _LOW[keep]))
        key, threshold = key[new], threshold[new]
        runs = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
        self._parts = []
        for s, e in zip(runs, runs[1:] + [key.shape[0]]):
            np.bitwise_and.accumulate(self.table[s:e], axis=0, out=self.table[s:e])
            block, f = divmod(int(key[s]), width)
            start = block * BLOCK_WORDS
            end = min(start + BLOCK_WORDS, self.words)
            self._parts.append((start, end, f, threshold[s:e], self.table[:, :end - start], s - 1))

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n_rows) leaf values of the rows of the float64 array X.
        A row's bits start all set, and for each (block, feature) it ANDs the
        table row of the thresholds at or below x[feature] (NaN is above
        all), so ties and NaN go right as x < threshold says. A tree's exit
        leaf is then its lowest set bit: each leaf left of it is under the
        left child of a node the row goes right at, and it is under no such
        child itself."""
        columns = np.ascontiguousarray(X.T)
        bits = np.full((X.shape[0], self.words), _ONES)
        for start, end, f, thresholds, table, row in self._parts:
            k = thresholds.searchsorted(columns[f], "right")
            out = bits[:, start:end]
            np.bitwise_and(out, table.take(k + row, axis=0), out=out, where=(k > 0)[:, None])
        words = np.ascontiguousarray(bits.T)
        low = words.take(self._word, axis=0)
        low &= self._from
        bit = _lowest_bit(low) + 64 * self._word[:, None]
        # A tree wider than a word may clear all of its first word's bits.
        for k, w, end in self._wide:
            nonzero = w + (words[w:end] != 0).argmax(axis=0)
            bit[k] = 64 * nonzero + _lowest_bit(words[nonzero, np.arange(X.shape[0])])
        return self._leaf_value.take(bit)


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
