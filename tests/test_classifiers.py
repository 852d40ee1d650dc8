import itertools
import json
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import reference_fit_svm
from gaze_sentinel.errors import DegenerateDataError, FeatureArityError, InvalidParameterError
from gaze_sentinel.learners import (
    KINDS,
    ClassifierConfig,
    LabeledDataset,
    TrainedModel,
    decision_scores,
    default_config,
    forest,
    predict_batch,
    train,
    train_many,
)
from gaze_sentinel.learners.adaboost import AdaParams, _negated_errors, predict_ada
from gaze_sentinel.learners.api import PUBLISHED
from gaze_sentinel.learners.data import fit_standardizer
from gaze_sentinel.learners.forest import (
    DfsTree,
    ForestParams,
    TreeNodes,
    pack_trees,
    predict_forest,
)
from gaze_sentinel.learners.gbt import (
    LAMBDA,
    GbtParams,
    ObliviousTree,
    _bin_groups,
    _logloss,
    _newton_gain,
    _oblivious_level,
    _quantize,
    _sigmoid,
    best_cut,
    predict_gbt,
    presort,
)
from gaze_sentinel.learners.svm import SvmParams
from gaze_sentinel.model_io import model_payload


def separable_60():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(-2, 0.5, (30, 2)), rng.normal(2, 0.5, (30, 2))])
    y = np.array([0] * 30 + [1] * 30)
    return LabeledDataset(X, y, np.arange(60))


def xor_sets(n_train=100, n_test=100, seed=5):
    rng = np.random.default_rng(seed)

    def sample(n):
        # four balanced clusters so no linear boundary can beat chance
        quadrant = rng.permutation(np.repeat(np.arange(4), n // 4))
        cx = np.where(quadrant % 2 == 0, -1.0, 1.0)
        cy = np.where(quadrant < 2, -1.0, 1.0)
        X = np.stack([cx, cy], axis=1) + rng.normal(0, 0.25, (n, 2))
        y = ((cx > 0) ^ (cy > 0)).astype(np.int64)
        return LabeledDataset(X, y, np.arange(n))

    return sample(n_train), sample(n_test)


class TestConfigs:
    def test_published_hyperparameters(self):
        # Every value goes into the fingerprint, so compare as JSON: 1 and 1.0 differ there.
        published = ('"seed": 7, "n_trees": 100, "n_rounds": 100, "learning_rate": 0.01, '
                     '"tree_depth": 6, "oblivious": false, "svm_c": 1.0, "svm_epochs": 100}')
        gbt_b = ('"seed": 7, "n_trees": 100, "n_rounds": 100, "learning_rate": 0.1, '
                 '"tree_depth": 6, "oblivious": true, "svm_c": 1.0, "svm_epochs": 100}')
        for kind in KINDS:
            expected = f'{{"kind": "{kind}", ' + (gbt_b if kind == "gbt-b" else published)
            assert json.dumps(default_config(kind, seed=7).record()) == expected

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            ClassifierConfig(kind="mlp")

    def test_fingerprint_tracks_config(self):
        a = default_config("forest", seed=1)
        b = default_config("forest", seed=2)
        m1 = TrainedModel(a, 2, None, None)
        m2 = TrainedModel(b, 2, None, None)
        assert m1.fingerprint != m2.fingerprint


class TestTraining:
    @pytest.mark.parametrize("kind", KINDS)
    def test_separable_reaches_full_training_accuracy(self, kind):
        ds = separable_60()
        model = train(default_config(kind, seed=3), ds)
        labels, _ = predict_batch(model, ds.X)
        assert (labels == ds.y).mean() == 1.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_deterministic_given_seed(self, kind):
        ds = separable_60()
        a = train(default_config(kind, seed=9), ds)
        b = train(default_config(kind, seed=9), ds)
        probe = np.random.default_rng(1).normal(0, 2, (50, 2))
        np.testing.assert_array_equal(decision_scores(a, probe), decision_scores(b, probe))

    def test_forest_seeds_can_differ(self):
        ds = separable_60()
        a = train(default_config("forest", seed=1), ds)
        b = train(default_config("forest", seed=2), ds)
        probe = np.random.default_rng(2).normal(0, 2, (200, 2))
        assert not np.array_equal(decision_scores(a, probe), decision_scores(b, probe))

    def test_xor_forest_strong_svm_near_chance(self):
        train_ds, test_ds = xor_sets()
        forest = train(default_config("forest", seed=4), train_ds)
        svm = train(default_config("svm", seed=4), train_ds)
        f_labels, _ = predict_batch(forest, test_ds.X)
        s_labels, _ = predict_batch(svm, test_ds.X)
        assert (f_labels == test_ds.y).mean() >= 0.9
        assert (s_labels == test_ds.y).mean() <= 0.6

    @pytest.mark.parametrize("kind", ["gbt-a", "gbt-b"])
    def test_boosting_loss_non_increasing(self, kind):
        train_ds, _ = xor_sets(seed=8)
        model = train(default_config(kind, seed=1), train_ds)
        losses = np.array(model.train_loss)
        assert losses.shape[0] == 101
        assert np.all(np.diff(losses) <= 1e-9)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(0, 1, (20, 3))
        ds = LabeledDataset(X, np.zeros(20, dtype=int), np.arange(20))
        for kind in KINDS:
            with pytest.raises(DegenerateDataError):
                train(default_config(kind), ds)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, kind, bad):
        ds = separable_60()
        X = ds.X.copy()
        X[7, 1] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            train(default_config(kind), LabeledDataset(X, ds.y, ds.groups))

    def test_svm_decision_invariant_to_feature_permutation(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.normal(0, 1, (40, 5)), rng.normal(1.5, 1, (40, 5))])
        y = np.array([0] * 40 + [1] * 40)
        perm = np.array([3, 0, 4, 1, 2])
        a = train(default_config("svm", seed=2), LabeledDataset(X, y, np.arange(80)))
        b = train(default_config("svm", seed=2),
                  LabeledDataset(X[:, perm], y, np.arange(80)))
        probe = rng.normal(0, 1, (100, 5))
        np.testing.assert_allclose(
            decision_scores(a, probe), decision_scores(b, probe[:, perm]), atol=1e-9
        )


def predict_one(model, vector):
    """(label, score) ``predict_batch`` gives one feature vector."""
    labels, scores = predict_batch(model, [vector])
    return int(labels[0]), float(scores[0])


class TestPredictSemantics:
    def test_forest_unanimous_vote(self):
        tree = TreeNodes(
            feature=np.array([-1]), threshold=np.array([0.0]),
            left=np.array([0]), right=np.array([0]), value=np.array([1.0]),
        )
        model = TrainedModel(default_config("forest"), 2, None,
                             ForestParams(trees=[tree] * 10, n_features=2))
        cls, score = predict_one(model, [0.0, 0.0])
        assert (cls, score) == (1, 1.0)

    def test_forest_votes_in_unit_interval(self):
        ds = separable_60()
        model = train(default_config("forest", seed=3), ds)
        scores = decision_scores(model, np.random.default_rng(0).normal(0, 3, (100, 2)))
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_svm_zero_margin_breaks_toward_nf(self):
        model = TrainedModel(default_config("svm"), 2, None,
                             SvmParams(w=np.zeros(2), b=0.0, n_features=2))
        cls, score = predict_one(model, [3.0, -1.0])
        assert (cls, score) == (0, 0.0)

    def test_gbt_all_zero_leaves_scores_half(self):
        tree = TreeNodes(
            feature=np.array([-1]), threshold=np.array([0.0]),
            left=np.array([0]), right=np.array([0]), value=np.array([0.0]),
        )
        model = TrainedModel(default_config("gbt-a"), 3, None,
                             GbtParams(trees=[tree] * 5, learning_rate=0.01, n_features=3))
        cls, score = predict_one(model, [1.0, 2.0, 3.0])
        assert score == 0.5
        assert cls == 0  # exact threshold resolves to NF

    def test_probability_tie_resolves_to_nf(self):
        # a model voting exactly half its trees for class 1
        t0 = TreeNodes(np.array([-1]), np.array([0.0]), np.array([0]),
                       np.array([0]), np.array([0.0]))
        t1 = TreeNodes(np.array([-1]), np.array([0.0]), np.array([0]),
                       np.array([0]), np.array([1.0]))
        model = TrainedModel(default_config("forest"), 1, None,
                             ForestParams(trees=[t0, t1], n_features=1))
        cls, score = predict_one(model, [0.0])
        assert (cls, score) == (0, 0.5)

    def test_arity_mismatch_raises(self):
        model = train(default_config("ada"), separable_60())
        with pytest.raises(FeatureArityError):
            predict_one(model, [1.0, 2.0, 3.0])
        with pytest.raises(FeatureArityError):
            predict_batch(model, np.zeros((4, 5)))

    def test_ada_empty_model_predicts_nf(self):
        params = AdaParams(
            feature=np.array([], dtype=int), threshold=np.array([]),
            low_value=np.array([], dtype=int), high_value=np.array([], dtype=int),
            alpha=np.array([]), n_features=2,
        )
        model = TrainedModel(default_config("ada"), 2, None, params)
        assert predict_one(model, [0.0, 0.0]) == (0, 0.0)

    def test_oblivious_tree_routing(self):
        tree = ObliviousTree(
            features=np.array([0, 1]),
            thresholds=np.array([0.5, 0.5]),
            leaf_values=np.array([0.0, 1.0, 2.0, 3.0]),
        )
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        packed = GbtParams(trees=[tree], learning_rate=1.0, n_features=2).packed
        np.testing.assert_array_equal(packed.leaf_values(X), [[0.0, 1.0, 2.0, 3.0]])


class TestParamsChecks:
    """Params check their invariants when built, whether fitted, loaded or
    built by hand."""

    def ada(self, **changes):
        fields = dict(feature=[0, 1], threshold=[0.0, 0.5], low_value=[1, 0],
                      high_value=[0, 1], alpha=[0.7, 0.3], n_features=2)
        return AdaParams(**{**fields, **changes})

    def test_valid_params_build(self):
        assert self.ada().feature.dtype == np.int64
        assert SvmParams(w=[1, 2], b=0, n_features=2).w.dtype == np.float64
        assert ObliviousTree([1], [0.5], [0, 1]).leaf_values.dtype == np.float64

    @pytest.mark.parametrize("changes", [
        {"feature": [0, 7]},  # feature 7 of 2
        {"feature": [-1, 0]},
        {"alpha": [0.7]},  # arrays differ in length
        {"threshold": 0.5},  # not 1-D
        {"n_features": 2.0},  # not an integer
    ])
    def test_invalid_ada_raises_at_construction(self, changes):
        with pytest.raises((ValueError, TypeError)):
            self.ada(**changes)

    @pytest.mark.parametrize("features, thresholds, leaves", [
        ([0, 1], [0.5], [0, 1, 2, 3]),  # a level without a threshold
        ([0, 1], [0.5, 0.5], [0, 1, 2]),  # 3 leaves for 2 levels
        ([[0]], [[0.5]], [0, 1]),  # not 1-D
    ])
    def test_invalid_oblivious_tree_raises_at_construction(self, features, thresholds,
                                                            leaves):
        with pytest.raises(ValueError):
            ObliviousTree(features, thresholds, leaves)

    def test_oblivious_feature_out_of_range_raises_in_params(self):
        tree = ObliviousTree([2], [0.5], [0.0, 1.0])
        with pytest.raises(ValueError):
            GbtParams(trees=[tree], learning_rate=0.1, n_features=2)

    @pytest.mark.parametrize("w, n_features", [([1.0, 2.0, 3.0], 2), ([[1.0, 2.0]], 2),
                                               ([1.0, 2.0], 0)])
    def test_invalid_svm_raises_at_construction(self, w, n_features):
        with pytest.raises(ValueError):
            SvmParams(w=w, b=0.0, n_features=n_features)

    def test_tree_arrays_of_unequal_length_raise_at_construction(self):
        with pytest.raises(ValueError):
            TreeNodes([-1], [0.0], [0], [0], [0.0, 1.0])


def reference_apply(tree: TreeNodes, X: np.ndarray) -> np.ndarray:
    """The per-tree walk the packed kernel replaced, kept as its reference."""
    idx = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[idx]
        internal = feat != -1
        if not internal.any():
            break
        rows = np.flatnonzero(internal)
        node = idx[rows]
        goes_left = X[rows, feat[rows]] < tree.threshold[node]
        idx[rows] = np.where(goes_left, tree.left[node], tree.right[node])
    return tree.value[idx]


def reference_forest(params: ForestParams, X: np.ndarray) -> np.ndarray:
    votes = np.zeros(X.shape[0], dtype=np.float64)
    for tree in params.trees:
        votes += reference_apply(tree, X)
    return votes / max(len(params.trees), 1)


def reference_gbt(params: GbtParams, X: np.ndarray) -> np.ndarray:
    F = np.zeros(X.shape[0], dtype=np.float64)
    for tree in params.trees:
        F += params.learning_rate * reference_apply(tree, X)
    return _sigmoid(F)


def probe_with_ties(trees, d: int, n: int = 300, seed: int = 0) -> np.ndarray:
    """Random rows, a third of whose cells sit exactly on a threshold of
    their feature, with some NaN cells (NaN routes right)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 2, (n, d))
    for f in range(d):
        on_f = np.concatenate([t.threshold[t.feature == f] for t in trees] + [[]])
        if on_f.size:
            rows = rng.random(n) < 1 / 3
            X[rows, f] = rng.choice(on_f, rows.sum())
    X[rng.random((n, d)) < 0.05] = np.nan
    return X


@st.composite
def random_trees(draw, n_features: int, votes: bool):
    """A list of forward-pointing trees of uneven depth, single leaves included."""
    grid = st.integers(-4, 4).map(lambda k: k / 2)
    trees = []
    for _ in range(draw(st.integers(1, 20))):
        feature, threshold, left, right = [-1], [0.0], [0], [0]
        pending = [0]
        while pending and len(feature) + 2 <= 41:
            i = pending.pop(draw(st.integers(0, len(pending) - 1)))
            if not draw(st.booleans()):
                continue
            feature[i] = draw(st.integers(0, n_features - 1))
            threshold[i] = draw(grid)
            left[i], right[i] = len(feature), len(feature) + 1
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [0, 0]
            right += [0, 0]
            pending += [left[i], right[i]]
        leaf = st.sampled_from([0.0, 1.0]) if votes else st.floats(-3, 3)
        value = [draw(leaf) for _ in feature]
        trees.append(TreeNodes(np.array(feature), np.array(threshold), np.array(left),
                               np.array(right), np.array(value)))
    return trees


def chain_tree(rng, depth: int, d: int, votes: bool) -> TreeNodes:
    """A tree whose internal nodes form one chain ``depth`` splits long.
    At each split one child is a leaf, and the threshold sends rows of
    N(0, 1.2) features on down the chain 84% of the time."""
    feature, threshold, left, right = [], [], [], []
    for _ in range(depth):
        i = len(feature)
        on_right = bool(rng.integers(2))
        feature += [int(rng.integers(d)), -1]
        threshold += [-1.2 if on_right else 1.2, 0.0]
        left += [i + 1 + on_right, 0]
        right += [i + 2 - on_right, 0]
    feature.append(-1)
    threshold.append(0.0)
    left.append(0)
    right.append(0)
    n = len(feature)
    value = rng.integers(0, 2, n).astype(float) if votes else rng.normal(size=n)
    return TreeNodes(feature, threshold, left, right, value)


def stump(rng, d: int, votes: bool, split: bool) -> TreeNodes:
    """A lone leaf, or one split over two leaves."""
    value = rng.integers(0, 2, 3).astype(float) if votes else rng.normal(size=3)
    if not split:
        return TreeNodes([-1], [0.0], [0], [0], value[:1])
    return TreeNodes([int(rng.integers(d)), -1, -1], [rng.normal(), 0.0, 0.0],
                     [1, 0, 0], [2, 0, 0], value)


class TestPackedWalk:
    """``predict_forest`` and ``predict_gbt`` walk all trees at once; their
    scores must be byte-equal to the per-tree walk summed in tree order."""

    @pytest.mark.parametrize("kind", ["forest", "gbt-a"])
    def test_fitted_models_match_reference(self, kind):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(-1, 1.5, (80, 4)), rng.normal(1, 1.5, (80, 4))])
        y = np.array([0] * 80 + [1] * 80)
        model = train(default_config(kind, seed=2), LabeledDataset(X, y, np.arange(160)))
        params = model.params
        probe = np.vstack([X, probe_with_ties(params.trees, 4)])
        if kind == "forest":
            got, want = predict_forest(params, probe), reference_forest(params, probe)
        else:
            got, want = predict_gbt(params, probe), reference_gbt(params, probe)
        assert got.tobytes() == want.tobytes()
        assert max(t.feature.shape[0] for t in params.trees) > 7  # deeper than a stump

    @pytest.mark.parametrize("kind", ["forest", "gbt-a"])
    @pytest.mark.parametrize("n", [1, 200])
    def test_ragged_ensembles_match_per_tree_walk(self, kind, n):
        """Chains of depth 12 and 10 beside stumps: most pairs finish after
        one step, and the walk goes on with the chains' pairs alone."""
        rng = np.random.default_rng(n)
        votes = kind == "forest"
        trees = [stump(rng, 3, votes, split=k % 2 == 1) for k in range(10)]
        trees[3:3] = [chain_tree(rng, 12, 3, votes)]
        trees.append(chain_tree(rng, 10, 3, votes))
        if votes:
            params = ForestParams(trees=trees, n_features=3)
        else:
            params = GbtParams(trees=trees, learning_rate=0.1, n_features=3)
        X = rng.normal(0, 1.2, (n, 3))
        assert params.packed.depth == 12
        want = np.stack([reference_apply(tree, X) for tree in trees])
        assert params.packed.leaf_values(X).tobytes() == want.tobytes()
        if votes:
            assert predict_forest(params, X).tobytes() == reference_forest(params, X).tobytes()
        else:
            assert predict_gbt(params, X).tobytes() == reference_gbt(params, X).tobytes()

    @pytest.mark.parametrize("kind", ["ada", "gbt-b"])
    def test_stumps_and_oblivious_trees_match_reference(self, kind):
        """Ada stumps and gbt-b's heap-ordered trees in the packed walk score
        the bits of their per-tree formulas, NaN cells routed right."""
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(-1, 1.5, (80, 4)), rng.normal(1, 1.5, (80, 4))])
        y = np.array([0] * 80 + [1] * 80)
        params = train(default_config(kind, seed=2), LabeledDataset(X, y, np.arange(160))).params
        probe = np.vstack([X, rng.normal(0, 2, (100, 4))])
        probe[rng.random(probe.shape) < 0.05] = np.nan
        if kind == "ada":
            margin = np.zeros(probe.shape[0])
            for f, thr, low, high, a in zip(params.feature, params.threshold, params.low_value,
                                            params.high_value, params.alpha):
                margin += a * (2.0 * np.where(probe[:, f] < thr, low, high) - 1.0)
            got, want = predict_ada(params, probe), margin / params.alpha.sum()
        else:
            F = np.zeros(probe.shape[0])
            for tree in params.trees:
                idx = np.zeros(probe.shape[0], dtype=np.int64)
                for f, thr in zip(tree.features, tree.thresholds):
                    idx = 2 * idx + ~(probe[:, f] < thr)
                F += params.learning_rate * tree.leaf_values[idx]
            got, want = predict_gbt(params, probe), _sigmoid(F)
        assert got.tobytes() == want.tobytes()

    @given(random_trees(n_features=3, votes=True), st.integers(0, 2 ** 31 - 1))
    def test_random_forests_match_reference(self, trees, seed):
        params = ForestParams(trees=trees, n_features=3)
        X = probe_with_ties(trees, 3, n=40, seed=seed)
        assert predict_forest(params, X).tobytes() == reference_forest(params, X).tobytes()
        for tree in trees:
            one = pack_trees([tree], 3).leaf_values(X)[0]
            assert one.tobytes() == reference_apply(tree, X).tobytes()

    @given(random_trees(n_features=3, votes=False), st.integers(0, 2 ** 31 - 1),
           st.sampled_from([0.01, 0.1, 0.3]))
    def test_random_boosters_match_reference(self, trees, seed, rate):
        params = GbtParams(trees=trees, learning_rate=rate, n_features=3)
        for n in (1, 40):
            X = probe_with_ties(trees, 3, n=n, seed=seed)
            assert predict_gbt(params, X).tobytes() == reference_gbt(params, X).tobytes()


class TestAdaEdgeCases:
    def test_perfect_stump_stops_early(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = train(default_config("ada"), LabeledDataset(X, y, np.arange(4)))
        assert len(model.params.alpha) == 1
        labels, _ = predict_batch(model, X)
        np.testing.assert_array_equal(labels, y)

    def test_constant_features_yield_empty_model(self):
        X = np.ones((10, 2))
        y = np.array([0, 1] * 5)
        model = train(default_config("ada"), LabeledDataset(X, y, np.arange(10)))
        assert len(model.params.alpha) == 0
        labels, scores = predict_batch(model, X)
        assert np.all(labels == 0)
        assert np.all(scores == 0.0)


def per_feature_level(codes, n_bins, g, h, leaf, n_leaves, lam):
    """The oblivious level scored one feature at a time: the reference the
    grouped scorer must match bit for bit."""
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


class TestObliviousLevel:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 200), st.integers(1, 8),
           st.sampled_from([1, 2, 4, 8, 32]))
    # One 2-bin feature over 32 leaves: its sum over leaves runs pairwise.
    @example(seed=288, n=31, d=1, n_leaves=32)
    def test_grouped_scoring_matches_per_feature(self, seed, n, d, n_leaves):
        rng = np.random.default_rng(seed)
        n_bins = rng.choice([1, 2, 3, 9, 64], size=d).tolist()
        codes = [rng.integers(0, bins, n) for bins in n_bins]
        p = rng.uniform(0.01, 0.99, n)
        g, h = p - rng.integers(0, 2, n), p * (1.0 - p)
        leaf = rng.integers(0, n_leaves, n)
        assert _oblivious_level(_bin_groups(codes, n_bins), np.tile(g, d), np.tile(h, d),
                                leaf, n_leaves) \
            == per_feature_level(codes, n_bins, g, h, leaf, n_leaves, 1.0)


# The per-node learners the batched and presorted fits replaced, kept as
# their references: every fitted model must equal theirs byte for byte.

def grow_tree(X: np.ndarray, node) -> TreeNodes:
    """A binary tree over the rows of ``X``, grown depth first, left subtree
    first. ``node(rows, depth)`` gives the split (feature, threshold) of the
    node holding ``rows``, or its leaf value."""
    nodes = [[-1, 0.0, 0, 0, 0.0]]  # feature, threshold, left, right, value
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
        nodes += [[-1, 0.0, 0, 0, 0.0], [-1, 0.0, 0, 0, 0.0]]
    return TreeNodes(*(np.array(column) for column in zip(*nodes)))


def gini_split(X: np.ndarray, y: np.ndarray, cols: np.ndarray):
    """Best (feature, threshold, cost) over candidate columns, or None: a
    scan of every midpoint between distinct consecutive sorted values, ties
    resolving to the first minimum in scan order."""
    m = y.shape[0]
    sub = X[:, cols]
    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    pos = np.cumsum(y[order], axis=0, dtype=np.float64)
    n_left = np.arange(1, m, dtype=np.float64)[:, None]
    pos_left = pos[:-1]
    n_right = m - n_left
    pos_right = pos[-1][None, :] - pos_left
    pl = pos_left / n_left
    pr = pos_right / n_right
    cost = (n_left * (1.0 - pl * pl - (1.0 - pl) ** 2)
            + n_right * (1.0 - pr * pr - (1.0 - pr) ** 2)) / m
    cost[xs[1:] <= xs[:-1]] = np.inf
    i, j = divmod(int(np.argmin(cost)), cost.shape[1])
    if not np.isfinite(cost[i, j]):
        return None
    return int(cols[j]), float(0.5 * (xs[i, j] + xs[i + 1, j])), float(cost[i, j])


def grow_cart(X: np.ndarray, y: np.ndarray, rng, max_features: int) -> TreeNodes:
    def node(rows, depth):
        ys = y[rows]
        pos, m = int(ys.sum()), rows.shape[0]
        majority = 1.0 if 2 * pos > m else 0.0
        if pos == 0 or pos == m or m < 2:
            return majority
        split = gini_split(X[rows], ys, rng.permutation(X.shape[1])[:max_features])
        p = float(np.mean(ys))
        if split is None or split[2] >= 1.0 - p * p - (1.0 - p) ** 2 - 1e-12:
            return majority
        return split[:2]

    return grow_tree(X, node)


def reference_fit_forest(X, y, n_trees, seed):
    n, d = X.shape
    max_features = min(d, math.ceil(math.sqrt(d)))
    trees = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        boot = rng.integers(0, n, size=n)
        trees.append(grow_cart(X[boot], y[boot], rng, max_features))
    return ForestParams(trees=trees, n_features=d)


def newton_split(X: np.ndarray, g: np.ndarray, h: np.ndarray, lam: float):
    """Best (feature, threshold) by second-order gain, or None."""
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
    i, j = divmod(int(np.argmax(gain)), gain.shape[1])
    if not np.isfinite(gain[i, j]) or gain[i, j] <= 1e-12:
        return None
    return int(j), 0.5 * float(xs[i, j] + xs[i + 1, j])


def grow_newton(X, g, h, max_depth, lam) -> TreeNodes:
    def node(rows, depth):
        gs, hs = g[rows], h[rows]
        split = newton_split(X[rows], gs, hs, lam) if (
            depth < max_depth and rows.shape[0] >= 2) else None
        return float(-gs.sum() / (hs.sum() + lam)) if split is None else split

    return grow_tree(X, node)


def reference_fit_gbt(X, y, rounds, learning_rate, max_depth):
    y = y.astype(np.float64)
    F = np.zeros(X.shape[0])
    losses = [_logloss(F, y)]
    trees = []
    for _ in range(rounds):
        p = _sigmoid(F)
        trees.append(grow_newton(X, p - y, p * (1.0 - p), max_depth, LAMBDA))
        F += learning_rate * reference_apply(trees[-1], X)
        losses.append(_logloss(F, y))
    return GbtParams(trees=trees, learning_rate=learning_rate,
                     n_features=X.shape[1]), losses


def reference_fit_oblivious_gbt(X, y, rounds, learning_rate, depth):
    y = y.astype(np.float64)
    codes, n_bins, midpoints = _quantize(X)
    F = np.zeros(X.shape[0])
    losses = [_logloss(F, y)]
    trees = []
    for _ in range(rounds):
        p = _sigmoid(F)
        g, h = p - y, p * (1.0 - p)
        leaf = np.zeros(X.shape[0], dtype=np.int64)
        feats, thrs = [], []
        for _level in range(depth):
            pick = per_feature_level(codes, n_bins, g, h, leaf, 2 ** len(feats), LAMBDA)
            if pick is None or pick[2] <= 1e-12:
                break
            j, b, _ = pick
            feats.append(j)
            thrs.append(float(midpoints[j][b]))
            leaf = 2 * leaf + (codes[j] > b)
        n_leaves = 2 ** len(feats)
        values = -np.bincount(leaf, weights=g, minlength=n_leaves) / (
            np.bincount(leaf, weights=h, minlength=n_leaves) + LAMBDA)
        trees.append(ObliviousTree(feats, thrs, values))
        F += learning_rate * values[leaf]
        losses.append(_logloss(F, y))
    return GbtParams(trees=trees, learning_rate=learning_rate,
                     n_features=X.shape[1]), losses


def argsort_stump(X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """The stump search sorting X afresh in every round."""
    d = X.shape[1]
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    ws = w[order]
    w_pos = np.cumsum(ws * ys, axis=0)
    w_neg = np.cumsum(ws * (1 - ys), axis=0)
    invalid = xs[1:] <= xs[:-1]
    err_a = np.where(invalid, np.inf, w_neg[:-1] + (w_pos[-1][None, :] - w_pos[:-1]))
    err_b = np.where(invalid, np.inf, w_pos[:-1] + (w_neg[-1][None, :] - w_neg[:-1]))
    stacked = np.stack([err_a, err_b])
    polarity, rest = divmod(int(np.argmin(stacked)), err_a.size)
    i, j = divmod(rest, d)
    if not np.isfinite(stacked[polarity].flat[rest]):
        return None
    low, high = (1, 0) if polarity == 0 else (0, 1)
    return j, float(0.5 * (xs[i, j] + xs[i + 1, j])), low, high


def reference_fit_ada(X, y, rounds):
    w = np.full(X.shape[0], 1.0 / X.shape[0])
    stumps, alphas = [], []
    for _ in range(rounds):
        stump = argsort_stump(X, y, w)
        if stump is None:
            break
        f, thr, low, high = stump
        miss = np.where(X[:, f] < thr, low, high) != y
        err = float(w[miss].sum())
        if err >= 0.5 - 1e-12:
            break
        stumps.append(stump)
        if err < 1e-12:
            alphas.append(1.0)
            break
        alphas.append(float(np.log((1.0 - err) / err)))
        w = w * np.exp(alphas[-1] * miss)
        w /= w.sum()
    feature, threshold, low, high = (list(c) for c in zip(*stumps)) if stumps else ([],) * 4
    return AdaParams(feature, threshold, low, high, alphas, n_features=X.shape[1])


def reference_train(config: ClassifierConfig, ds: LabeledDataset) -> TrainedModel:
    X, y = ds.X, ds.y
    r = config.record()
    loss = standardizer = None
    if config.kind == "svm":
        standardizer = fit_standardizer(X)
        w, b = reference_fit_svm(standardizer.apply(X), y, r["svm_c"], r["svm_epochs"],
                                 r["seed"])
        params = SvmParams(w, b, n_features=X.shape[1])
    elif config.kind == "forest":
        params = reference_fit_forest(X, y, r["n_trees"], r["seed"])
    elif config.kind == "ada":
        params = reference_fit_ada(X, y, r["n_rounds"])
    elif config.kind == "gbt-a":
        params, loss = reference_fit_gbt(X, y, r["n_rounds"], r["learning_rate"],
                                         r["tree_depth"])
    else:
        params, loss = reference_fit_oblivious_gbt(X, y, r["n_rounds"], r["learning_rate"],
                                                   r["tree_depth"])
    return TrainedModel(config, ds.n_features, standardizer, params,
                        tuple(loss) if loss else None)


def payload_bytes(model: TrainedModel) -> bytes:
    return json.dumps(model_payload(model), indent=1).encode()


@st.composite
def tie_heavy_sets(draw):
    """Rows on a small value grid, maybe a constant column and duplicated
    rows, from 2 rows up, with classes as unbalanced as 1 to n - 1."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    grid = draw(st.integers(0, 3))
    X = np.array(draw(st.lists(st.integers(-grid, grid), min_size=n * d,
                               max_size=n * d)), dtype=np.float64).reshape(n, d) / 2
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 0.5
    copies = draw(st.integers(0, n // 2))
    X[n - copies:] = X[:copies]
    ones = draw(st.integers(1, n - 1))
    y = np.zeros(n, dtype=np.int64)
    y[np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).choice(n, ones,
                                                                       replace=False)] = 1
    return LabeledDataset(X, y, np.arange(n))


REFERENCE_KINDS = ("forest", "ada", "gbt-a", "svm", "gbt-b")


@contextmanager
def quick_config(kind: str, seed: int):
    """The config of ``kind`` and ``seed`` while the published table holds
    10 trees, rounds and epochs, which keeps the references quick."""
    with mock.patch.dict(PUBLISHED, n_trees=10, n_rounds=10, svm_epochs=10):
        yield ClassifierConfig(kind, seed)


def scan_cuts(X: np.ndarray, stats: np.ndarray, score):
    """``best_cut`` by brute force: each feature's rows in a stable sort,
    every cut between distinct values scored alone from sums added one row
    at a time, and the first maximum kept in (polarity, left size, feature)
    order."""
    cuts = []
    for j in range(X.shape[1]):
        rows = sorted(range(X.shape[0]), key=lambda r: X[r, j])
        sums = [list(itertools.accumulate(s[r] for r in rows)) for s in stats.tolist()]
        total = np.array([s[-1] for s in sums])[:, None, None]
        for i in range(len(rows) - 1):
            if X[rows[i], j] < X[rows[i + 1], j]:
                values = score(np.array([s[i] for s in sums])[:, None, None], total)
                cuts += [((p, i, j), float(v), 0.5 * (X[rows[i], j] + X[rows[i + 1], j]))
                         for p, v in enumerate(values[:, 0, 0])]
    best = None
    for (p, _, j), value, threshold in sorted(cuts):
        if best is None or value > best[0]:
            best = (value, p, j, threshold)
    return best


@st.composite
def tie_heavy_nodes(draw):
    """Columns on a small value grid, maybe all of them constant, with the
    statistics of one polarity (gbt-a's [g, h]) or two (ada's)."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 5))
    grid = 0 if draw(st.booleans()) else draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.integers(-grid, grid), min_size=n * d,
                               max_size=n * d)), dtype=np.float64).reshape(n, d) / 2
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    y = rng.integers(0, 2, n)
    if draw(st.booleans()):
        w = rng.dirichlet(np.ones(n))
        return X, np.stack([w * y, w * (1 - y)]), _negated_errors
    p = rng.uniform(0.01, 0.99, n)
    return X, np.stack([p - y, p * (1.0 - p)]), _newton_gain


class TestBestCut:
    @given(tie_heavy_nodes())
    def test_matches_a_brute_force_scan(self, node):
        X, stats, score = node
        got = best_cut(*presort(X), stats, score)
        want = scan_cuts(X, stats, score)
        if want is None:
            assert got is None and (X == X[0]).all()
        else:
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
            assert got[1:] == want[1:]


class TestFitsMatchReference:
    """The lockstep forest and svm, the presorted gbt-a and ada and the
    tiled gbt-b levels fit the models the per-node and per-row learners
    fit, byte for byte."""

    @pytest.mark.parametrize("kind", REFERENCE_KINDS)
    @given(ds=tie_heavy_sets(), seed=st.integers(0, 2 ** 16))
    def test_tie_heavy_sets(self, kind, ds, seed):
        with quick_config(kind, seed) as config:
            assert payload_bytes(train(config, ds)) == payload_bytes(reference_train(config, ds))

    @pytest.mark.parametrize("kind", REFERENCE_KINDS)
    def test_published_configs(self, kind):
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(-0.5, 1.0, (90, 4)), rng.normal(0.5, 1.0, (60, 4))])
        X[:, 3] = np.round(X[:, 3])  # a column of heavy ties
        ds = LabeledDataset(X, np.array([0] * 90 + [1] * 60), np.arange(150))
        config = default_config(kind, seed=5)
        assert payload_bytes(train(config, ds)) == payload_bytes(reference_train(config, ds))

    def test_forest_searched_in_small_batches(self, monkeypatch):
        # a budget below one root node's keys: every batch boundary, and
        # nodes alone over budget, in every step
        monkeypatch.setattr(forest, "_BATCH_KEYS", 64)
        rng = np.random.default_rng(12)
        X = np.round(rng.normal(0, 1.5, (120, 5)), 1)
        ds = LabeledDataset(X, (X[:, 0] + rng.normal(0, 1, 120) > 0).astype(int),
                            np.arange(120))
        config = default_config("forest", seed=4)
        assert payload_bytes(train(config, ds)) == payload_bytes(reference_train(config, ds))

    def test_dfs_tree_numbers_children_after_parent(self):
        tree = DfsTree("root")
        data, slot, depth = tree.pop()
        tree.split(slot, depth, 1, 0.5, "left", "right")
        assert tree.pop() == ("left", 1, 1)
        tree.leaf(1, 1.0)
        assert tree.pop() == ("right", 2, 1)
        tree.leaf(2, 0.0)
        assert tree.pop() is None
        built = tree.tree()
        assert built.feature.tolist() == [1, -1, -1]
        assert (built.left.tolist(), built.right.tolist()) == ([1, 0, 0], [2, 0, 0])
        assert built.value.tolist() == [0.0, 1.0, 0.0]


class TestSvmFixedOrder:
    """The svm sums every dot product in one order per row, so a margin
    depends on its own row alone and a fold on its own data alone."""

    @given(n=st.integers(1, 10_000), seed=st.integers(0, 2 ** 16))
    def test_margin_alone_equals_margin_in_batch(self, n, seed):
        rng = np.random.default_rng(seed)
        model = TrainedModel(default_config("svm"), 11,
                             fit_standardizer(rng.normal(0, 2, (30, 11))),
                             SvmParams(rng.normal(0, 3, 11), rng.normal(), n_features=11))
        X = rng.normal(0, 1, (n, 11)) * 10.0 ** rng.integers(-3, 4, (n, 11))
        batch = decision_scores(model, X)
        alone = np.concatenate([decision_scores(model, x) for x in X])
        assert alone.tobytes() == batch.tobytes()

    @given(sets=st.integers(1, 6), rows=st.integers(4, 40), d=st.integers(1, 5),
           seed=st.integers(0, 2 ** 16))
    def test_lockstep_member_equals_its_fit_alone(self, sets, rows, d, seed):
        rng = np.random.default_rng(seed)
        datasets = []
        for _ in range(sets):
            y = rng.permutation(np.arange(rows) % 2)
            X = rng.normal(0, 1, (rows, d)) + y[:, None] * rng.normal(0, 1, d)
            datasets.append(LabeledDataset(X, y, np.arange(rows)))
        with quick_config("svm", seed) as config:
            group = train_many(config, datasets)
            for ds, model in zip(datasets, group):
                assert payload_bytes(model) == payload_bytes(train(config, ds))

    def test_datasets_of_other_sizes_fit_in_their_own_groups(self):
        # 60, 40 and 60 rows: the first and the last fit in one group
        sets = [separable_60(), xor_sets(n_train=40)[0], xor_sets(n_train=60)[0]]
        with quick_config("svm", 3) as config:
            assert [payload_bytes(m) for m in train_many(config, iter(sets))] == \
                [payload_bytes(train(config, ds)) for ds in sets]
