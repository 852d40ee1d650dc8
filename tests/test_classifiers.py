import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaze_sentinel.errors import DegenerateDataError, FeatureArityError, InvalidParameterError
from gaze_sentinel.learners import (
    KINDS,
    ClassifierConfig,
    LabeledDataset,
    TrainedModel,
    decision_scores,
    default_config,
    predict_batch,
    train,
)
from gaze_sentinel.learners.adaboost import AdaParams
from gaze_sentinel.learners.forest import ForestParams, TreeNodes, predict_forest
from gaze_sentinel.learners.gbt import (
    GbtParams,
    ObliviousTree,
    _bin_groups,
    _oblivious_level,
    _sigmoid,
    predict_gbt,
)
from gaze_sentinel.learners.svm import SvmParams


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
        assert default_config("forest").n_trees == 100
        assert default_config("ada").n_rounds == 100
        gbt_a = default_config("gbt-a")
        assert (gbt_a.n_rounds, gbt_a.learning_rate, gbt_a.oblivious) == (100, 0.01, False)
        svm = default_config("svm")
        assert (svm.svm_c, svm.svm_epochs) == (1.0, 100)
        gbt_b = default_config("gbt-b")
        assert (gbt_b.n_rounds, gbt_b.learning_rate, gbt_b.tree_depth,
                gbt_b.oblivious) == (100, 0.1, 6, True)

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
        np.testing.assert_array_equal(tree.apply(X), [0.0, 1.0, 2.0, 3.0])


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

    @given(random_trees(n_features=3, votes=True), st.integers(0, 2 ** 31 - 1))
    def test_random_forests_match_reference(self, trees, seed):
        params = ForestParams(trees=trees, n_features=3)
        X = probe_with_ties(trees, 3, n=40, seed=seed)
        assert predict_forest(params, X).tobytes() == reference_forest(params, X).tobytes()
        for tree in trees:
            assert tree.apply(X).tobytes() == reference_apply(tree, X).tobytes()

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
    def test_grouped_scoring_matches_per_feature(self, seed, n, d, n_leaves):
        rng = np.random.default_rng(seed)
        n_bins = rng.choice([1, 2, 3, 9, 64], size=d).tolist()
        codes = [rng.integers(0, bins, n) for bins in n_bins]
        p = rng.uniform(0.01, 0.99, n)
        g, h = p - rng.integers(0, 2, n), p * (1.0 - p)
        leaf = rng.integers(0, n_leaves, n)
        assert _oblivious_level(_bin_groups(codes, n_bins), g, h, leaf, n_leaves, 1.0) \
            == per_feature_level(codes, n_bins, g, h, leaf, n_leaves, 1.0)
