import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaze_sentinel.errors import InsufficientMinorityError, InvalidParameterError
from gaze_sentinel.learners import (
    LabeledDataset,
    fit_standardizer,
    smote,
)


def dataset(X, y, groups=None):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    groups = np.arange(len(y)) if groups is None else np.asarray(groups)
    return LabeledDataset(X, y, groups)


def two_nearest(Xm, i):
    d = np.linalg.norm(Xm - Xm[i], axis=1)
    d[i] = np.inf
    order = np.argsort(d, kind="stable")
    return order[:2]


def assert_on_neighbour_segment(synth, Xm, atol=1e-9):
    """Verify one synthetic row lies between some minority row and one of its
    two nearest same-class neighbours, via exhaustive recomputation."""
    for i in range(len(Xm)):
        for j in two_nearest(Xm, i):
            seg = Xm[j] - Xm[i]
            denom = float(seg @ seg)
            if denom == 0.0:
                if np.allclose(synth, Xm[i], atol=atol):
                    return True
                continue
            u = float((synth - Xm[i]) @ seg) / denom
            if -1e-9 <= u <= 1 + 1e-9 and np.allclose(
                synth, Xm[i] + u * seg, atol=atol
            ):
                return True
    return False


class TestSmote:
    def test_balanced_input_returned_unchanged(self):
        ds = dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
        assert smote(ds, rng=np.random.default_rng(0)) is ds

    def test_collinear_geometry(self):
        X = np.array([[float(i), 0.0] for i in range(12)] + [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        y = np.array([0] * 12 + [1] * 3)
        out = smote(dataset(X, y), k=2, rng=np.random.default_rng(1))
        synth = out.X[15:]
        assert np.all(synth[:, 1] == 0.0)
        assert np.all((synth[:, 0] >= 0.0) & (synth[:, 0] <= 2.0))

    def test_24_vs_4_balances_and_interpolates(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(0, 1, (24, 3)), rng.normal(5, 1, (4, 3))])
        y = np.array([0] * 24 + [1] * 4)
        out = smote(dataset(X, y), k=2, rng=np.random.default_rng(3))
        assert out.class_counts() == (24, 24)
        assert len(out) == 48
        Xm = X[24:]
        for row in out.X[28:]:
            assert assert_on_neighbour_segment(row, Xm)

    def test_originals_retained_unchanged(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0, 1, (10, 2)), rng.normal(3, 1, (4, 2))])
        y = np.array([0] * 10 + [1] * 4)
        ds = dataset(X, y)
        out = smote(ds, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(out.X[:14], X)
        np.testing.assert_array_equal(out.y[:14], y)

    def test_minority_class_zero_supports_either_label(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(0, 1, (4, 2)), rng.normal(3, 1, (9, 2))])
        y = np.array([0] * 4 + [1] * 9)
        out = smote(dataset(X, y), rng=np.random.default_rng(7))
        assert out.class_counts() == (9, 9)
        assert np.all(out.y[13:] == 0)

    def test_synthetic_rows_inherit_base_participant(self):
        X = np.vstack([np.zeros((6, 2)), [[1.0, 1.0], [1.1, 1.0], [0.9, 1.0]]])
        y = np.array([0] * 6 + [1] * 3)
        groups = np.array([1, 1, 2, 2, 3, 3, 7, 8, 9])
        out = smote(dataset(X, y, groups), rng=np.random.default_rng(8))
        assert set(out.groups[9:]) <= {7, 8, 9}

    def test_insufficient_minority_raises(self):
        ds = dataset([[0.0], [1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 1, 1])
        with pytest.raises(InsufficientMinorityError):
            smote(ds, k=2, rng=np.random.default_rng(0))

    def test_deterministic_given_rng_seed(self):
        rng = np.random.default_rng(9)
        X = np.vstack([rng.normal(0, 1, (20, 4)), rng.normal(2, 1, (5, 4))])
        y = np.array([0] * 20 + [1] * 5)
        a = smote(dataset(X, y), rng=np.random.default_rng(11))
        b = smote(dataset(X, y), rng=np.random.default_rng(11))
        np.testing.assert_array_equal(a.X, b.X)

    @given(st.integers(0, 10_000))
    def test_random_imbalanced_datasets(self, seed):
        rng = np.random.default_rng(seed)
        n_min = int(rng.integers(3, 10))
        n_maj = int(rng.integers(n_min + 1, 40))
        d = int(rng.integers(2, 6))
        X = np.vstack([rng.normal(0, 1, (n_maj, d)), rng.normal(1, 1, (n_min, d))])
        y = np.array([0] * n_maj + [1] * n_min)
        out = smote(dataset(X, y), k=2, rng=rng)
        n0, n1 = out.class_counts()
        assert n0 == n1 == n_maj
        np.testing.assert_array_equal(out.X[: n_maj + n_min], X)
        Xm = X[n_maj:]
        for row in out.X[n_maj + n_min:]:
            assert assert_on_neighbour_segment(row, Xm)


class TestStandardizer:
    def test_constant_column_maps_to_zero(self):
        X = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 9.0]])
        params = fit_standardizer(X)
        out = params.apply(X)
        assert np.all(out[:, 0] == 0.0)

    def test_population_std_two_points(self):
        params = fit_standardizer(np.array([[0.0], [2.0]]))
        assert params.mean[0] == 1.0
        assert params.std[0] == 1.0
        np.testing.assert_allclose(params.apply(np.array([[0.0], [2.0]])),
                                   [[-1.0], [1.0]])

    def test_refit_moments(self):
        rng = np.random.default_rng(12)
        X = rng.normal(3, 2, (50, 4))
        params = fit_standardizer(X)
        Z = params.apply(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_apply_standardizer_on_single_vector(self):
        params = fit_standardizer(np.array([[0.0, 1.0], [2.0, 1.0]]))
        out = params.apply(np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidParameterError):
            fit_standardizer(np.empty((0, 3)))
