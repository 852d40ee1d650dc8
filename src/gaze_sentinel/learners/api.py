"""Classifier configurations, the learner table, training and prediction.

``LEARNERS`` holds one row per configuration (the paper's Random Forest,
AdaBoost, XGBoost, SVM and CatBoost, each trained in-repo): its fit, its
score function, its class threshold, the params type a model file decodes
into and the type of each of its trees. Scores are probability-like for the
forest and the gbts (threshold 0.5) and signed margins for ada and svm
(threshold 0); exact threshold ties resolve to NF. All fits are
deterministic functions of (data, seed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..errors import DegenerateDataError, FeatureArityError, InvalidParameterError
from .adaboost import AdaParams, fit_ada, predict_ada
from .data import LabeledDataset, Standardizer, fit_standardizer
from .forest import ForestParams, TreeNodes, fit_forest, predict_forest
from .gbt import GbtParams, ObliviousTree, fit_gbt, fit_oblivious_gbt, predict_gbt
from .svm import SvmParams, fit_svm, predict_svm


class Learner(NamedTuple):
    fit: Callable  # (X, y, config) -> (params, training loss or None)
    score: Callable  # (params, X) -> scores
    threshold: float  # a score above it labels a row 1
    params_type: type
    tree_type: Optional[type]  # each item of ``params.trees``; None without trees


def _boosted(fit_fn) -> Callable:
    def fit(X, y, config):
        params, curve = fit_fn(X, y, config.n_rounds, config.learning_rate,
                               config.tree_depth)
        return params, tuple(curve)
    return fit


LEARNERS = {
    # 100 bagged CART trees, Gini splits, ceil(sqrt(d)) candidate features
    # per node, unlimited depth; the score is the vote fraction.
    "forest": Learner(lambda X, y, c: (fit_forest(X, y, c.n_trees, c.seed), None),
                      predict_forest, 0.5, ForestParams, TreeNodes),
    # 100 rounds of depth-1 stumps with SAMME updates; the score is a margin.
    "ada": Learner(lambda X, y, c: (fit_ada(X, y, c.n_rounds), None),
                   predict_ada, 0.0, AdaParams, None),
    # 100 Newton-boosted depth-6 trees, shrinkage 0.01; the score is a
    # logistic probability.
    "gbt-a": Learner(_boosted(fit_gbt), predict_gbt, 0.5, GbtParams, TreeNodes),
    # Linear hinge/L2 (C=1) by stochastic subgradient descent on
    # standardized features; the score is a margin.
    "svm": Learner(lambda X, y, c: (fit_svm(X, y, c.svm_c, c.svm_epochs, c.seed), None),
                   predict_svm, 0.0, SvmParams, None),
    # As gbt-a, but shrinkage 0.1 and oblivious (level-shared split) trees.
    "gbt-b": Learner(_boosted(fit_oblivious_gbt), predict_gbt, 0.5, GbtParams,
                     ObliviousTree),
}
KINDS = tuple(LEARNERS)


@dataclass(frozen=True)
class ClassifierConfig:
    kind: str
    seed: int = 7
    n_trees: int = 100
    n_rounds: int = 100
    learning_rate: float = 0.01
    tree_depth: int = 6
    oblivious: bool = False
    svm_c: float = 1.0
    svm_epochs: int = 100

    def __post_init__(self):
        if self.kind not in KINDS:  # a tuple test: an unhashable kind is refused too
            raise InvalidParameterError(f"unknown classifier kind {self.kind!r}")


def default_config(kind: str, seed: int = 7) -> ClassifierConfig:
    """The published hyperparameters: the field defaults, except that gbt-b
    shrinks by 0.1 and grows oblivious trees."""
    if kind == "gbt-b":
        return ClassifierConfig(kind, seed, learning_rate=0.1, oblivious=True)
    return ClassifierConfig(kind, seed)


def config_fingerprint(config: dict) -> str:
    """First 16 hex digits of the sha256 of ``config`` as sorted, compact
    JSON: the fingerprint of a model's config and of a run's provenance."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TrainedModel:
    """Immutable fitted classifier plus its standardization parameters."""

    config: ClassifierConfig
    n_features: int
    standardizer: Optional[Standardizer]
    params: object
    train_loss: Optional[tuple] = None

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(asdict(self.config))


def train(config: ClassifierConfig, dataset: LabeledDataset) -> TrainedModel:
    """Fit ``config`` on ``dataset``; one class only raises
    ``DegenerateDataError``, and a NaN or infinite feature raises
    ``InvalidParameterError``."""
    n0, n1 = dataset.class_counts()
    if n0 == 0 or n1 == 0:
        raise DegenerateDataError("training data must contain both classes")
    X, y = dataset.X, dataset.y
    if not np.isfinite(X).all():  # the split searches rank rows by value
        raise InvalidParameterError("training features must be finite numbers")
    standardizer = fit_standardizer(X) if config.kind == "svm" else None
    params, loss = LEARNERS[config.kind].fit(
        X if standardizer is None else standardizer.apply(X), y, config)
    return TrainedModel(config, dataset.n_features, standardizer, params, loss)


def _as_matrix(model: TrainedModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise FeatureArityError(
            f"expected {model.n_features} features, got shape {X.shape}"
        )
    return X


def decision_scores(model: TrainedModel, X) -> np.ndarray:
    """Vote fraction (forest), logistic probability (gbt), or margin (ada/svm)."""
    X = _as_matrix(model, X)
    if model.standardizer is not None:
        X = model.standardizer.apply(X)
    return LEARNERS[model.config.kind].score(model.params, X)


def predict_batch(model: TrainedModel, X) -> tuple[np.ndarray, np.ndarray]:
    scores = decision_scores(model, X)
    labels = (scores > LEARNERS[model.config.kind].threshold).astype(np.int64)
    return labels, scores
