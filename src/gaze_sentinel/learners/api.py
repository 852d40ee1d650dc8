"""Classifier configurations, the learner table, training and prediction.

``LEARNERS`` holds one row per configuration (the paper's Random Forest,
AdaBoost, XGBoost, SVM and CatBoost, each trained in-repo): its fit and the
published values it takes, its score function, its class threshold, the
params type a model file decodes into, the table type and count of its trees, its
overrides of ``PUBLISHED`` and whether it standardizes. Scores are
probability-like for the forest and the gbts (threshold 0.5) and signed
margins for ada and svm (threshold 0); exact threshold ties resolve to NF.
All fits are deterministic functions of (data, seed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .. import fields
from ..errors import DegenerateDataError, FeatureArityError, InvalidParameterError
from .adaboost import AdaParams, fit_ada, predict_ada
from .data import LabeledDataset, Standardizer, fit_standardizer
from .forest import ForestParams, fit_forest, predict_forest
from .gbt import GbtParams, fit_gbt, fit_oblivious_gbt, predict_gbt
from .svm import SvmParams, fit_svm, predict_svm
from .trees import ObliviousTree, TreeNodes


class Learner(NamedTuple):
    fit: Callable  # (X, y, *fields) -> params, or (params, training loss)
    fields: tuple  # the record values ``fit`` takes, in its argument order
    score: Callable  # (params, X) -> scores
    threshold: float  # a score above it labels a row 1
    params_type: type
    tree_type: Optional[type]  # the table type of ``params.trees``; None without trees
    tree_count: str = ""  # the record value its fit grows that many trees of; "" for none
    stops_early: bool = False  # the fit may grow fewer, down to none (ada)
    published: dict = {}  # overrides of ``PUBLISHED``
    standardizes: bool = False  # fit and score on z-scored features
    lockstep: bool = False  # fit takes datasets of one shape stacked, gives a list


# The published hyperparameters, in the order a model file's config lists
# them after kind and seed; a ``LEARNERS`` row overrides some for its kind.
PUBLISHED = {"n_trees": 100, "n_rounds": 100, "learning_rate": 0.01, "tree_depth": 6,
             "oblivious": False, "svm_c": 1.0, "svm_epochs": 100}


_BOOSTED = ("n_rounds", "learning_rate", "tree_depth")
LEARNERS = {
    # 100 bagged CART trees, Gini splits, ceil(sqrt(d)) candidate features
    # per node, unlimited depth; the score is the vote fraction.
    "forest": Learner(fit_forest, ("n_trees", "seed"), predict_forest, 0.5,
                      ForestParams, TreeNodes, "n_trees"),
    # 100 rounds of depth-1 stumps with SAMME updates; the score is a margin.
    "ada": Learner(fit_ada, ("n_rounds",), predict_ada, 0.0, AdaParams, None,
                   "n_rounds", stops_early=True),
    # 100 Newton-boosted depth-6 trees, shrinkage 0.01; the score is a
    # logistic probability.
    "gbt-a": Learner(fit_gbt, _BOOSTED, predict_gbt, 0.5, GbtParams, TreeNodes, "n_rounds"),
    # Linear hinge/L2 (C=1) by stochastic subgradient descent on
    # standardized features, fitted in lockstep; the score is a margin.
    "svm": Learner(fit_svm, ("svm_c", "svm_epochs", "seed"), predict_svm, 0.0,
                   SvmParams, None, standardizes=True, lockstep=True),
    # As gbt-a, but shrinkage 0.1 and oblivious (level-shared split) trees.
    "gbt-b": Learner(fit_oblivious_gbt, _BOOSTED, predict_gbt, 0.5, GbtParams, ObliviousTree,
                     "n_rounds", published={"learning_rate": 0.1, "oblivious": True}),
}
KINDS = tuple(LEARNERS)


@dataclass(frozen=True)
class ClassifierConfig:
    """A kind and a seed (a whole number >= 0); all else is published.
    ``seed`` reaches every kind through the SMOTE of fold models and CLI
    ``train``; a bare ``train`` of ada, gbt-a or gbt-b does not read it."""

    kind: str
    seed: int = 7

    def __post_init__(self):
        if self.kind not in KINDS:  # a tuple test: an unhashable kind is refused too
            raise InvalidParameterError(f"unknown classifier kind {self.kind!r}")
        fields.read(self.seed, "seed", "an integer of at least 0")

    def record(self) -> dict:
        """Kind, seed and every published value: a model file's config, and
        what its fingerprint hashes."""
        return {"kind": self.kind, "seed": self.seed, **PUBLISHED,
                **LEARNERS[self.kind].published}


default_config = ClassifierConfig


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
        return config_fingerprint(self.config.record())


def train(config: ClassifierConfig, dataset: LabeledDataset) -> TrainedModel:
    """``train_many`` of one dataset."""
    return train_many(config, [dataset])[0]


def train_many(config: ClassifierConfig, datasets) -> list:
    """Fit ``config`` on each of ``datasets``, checked as it is drawn: one
    class only raises ``DegenerateDataError``, and a NaN or infinite feature
    ``InvalidParameterError``. A lockstep learner (svm) fits the datasets of
    one shape in one pass; each model equals its fit alone, bit for bit."""
    learner = LEARNERS[config.kind]
    models, groups = [], {}
    for i, dataset in enumerate(datasets):
        n0, n1 = dataset.class_counts()
        if n0 == 0 or n1 == 0:
            raise DegenerateDataError("training data must contain both classes")
        if not np.isfinite(dataset.X).all():  # the split searches rank rows by value
            raise InvalidParameterError("training features must be finite numbers")
        standardizer = fit_standardizer(dataset.X) if learner.standardizes else None
        models.append(TrainedModel(config, dataset.n_features, standardizer, None))
        X = dataset.X if standardizer is None else standardizer.apply(dataset.X)
        groups.setdefault(X.shape if learner.lockstep else i, []).append((i, X, dataset.y))
    args = [config.record()[name] for name in learner.fields]
    for index, X, y in (zip(*group) for group in groups.values()):
        fitted = learner.fit(np.stack(X), np.stack(y), *args) if learner.lockstep \
            else [learner.fit(X[0], y[0], *args)]
        for i, result in zip(index, fitted):
            params, loss = result if isinstance(result, tuple) else (result, None)
            models[i] = replace(models[i], params=params,
                                train_loss=None if loss is None else tuple(loss))
    return models


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
