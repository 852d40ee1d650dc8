"""Classifier configurations, the training dispatcher, and prediction.

Five configurations are supported, each trained in-repo:

* ``forest`` — 100 bagged CART trees, Gini splits, ceil(sqrt(d)) candidate
  features per node, unlimited depth, majority vote.
* ``ada``    — 100 rounds of depth-1 stumps with SAMME updates.
* ``gbt-a``  — 100 Newton-boosted depth-6 trees, shrinkage 0.01.
* ``svm``    — linear hinge/L2 (C=1) via stochastic subgradient descent on
  standardized features.
* ``gbt-b``  — as gbt-a but shrinkage 0.1 and oblivious (level-shared
  split) trees.

All trainers are deterministic functions of (data, seed). Scores are
probability-like for forest/gbt (class threshold 0.5) and signed margins for
ada/svm (class threshold 0); exact threshold ties resolve to NF.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from ..errors import DegenerateDataError, FeatureArityError, InvalidParameterError
from .adaboost import fit_ada, predict_ada
from .data import LabeledDataset, Standardizer, fit_standardizer
from .forest import fit_forest, predict_forest
from .gbt import fit_gbt, fit_oblivious_gbt, predict_gbt
from .svm import fit_svm, predict_svm

KINDS = ("forest", "ada", "gbt-a", "svm", "gbt-b")
_MARGIN_KINDS = ("ada", "svm")


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
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown classifier kind {self.kind!r}")


def default_config(kind: str, seed: int = 7) -> ClassifierConfig:
    """The published hyperparameters for each configuration."""
    if kind == "forest":
        return ClassifierConfig(kind=kind, seed=seed, n_trees=100)
    if kind == "ada":
        return ClassifierConfig(kind=kind, seed=seed, n_rounds=100)
    if kind == "gbt-a":
        return ClassifierConfig(
            kind=kind, seed=seed, n_rounds=100, learning_rate=0.01, tree_depth=6
        )
    if kind == "svm":
        return ClassifierConfig(kind=kind, seed=seed, svm_c=1.0, svm_epochs=100)
    if kind == "gbt-b":
        return ClassifierConfig(
            kind=kind, seed=seed, n_rounds=100, learning_rate=0.1,
            tree_depth=6, oblivious=True,
        )
    raise InvalidParameterError(f"unknown classifier kind {kind!r}")


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
    standardizer = None
    loss = None
    if config.kind == "forest":
        params = fit_forest(X, y, config.n_trees, config.seed)
    elif config.kind == "ada":
        params = fit_ada(X, y, config.n_rounds)
    elif config.kind == "gbt-a":
        params, curve = fit_gbt(X, y, config.n_rounds, config.learning_rate,
                                config.tree_depth)
        loss = tuple(curve)
    elif config.kind == "gbt-b":
        params, curve = fit_oblivious_gbt(X, y, config.n_rounds,
                                          config.learning_rate, config.tree_depth)
        loss = tuple(curve)
    elif config.kind == "svm":
        standardizer = fit_standardizer(X)
        params = fit_svm(standardizer.apply(X), y, c=config.svm_c,
                         epochs=config.svm_epochs, seed=config.seed)
    else:  # pragma: no cover - guarded by ClassifierConfig
        raise InvalidParameterError(f"unknown classifier kind {config.kind!r}")
    return TrainedModel(
        config=config,
        n_features=dataset.n_features,
        standardizer=standardizer,
        params=params,
        train_loss=loss,
    )


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
    kind = model.config.kind
    if kind == "forest":
        return predict_forest(model.params, X)
    if kind == "ada":
        return predict_ada(model.params, X)
    if kind in ("gbt-a", "gbt-b"):
        return predict_gbt(model.params, X)
    if kind == "svm":
        return predict_svm(model.params, X)
    raise InvalidParameterError(f"unknown classifier kind {kind!r}")  # pragma: no cover


def predict_batch(model: TrainedModel, X) -> tuple[np.ndarray, np.ndarray]:
    scores = decision_scores(model, X)
    threshold = 0.0 if model.config.kind in _MARGIN_KINDS else 0.5
    labels = (scores > threshold).astype(np.int64)
    return labels, scores
