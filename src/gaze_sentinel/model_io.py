"""Versioned JSON persistence for trained models.

Payloads round-trip bit-exactly (floats serialize via shortest-repr), so a
reloaded model reproduces predictions exactly. The reader accepts any 1.x
schema, warning when the minor version differs; other majors are refused.
It fails closed: a tree whose child indices are out of range or point
backward, a feature index outside [0, n_features), a vector or leaf table of
the wrong length, ``params.n_features`` unequal to ``n_features``, or a
top-level ``kind`` or ``fingerprint`` that does not match the model's config
raises ``ModelFormatError`` before any prediction can run.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .errors import ModelFormatError, SchemaVersionError
from .learners import ClassifierConfig, Standardizer, TrainedModel
from .learners.adaboost import AdaParams
from .learners.forest import ForestParams, TreeNodes
from .learners.gbt import GbtParams, ObliviousTree
from .learners.svm import SvmParams
from .storage import atomic_write_text

MODEL_SCHEMA_VERSION = "1.1"


def _tree_payload(tree: TreeNodes) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
    }


def _tree_from(payload: dict) -> TreeNodes:
    return TreeNodes(
        feature=np.array(payload["feature"], dtype=np.int64),
        threshold=np.array(payload["threshold"], dtype=np.float64),
        left=np.array(payload["left"], dtype=np.int64),
        right=np.array(payload["right"], dtype=np.int64),
        value=np.array(payload["value"], dtype=np.float64),
    )


def _params_payload(kind: str, params) -> dict:
    if kind == "forest":
        return {"trees": [_tree_payload(t) for t in params.trees],
                "n_features": params.n_features}
    if kind == "ada":
        return {
            "feature": params.feature.tolist(),
            "threshold": params.threshold.tolist(),
            "low_value": params.low_value.tolist(),
            "high_value": params.high_value.tolist(),
            "alpha": params.alpha.tolist(),
            "n_features": params.n_features,
        }
    if kind == "gbt-a":
        return {
            "trees": [_tree_payload(t) for t in params.trees],
            "learning_rate": params.learning_rate,
            "n_features": params.n_features,
        }
    if kind == "gbt-b":
        return {
            "trees": [
                {
                    "features": t.features.tolist(),
                    "thresholds": t.thresholds.tolist(),
                    "leaf_values": t.leaf_values.tolist(),
                }
                for t in params.trees
            ],
            "learning_rate": params.learning_rate,
            "n_features": params.n_features,
        }
    if kind == "svm":
        return {"w": params.w.tolist(), "b": params.b, "n_features": params.n_features}
    raise ModelFormatError(f"unknown classifier kind {kind!r}")


def _params_from(kind: str, payload: dict, n_features: int):
    if payload["n_features"] != n_features:
        raise ModelFormatError(f"params.n_features {payload['n_features']!r} "
                               f"differs from n_features {n_features}")
    if kind == "forest":
        return ForestParams(trees=[_tree_from(t) for t in payload["trees"]],
                            n_features=n_features)
    if kind == "ada":
        return AdaParams(
            feature=np.array(payload["feature"], dtype=np.int64),
            threshold=np.array(payload["threshold"], dtype=np.float64),
            low_value=np.array(payload["low_value"], dtype=np.int64),
            high_value=np.array(payload["high_value"], dtype=np.int64),
            alpha=np.array(payload["alpha"], dtype=np.float64),
            n_features=n_features,
        )
    if kind == "gbt-a":
        return GbtParams(trees=[_tree_from(t) for t in payload["trees"]],
                         learning_rate=float(payload["learning_rate"]),
                         n_features=n_features)
    if kind == "gbt-b":
        return GbtParams(
            trees=[
                ObliviousTree(
                    features=np.array(t["features"], dtype=np.int64),
                    thresholds=np.array(t["thresholds"], dtype=np.float64),
                    leaf_values=np.array(t["leaf_values"], dtype=np.float64),
                )
                for t in payload["trees"]
            ],
            learning_rate=float(payload["learning_rate"]),
            n_features=n_features,
        )
    if kind == "svm":
        return SvmParams(w=np.array(payload["w"], dtype=np.float64),
                         b=float(payload["b"]), n_features=n_features)
    raise ModelFormatError(f"unknown classifier kind {kind!r}")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ModelFormatError(message)


def _check_features(where: str, features: np.ndarray, n_features: int) -> None:
    bad = features[(features < 0) | (features >= n_features)]
    _require(bad.size == 0, f"{where}: feature {bad[:1].tolist()} outside "
                            f"[0, {n_features})")


def _check_vector(where: str, vector: np.ndarray, n_features: int) -> None:
    _require(vector.shape == (n_features,),
             f"{where} has shape {vector.shape}, expected ({n_features},)")


def _check_params(kind: str, params, n_features: int) -> None:
    """Checks that building forest and gbt-a params does not already make."""
    if kind == "ada":
        arrays = (params.feature, params.threshold, params.low_value,
                  params.high_value, params.alpha)
        _require(all(a.shape == params.feature.shape and a.ndim == 1 for a in arrays),
                 f"ada arrays differ in shape: {[a.shape for a in arrays]}")
        _check_features("ada", params.feature, n_features)
    elif kind == "gbt-b":
        for k, tree in enumerate(params.trees):
            levels = tree.features.shape
            _require(tree.features.ndim == 1 and tree.thresholds.shape == levels,
                     f"gbt-b tree {k}: features and thresholds differ in shape")
            _require(tree.leaf_values.shape == (2 ** levels[0],),
                     f"gbt-b tree {k}: {tree.leaf_values.shape} leaf values for "
                     f"{levels[0]} levels, expected {2 ** levels[0]}")
            _check_features(f"gbt-b tree {k}", tree.features, n_features)
    elif kind == "svm":
        _check_vector("svm w", params.w, n_features)


def model_payload(model: TrainedModel) -> dict:
    std = None
    if model.standardizer is not None:
        std = {"mean": model.standardizer.mean.tolist(),
               "std": model.standardizer.std.tolist()}
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.config.kind,
        "config": {
            "kind": model.config.kind,
            "seed": model.config.seed,
            "n_trees": model.config.n_trees,
            "n_rounds": model.config.n_rounds,
            "learning_rate": model.config.learning_rate,
            "tree_depth": model.config.tree_depth,
            "oblivious": model.config.oblivious,
            "svm_c": model.config.svm_c,
            "svm_epochs": model.config.svm_epochs,
        },
        "fingerprint": model.fingerprint,
        "n_features": model.n_features,
        "standardizer": std,
        "params": _params_payload(model.config.kind, model.params),
        "train_loss": list(model.train_loss) if model.train_loss else None,
    }


def model_from_payload(payload: dict) -> TrainedModel:
    try:
        version = str(payload["schema_version"])
        major, _, minor = version.partition(".")
        if major != MODEL_SCHEMA_VERSION.partition(".")[0]:
            raise SchemaVersionError(
                f"model schema {version} is incompatible with {MODEL_SCHEMA_VERSION}"
            )
        if minor != MODEL_SCHEMA_VERSION.partition(".")[2]:
            warnings.warn(
                f"model written under schema {version}; reading as {MODEL_SCHEMA_VERSION}"
            )
        config = ClassifierConfig(**payload["config"])
        n_features = payload["n_features"]
        _require(type(n_features) is int and n_features > 0,
                 f"n_features must be a positive integer, got {n_features!r}")
        std = payload.get("standardizer")
        standardizer = None
        if std is not None:
            standardizer = Standardizer(
                mean=np.array(std["mean"], dtype=np.float64),
                std=np.array(std["std"], dtype=np.float64),
            )
            _check_vector("standardizer mean", standardizer.mean, n_features)
            _check_vector("standardizer std", standardizer.std, n_features)
        params = _params_from(config.kind, payload["params"], n_features)
        _check_params(config.kind, params, n_features)
        loss = payload.get("train_loss")
        model = TrainedModel(
            config=config,
            n_features=n_features,
            standardizer=standardizer,
            params=params,
            train_loss=tuple(loss) if loss else None,
        )
        _require(payload["kind"] == config.kind,
                 f"kind {payload['kind']!r} differs from config kind {config.kind!r}")
        _require(payload["fingerprint"] == model.fingerprint,
                 f"fingerprint {payload['fingerprint']!r} differs from "
                 f"{model.fingerprint!r}, the fingerprint of its config")
        return model
    except SchemaVersionError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model payload: {exc}") from exc


def save_model(model: TrainedModel, path) -> None:
    atomic_write_text(path, json.dumps(model_payload(model), indent=1))


def load_model(path) -> TrainedModel:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError:
        raise
    except ValueError as exc:
        raise ModelFormatError(f"cannot parse model file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(f"model file {path} does not hold an object")
    return model_from_payload(payload)
