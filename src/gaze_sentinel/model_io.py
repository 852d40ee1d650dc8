"""Versioned JSON persistence for trained models.

Payloads round-trip bit-exactly (floats serialize via shortest-repr), so a
reloaded model reproduces predictions exactly. The reader accepts any 1.x
schema, warning when the minor version differs; other majors are refused.

A kind's params payload is its params type's fields in declaration order,
arrays as lists and trees the same way (the kind's ``LEARNERS`` row names
its params type and its tree type). The params types check their own
invariants when built, so a loaded model meets the same checks as a fitted
one. This module checks the envelope: a config that ``ClassifierConfig``
refuses (an unknown kind, or a hyperparameter the kind's fit does not take
set to other than its published value), a standardizer where the kind's row
does not standardize or none where it does, a ``params`` object with other
keys than its type's fields, a number in them that is not finite,
``n_features`` that is not a positive integer or differs from
``params.n_features``, a standardizer of the wrong length, a
``params.learning_rate`` unlike the config's, or a top-level ``kind`` or
``fingerprint`` that does not match the model's config raises
``ModelFormatError`` naming the file before any prediction can run.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, fields, is_dataclass

import numpy as np

from .errors import ModelFormatError, SchemaVersionError
from .learners import LEARNERS, ClassifierConfig, Standardizer, TrainedModel
from .storage import atomic_write, decoding, read_json

MODEL_SCHEMA_VERSION = "1.1"


def _encode(value):
    """A dataclass as its init fields in declaration order, arrays and
    sequences as lists."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(cls, payload, tree_cls=None):
    """``cls`` built from an object holding exactly its init fields, each
    item of ``trees`` built as ``tree_cls``, every number of them finite."""
    names = [f.name for f in fields(cls) if f.init]
    if not isinstance(payload, dict) or set(payload) != set(names):
        got = sorted(payload) if isinstance(payload, dict) else type(payload).__name__
        raise ModelFormatError(f"{cls.__name__} needs the fields {names}, got {got}")
    if tree_cls is not None:
        payload = {**payload, "trees": [_decode(tree_cls, t) for t in payload["trees"]]}
    value = cls(**payload)
    for name in names:
        item = getattr(value, name)
        _require(not isinstance(item, (float, np.ndarray)) or np.isfinite(item).all(),
                 f"{cls.__name__}.{name} holds a number that is not finite")
    return value


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ModelFormatError(message)


def model_payload(model: TrainedModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.config.kind,
        "config": asdict(model.config),
        "fingerprint": model.fingerprint,
        "n_features": model.n_features,
        "standardizer": _encode(model.standardizer),
        "params": _encode(model.params),
        "train_loss": list(model.train_loss) if model.train_loss else None,
    }


def model_from_payload(payload: dict) -> TrainedModel:
    with decoding(ModelFormatError, "malformed model payload"):
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
        learner = LEARNERS[config.kind]
        std = payload.get("standardizer")
        _require((std is not None) == learner.standardizes, f"a {config.kind} model "
                 f"{'needs' if learner.standardizes else 'takes no'} standardizer")
        standardizer = None
        if std is not None:
            standardizer = _decode(Standardizer, std)
            for name in ("mean", "std"):
                shape = getattr(standardizer, name).shape
                _require(shape == (n_features,), f"standardizer {name} has shape "
                                                 f"{shape}, expected ({n_features},)")
        params = _decode(learner.params_type, payload["params"], learner.tree_type)
        _require(params.n_features == n_features,
                 f"params.n_features {params.n_features} differs from n_features {n_features}")
        rate = getattr(params, "learning_rate", config.learning_rate)
        _require(rate == config.learning_rate, f"params.learning_rate {rate} differs "
                 f"from config learning_rate {config.learning_rate}")
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


def save_model(model: TrainedModel, path) -> None:
    atomic_write(path, json.dumps(model_payload(model), indent=1).encode())


def load_model(path) -> TrainedModel:
    payload = read_json(path, ModelFormatError, "model file")
    with decoding(ModelFormatError, f"model file {path}"):
        return model_from_payload(payload)
