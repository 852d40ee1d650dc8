"""Versioned JSON persistence for trained models.

Payloads round-trip bit-exactly (floats serialize via shortest-repr), so a
reloaded model reproduces predictions exactly. The reader accepts any 1.x
schema, warning when the minor version differs; other majors are refused.

A kind's params payload is its params type's fields in declaration order,
arrays as lists and ``trees`` one object per tree, which the kind's tree
type (named in its ``LEARNERS`` row) decodes into one table and encodes
back tree by tree. Params and tree types check their own invariants when
built, so a loaded model meets a fitted one's checks, and read every number
by ``fields``: a scalar with ``fields.read`` and an array with
``fields.column``, so an integer field refuses a number that is not a JSON
integer, and any field a bool, a string or a number that is not finite.
This module checks the envelope against the kind's published config record
(``ClassifierConfig.record``: the same keys, each value of the same type)
and learner row: keys, types and lengths, the standardizer, ``n_features``,
``params.learning_rate``, the tree count (``tree_count``, or at most it
where the row ``stops_early``), ``train_loss`` (null, or a booster's
``n_rounds`` + 1 finite numbers), ``kind`` and ``fingerprint``. A fault
raises ``ModelFormatError`` naming the file before any prediction runs.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import fields, is_dataclass

import numpy as np

from .errors import ModelFormatError, SchemaVersionError
from .learners import LEARNERS, ClassifierConfig, Standardizer, TrainedModel
from .fields import column, read
from .learners.trees import require_fields
from .storage import atomic_write, decoding, read_json

MODEL_SCHEMA_VERSION = "1.1"


def _encode(value):
    """A dataclass as its init fields in declaration order, a tree table
    tree by tree, arrays and sequences as lists."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value) if f.init}
    if hasattr(value, "records"):
        return value.records()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(cls, payload, tree_cls=None):
    """``cls`` built from an object holding exactly its init fields, its
    ``trees`` decoded by ``tree_cls``."""
    require_fields(cls.__name__, [f.name for f in fields(cls) if f.init], [payload])
    if tree_cls is not None:
        payload = {**payload, "trees": tree_cls.from_records(payload["trees"])}
    return cls(**payload)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ModelFormatError(message)


def model_payload(model: TrainedModel) -> dict:
    return {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.config.kind,
        "config": model.config.record(),
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
        raw = payload["config"]
        config = ClassifierConfig(raw["kind"], raw["seed"])
        record = config.record()
        got, want = ({k: (type(v), v) for k, v in d.items()} for d in (raw, record))
        for key in {**want, **got}:  # the record's keys in order, then any others
            _require(got.get(key) == want.get(key),
                     f"config {key!r} differs from the published {config.kind} record")
        n_features = read(payload["n_features"], "n_features", "an integer of at least 1")
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
        rate = record["learning_rate"]
        _require(getattr(params, "learning_rate", rate) == rate,
                 f"params.learning_rate differs from config learning_rate {rate}")
        if learner.tree_count:
            count, most = len(params.nodes), record[learner.tree_count]
            _require(count == most or learner.stops_early and count < most,
                     f"params hold {count} trees, not {most} ({learner.tree_count})")
        loss = payload.get("train_loss")
        boosted = hasattr(params, "learning_rate")  # its loss before each round, and after
        _require((type(loss) is list and len(loss) == count + 1) if boosted else loss is None,
                 f"train_loss must be {f'{count + 1} numbers' if boosted else 'null'}")
        loss = tuple(column(loss, np.float64, "train_loss").tolist()) if boosted else None
        model = TrainedModel(
            config=config,
            n_features=n_features,
            standardizer=standardizer,
            params=params,
            train_loss=loss,
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
