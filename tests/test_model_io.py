import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaze_sentinel.errors import GazeSentinelError, ModelFormatError, SchemaVersionError
from gaze_sentinel.learners import (
    KINDS,
    LabeledDataset,
    default_config,
    predict_batch,
    train,
)
from gaze_sentinel.model_io import (
    MODEL_SCHEMA_VERSION,
    load_model,
    model_payload,
    save_model,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def training_set(seed=0, d=4):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-1, 0.6, (25, d)), rng.normal(1, 0.6, (25, d))])
    y = np.array([0] * 25 + [1] * 25)
    return LabeledDataset(X, y, np.arange(50))


@pytest.mark.parametrize("kind", KINDS)
def test_roundtrip_preserves_predictions_bit_exactly(tmp_path, kind):
    ds = training_set()
    model = train(default_config(kind, seed=6), ds)
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    loaded = load_model(path)
    probe = np.random.default_rng(1).normal(0, 2, (1000, ds.n_features))
    labels_a, scores_a = predict_batch(model, probe)
    labels_b, scores_b = predict_batch(loaded, probe)
    np.testing.assert_array_equal(labels_a, labels_b)
    np.testing.assert_array_equal(scores_a, scores_b)
    assert loaded.config == model.config
    assert loaded.fingerprint == model.fingerprint


def test_double_roundtrip_is_stable(tmp_path):
    model = train(default_config("gbt-b", seed=3), training_set(2))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_is_a_format_error(tmp_path):
    model = train(default_config("svm", seed=1), training_set(3))
    path = tmp_path / "model.json"
    save_model(model, path)
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_non_object_payload_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("opening", ["[", '{"a":'], ids=["array", "object"])
def test_too_deeply_nested_file_is_a_format_error(tmp_path, opening):
    path = tmp_path / "model.json"
    path.write_text(opening * 100000)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_missing_fields_rejected(tmp_path):
    model = train(default_config("ada", seed=1), training_set(4))
    payload = model_payload(model)
    del payload["params"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_older_minor_version_accepted_with_warning():
    path = os.path.join(FIXTURES, "model_v1_0.json")
    with pytest.warns(UserWarning, match="schema 1.0"):
        model = load_model(path)
    labels, scores = predict_batch(model, np.zeros((2, model.n_features)))
    assert labels.shape == (2,)


def test_other_major_version_refused(tmp_path):
    model = train(default_config("svm", seed=1), training_set(5))
    payload = model_payload(model)
    payload["schema_version"] = "2.0"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaVersionError):
        load_model(path)


def test_current_schema_version_written(tmp_path):
    model = train(default_config("svm", seed=1), training_set(6))
    path = tmp_path / "model.json"
    save_model(model, path)
    assert json.loads(path.read_text())["schema_version"] == MODEL_SCHEMA_VERSION


def _tree(params, k=0):
    return params["trees"][k]


def _set_root_children(value):
    def mutate(payload):
        _tree(payload["params"])["left"][0] = value
        _tree(payload["params"])["right"][0] = value
    return mutate


def _set(path, value):
    """A mutation that sets the item at ``path`` (keys and indices) to value."""
    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


def _first_internal(payload, key, value):
    tree = _tree(payload["params"])
    i = next(i for i, f in enumerate(tree["feature"]) if f != -1)
    tree[key][i] = value


def _backward_child(payload, k=0):
    tree = _tree(payload["params"], k)
    i = next(i for i, f in enumerate(tree["feature"]) if f != -1 and i > 0)
    tree["left"][i] = i - 1


MALFORMED = [
    ("forest", "cyclic root", _set_root_children(0)),
    ("gbt-a", "cyclic root", _set_root_children(0)),
    ("forest", "child out of range", _set_root_children(10 ** 6)),
    ("forest", "backward child", _backward_child),
    ("gbt-a", "backward child", _backward_child),
    ("forest", "backward child in a later tree", lambda p: _backward_child(p, 5)),
    ("forest", "array lengths differ", lambda p: _tree(p["params"])["value"].pop()),
    ("gbt-a", "array lengths differ", lambda p: _tree(p["params"])["threshold"].pop()),
    ("gbt-a", "scalar array", _set(["params", "trees", 0, "value"], 0.5)),
    ("forest", "feature 99", lambda p: _first_internal(p, "feature", 99)),
    ("gbt-a", "negative feature", lambda p: _first_internal(p, "feature", -2)),
    ("forest", "non-vote leaf", _set(["params", "trees", 0, "value", -1], 0.5)),
    ("gbt-b", "feature out of range", _set(["params", "trees", 0, "features", 0], 4)),
    ("gbt-b", "leaf table length", lambda p: _tree(p["params"])["leaf_values"].pop()),
    ("ada", "feature out of range", _set(["params", "feature", 0], 4)),
    ("ada", "array lengths differ", lambda p: p["params"]["alpha"].pop()),
    ("svm", "w length", lambda p: p["params"]["w"].append(0.0)),
    ("svm", "standardizer mean length", lambda p: p["standardizer"]["mean"].pop()),
    ("svm", "standardizer std length", lambda p: p["standardizer"]["std"].append(1.0)),
    ("svm", "params.n_features", _set(["params", "n_features"], 3)),
    ("forest", "params.n_features", _set(["params", "n_features"], 3)),
    ("gbt-b", "n_features not an integer", _set(["n_features"], "4")),
    ("gbt-a", "learning rate not a number", _set(["params", "learning_rate"], "fast")),
    ("gbt-a", "learning rate beyond float", _set(["params", "learning_rate"], 10 ** 400)),
    ("forest", "feature beyond int64", lambda p: _first_internal(p, "feature", 2 ** 63)),
    ("forest", "kind unlike its config", _set(["kind"], "svm")),
    ("forest", "fingerprint unlike its config", _set(["fingerprint"], "0000")),
]


@pytest.fixture(scope="module")
def fitted():
    """Models of every kind fitted on shuffled labels, so trees grow deep."""
    ds = training_set(7)
    shuffled = LabeledDataset(ds.X, np.random.default_rng(0).permutation(ds.y), ds.groups)
    return {kind: train(default_config(kind, seed=2), shuffled) for kind in KINDS}


@pytest.mark.parametrize("kind, fault, mutate", MALFORMED,
                         ids=[f"{k}-{f}" for k, f, _ in MALFORMED])
def test_malformed_model_is_a_format_error(tmp_path, fitted, kind, fault, mutate):
    payload = model_payload(fitted[kind])
    mutate(payload)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError):
        load_model(path)


# Values a payload item is replaced by or grown with: in and out of every
# field's type, overflowing int64 and float, and non-finite.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12),
    st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 400, -10 ** 400]),
    st.floats(), st.text(max_size=4), st.lists(st.integers(-3, 12), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 12), max_size=2),
)


def edit_payload(payload, steps, op, value):
    """Descend by ``steps`` (each picks one key or item of a container) and
    set, delete or grow the item reached."""
    parent, key, node = None, None, payload
    for step in steps:
        keys = sorted(node) if isinstance(node, dict) else range(len(node)) \
            if isinstance(node, list) else ()
        if not keys:
            break
        parent, key = node, keys[step % len(keys)]
        node = node[key]
    if op == "set" and parent is not None:
        parent[key] = value
    elif op == "delete" and parent is not None:
        del parent[key]
    elif op == "grow" and isinstance(node, list):
        node.append(value)


def edit_digit(text, at, digit):
    digits = [k for k, c in enumerate(text) if c.isdigit()]
    pos = digits[at % len(digits)]
    return text[:pos] + str(digit) + text[pos + 1:]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.filterwarnings("ignore:model written under schema")
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_model_fails_closed_or_round_trips(tmp_path_factory, fitted, kind, data):
    """A mutated model file either raises a toolkit error, or loads a model
    that predicts and saves back to a file that loads unchanged."""
    payload = model_payload(fitted[kind])
    for op, steps, value in data.draw(st.lists(
            st.tuples(st.sampled_from(["set", "delete", "grow"]),
                      st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6),
                      JSON_VALUES), max_size=3)):
        edit_payload(payload, steps, op, value)
    text = json.dumps(payload)
    for at, digit in data.draw(st.lists(st.tuples(st.integers(0, 10 ** 6),
                                                  st.integers(0, 9)), max_size=2)):
        text = edit_digit(text, at, digit)
    path = tmp_path_factory.mktemp("mutated") / "model.json"
    path.write_text(text)
    try:
        model = load_model(path)
    except GazeSentinelError:
        return
    predict_batch(model, np.random.default_rng(0).normal(0, 2, (20, model.n_features)))
    again = path.with_name("again.json")
    save_model(model, again)
    save_model(load_model(again), path)
    assert path.read_bytes() == again.read_bytes()
