import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaze_sentinel.errors import (
    GazeSentinelError,
    InvalidParameterError,
    ModelFormatError,
    SchemaVersionError,
)
from gaze_sentinel.learners import (
    KINDS,
    ClassifierConfig,
    LabeledDataset,
    config_fingerprint,
    default_config,
    predict_batch,
    train,
)
from gaze_sentinel.learners.api import PUBLISHED
from gaze_sentinel.model_io import (
    MODEL_SCHEMA_VERSION,
    load_model,
    model_payload,
    save_model,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def committed_payload(kind: str) -> dict:
    with open(os.path.join(FIXTURES, f"model_{kind}.json"), encoding="utf-8") as fh:
        return json.load(fh)


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


@pytest.mark.parametrize("kind", KINDS)
def test_committed_model_saves_back_to_identical_bytes(tmp_path, kind):
    """Files written by an earlier release pin the format: each loads and
    saves back byte for byte, without refitting."""
    path = os.path.join(FIXTURES, f"model_{kind}.json")
    again = tmp_path / "again.json"
    save_model(load_model(path), again)
    with open(path, "rb") as fh:
        assert again.read_bytes() == fh.read()


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


def _first_internal(payload, key, value, k=0):
    tree = _tree(payload["params"], k)
    i = next(i for i, f in enumerate(tree["feature"]) if f != -1)
    tree[key][i] = value


def _value_moved_to_earlier_tree(payload, k=3):
    """Tree k's ``value`` one longer and tree k + 1's one shorter: the totals
    over all trees agree, so only a split by each tree's own length shows it."""
    trees = payload["params"]["trees"]
    trees[k]["value"].append(trees[k + 1]["value"].pop())


def _add_half(key):
    """A mutation that adds 0.5 to ``key`` of tree 0's first internal node."""
    def mutate(payload):
        tree = _tree(payload["params"])
        i = next(i for i, f in enumerate(tree["feature"]) if f != -1)
        tree[key][i] += 0.5
    return mutate


def _chain_first_tree(leaves):
    """A mutation that makes tree 0 a chain of ``leaves`` leaves: internal
    node i splits feature 0 at i, its left child a leaf and its right child
    the next internal node (the last leaf at the end)."""
    def mutate(payload):
        n = 2 * leaves - 1
        internal = [i % 2 == 0 and i < n - 1 for i in range(n)]
        payload["params"]["trees"][0] = {
            "feature": [0 if inner else -1 for inner in internal],
            "threshold": [float(i) if inner else 0.0 for i, inner in enumerate(internal)],
            "left": [i + 1 if inner else 0 for i, inner in enumerate(internal)],
            "right": [i + 2 if inner else 0 for i, inner in enumerate(internal)],
            "value": [float(i % 2) for i in range(n)]}
    return mutate


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
    ("gbt-a", "shared child", _set_root_children(1)),
    ("forest", "4,097 leaves", _chain_first_tree(4097)),
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
    ("svm", "unknown params key", _set(["params", "scale"], 1.0)),
    ("gbt-b", "unknown tree key", _set(["params", "trees", 0, "depth"], 6)),
    ("forest", "unknown config kind", _set(["config", "kind"], "mlp")),
    ("forest", "standardizer on a kind that takes none",
     _set(["standardizer"], {"mean": [0.0] * 4, "std": [1.0] * 4})),
    ("svm", "no standardizer", _set(["standardizer"], None)),
    ("svm", "NaN weight", _set(["params", "w", 0], float("nan"))),
    ("svm", "infinite bias", _set(["params", "b"], float("inf"))),
    ("ada", "infinite alpha", _set(["params", "alpha", 0], float("inf"))),
    ("ada", "NaN threshold", _set(["params", "threshold", 0], float("nan"))),
    ("gbt-b", "infinite leaf value", lambda p: _tree(p["params"])["leaf_values"].__setitem__(
        0, -float("inf"))),
    ("gbt-a", "NaN threshold", lambda p: _first_internal(p, "threshold", float("nan"))),
    ("forest", "infinite threshold", lambda p: _first_internal(p, "threshold", float("inf"))),
    ("forest", "infinite threshold in the last tree",
     lambda p: _first_internal(p, "threshold", float("inf"), k=-1)),
    ("gbt-b", "NaN leaf value in a later tree",
     lambda p: _tree(p["params"], 7)["leaf_values"].__setitem__(3, float("nan"))),
    ("forest", "value lengths shifted between trees", _value_moved_to_earlier_tree),
    ("svm", "NaN standardizer mean", _set(["standardizer", "mean", 0], float("nan"))),
    ("svm", "infinite standardizer std", _set(["standardizer", "std", 0], float("inf"))),
    ("svm", "negative standardizer std", _set(["standardizer", "std", 0], -1.0)),
    ("ada", "low value 2", _set(["params", "low_value", 0], 2)),
    ("ada", "high value -1", _set(["params", "high_value", 0], -1)),
    ("ada", "zero alpha", _set(["params", "alpha", 0], 0.0)),
    ("ada", "negative alpha", _set(["params", "alpha", 0], -1.0)),
    ("gbt-a", "learning rate unlike its config", _set(["params", "learning_rate"], 0.5)),
    ("gbt-b", "learning rate unlike its config", _set(["params", "learning_rate"], 0.01)),
    ("forest", "fractional feature", _add_half("feature")),
    ("forest", "fractional left child", _add_half("left")),
    ("gbt-a", "fractional left child", _add_half("left")),
    ("gbt-b", "fractional feature", _set(["params", "trees", 0, "features", 0], 1.5)),
    ("ada", "fractional feature", _set(["params", "feature", 0], 1.7)),
    ("ada", "fractional low value", _set(["params", "low_value", 0], 1.5)),
    ("forest", "train_loss on a kind without one", _set(["train_loss"], [1.0, 2.0])),
    ("ada", "train_loss on a kind without one", _set(["train_loss"], [1.0, 2.0])),
    ("svm", "train_loss on a kind without one", _set(["train_loss"], [1.0, 2.0])),
    ("gbt-a", "train_loss a string", _set(["train_loss"], "abc")),
    ("gbt-a", "NaN train_loss", _set(["train_loss", 0], float("nan"))),
    ("gbt-a", "train_loss one value short", lambda p: p["train_loss"].pop()),
    ("svm", "bias a string", _set(["params", "b"], "0.5")),
    ("svm", "bias true", _set(["params", "b"], True)),
    ("svm", "weight a string", _set(["params", "w", 0], "1e3")),
    ("svm", "standardizer mean a string", _set(["standardizer", "mean", 0], "0.5")),
    ("gbt-a", "learning rate a numeric string", _set(["params", "learning_rate"], "0.01")),
    ("forest", "feature true", lambda p: _first_internal(p, "feature", True)),
    ("forest", "threshold true", lambda p: _first_internal(p, "threshold", True)),
]


def _with_trees(payload, count):
    """``payload`` with its trees (ada: its stumps) cut to, or grown by
    repeats to, ``count``."""
    params = payload["params"]
    for key in ("trees",) if "trees" in params else (
            "feature", "threshold", "low_value", "high_value", "alpha"):
        params[key] = (params[key] * 2)[:count]
    return payload


# (kind, tree count, whether it loads): forest, gbt-a and gbt-b fits grow
# exactly their published count; ada may stop early, down to no stump.
TREE_COUNTS = [
    ("forest", 50, False), ("forest", 101, False), ("forest", 100, True),
    ("gbt-a", 99, False), ("gbt-a", 101, False), ("gbt-a", 100, True),
    ("gbt-b", 1, False), ("gbt-b", 200, False), ("gbt-b", 100, True),
    ("ada", 101, False), ("ada", 0, True), ("ada", 1, True), ("ada", 50, True),
]


@pytest.mark.parametrize("kind, count, loads", TREE_COUNTS)
def test_tree_count_is_the_records(tmp_path, kind, count, loads):
    """A committed model file with its trees cut or grown, its config and
    fingerprint untouched, loads only with a count its record allows."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_with_trees(committed_payload(kind), count)))
    if loads:
        assert len(load_model(path).params.nodes) == count
    else:
        with pytest.raises(ModelFormatError, match=f"{re.escape(str(path))}.* {count} trees"):
            load_model(path)


def test_stumpless_ada_round_trips(tmp_path):
    """ada on constant features keeps no stump; the file it saves loads and
    predicts as the model did."""
    X, y = np.ones((10, 2)), np.array([0, 1] * 5)
    model = train(default_config("ada"), LabeledDataset(X, y, np.arange(10)))
    assert model.params.alpha.size == 0
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert model_payload(loaded) == model_payload(model)
    assert np.array_equal(predict_batch(loaded, X)[1], np.zeros(10))


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


# Faults in one tree of many, and the message that names each: the same
# whether trees are decoded one by one or from one array per field.
TREE_FAULTS = [
    ("forest", lambda p: _first_internal(p, "threshold", float("inf"), k=-1),
     "TreeNodes.threshold holds a number that is not finite"),
    ("gbt-b", lambda p: _tree(p["params"], 7)["leaf_values"].__setitem__(3, float("nan")),
     "ObliviousTree.leaf_values holds a number that is not finite"),
    ("forest", _value_moved_to_earlier_tree,
     "ValueError: tree node arrays must be 1-D, non-empty and of equal length"),
    ("gbt-a", _set(["params", "trees", 4, "value"], 0.5),
     "ValueError: tree node arrays must be 1-D, non-empty and of equal length"),
    ("gbt-a", _set(["params", "trees", 4, "feature", 0], "x"),
     "ValueError: invalid literal for int() with base 10: 'x'"),
    ("gbt-b", _set(["params", "trees", 2, "depth"], 6),
     "ObliviousTree needs the fields ['features', 'thresholds', 'leaf_values'], "
     "got ['depth', 'features', 'leaf_values', 'thresholds']"),
    ("forest", _add_half("feature"), "TreeNodes.feature holds a value that is not an integer"),
    ("gbt-a", _set_root_children(1), "ValueError: tree 0: node 1 is the child of 2 nodes, not 1"),
    ("forest", _chain_first_tree(4097), "tree 0 has 4097 leaves; the walk packs at most 4096"),
]


@pytest.mark.parametrize("kind, mutate, message", TREE_FAULTS)
def test_tree_fault_message(tmp_path, fitted, kind, mutate, message):
    payload = model_payload(fitted[kind])
    mutate(payload)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match=re.escape(f"model file {path}: malformed model payload: {message}")):
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


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unread_hyperparameter_is_refused(tmp_path_factory, fitted, kind, data):
    """A published hyperparameter refuses any value other than its own, in
    value or in type: as a config, which takes no such field, and inside a
    model file whose fingerprint matches the edited config."""
    payload = model_payload(fitted[kind])  # the kind's published config
    name = data.draw(st.sampled_from(list(PUBLISHED)))
    good = payload["config"][name]
    value = data.draw(st.one_of(JSON_VALUES, st.sampled_from(
        [float(good), int(good), bool(good), str(good), -good])).filter(
        lambda v: (type(v), v) != (type(good), good)))
    with pytest.raises(TypeError, match=name):
        ClassifierConfig(kind, **{name: value})
    config = {**payload["config"], name: value}
    payload.update(config=config, fingerprint=config_fingerprint(config))
    path = tmp_path_factory.mktemp("unread") / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match=name):
        load_model(path)


# Values no fit can use: a count or seed that is not a whole number or is
# below its bound, and a rate that is not a finite number above 0.
OUT_OF_RANGE = [
    ("seed", -1), ("seed", 1.0), ("seed", True), ("n_trees", 0), ("n_trees", 2.5),
    ("n_trees", False), ("n_rounds", -1), ("n_rounds", "100"), ("tree_depth", 0),
    ("svm_epochs", 0), ("learning_rate", float("nan")), ("learning_rate", 0.0),
    ("learning_rate", float("inf")), ("learning_rate", True), ("svm_c", 0.0),
    ("svm_c", -1.0), ("svm_c", "1.0"), ("svm_c", None),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name, value", OUT_OF_RANGE)
def test_out_of_range_config_is_refused(tmp_path, kind, name, value):
    """Refused for every kind inside a committed model file whose
    fingerprint matches the edited config, and a seed as a config too.
    Nothing is fitted."""
    payload = committed_payload(kind)
    config = {**payload["config"], name: value}
    if name == "seed":
        with pytest.raises(InvalidParameterError, match=name):
            ClassifierConfig(kind, value)
    payload.update(config=config, fingerprint=config_fingerprint(config))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match=name):
        load_model(path)


def _other_value(value):
    """(half the value in its own type, the value in another type)."""
    if isinstance(value, bool):
        return not value, int(value)
    return type(value)(value / 2), (float if isinstance(value, int) else int)(value)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("edit", ["value", "type", "missing", "extra"])
@pytest.mark.parametrize("name", list(PUBLISHED))
def test_config_other_than_the_record_is_refused(tmp_path, kind, edit, name):
    """A config is its kind's published record, key for key: a file that
    differs from it in one value (a forest claiming 50 trees, say), one
    type, a missing or an extra key is refused, naming the file and the
    key, whatever its fingerprint."""
    payload = committed_payload(kind)
    config = dict(payload["config"])
    if edit == "missing":
        del config[name]
    elif edit == "extra":
        name = f"{name}_2"
        config[name] = 1
    else:
        config[name] = _other_value(config[name])[edit == "type"]
    payload.update(config=config, fingerprint=config_fingerprint(config))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match=f"{re.escape(str(path))}.*{name}"):
        load_model(path)


@pytest.mark.parametrize("kind", KINDS)
def test_seed_zero_is_in_range(kind):
    assert default_config(kind, seed=0).seed == 0
