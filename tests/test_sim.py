import argparse
import bisect
import copy
import functools
import hashlib
import json
import numbers
import os
import shutil
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DEFAULT_PROFILE, profile_dict
from gaze_sentinel import cli, storage
from gaze_sentinel.core import FAILURE_DURATIONS, N_AOI, AoiLabel, Debouncer, segment_session
from gaze_sentinel.errors import GazeSentinelError, InvalidParameterError
from gaze_sentinel.learners import KINDS
from gaze_sentinel.model_io import load_model
from gaze_sentinel.sim import (
    BehaviorParams,
    CorpusSpec,
    DEFAULT_LAYOUT,
    LATIN_SQUARE,
    ScenarioCondition,
    _blend_regime,
    _row_cdfs,
    build_session,
    build_timeline,
    draw_traits,
    generate_corpus,
    latin_square_schedule,
    session_calls,
)


def cond(ft, timing):
    return ScenarioCondition(ft, timing)


class TestLatinSquare:
    def test_row_one(self):
        assert latin_square_schedule(1) == (
            cond("EF", "early"), cond("EF", "late"),
            cond("DF", "late"), cond("DF", "early"),
        )

    def test_row_two(self):
        assert latin_square_schedule(2) == (
            cond("EF", "late"), cond("DF", "early"),
            cond("EF", "early"), cond("DF", "late"),
        )

    def test_cycle_repeats_every_four(self):
        assert latin_square_schedule(5) == latin_square_schedule(1)
        assert latin_square_schedule(14) == latin_square_schedule(2)

    def test_rejects_nonpositive_ids(self):
        with pytest.raises(InvalidParameterError):
            latin_square_schedule(0)

    def test_each_participant_covers_all_conditions(self):
        for pid in range(1, 9):
            schedule = latin_square_schedule(pid)
            assert len({(c.failure_type, c.timing) for c in schedule}) == 4

    def test_four_consecutive_participants_cover_each_position(self):
        for start in range(1, 6):
            for puzzle in range(4):
                conditions = {
                    (latin_square_schedule(pid)[puzzle].failure_type,
                     latin_square_schedule(pid)[puzzle].timing)
                    for pid in range(start, start + 4)
                }
                assert len(conditions) == 4

    def test_square_is_latin(self):
        for puzzle in range(4):
            column = {(row[puzzle].failure_type, row[puzzle].timing)
                      for row in LATIN_SQUARE}
            assert len(column) == 4

    def test_timing_to_piece(self):
        assert cond("EF", "early").piece == 1
        assert cond("DF", "late").piece == 3


class TestTimeline:
    def test_ef_early_failure_window(self):
        rng = np.random.default_rng(0)
        tl = build_timeline(cond("EF", "early"), rng)
        fs, fe = tl.failure_window()
        assert fe - fs == pytest.approx(15.0, abs=1e-12)
        assert tl.failure_piece == 1
        segs = [e for e in tl.events if e.kind == "failure_start"]
        assert segs[0].piece == 1

    def test_df_late_adds_16_5(self):
        rng = np.random.default_rng(1)
        tl = build_timeline(cond("DF", "late"), rng)
        fs, fe = tl.failure_window()
        assert fe - fs == pytest.approx(16.5, abs=1e-12)
        assert tl.failure_piece == 3

    def test_structure_four_pickups_and_placements(self):
        rng = np.random.default_rng(2)
        for c in (cond("EF", "early"), cond("DF", "early"), cond("EF", "late")):
            tl = build_timeline(c, rng)
            kinds = Counter(e.kind for e in tl.events)
            assert kinds["pickup_start"] == 4
            assert kinds["placement_done"] == 4
            assert kinds["failure_start"] == 1
            assert kinds["failure_end"] == 1

    def test_session_duration_near_three_minutes(self):
        rng = np.random.default_rng(3)
        durations = [
            build_timeline(cond("EF", "early"), np.random.default_rng(i)).duration
            for i in range(20)
        ]
        assert 140.0 < min(durations) and max(durations) < 220.0


class TestGazeSynthesis:
    def test_same_seed_bit_identical(self):
        behavior = BehaviorParams.default()
        a = build_session(3, 2, cond("EF", "late"), behavior, 7)
        b = build_session(3, 2, cond("EF", "late"), behavior, 7)
        np.testing.assert_array_equal(a.gaze.t, b.gaze.t)
        np.testing.assert_array_equal(a.gaze.x, b.gaze.x)
        np.testing.assert_array_equal(a.gaze.valid, b.gaze.valid)
        assert a.timeline == b.timeline

    def test_different_seed_differs(self):
        behavior = BehaviorParams.default()
        a = build_session(3, 2, cond("EF", "late"), behavior, 7)
        b = build_session(3, 2, cond("EF", "late"), behavior, 8)
        assert not np.array_equal(a.gaze.x, b.gaze.x)

    def test_samples_cover_session_at_rate(self):
        behavior = BehaviorParams.default()
        s = build_session(1, 1, cond("EF", "early"), behavior, 7)
        expected = int(round(s.timeline.duration * behavior.sample_rate_hz))
        assert len(s.gaze) == expected
        assert s.gaze.t[0] == 0.0
        assert s.gaze.t[-1] < s.timeline.duration

    def test_invalid_rate_close_to_configured(self):
        behavior = BehaviorParams.default()
        s = build_session(2, 1, cond("DF", "early"), behavior, 7)
        rate = 1.0 - np.mean(s.gaze.valid)
        assert abs(rate - behavior.invalid_rate) < 0.01

    def test_valid_points_land_on_scene_aois(self):
        behavior = BehaviorParams.default()
        s = build_session(4, 3, cond("DF", "late"), behavior, 7)
        codes = DEFAULT_LAYOUT.label_points(
            s.gaze.x[s.gaze.valid], s.gaze.y[s.gaze.valid]
        )
        # every AOI should be visited in a 3-minute session
        assert set(np.unique(codes)) == set(int(a) for a in AoiLabel)

    def test_dwells_survive_debouncing(self):
        behavior = BehaviorParams.default()
        s = build_session(5, 1, cond("EF", "early"), behavior, 7)
        fx = Debouncer(s.gaze, s.layout).fixations()
        assert len(fx) > 50
        assert all(f.duration >= 0.1 - 1e-9 for f in fx)


# Transition rows: six entries, exact zeros among them, normalised; a
# regime's rows may also be a blend of two such matrices.
ROWS = st.lists(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                         min_size=N_AOI, max_size=N_AOI).filter(any),
                min_size=2 * N_AOI, max_size=2 * N_AOI)


@given(seed=st.integers(0, 2 ** 64 - 1), rows=ROWS, strength=st.floats(0.0, 1.0),
       picks=st.lists(st.tuples(st.integers(0, 3 * N_AOI - 1), st.floats(1e-3, 30.0)),
                      min_size=1, max_size=40))
def test_transition_draw_is_generator_choice(seed, rows, strength, picks):
    """The walk's draw (an exponential dwell, then ``random()`` bisected into
    the row's CDF) equals an exponential and ``Generator.choice(p=row)``,
    draw for draw, and leaves the generator in the same state."""
    a, b = (np.array(m) / np.sum(m, axis=1, keepdims=True) for m in (rows[:N_AOI], rows[N_AOI:]))
    _, blend = _blend_regime(np.ones(N_AOI), a, np.ones(N_AOI), b, strength)
    matrix = np.vstack([a, b, blend])
    cdfs = _row_cdfs(matrix)
    walk, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for row, scale in picks:
        assert walk.exponential(scale) == reference.exponential(scale)
        assert bisect.bisect_right(cdfs[row], walk.random()) \
            == reference.choice(N_AOI, p=matrix[row])
    assert walk.bit_generator.state == reference.bit_generator.state


# sha256 over the default corpus's gaze columns (t, x, y as float64, valid as
# bytes), session by session. A change that moves the corpus on purpose
# regenerates it.
DEFAULT_CORPUS_GAZE_SHA256 = "1b03c89db7b80115d0df2a848ff1ebdf5030e3cb80f73be618c89bab1ba7ee32"


def task_shift_rates(corpus):
    """The first feature (AOI shift rate) of every EF row, and of every NF
    row of both tasks."""
    ef, df = (corpus.rows_for_task(task) for task in ("nf-ef", "nf-df"))
    return ef.X[ef.y == 1, 0], np.concatenate([t.X[t.y == 0, 0] for t in (ef, df)])


class TestCorpus:
    def test_default_corpus_gaze_is_golden(self, default_corpus):
        digest = hashlib.sha256()
        for session in default_corpus.sessions:
            g = session.gaze
            for column in (g.t, g.x, g.y, g.valid):
                digest.update(np.ascontiguousarray(column).tobytes())
        assert len(default_corpus.sessions) == 104
        assert digest.hexdigest() == DEFAULT_CORPUS_GAZE_SHA256

    def test_single_participant_covers_conditions(self):
        sessions = generate_corpus(CorpusSpec(participants=1, master_seed=5))
        assert len(sessions) == 4
        conditions = {
            (s.timeline.failure_type, s.timeline.failure_piece) for s in sessions
        }
        assert conditions == {("EF", 1), ("EF", 3), ("DF", 3), ("DF", 1)}

    def test_segment_counts_per_participant(self, mini_corpus):
        per_participant = Counter()
        for session in mini_corpus.sessions:
            for seg in segment_session(session):
                per_participant[(seg.participant_id, seg.label)] += 1
        for pid in {s.participant_id for s in mini_corpus.sessions}:
            assert per_participant[(pid, "NF")] == 12
            assert per_participant[(pid, "EF")] == 2
            assert per_participant[(pid, "DF")] == 2

    def test_same_spec_reproduces_corpus(self):
        a = generate_corpus(CorpusSpec(participants=2, master_seed=13))
        b = generate_corpus(CorpusSpec(participants=2, master_seed=13))
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.gaze.x, sb.gaze.x)
            assert sa.timeline == sb.timeline

    def test_participant_count_positive(self):
        with pytest.raises(InvalidParameterError):
            generate_corpus(CorpusSpec(participants=0))

    def test_failure_shift_rate_exceeds_baseline(self, default_corpus):
        # Monte-Carlo over the 104 committed sessions: mean shift rate over
        # EF failure periods exceeds the NF mean.
        ef, nf = task_shift_rates(default_corpus)
        assert len(ef) >= 50
        assert ef.mean() > nf.mean() + 0.2

    def test_null_profile_removes_failure_shift(self):
        from gaze_sentinel.evaluate import Corpus

        spec = CorpusSpec(participants=6, master_seed=21,
                          behavior=BehaviorParams.default().zero_failure_deltas())
        ef, nf = task_shift_rates(Corpus(generate_corpus(spec)))
        assert abs(ef.mean() - nf.mean()) < 0.15

    def test_null_profile_slices_share_failure_length(self):
        # A mean gap cannot see a leak through slice length: NF slices that
        # differ in length from the failure slices put the robot-body shift
        # rate (entries / span) off the failure rows' lattice k / D.
        from gaze_sentinel.evaluate import TASKS, Corpus

        spec = CorpusSpec(participants=4, master_seed=21,
                          behavior=BehaviorParams.default().zero_failure_deltas())
        corpus = Corpus(generate_corpus(spec))
        for task, ftype in TASKS.items():
            duration = FAILURE_DURATIONS[ftype]
            table = corpus.rows_for_task(task)
            assert set(table.y.tolist()) == {0, 1}
            np.testing.assert_allclose(table.t1 - table.t0, duration, rtol=0, atol=1e-9)
            entries = table.X[:, 1] * duration
            np.testing.assert_allclose(entries, np.round(entries), rtol=0, atol=1e-6)


class TestBehaviorProfile:
    def test_default_profile_roundtrips_through_dict(self):
        assert BehaviorParams.from_dict(profile_dict()) == BehaviorParams.default()

    def test_zero_failure_deltas_equalises_regimes(self):
        params = BehaviorParams.default().zero_failure_deltas()
        assert params.failure_scan == params.baseline
        assert params.failure_stare == params.baseline

    def test_profile_file_loading(self, tmp_path):
        path = tmp_path / "profile.json"
        shutil.copy(DEFAULT_PROFILE, path)
        assert BehaviorParams.from_file(path) == BehaviorParams.default()

    def test_unknown_keys_are_ignored(self, tmp_path):
        data = profile_dict()
        data["distract_participant_turns"] = True
        data["note"] = {"any": "thing"}
        data["dwell_shape"] = 2.0
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data))
        assert BehaviorParams.from_file(path) == BehaviorParams.default()

    @pytest.mark.parametrize("key, value", [
        ("sample_rate_hz", "fast"), ("sample_rate_hz", 0.0), ("sample_rate_hz", None),
        ("sample_rate_hz", True), ("dwell_floor_s", -0.01), ("dwell_floor_s", {"s": 0.12}),
        ("position_jitter_mm", float("inf")), ("invalid_rate", 1.5),
        ("invalid_rate", float("nan")), ("participant_dwell_sigma", -1.0),
        ("participant_transition_sigma", [0.3]),
        ("reaction.ef_delay_s", -2.5), ("reaction.df_hold_s", "long"),
        ("reaction.ef_strength", 1.2), ("reaction.tail_strength", -0.1),
        ("reaction.slow_reactor_prob", 2.0), ("reaction.style_beta", 0.0),
        ("reaction.slow_extra_delay_s", [3.0, 2.0]), ("reaction.fast_extra_delay_s", [-1.0, 0.4]),
        ("reaction.slow_strength", [0.35]), ("reaction.instance_strength", [0.85, 1.5]),
        ("reaction.instance_strength", [None, 1.0]),
    ])
    def test_bad_value_rejected(self, key, value):
        data = profile_dict()
        block, _, name = key.rpartition(".")
        (data[block] if block else data)[name] = value
        with pytest.raises(InvalidParameterError, match=name.removesuffix("_s")):
            BehaviorParams.from_dict(data)

    @pytest.mark.parametrize("dwell", [float("nan"), float("inf"), 0.0, "0.55", True,
                                       pytest.param(10 ** 400, id="10**400")])
    def test_bad_dwell_mean_rejected(self, dwell):
        data = profile_dict()
        data["failure_scan"]["dwell_mean_s"]["robot_body"] = dwell
        with pytest.raises(InvalidParameterError, match="dwell means"):
            BehaviorParams.from_dict(data)

    @pytest.mark.parametrize("entry", ["0.4", True, None])
    def test_bad_transition_entry_rejected(self, entry):
        data = profile_dict()
        data["baseline"]["transitions"]["robot_body"]["end_effector"] = entry
        with pytest.raises(InvalidParameterError, match="non-negative entries"):
            BehaviorParams.from_dict(data)

    def test_numbers_are_coerced_to_float(self):
        data = profile_dict()
        data["sample_rate_hz"] = 200
        data["reaction"]["slow_extra_delay_s"] = [2, 3]
        params = BehaviorParams.from_dict(data)
        assert type(params.sample_rate_hz) is float
        assert params.reaction.slow_extra_delay == (2.0, 3.0)
        assert params == BehaviorParams.default()

    def test_unknown_schema_rejected(self):
        with pytest.raises(InvalidParameterError):
            BehaviorParams.from_dict({"schema": 99})

    def test_traits_are_deterministic(self):
        behavior = BehaviorParams.default()
        a = draw_traits(behavior, np.random.default_rng(3))
        b = draw_traits(behavior, np.random.default_rng(3))
        assert a == b


def number_leaves(data, path=()) -> list:
    """Paths (keys and indices) to every number in the JSON value ``data``."""
    if isinstance(data, (dict, list)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        return [leaf for key, value in items for leaf in number_leaves(value, (*path, key))]
    return [path] if isinstance(data, (int, float)) and not isinstance(data, bool) else []


def load_config(path):
    """The options a config file at ``path`` resolves to, with no flag set."""
    return cli._resolve(argparse.Namespace(config=str(path), options=tuple(CONFIG),
                                           **dict.fromkeys(CONFIG)))


CONFIG = {"seed": 7, "participants": 2, "width": 5.0}
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@functools.cache
def json_inputs() -> dict:
    """Each JSON input format: a document of it as the program writes it,
    the bytes that follow the document in its file, and how such a file
    loads. A session file's header is its JSON document, on line 1."""
    session = build_session(*session_calls(CorpusSpec(participants=1, master_seed=1))[0])
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "session.jsonl")
        storage.write_session_jsonl(session, path)
        with open(path, "rb") as fh:
            header, body = fh.read().split(b"\n", 1)
    inputs = {"profile": (profile_dict(), b"", BehaviorParams.from_file),
              "session header": (json.loads(header), b"\n" + body, storage.read_session_jsonl),
              "config file": (CONFIG, b"", load_config)}
    for kind in KINDS:
        with open(os.path.join(FIXTURES, f"model_{kind}.json"), encoding="utf-8") as fh:
            inputs[f"model {kind}"] = (json.load(fh), b"", load_model)
    return inputs


# A format, then one of its number leaves: the large forest and gbt files
# do not outweigh the others.
JSON_LEAVES = st.deferred(lambda: st.sampled_from(sorted(json_inputs())).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(number_leaves(json_inputs()[name][0])))))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10 ** 400, "0.55", 0, 1, 0.5]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "input.json"


@settings(max_examples=300)
@given(leaf=JSON_LEAVES, value=JSON_VALUES)
@example(leaf=("profile", ("baseline", "dwell_mean_s", "robot_body")), value=True)
@example(leaf=("profile", ("failure_scan", "transitions", "robot_body", "end_effector")),
         value="0.4")
@example(leaf=("profile", ("sample_rate_hz",)), value=10 ** 400)
@example(leaf=("profile", ("schema",)), value=True)
@example(leaf=("session header", ("layout", 0, 1)), value=True)
@example(leaf=("session header", ("timeline", 0, 1)), value=True)
@example(leaf=("model svm", ("params", "b")), value="0.5")
@example(leaf=("model forest", ("params", "trees", 0, "threshold", 0)), value=True)
@example(leaf=("config file", ("seed",)), value="5")
@example(leaf=("config file", ("seed",)), value=5.0)
def test_json_leaf_loads_only_as_a_number(json_path, leaf, value):
    """A profile, session file, model file or config file with one number
    replaced by any JSON value either fails to load, naming its file, or the
    value was a real, non-bool number: an int where the field is an integer,
    which the program writes as an int and every other number as a float."""
    name, path = leaf
    document, tail, load = json_inputs()[name]
    document = copy.deepcopy(document)
    block = document
    for key in path[:-1]:
        block = block[key]
    written, block[path[-1]] = block[path[-1]], value
    json_path.write_bytes(json.dumps(document).encode() + tail)
    try:
        load(json_path)
    except GazeSentinelError as exc:
        assert str(json_path) in str(exc)
    else:
        assert isinstance(value, numbers.Real) and not isinstance(value, bool)
        assert isinstance(value, int) or not isinstance(written, int)
