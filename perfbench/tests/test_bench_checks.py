"""Each output check passes on the program's real output and rejects a
deliberately corrupted copy of it."""

import dataclasses
import json
import os

import numpy as np
import pytest

import checks
import reference
import speed
import workloads
from gaze_sentinel import cli, evaluate, learners, model_io
from gaze_sentinel.core import Debouncer
from gaze_sentinel.features import extract_features
from gaze_sentinel.sim import CorpusSpec, generate_corpus

PARTICIPANTS = [1, 2, 3]
TASK = "nf-ef"


@pytest.fixture(scope="module")
def sessions():
    return generate_corpus(CorpusSpec(participants=len(PARTICIPANTS), master_seed=3))


@pytest.fixture(scope="module")
def corpus(sessions):
    return evaluate.Corpus(sessions)


@pytest.fixture(scope="module")
def dataset(corpus):
    return corpus.dataset_for_task(TASK)[0]


@pytest.fixture(scope="module")
def report(dataset):
    return evaluate.loo_cv(dataset, learners.default_config("ada"), task=TASK)


@pytest.fixture(scope="module")
def stream(corpus):
    return evaluate.loo_stream_eval(corpus, TASK, learners.default_config("ada"), 5.0)


@pytest.fixture(scope="module")
def model(dataset):
    rng = np.random.default_rng(0)
    return learners.train(learners.default_config("ada"), learners.smote(dataset, 2, rng))


@pytest.fixture(scope="module")
def detections(model, sessions):
    return evaluate.stream_detect(model, sessions[0], 5.0)


def _rejects(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


# ---- paper-eval -------------------------------------------------------------

def _labels(dataset):
    return {int(p): dataset.y[dataset.groups == p].tolist() for p in np.unique(dataset.groups)}


def test_fold_makeup(dataset):
    labels = _labels(dataset)
    checks.check_fold_makeup(labels, PARTICIPANTS)
    labels[2] = labels[2][1:]  # a row lost
    _rejects(checks.check_fold_makeup, labels, PARTICIPANTS)


def test_fold_report_rejects_wrong_fold_count(report):
    checks.check_fold_report(report, PARTICIPANTS, 14)
    short = dataclasses.replace(report, folds=report.folds[:-1])
    _rejects(checks.check_fold_report, short, PARTICIPANTS, 14)


def test_fold_report_rejects_wrong_rows_per_fold(report):
    fold = dataclasses.replace(report.folds[0], n_test=13)
    _rejects(checks.check_fold_report, dataclasses.replace(report, folds=(fold, *report.folds[1:])),
             PARTICIPANTS, 14)


def test_fold_report_rejects_wrong_pooled_accuracy(report):
    _rejects(checks.check_fold_report,
             dataclasses.replace(report, accuracy=report.accuracy + 1 / 42), PARTICIPANTS, 14)


def test_balanced_floor(report):
    checks.check_balanced_floor(dataclasses.replace(report, recall=1.0, fpr=0.0), 0.75)
    _rejects(checks.check_balanced_floor, dataclasses.replace(report, recall=0.5, fpr=0.5), 0.75)


def _stream_truth(sessions):
    ef = [s for s in sessions if s.timeline.failure_type == "EF"]
    key = lambda s: (s.participant_id, s.puzzle_id)  # noqa: E731
    return ({key(s): s.timeline.failure_window() for s in ef},
            {key(s): s.timeline.duration for s in ef})


def test_stream_report(stream, sessions):
    windows, durations = _stream_truth(sessions)
    checks.check_stream_report(stream.report, stream.detections, windows, durations, 5.0)


def test_stream_report_rejects_flipped_label(stream, sessions):
    windows, durations = _stream_truth(sessions)
    d = stream.detections
    flipped = (dataclasses.replace(d[0], predicted=1 - d[0].predicted), *d[1:])
    _rejects(checks.check_stream_report, stream.report, flipped, windows, durations, 5.0)


def test_stream_report_rejects_missing_window(stream, sessions):
    windows, durations = _stream_truth(sessions)
    _rejects(checks.check_stream_report, stream.report, stream.detections[1:], windows,
             durations, 5.0)


def test_stream_report_rejects_wrong_truth(stream, sessions):
    # Truths derived from a failure window one second late disagree with
    # the report wherever the shift moves a window across half overlap.
    windows, durations = _stream_truth(sessions)
    late = {k: (a + 1.0, b + 1.0) for k, (a, b) in windows.items()}
    _rejects(checks.check_stream_report, stream.report, stream.detections, late, durations, 5.0)


# ---- live-detect ------------------------------------------------------------

def test_window_bounds(detections, sessions):
    duration = sessions[0].timeline.duration
    checks.check_window_bounds(detections, duration, 5.0, "s0")
    _rejects(checks.check_window_bounds, detections[:-1], duration, 5.0, "s0")
    moved = [dataclasses.replace(detections[0], t1=detections[0].t1 + 0.5), *detections[1:]]
    _rejects(checks.check_window_bounds, moved, duration, 5.0, "s0")


def _window(sessions, t0, t1):
    s = sessions[0]
    g = s.gaze
    rects = [(int(label), r.x0, r.y0, r.x1, r.y1) for label, r in s.layout.entries]
    expected = reference.window_features(
        reference.fixations_until(g.t.tolist(), g.x.tolist(), g.y.tolist(), g.valid.tolist(),
                                  rects, t1), t0, t1)
    program = extract_features(Debouncer(g, s.layout).fixations_until(t1), t0, t1)
    return program.as_array().tolist(), expected


def test_features_reject_perturbed_feature(sessions, detections):
    d = detections[40]
    program, expected = _window(sessions, d.t0, d.t1)
    checks.check_features(program, expected, "w40")
    program[3] += 1e-6
    _rejects(checks.check_features, program, expected, "w40")


def test_prediction_rejects_flipped_label(sessions, detections, model):
    d = detections[40]
    _, expected = _window(sessions, d.t0, d.t1)
    labels, scores = learners.predict_batch(model, np.array([expected]))
    checks.check_prediction(d, int(labels[0]), float(scores[0]), "w40")
    flipped = dataclasses.replace(d, predicted=1 - d.predicted)
    _rejects(checks.check_prediction, flipped, int(labels[0]), float(scores[0]), "w40")


def test_prefix(sessions, detections, model):
    cut = workloads._cut_session(sessions[0], detections[29].t1)
    got = evaluate.stream_detect(model, cut, 5.0)
    assert len(got) == 30
    checks.check_prefix(got, detections, "cut")
    changed = [*got[:-1], dataclasses.replace(got[-1], score=got[-1].score + 0.1)]
    _rejects(checks.check_prefix, changed, detections, "cut")


# ---- cli-files --------------------------------------------------------------

@pytest.fixture(scope="module")
def files(tmp_path_factory, sessions):
    root = tmp_path_factory.mktemp("cli")
    bench = workloads.CliFiles(3, speed.SpeedProbe())
    bench.participants = len(PARTICIPANTS)
    by_key = {(s.participant_id, s.puzzle_id): s for s in sessions}
    commands = bench._commands(by_key, str(root))
    codes = [(argv, cli.main(argv)) for argv in commands]
    return root, by_key, codes


def test_every_command_succeeds(files):
    _, _, codes = files
    assert [rc for _, rc in codes] == [0] * len(codes)


def test_session_roundtrip(files):
    root, by_key, _ = files
    name = "session_p001_z1.jsonl"
    parsed = workloads._read_session_file(str(root / "corpus" / name))
    checks.check_session_roundtrip(parsed, by_key[(1, 1)], name)
    parsed["t"][100] += 2e-6
    _rejects(checks.check_session_roundtrip, parsed, by_key[(1, 1)], name)
    parsed = workloads._read_session_file(str(root / "corpus" / name))
    parsed["valid"][7] = not parsed["valid"][7]
    _rejects(checks.check_session_roundtrip, parsed, by_key[(1, 1)], name)


def test_feature_table(files):
    root, _, _ = files
    rows = workloads._read_feature_table(str(root / "features.csv"))
    checks.check_feature_table(rows, PARTICIPANTS, workloads.FAILURE_DURATIONS)
    _rejects(checks.check_feature_table, rows[1:], PARTICIPANTS, workloads.FAILURE_DURATIONS)
    stretched = [dict(rows[0], t1=rows[0]["t1"] + 0.5), *rows[1:]]
    _rejects(checks.check_feature_table, stretched, PARTICIPANTS, workloads.FAILURE_DURATIONS)


def test_detections_file(files):
    root, by_key, _ = files
    name = "session_p002_z3.jsonl"
    session = by_key[(2, 3)]
    task = workloads.TASK_OF[session.timeline.failure_type]
    model = model_io.load_model(str(root / f"model_{task}.json"))
    parsed = workloads._read_session_file(str(root / "corpus" / name))
    read_back = dataclasses.replace(session, gaze=type(session.gaze)(
        t=np.array(parsed["t"]), x=np.array(parsed["x"]), y=np.array(parsed["y"]),
        valid=np.array(parsed["valid"], dtype=bool)))
    expected = evaluate.stream_detect(model, read_back, 5.0)
    records = workloads._read_jsonl_records(str(root / "detections" / name))
    duration = session.timeline.duration
    checks.check_detections_file(records, expected, duration, 5.0, name)
    checks.check_window_records(records, duration, 5.0, name)
    _rejects(checks.check_window_records, records[1:], duration, 5.0, name)
    _rejects(checks.check_detections_file, records[:-1], expected, duration, 5.0, name)
    flipped = [dict(records[0], predicted=1 - records[0]["predicted"]), *records[1:]]
    _rejects(checks.check_detections_file, flipped, expected, duration, 5.0, name)


def test_files_are_written_once_per_command(files):
    root, by_key, _ = files
    names = sorted(os.listdir(root / "detections"))
    assert len(names) == len(by_key)
    with open(root / "corpus" / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["sessions"] == names
