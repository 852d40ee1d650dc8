import dataclasses
import json
import multiprocessing
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import reference_interval_detection_rate
from gaze_sentinel.core import (
    AoiLabel,
    Debouncer,
    GazeStream,
    Rect,
    AoiLayout,
    RobotEvent,
    Session,
    Timeline,
)
from gaze_sentinel import errors, evaluate
from gaze_sentinel.errors import InsufficientMinorityError, InvalidParameterError
from gaze_sentinel.evaluate import (
    TASKS,
    Corpus,
    DetectionEvent,
    EvalReport,
    eval_first_n,
    first_n_blocks,
    fit_folds,
    interval_detection_rate,
    loo_cv,
    loo_stream_eval,
    metrics,
    sliding_windows,
    stream_detect,
)
from gaze_sentinel.features import extract_features
from gaze_sentinel.learners import KINDS, LabeledDataset, default_config
from gaze_sentinel.model_io import model_payload
from gaze_sentinel.sim import CorpusSpec, generate_corpus


class TestMetrics:
    def test_perfect(self):
        assert metrics([1, 0, 1], [1, 0, 1]) == (1.0, 1.0)

    def test_all_nf_predictions(self):
        acc, rec = metrics([1, 1, 0, 0], [0, 0, 0, 0])
        assert (acc, rec) == (0.5, 0.0)

    def test_confusion_tally(self):
        acc, rec = metrics([1, 1, 0, 0], [1, 0, 0, 1])
        assert (acc, rec) == (0.5, 0.5)

    def test_recall_flagged_none_without_failures(self):
        acc, rec = metrics([0, 0], [0, 1])
        assert acc == 0.5
        assert rec is None

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            metrics([], [])
        with pytest.raises(InvalidParameterError):
            metrics([1, 0], [1])

    def test_balanced_accuracy_ignores_class_ratio(self):
        # a predictor flagging a fraction q of rows whatever their label has
        # recall = fpr = q, so its balanced accuracy is 0.5 for every q
        for q in (0.0, 0.25, 1.0):
            report = EvalReport("nf-ef", "full-segment", (), 0.0, q, q)
            assert report.balanced_accuracy == 0.5
        no_failures = EvalReport("nf-ef", "full-segment", (), 1.0, None, 0.0)
        assert no_failures.balanced_accuracy is None


def synthetic_dataset(n_participants=6, shift=10.0, seed=0):
    """12 NF + 2 failure rows per participant; failure shifted by `shift`
    standard deviations."""
    rng = np.random.default_rng(seed)
    X, y, g = [], [], []
    for pid in range(1, n_participants + 1):
        for _ in range(12):
            X.append(rng.normal(0, 1, 5)); y.append(0); g.append(pid)
        for _ in range(2):
            X.append(rng.normal(shift, 1, 5)); y.append(1); g.append(pid)
    return LabeledDataset(np.array(X), np.array(y), np.array(g))


class TestLooCv:
    def test_fold_count_and_sizes(self):
        ds = synthetic_dataset(6)
        report = loo_cv(ds, default_config("ada", seed=1))
        assert len(report.folds) == 6
        assert all(f.n_test == 14 for f in report.folds)

    def test_separable_corpus_is_perfect(self):
        report = loo_cv(synthetic_dataset(6, shift=10.0), default_config("ada", seed=1))
        assert report.accuracy == 1.0
        assert report.recall == 1.0
        assert report.fpr == 0.0

    def test_duplicated_participants_fold_symmetry(self):
        rng = np.random.default_rng(3)
        rows = np.vstack([rng.normal(0, 1, (12, 4)), rng.normal(4, 1, (4, 4))])
        labels = np.array([0] * 12 + [1] * 4)
        X = np.vstack([rows, rows])
        y = np.concatenate([labels, labels])
        g = np.array([1] * 16 + [2] * 16)
        report = loo_cv(LabeledDataset(X, y, g), default_config("ada", seed=5))
        assert report.folds[0].accuracy == report.folds[1].accuracy
        assert report.folds[0].recall == report.folds[1].recall

    def test_requires_two_participants(self):
        ds = synthetic_dataset(1)
        with pytest.raises(InvalidParameterError):
            loo_cv(ds, default_config("ada"))

    def test_held_out_rows_never_influence_training(self):
        # Perturbing the held-out participant's rows must leave that fold's
        # model bit-identical.
        ds = synthetic_dataset(4, seed=9)
        held = 2
        (model_a,) = fit_folds(ds, default_config("svm", seed=3), [held])
        X2 = ds.X.copy()
        X2[ds.groups == held] += 1234.5
        ds2 = LabeledDataset(X2, ds.y, ds.groups)
        (model_b,) = fit_folds(ds2, default_config("svm", seed=3), [held])
        assert model_payload(model_a) == model_payload(model_b)


def reference_row(row, t1):
    """The row's features over [row.t0, t1], from the session's whole
    fixation list."""
    fixations = Debouncer(row.session.gaze, row.session.layout).fixations()
    return extract_features(fixations, row.t0, t1).as_array()


class TestTruncateSegment:
    """First-n rows: failure rows measured over [t0, min(t0 + n, t1)]."""

    def blocks(self, corpus, task, n_values):
        _, rows = corpus.dataset_for_task(task)
        return rows, dict(zip(n_values, first_n_blocks(corpus, rows, n_values)))

    def test_failure_truncated(self, mini_corpus):
        rows, blocks = self.blocks(mini_corpus, "nf-ef", [5.0])
        failures = [i for i, r in enumerate(rows) if r.label == "EF"]
        assert failures
        for i in failures:
            expected = reference_row(rows[i], rows[i].t0 + 5.0)
            assert blocks[5.0][i].tobytes() == expected.tobytes()
            assert not np.array_equal(blocks[5.0][i], rows[i].features)

    def test_clamped_to_segment_end(self, mini_corpus):
        rows, blocks = self.blocks(mini_corpus, "nf-ef", [20.0])
        assert blocks[20.0].tobytes() == np.array([r.features for r in rows]).tobytes()

    def test_df_full_duration_identity(self, mini_corpus):
        rows, blocks = self.blocks(mini_corpus, "nf-df", [16.5])
        assert blocks[16.5].tobytes() == np.array([r.features for r in rows]).tobytes()

    def test_nf_passes_through(self, mini_corpus):
        rows, blocks = self.blocks(mini_corpus, "nf-ef", [1.0, 5.0])
        for n in (1.0, 5.0):
            for row, x in zip(rows, blocks[n]):
                if row.label == "NF":
                    assert x.tobytes() == row.features.tobytes()

    def test_rejects_nonpositive(self, mini_corpus):
        for n in (0.0, -5.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                eval_first_n(mini_corpus, "nf-ef", default_config("ada"), [1.0, n])


class TestBatchFeaturizer:
    """Segment and first-n rows, featurized as batches of slices, equal the
    per-row reference ``extract_features`` bit for bit."""

    @pytest.mark.parametrize("seed", [651, 7])
    def test_rows_match_extract_features(self, seed):
        corpus = Corpus(generate_corpus(CorpusSpec(participants=2, master_seed=seed)))
        n_values = [0.5, 1.0, 3.0, 5.0, 15.0, 20.0]
        for task in ("nf-ef", "nf-df"):
            rows = corpus.rows_for_task(task)
            for row in rows:
                assert row.features.tobytes() == reference_row(row, row.t1).tobytes()
            checked = 0
            for n, block in zip(n_values, first_n_blocks(corpus, rows, n_values)):
                for row, x in zip(rows, block):
                    if row.label != "NF":
                        expected = reference_row(row, min(row.t0 + n, row.t1))
                        assert x.tobytes() == expected.tobytes(), (task, n, row.t0)
                        checked += 1
            assert checked == 4 * len(n_values)


def make_session(duration, failure=None, participant=1, puzzle=1, n_pieces=2):
    """Minimal session with an optional failure window for window tests."""
    events = []
    step = duration / (n_pieces + 1)
    for piece in range(1, n_pieces + 1):
        t = (piece - 1) * step + 1.0
        events.append(RobotEvent("pickup_start", piece, t))
        if failure and piece == failure[2]:
            fs = failure[0]
            dur = 15.0 if failure[1] == "EF" else 16.5
            events.append(RobotEvent("failure_start", piece, fs, failure_type=failure[1]))
            events.append(RobotEvent("failure_end", piece, fs + dur, failure_type=failure[1]))
        events.append(RobotEvent("placement_done", piece, t + step * 0.8))
    events.sort(key=lambda e: e.t)
    timeline = Timeline(
        events=tuple(events), duration=duration,
        failure_type=failure[1] if failure else None,
        failure_piece=failure[2] if failure else None,
    )
    n = int(duration * 50)
    gaze = GazeStream(t=np.arange(n) / 50.0, x=np.full(n, 5.0), y=np.full(n, 5.0),
                      valid=np.ones(n, dtype=bool))
    layout = AoiLayout(entries=((AoiLabel.PUZZLE_BOARD, Rect(0, 0, 10, 10)),))
    return Session(participant_id=participant, puzzle_id=puzzle, gaze=gaze,
                   layout=layout, timeline=timeline)


class TestSlidingWindows:
    def test_count_formula_60s(self):
        session = make_session(60.0)
        assert len(sliding_windows(session, 5.0)) == 56

    def test_count_formula_180s(self):
        session = make_session(180.0)
        assert len(sliding_windows(session, 5.0)) == 176

    def test_count_formula_general(self):
        for duration in (30.0, 47.3, 90.0):
            for width in (3.0, 5.0, 10.0):
                session = make_session(duration)
                expected = int(np.floor(duration - width + 1e-9)) + 1
                assert len(sliding_windows(session, width)) == expected

    def test_exact_half_overlap_is_failure(self):
        session = make_session(60.0, failure=(17.5, "EF", 2))
        windows = sliding_windows(session, 5.0)
        by_start = {w.t0: w for w in windows}
        # [15, 20] overlaps [17.5, 32.5] by exactly 2.5s = width/2
        assert by_start[15.0].truth == 1
        assert by_start[14.0].truth == 0
        assert by_start[20.0].truth == 1

    def test_short_session_warns_and_returns_empty(self):
        session = make_session(60.0)
        object.__setattr__(session.timeline, "duration", 3.0)
        with pytest.warns(UserWarning):
            assert sliding_windows(session, 5.0) == []

    def test_invalid_parameters(self):
        session = make_session(60.0)
        with pytest.raises(InvalidParameterError):
            sliding_windows(session, 0.0)
        for width in (float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="finite"):
                sliding_windows(session, width)


class TestStreamDetect:
    def test_event_shape_and_order(self, mini_corpus):
        ds, _ = mini_corpus.dataset_for_task("nf-ef")
        (model,) = fit_folds(ds, default_config("ada", seed=2), [1])
        session = mini_corpus.failure_sessions("EF")[0]
        events = stream_detect(model, session, 5.0)
        assert len(events) == len(sliding_windows(session, 5.0))
        for a, b in zip(events, events[1:]):
            assert b.t0 > a.t0
        for e in events:
            assert e.t1 - e.t0 == pytest.approx(5.0)

    def test_causality_against_truncated_sessions(self, mini_corpus):
        ds, _ = mini_corpus.dataset_for_task("nf-ef")
        (model,) = fit_folds(ds, default_config("ada", seed=2), [1])
        session = mini_corpus.failure_sessions("EF")[0]
        full = stream_detect(model, session, 5.0)
        rng = np.random.default_rng(0)
        for k in rng.integers(4, len(full) - 1, size=10):
            cut = full[k].t1
            keep = session.gaze.t <= cut
            past_events = tuple(e for e in session.timeline.events if e.t <= cut)
            truncated = Session(
                participant_id=session.participant_id,
                puzzle_id=session.puzzle_id,
                gaze=GazeStream(t=session.gaze.t[keep], x=session.gaze.x[keep],
                                y=session.gaze.y[keep], valid=session.gaze.valid[keep]),
                layout=session.layout,
                timeline=Timeline(events=past_events, duration=cut,
                                  failure_type=session.timeline.failure_type,
                                  failure_piece=session.timeline.failure_piece),
            )
            partial = stream_detect(model, truncated, 5.0)
            assert partial == full[: k + 1]


class TestLooStream:
    def test_report_and_detections(self, mini_corpus):
        result = loo_stream_eval(mini_corpus, "nf-ef", default_config("ada", seed=2), 5.0)
        assert 0.0 <= result.report.accuracy <= 1.0
        participants = {d.participant for d in result.detections}
        assert participants == set(mini_corpus.participants)
        assert len(result.detections) == sum(
            len(sliding_windows(s, 5.0)) for s in mini_corpus.failure_sessions("EF")
        )

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_detections_are_the_fold_models_stream_detect(self, mini_corpus, task, kind):
        """Each held-out session's detections equal, compared exactly, those
        ``stream_detect`` gives with that participant's fold model."""
        config = default_config(kind, seed=2)
        ds, _ = mini_corpus.dataset_for_task(task)
        expected = [event for s in mini_corpus.failure_sessions(TASKS[task])
                    for event in stream_detect(*fit_folds(ds, config, [s.participant_id]), s, 5.0)]
        assert loo_stream_eval(mini_corpus, task, config, 5.0).detections == tuple(expected)

    def test_task_without_failure_sessions_is_refused(self, mini_corpus):
        corpus = Corpus([s for s in mini_corpus.sessions if s.timeline.failure_type != "EF"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="task nf-ef has no EF sessions"):
                loo_stream_eval(corpus, "nf-ef", default_config("ada", seed=2), 5.0)
        assert not corpus.dataset_for_task("nf-ef")[0].fold_models


class TestIntervalDetectionRate:
    def fabricate(self, corpus, predicted_offsets):
        """Detections with positives at the given offsets after failure start
        for every EF session."""
        detections = []
        for session in corpus.failure_sessions("EF"):
            fs, _ = session.timeline.failure_window()
            for w in sliding_windows(session, 5.0):
                offset = w.t0 - fs
                predicted = int(any(abs(offset - o) <= 0.5 for o in predicted_offsets))
                detections.append(DetectionEvent(
                    session.participant_id, session.puzzle_id,
                    w.t0, w.t1, predicted, float(predicted)))
        return detections

    def test_saturating_detector_hits_every_offset(self, mini_corpus):
        detections = []
        for session in mini_corpus.failure_sessions("EF"):
            for w in sliding_windows(session, 5.0):
                detections.append(DetectionEvent(
                    session.participant_id, session.puzzle_id, w.t0, w.t1, 1, 1.0))
        curve = interval_detection_rate(detections, mini_corpus, 5.0)
        assert [o for o, _ in curve] == list(range(11))  # 15s EF, width 5
        assert all(pct == 1.0 for _, pct in curve)

    def test_offset_targeting(self, mini_corpus):
        curve = dict(interval_detection_rate(
            self.fabricate(mini_corpus, predicted_offsets=[4.0]), mini_corpus, 5.0))
        assert curve[4] == 1.0
        assert curve[9] == 0.0

    def test_monotone_under_detector_strengthening(self, mini_corpus):
        weak = dict(interval_detection_rate(
            self.fabricate(mini_corpus, [3.0]), mini_corpus, 5.0))
        strong = dict(interval_detection_rate(
            self.fabricate(mini_corpus, [3.0, 7.0]), mini_corpus, 5.0))
        assert all(strong[o] >= weak[o] for o in weak)

    def test_mixed_failure_types_rejected(self, mini_corpus):
        detections = []
        for ftype in ("EF", "DF"):
            s = mini_corpus.failure_sessions(ftype)[0]
            detections.append(DetectionEvent(s.participant_id, s.puzzle_id,
                                             0.0, 5.0, 1, 1.0))
        with pytest.raises(InvalidParameterError):
            interval_detection_rate(detections, mini_corpus, 5.0)

    def test_session_outside_the_corpus_rejected(self, mini_corpus):
        s = mini_corpus.failure_sessions("EF")[0]
        known = DetectionEvent(s.participant_id, s.puzzle_id, 0.0, 5.0, 1, 1.0)
        stranger = DetectionEvent(99, 1, 0.0, 5.0, 1, 1.0)
        for detections in ([stranger], [known, stranger]):
            with pytest.raises(InvalidParameterError, match="participant 99 puzzle 1"):
                interval_detection_rate(detections, mini_corpus, 5.0)


@pytest.fixture(scope="module")
def corpus_with_a_failure_free_session(mini_corpus):
    """``mini_corpus`` with participant 4's DF puzzle 1 stripped of its
    failure."""
    sessions = list(mini_corpus.sessions)
    i = next(i for i, s in enumerate(sessions) if (s.participant_id, s.puzzle_id) == (4, 1))
    timeline = sessions[i].timeline
    assert timeline.failure_type == "DF"
    events = tuple(e for e in timeline.events if e.failure_type is None)
    sessions[i] = dataclasses.replace(sessions[i], timeline=Timeline(events, timeline.duration))
    return Corpus(sessions)


@st.composite
def detection_sets(draw, corpus):
    """(detections, width): windows of one failure type's sessions that
    start often exactly half a slide from failure_start + o, and at times
    one of a failure-free session, of the other type or of a session
    outside the corpus."""
    ftype = draw(st.sampled_from(["EF", "DF"]))
    by_key = {(s.participant_id, s.puzzle_id): s for s in corpus.sessions}
    keys = [key for key, s in by_key.items() if s.timeline.failure_type == ftype]
    other = [key for key, s in by_key.items() if s.timeline.failure_type not in (ftype, None)]
    strangers = [(4, 1), (99, 1), other[0]]  # failure-free, outside the corpus, other type
    detections = []
    for _ in range(draw(st.integers(0, 30))):
        key = draw(st.sampled_from(keys))
        if draw(st.integers(0, 29)) == 0:
            key = draw(st.sampled_from(strangers))
        session = by_key.get(key, by_key[keys[0]])
        fs = (session.timeline.failure_window() or (0.0, 0.0))[0]
        o = draw(st.integers(-2, 18))
        t0 = draw(st.sampled_from([
            fs + o - 0.5, fs + o + 0.5, fs + o, float(np.nextafter(fs + o - 0.5, -np.inf)),
            float(np.nextafter(fs + o + 0.5, np.inf)), float(np.floor(fs + o))]))
        predicted = draw(st.sampled_from([0, 1]))
        detections.append(DetectionEvent(*key, t0, t0 + 5.0, predicted, float(predicted)))
    width = draw(st.sampled_from([1.0, 3.0, 5.0, 10.0, 15.0, 16.5, 17.0]))
    return detections, width


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the toolkit error it raised."""
    try:
        return fn(*args)
    except InvalidParameterError as err:
        return type(err), str(err)


class TestIntervalDetectionRateMatchesLoop:
    @given(st.data())
    def test_columns_match_the_per_offset_loop(self, corpus_with_a_failure_free_session, data):
        corpus = corpus_with_a_failure_free_session
        detections, width = data.draw(detection_sets(corpus))
        want = outcome(reference_interval_detection_rate, detections, corpus, width)
        assert outcome(interval_detection_rate, detections, corpus, width) == want


class TestFirstN:
    def test_full_duration_matches_plain_loo(self, mini_corpus):
        config = default_config("ada", seed=4)
        ds, _ = mini_corpus.dataset_for_task("nf-ef")
        plain = loo_cv(ds, config, task="nf-ef")
        swept = eval_first_n(mini_corpus, "nf-ef", config, [15.0])
        assert swept[15.0].accuracy == plain.accuracy
        assert swept[15.0].recall == plain.recall

    def test_df_full_duration_identity(self, mini_corpus):
        config = default_config("ada", seed=4)
        ds, _ = mini_corpus.dataset_for_task("nf-df")
        plain = loo_cv(ds, config, task="nf-df")
        swept = eval_first_n(mini_corpus, "nf-df", config, [16.5])
        assert swept[16.5].accuracy == plain.accuracy

    def test_rejects_nonpositive_n(self, mini_corpus):
        with pytest.raises(InvalidParameterError):
            eval_first_n(mini_corpus, "nf-ef", default_config("ada"), [0.0])

    def test_unknown_task_rejected(self, mini_corpus):
        with pytest.raises(InvalidParameterError):
            mini_corpus.dataset_for_task("nf-xx")


def count_fits(monkeypatch):
    """The list that gets one entry per fold fitted from here on: a config
    per training set ``train_many`` draws in this process, alone or in a
    lockstep group, and per fold sent to a worker."""
    fits = []
    real_train_many, real_submit = evaluate.train_many, ProcessPoolExecutor.submit

    def counting_train_many(config, datasets):
        return real_train_many(config, (fits.append(config) or ds for ds in datasets))

    def counting_submit(pool, fn, *args):
        if fn is evaluate._fit_pickled:
            fits.extend([args[3]] * len(args[4]))
        return real_submit(pool, fn, *args)

    monkeypatch.setattr(evaluate, "train_many", counting_train_many)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
    return fits


class TestFoldSharing:
    def test_each_fold_is_fitted_once_per_corpus(self, mini_corpus, monkeypatch):
        # Workers fit in child processes, so fits are counted where this
        # process sees them: in-process ``train`` calls plus folds sent out.
        fits = count_fits(monkeypatch)
        config = default_config("ada", seed=6)
        regimes = [
            lambda corpus: loo_cv(corpus.dataset_for_task("nf-ef")[0], config, task="nf-ef"),
            lambda corpus: eval_first_n(corpus, "nf-ef", config, [2.0, 5.0]),
            lambda corpus: loo_stream_eval(corpus, "nf-ef", config, 5.0),
        ]
        folds = len(mini_corpus.participants)

        shared = Corpus(mini_corpus.sessions)
        assert shared.dataset_for_task("nf-ef")[0] is shared.dataset_for_task("nf-ef")[0]
        results = [regime(shared) for regime in regimes]
        assert len(fits) == folds

        # A fresh Corpus per call refits every fold and reports the same.
        for regime, result in zip(regimes, results):
            assert regime(Corpus(mini_corpus.sessions)) == result
        assert len(fits) == folds * (1 + len(regimes))


def minority_dataset(failures):
    """Six NF rows per participant plus ``failures[i]`` failure rows for
    participant i + 1."""
    rng = np.random.default_rng(5)
    X, y, g = [], [], []
    for pid, n_fail in enumerate(failures, start=1):
        for label in [0] * 6 + [1] * n_fail:
            X.append(rng.normal(3.0 * label, 1, 4)); y.append(label); g.append(pid)
    return LabeledDataset(np.array(X), np.array(y), np.array(g))


class TestParallelFolds:
    """Folds fitted in worker processes (``_usable_cpus`` patched to 2, so
    the pool runs on any machine) against folds fitted in this process."""

    @pytest.fixture
    def workers(self, monkeypatch):
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 2)
        return count_fits(monkeypatch)

    @pytest.mark.parametrize("kind", ["forest", "ada", "gbt-a", "svm", "gbt-b"])
    def test_batch_matches_one_by_one(self, mini_corpus, workers, kind):
        ds, _ = mini_corpus.dataset_for_task("nf-ef")
        config = default_config(kind, seed=3)
        pids = mini_corpus.participants
        batch = fit_folds(LabeledDataset(ds.X, ds.y, ds.groups), config, pids)
        assert len(workers) == len(pids)
        one_by_one = LabeledDataset(ds.X, ds.y, ds.groups)
        for pid, model in zip(pids, batch):
            (expected,) = fit_folds(one_by_one, config, [pid])
            assert json.dumps(model_payload(model)) == json.dumps(model_payload(expected))

    def test_one_cpu_fits_in_process(self, mini_corpus, workers, monkeypatch):
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: 1)
        ds, _ = mini_corpus.dataset_for_task("nf-ef")
        fit_folds(LabeledDataset(ds.X, ds.y, ds.groups), default_config("ada"),
                  mini_corpus.participants)
        assert multiprocessing.active_children() == []
        assert len(workers) == len(mini_corpus.participants)

    def test_no_worker_outlives_a_regime(self, mini_corpus, workers):
        corpus = Corpus(mini_corpus.sessions)
        dataset, _ = corpus.dataset_for_task("nf-ef")
        loo_cv(dataset, default_config("ada", seed=8), task="nf-ef")
        assert multiprocessing.active_children() == []
        eval_first_n(corpus, "nf-ef", default_config("gbt-b", seed=8), [3.0])
        assert multiprocessing.active_children() == []
        loo_stream_eval(corpus, "nf-ef", default_config("svm", seed=8), 5.0)
        assert multiprocessing.active_children() == []
        assert len(workers) == 3 * len(mini_corpus.participants)

    def test_participant_without_test_rows_is_warned_and_not_fitted(
            self, mini_corpus, workers):
        sessions = [s for s in mini_corpus.sessions
                    if not (s.participant_id == 2 and s.timeline.failure_type == "EF")]
        corpus = Corpus(sessions)
        config = default_config("ada", seed=8)
        with pytest.warns(UserWarning, match="participant 2 has no test rows"):
            result = loo_stream_eval(corpus, "nf-ef", config, 5.0)
        assert [f.participant for f in result.report.folds] == [1, 3, 4]
        dataset, _ = corpus.dataset_for_task("nf-ef")
        assert sorted(held for _, held in dataset.fold_models) == [1, 3, 4]
        assert len(workers) == 3
        # The detections of the folds on either side of the skipped one stay
        # in window order.
        expected = [event for s in corpus.failure_sessions("EF") for event in
                    stream_detect(*fit_folds(dataset, config, [s.participant_id]), s, 5.0)]
        assert result.detections == tuple(expected)

    @pytest.mark.parametrize("failures, error, message", [
        # Held out, participant 2 leaves one failure row and 3 leaves two.
        ([0, 2, 1, 0, 0, 0], InsufficientMinorityError,
         "minority class has 1 rows; need more than k=2"),
        (None, InvalidParameterError, "training features must be finite numbers"),
    ])
    def test_worker_error_is_raised_as_in_process(self, monkeypatch, workers,
                                                  failures, error, message):
        if failures is None:
            # A NaN in participant 1's rows fails every fold but 1's.
            ds = synthetic_dataset(6)
            X = ds.X.copy()
            X[0, 0] = np.nan
            ds = LabeledDataset(X, ds.y, ds.groups)
        else:
            ds = minority_dataset(failures)
        config = default_config("forest", seed=2)
        for cpus in (2, 1):
            monkeypatch.setattr(evaluate, "_usable_cpus", lambda: cpus)
            with pytest.raises(error) as raised:
                loo_cv(LabeledDataset(ds.X, ds.y, ds.groups), config)
            assert type(raised.value) is error
            assert str(raised.value) == message
            assert multiprocessing.active_children() == []
            if cpus == 2:
                assert len(workers) == 6  # every fold was sent to a worker

    def test_svm_folds_are_one_job_of_lockstep_groups(self, monkeypatch, workers):
        # Training rows are twice the majority count: 66 rows when 1, 5 or
        # 6 is held out, 84 when 2, 3 or 4 is; two groups in one job.
        ds = minority_dataset([12, 3, 3, 3, 12, 12])
        config = default_config("svm", seed=2)
        monkeypatch.setattr(evaluate, "ProcessPoolExecutor", None)  # in-process only
        batch = fit_folds(ds, config, range(1, 7))
        assert len(workers) == 6
        one_by_one = LabeledDataset(ds.X, ds.y, ds.groups)
        for pid, model in enumerate(batch, start=1):
            (expected,) = fit_folds(one_by_one, config, [pid])
            assert json.dumps(model_payload(model)) == json.dumps(model_payload(expected))

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_lockstep_job_raises_its_first_failing_fold(self, monkeypatch, workers, cpus):
        # One job of six folds. Fold 2's training rows hold participant 1's
        # NaN, and fold 3 has no failure rows to oversample: fold 2's check
        # must raise before fold 3's SMOTE.
        monkeypatch.setattr(evaluate, "_usable_cpus", lambda: cpus)
        ds = minority_dataset([0, 0, 3, 0, 0, 0])
        X = ds.X.copy()
        X[0, 0] = np.nan
        ds = LabeledDataset(X, ds.y, ds.groups)
        with pytest.raises(InvalidParameterError, match="finite numbers"):
            fit_folds(ds, default_config("svm", seed=2), range(1, 7))
        assert ds.fold_models == {}

    @pytest.mark.parametrize("cls", [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.GazeSentinelError)])
    def test_errors_cross_the_process_boundary(self, cls):
        back = pickle.loads(pickle.dumps(cls("a message")))
        assert type(back) is cls and str(back) == "a message"
