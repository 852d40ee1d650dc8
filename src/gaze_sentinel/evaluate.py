"""Evaluation harness: participant-level leave-one-out cross-validation,
truncated-prefix evaluation, sliding-window real-time detection, and the
per-interval detection-percentage analysis.

The three regimes share one fold loop and, on one dataset, one model per
fold: each regime only featurizes the held-out participant's test set.
Oversampling happens strictly inside training folds; held-out rows never
touch training. Aggregate metrics pool predictions across folds rather than
averaging fold metrics, since per-fold test sets are tiny.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .core import (
    Debouncer,
    FAILURE_DURATIONS,
    Session,
    segment_session,
)
from .errors import InvalidParameterError
from .features import feature_matrix
from .learners import (
    LEARNERS,
    ClassifierConfig,
    LabeledDataset,
    TrainedModel,
    predict_batch,
    smote,
    train_many,
)
from .pool import fork_map

TASKS = {"nf-ef": "EF", "nf-df": "DF"}
SMOTE_K = 2  # neighbours SMOTE interpolates between
SLIDE_S = 1.0  # the paper's window slide, which interval_detection_rate assumes


def metrics(y_true, y_pred) -> tuple[float, Optional[float]]:
    """(accuracy, recall-of-failure); recall is None without failure rows."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.size == 0 or y_true.shape != y_pred.shape:
        raise InvalidParameterError("metrics need equal-length, non-empty inputs")
    accuracy = float(np.mean(y_true == y_pred))
    pos = y_true == 1
    recall = float(np.mean(y_pred[pos] == 1)) if pos.any() else None
    return accuracy, recall


@dataclass(frozen=True)
class FoldResult:
    participant: int
    n_test: int
    accuracy: float
    recall: Optional[float]


@dataclass(frozen=True)
class EvalReport:
    """Pooled and per-fold accuracy/recall for one task and regime, plus the
    pooled false-positive rate (None without NF rows)."""

    task: str
    regime: str
    folds: tuple
    accuracy: float
    recall: Optional[float]
    fpr: Optional[float]

    @property
    def balanced_accuracy(self) -> Optional[float]:
        """(recall + specificity) / 2: 0.5 for every predictor that ignores
        the label, whatever the class ratio of the test rows."""
        if self.recall is None or self.fpr is None:
            return None
        return (self.recall + 1.0 - self.fpr) / 2


def _pooled_report(task: str, regime: str, folds) -> EvalReport:
    """Per-fold metrics of (participant, truth, labels, ...) folds, and the
    pooled ones over their concatenated predictions."""
    results, y_true, y_pred = [], [], []
    for pid, truth, labels, *_ in folds:
        results.append(FoldResult(pid, len(truth), *metrics(truth, labels)))
        y_true.extend(truth.tolist())
        y_pred.extend(labels.tolist())
    accuracy, recall = metrics(y_true, y_pred)
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    neg = y_true == 0
    fpr = float(np.mean(y_pred[neg] == 1)) if neg.any() else None
    return EvalReport(task=task, regime=regime, folds=tuple(results),
                      accuracy=accuracy, recall=recall, fpr=fpr)


@dataclass(eq=False)
class SegmentRow:
    """One classification unit of one task: a labelled slice plus its
    features."""

    task: str
    participant: int
    puzzle: int
    piece: int
    label: str
    t0: float
    t1: float
    features: np.ndarray
    session: Optional[Session] = None


class Corpus:
    """Session collection with cached debouncing, segment features, task
    datasets (and with them their fold models, see ``fit_folds``), and
    per-window features, shared across classifiers, folds and regimes.

    Segment, first-n and window rows all come from one kernel,
    ``feature_matrix``, over columns of a session's event table: whole-
    recording slices for segments and first-n rows, causal ones for
    windows."""

    def __init__(self, sessions):
        self.sessions = sorted(sessions, key=lambda s: (s.participant_id, s.puzzle_id))
        self._debouncers: dict = {}
        self._task_rows: dict = {}
        self._datasets: dict = {}
        self._window_cache: dict = {}

    def _key(self, session: Session):
        return (session.participant_id, session.puzzle_id)

    def debouncer(self, session: Session) -> Debouncer:
        key = self._key(session)
        if key not in self._debouncers:
            self._debouncers[key] = Debouncer(session.gaze, session.layout)
        return self._debouncers[key]

    def slice_matrix(self, session: Session, t0, t1) -> np.ndarray:
        """The (slices, 11) feature matrix of the session's slices
        [t0[i], t1[i]] of the whole recording."""
        return feature_matrix(*self.debouncer(session).slice_events(t0, t1), t0, t1)

    def rows_for_task(self, task: str) -> list:
        """The task's rows, ``task_rows`` of each session in turn."""
        if task not in self._task_rows:
            self._task_rows[task] = [row for session in self.sessions for row in
                                     task_rows(session, self.debouncer(session), task)]
        return self._task_rows[task]

    def segment_rows(self) -> list:
        """Every task's rows, in ``TASKS`` order (the extract table)."""
        return [row for task in TASKS for row in self.rows_for_task(task)]

    def dataset_for_task(self, task: str) -> tuple[LabeledDataset, list]:
        """The task's dataset, the same object on every call, and its rows."""
        rows = self.rows_for_task(task)
        if task not in self._datasets:
            self._datasets[task] = dataset_from_rows(rows)
        return self._datasets[task], rows

    @property
    def participants(self) -> list:
        return sorted({s.participant_id for s in self.sessions})

    def failure_sessions(self, failure_type: str) -> list:
        return [s for s in self.sessions if s.timeline.failure_type == failure_type]

    def window_features(self, session: Session, width: float):
        """(t0, t1, truth, features) of the session's windows, causal and cached."""
        key = (self._key(session), float(width))
        if key not in self._window_cache:
            t0, t1, truth = window_columns(session, width)
            self._window_cache[key] = (t0, t1, truth, causal_window_matrix(
                self.debouncer(session), t0, t1))
        return self._window_cache[key]


def task_rows(session: Session, debouncer: Debouncer, task: str) -> list:
    """The session's rows of the task: its failure segments and every NF
    segment, each measured over [t_start, t_start + D] with D the task's
    failure duration.

    Every row of a task thus spans the same length. Count-over-span
    features such as the shift rates lie on the lattice k/D of their slice
    length D, so NF rows of another length (the pick-and-place action
    varies) would reveal their class.
    """
    ftype = _failure_type(task)
    duration = FAILURE_DURATIONS[ftype]
    segs = [s for s in segment_session(session) if s.label in ("NF", ftype)]
    t0 = np.array([seg.t_start for seg in segs])
    t1 = t0 + duration
    X = feature_matrix(*debouncer.slice_events(t0, t1), t0, t1)
    return [SegmentRow(task=task, participant=seg.participant_id, puzzle=seg.puzzle_id,
                       piece=seg.piece_index, label=seg.label, t0=seg.t_start,
                       t1=seg.t_start + duration, features=features, session=session)
            for seg, features in zip(segs, X)]


def dataset_from_rows(rows) -> LabeledDataset:
    """Features, NF=0 / failure=1 labels, and participant groups of one
    task's rows."""
    X = np.array([r.features for r in rows])
    y = np.array([0 if r.label == "NF" else 1 for r in rows], dtype=np.int64)
    groups = np.array([r.participant for r in rows], dtype=np.int64)
    return LabeledDataset(X, y, groups)


def _failure_type(task: str) -> str:
    if task not in TASKS:
        raise InvalidParameterError(f"unknown task {task!r}")
    return TASKS[task]


def _fit_splits(dataset: LabeledDataset, config: ClassifierConfig, held_out: list) -> list:
    """The fold models of the ``held_out`` participants: each trained on
    every other one, with SMOTE on the training split only, seeded by
    (config seed, held-out participant). ``train_many`` checks each split as
    it is drawn, so the first fold to fail raises its own error."""
    return train_many(config, (
        smote(dataset.subset(dataset.groups != p), k=SMOTE_K,
              rng=np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(p,))))
        for p in held_out))


def fit_folds(dataset: LabeledDataset, config: ClassifierConfig, held_out) -> list:
    """The fold models of the ``held_out`` participants (see ``_fit_splits``).

    These arguments determine each fit and the dataset's arrays are
    read-only, so each model is fitted once and kept in
    ``dataset.fold_models``: every regime run on one dataset shares it.
    The folds not yet there are fitted in ``fork_map`` jobs: one per fold,
    or one for all svm folds, which ``train_many`` fits in lockstep groups.
    A fold depends on the arrays, the config and the held-out id alone, so
    the models are the same byte for byte in workers or in-process, and the
    first failing fold in ``held_out`` order raises its own error.
    """
    held_out = [int(p) for p in held_out]
    missing = [p for p in held_out if (config, p) not in dataset.fold_models]
    jobs = [missing] if LEARNERS[config.kind].lockstep else [[p] for p in missing]
    fitted = fork_map(functools.partial(_fit_splits, dataset, config), jobs)
    for job, models in zip(jobs, fitted):
        dataset.fold_models.update(zip([(config, p) for p in job], models))
    return [dataset.fold_models[(config, p)] for p in held_out]


def _loo_folds(dataset: LabeledDataset, config: ClassifierConfig, groups, truth,
               blocks) -> list:
    """The participant leave-one-out loop of every regime.

    The test rows are columns aligned with ``groups``, their participants:
    ``truth`` and each (rows, 11) feature block of ``blocks``. Each
    participant's fold model labels its rows of a block in one call.
    Returns, per block, a (participant, truth, labels, scores) tuple per
    fold, in participant order. A participant of ``dataset`` without test
    rows is skipped with a warning.
    """
    pids = np.unique(dataset.groups).tolist()
    if len(pids) < 2:
        raise InvalidParameterError("leave-one-out needs at least two participants")
    tested = [pid for pid in pids if (groups == pid).any()]
    for pid in sorted(set(pids) - set(tested)):
        warnings.warn(f"participant {pid} has no test rows; fold skipped")
    folds: list = [[] for _ in blocks]
    for pid, model in zip(tested, fit_folds(dataset, config, tested)):
        mask = groups == pid
        for out, X in zip(folds, blocks):
            out.append((pid, truth[mask], *predict_batch(model, X[mask])))
    return folds


def loo_cv(dataset: LabeledDataset, config: ClassifierConfig,
           task: str = "") -> EvalReport:
    """One fold per participant, tested on its full-segment rows."""
    (folds,) = _loo_folds(dataset, config, dataset.groups, dataset.y, [dataset.X])
    return _pooled_report(task, "full-segment", folds)


def first_n_blocks(corpus: Corpus, rows, n_values) -> list:
    """Per n of ``n_values``, the (rows, 11) features of ``rows`` with each
    failure row measured over its first n seconds, [t0, min(t0 + n, t1)];
    NF rows keep their features. One ``slice_matrix`` call per failure row
    covers every n."""
    n = np.asarray(n_values, dtype=np.float64)
    blocks = [np.array([r.features for r in rows]) for _ in n]
    for i, r in enumerate(rows):
        if r.label != "NF":
            X = corpus.slice_matrix(r.session, np.full(n.size, r.t0), np.minimum(r.t0 + n, r.t1))
            for block, x in zip(blocks, X):
                block[i] = x
    return blocks


def eval_first_n(corpus: Corpus, task: str, config: ClassifierConfig,
                 n_values) -> dict:
    """Fig.-2-style evaluation: models fitted on full-duration segments, then
    failure test rows re-featurized from their first n seconds."""
    n_values = [float(n) for n in n_values]
    if not all(0 < n < math.inf for n in n_values):
        raise InvalidParameterError("truncation lengths must be positive and finite")
    dataset, rows = corpus.dataset_for_task(task)
    folds = _loo_folds(dataset, config, dataset.groups, dataset.y,
                       first_n_blocks(corpus, rows, n_values))
    return {n: _pooled_report(task, f"first-{n:g}", f) for n, f in zip(n_values, folds)}


@dataclass(frozen=True)
class Window:
    """One sliding-window slice with its ground-truth label (failure iff at
    least half the window lies inside a failure period)."""

    t0: float
    t1: float
    truth: int


@dataclass(frozen=True)
class DetectionEvent:
    """One classified window from the streaming detector."""

    participant: int
    puzzle: int
    t0: float
    t1: float
    predicted: int
    score: float


def window_columns(session: Session, width: float):
    """The (t0, t1, truth) columns of the windows [k*SLIDE_S, k*SLIDE_S + width]
    for k = 0..floor((T-width)/SLIDE_S), truth as ``Window`` defines it."""
    if not 0 < width < math.inf:
        raise InvalidParameterError("width must be positive and finite")
    duration = session.timeline.duration
    count = 0
    if duration < width:
        warnings.warn("session shorter than the window width; no windows")
    else:
        count = int(np.floor((duration - width) / SLIDE_S + 1e-9)) + 1
    t0 = np.arange(count) * SLIDE_S
    t1 = t0 + width
    # Without a failure the frame is empty: every overlap is -inf.
    fs, fe = session.timeline.failure_window() or (math.inf, -math.inf)
    truth = (np.minimum(t1, fe) - np.maximum(t0, fs) >= width / 2 - 1e-9).astype(np.int64)
    return t0, t1, truth


def sliding_windows(session: Session, width: float) -> list:
    """``window_columns`` as one ``Window`` per window."""
    return list(map(Window, *(c.tolist() for c in window_columns(session, width))))


def causal_window_matrix(debouncer: Debouncer, t0, t1) -> np.ndarray:
    """The (windows, 11) feature matrix of the windows [t0[i], t1[i]], each
    row computed only from the samples with t <= its end."""
    return feature_matrix(*debouncer.window_events(t0, t1), t0, t1)


def stream_detect(model: TrainedModel, session: Session, width: float) -> list:
    """Classify every sliding window causally: window k's features use only
    samples with t <= its end."""
    t0, t1, _ = window_columns(session, width)
    if not t0.size:
        return []
    X = causal_window_matrix(Debouncer(session.gaze, session.layout), t0, t1)
    return _records(repeat(session.participant_id), repeat(session.puzzle_id), t0, t1,
                    *predict_batch(model, X))


def _records(participants, puzzles, t0, t1, labels, scores) -> list:
    """One ``DetectionEvent`` per window, from its columns."""
    return list(map(DetectionEvent, participants, puzzles, t0.tolist(), t1.tolist(),
                    labels.tolist(), scores.tolist()))


@dataclass(frozen=True)
class StreamEvalResult:
    report: EvalReport
    detections: tuple


def loo_stream_eval(corpus: Corpus, task: str, config: ClassifierConfig,
                    width: float) -> StreamEvalResult:
    """Train per-fold on full segments, then classify the held-out
    participant's failure-type sessions window by window."""
    failure_type = _failure_type(task)
    sessions = corpus.failure_sessions(failure_type)
    if not sessions:
        raise InvalidParameterError(
            f"task {task} has no {failure_type} sessions to classify window by window")
    dataset, _ = corpus.dataset_for_task(task)
    columns = [corpus.window_features(s, width) for s in sessions]
    counts = [t0.size for t0, *_ in columns]
    empty = (np.zeros(0), np.zeros(0), np.zeros(0, np.int64), np.zeros((0, dataset.n_features)))
    t0, t1, truth, X = (np.concatenate(c) for c in zip(*columns, empty))
    groups = np.repeat(np.array([s.participant_id for s in sessions], np.int64), counts)
    puzzles = np.repeat([s.puzzle_id for s in sessions], counts)
    (folds,) = _loo_folds(dataset, config, groups, truth, [X])
    report = _pooled_report(task, f"window-{width:g}", folds)
    # ``Corpus`` sorts sessions by participant, so the folds' labels, in
    # participant order, are in window order.
    _, _, labels, scores = zip(*folds)
    detections = _records(groups.tolist(), puzzles.tolist(), t0, t1,
                          np.concatenate(labels), np.concatenate(scores))
    return StreamEvalResult(report=report, detections=tuple(detections))


def interval_detection_rate(detections, corpus: Corpus, width: float) -> list:
    """Fraction of participants detected in [failure_start+o, +o+width] per
    integer offset o.

    A participant counts as detected at offset o when any of their positive
    windows starts within half a slide of failure_start + o (nearest-window
    assignment under the ``SLIDE_S`` slide of 1 s).
    """
    timelines = {corpus._key(s): s.timeline for s in corpus.sessions}
    starts = {}
    for key in dict.fromkeys((d.participant, d.puzzle) for d in detections):
        if key not in timelines:
            raise InvalidParameterError(
                f"detections reference participant {key[0]} puzzle {key[1]}, not in the corpus")
        window_frame = timelines[key].failure_window()
        if window_frame is None:
            raise InvalidParameterError("detections reference a failure-free session")
        starts[key] = window_frame[0]
    ftypes = {timelines[key].failure_type for key in starts}
    if len(ftypes) > 1:
        raise InvalidParameterError("detections span multiple failure types")
    if not starts:
        return []
    duration = FAILURE_DURATIONS[ftypes.pop()]
    positive = [d for d in detections if d.predicted == 1]
    fs = np.array([starts[d.participant, d.puzzle] for d in positive], dtype=np.float64)
    t0 = np.array([d.t0 for d in positive], dtype=np.float64)
    participants = np.array([d.participant for d in positive], dtype=np.int64)
    o = np.arange(int(np.floor(duration - width + 1e-9)) + 1)[:, None]
    hits = (fs + o - 0.5 <= t0) & (t0 < fs + o + 0.5)
    total = len(corpus.participants)
    return [(k, len(np.unique(participants[row])) / total) for k, row in enumerate(hits)]
