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
from dataclasses import dataclass, fields
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
from .features import N_FEATURES, feature_matrix
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


@dataclass(frozen=True, eq=False)
class TaskTable:
    """One task's rows as aligned columns: participant, puzzle, piece, class
    ``y`` (0 = NF, 1 = the task's failure), the slice [t0, t1] measured, the
    (rows, 11) features ``X``, and the index into ``Corpus.sessions`` (None
    for a table that no corpus built)."""

    task: str
    participant: np.ndarray
    puzzle: np.ndarray
    piece: np.ndarray
    y: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    X: np.ndarray
    session: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.y)

    @functools.cached_property
    def dataset(self) -> LabeledDataset:
        """The table's dataset, built once: every regime shares its folds."""
        return LabeledDataset(self.X, self.y, self.participant)

    @classmethod
    def concat(cls, tables) -> "TaskTable":
        """The rows of ``tables`` of one task in turn, without session indices."""
        return cls(tables[0].task, *(np.concatenate([getattr(t, f.name) for t in tables])
                                     for f in fields(cls)[1:-1]))


class Corpus:
    """Session collection with cached debouncing, task tables (and with each
    its dataset and fold models, see ``fit_folds``), and per-window
    features, shared across classifiers, folds and regimes.

    Task, first-n and window rows all come from one kernel,
    ``feature_matrix``, over a session's event table: slices of the whole
    recording (``measure``) for task and first-n rows, causal ones for
    windows."""

    def __init__(self, sessions):
        self.sessions = sorted(sessions, key=lambda s: (s.participant_id, s.puzzle_id))
        self._debouncers: dict = {}
        self._tables: dict = {}
        self._window_cache: dict = {}

    def _key(self, session: Session):
        return (session.participant_id, session.puzzle_id)

    def debouncer(self, session: Session) -> Debouncer:
        key = self._key(session)
        if key not in self._debouncers:
            self._debouncers[key] = Debouncer(session.gaze, session.layout)
        return self._debouncers[key]

    def measure(self, session, t0, t1) -> np.ndarray:
        """The (slices, 11) features of the slices [t0[i], t1[i]] of the whole
        recording of ``sessions[session[i]]``: one ``slice_events`` call per
        session, over its slices in order (a row depends on no other)."""
        X = np.empty((len(t0), N_FEATURES))
        for s in np.unique(session).tolist():
            at = session == s
            a, b = t0[at], t1[at]
            X[at] = feature_matrix(*self.debouncer(self.sessions[s]).slice_events(a, b), a, b)
        return X

    def rows_for_task(self, task: str) -> TaskTable:
        """The task's table, the same object on every call: each session's
        failure and NF segments in turn, each measured over
        [t_start, t_start + D] with D the task's failure duration.

        Every row of a task thus spans the same length. Count-over-span
        features such as the shift rates lie on the lattice k/D of their
        slice length D, so NF rows of another length (the pick-and-place
        action varies) would reveal their class."""
        if task not in self._tables:
            ftype = _failure_type(task)
            segs = [(i, seg) for i, s in enumerate(self.sessions)
                    for seg in segment_session(s) if seg.label in ("NF", ftype)]
            session, participant, puzzle, piece, y = np.array(
                [(i, seg.participant_id, seg.puzzle_id, seg.piece_index, seg.label == ftype)
                 for i, seg in segs], dtype=np.int64).reshape(-1, 5).T.copy()
            t0 = np.array([seg.t_start for _, seg in segs], dtype=np.float64)
            t1 = t0 + FAILURE_DURATIONS[ftype]
            self._tables[task] = TaskTable(task, participant, puzzle, piece, y, t0, t1,
                                           self.measure(session, t0, t1), session)
        return self._tables[task]

    def dataset_for_task(self, task: str) -> tuple[LabeledDataset, TaskTable]:
        """The task's dataset, the same object on every call, and its table."""
        table = self.rows_for_task(task)
        return table.dataset, table

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


def first_n_blocks(corpus: Corpus, table: TaskTable, n_values) -> list:
    """Per n of ``n_values``, the (rows, 11) features of ``table`` with each
    failure row measured over its first n seconds, [t0, min(t0 + n, t1)];
    NF rows keep their features. One ``Corpus.measure`` call covers every
    failure row at every n."""
    n = np.asarray(n_values, dtype=np.float64)
    fail = np.flatnonzero(table.y == 1)
    t0 = np.repeat(table.t0[fail], n.size)
    t1 = np.minimum(t0 + np.tile(n, fail.size), np.repeat(table.t1[fail], n.size))
    X = corpus.measure(np.repeat(table.session[fail], n.size), t0, t1)
    blocks = np.repeat(table.X[None], n.size, axis=0)
    blocks[:, fail] = X.reshape(fail.size, n.size, N_FEATURES).swapaxes(0, 1)
    return list(blocks)


def eval_first_n(corpus: Corpus, task: str, config: ClassifierConfig,
                 n_values) -> dict:
    """Fig.-2-style evaluation: models fitted on full-duration segments, then
    failure test rows re-featurized from their first n seconds."""
    n_values = [float(n) for n in n_values]
    if not all(0 < n < math.inf for n in n_values):
        raise InvalidParameterError("truncation lengths must be positive and finite")
    dataset, table = corpus.dataset_for_task(task)
    folds = _loo_folds(dataset, config, dataset.groups, dataset.y,
                       first_n_blocks(corpus, table, n_values))
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
