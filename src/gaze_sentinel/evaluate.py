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

import math
import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
    ClassifierConfig,
    LabeledDataset,
    TrainedModel,
    predict_batch,
    smote,
    train,
)

TASKS = {"nf-ef": "EF", "nf-df": "DF"}
SMOTE_K = 2  # neighbours SMOTE interpolates between


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
    datasets (and with them their fold models, see ``fit_fold``), and
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
        """The task's rows: its failure segments and every NF segment, each
        measured over [t_start, t_start + D] with D the task's failure
        duration.

        Every row of a task thus spans the same length. Count-over-span
        features such as the shift rates lie on the lattice k/D of their
        slice length D, so NF rows of another length (the pick-and-place
        action varies) would reveal their class.
        """
        if task not in self._task_rows:
            ftype = _failure_type(task)
            duration = FAILURE_DURATIONS[ftype]
            rows = []
            for session in self.sessions:
                segs = [s for s in segment_session(session) if s.label in ("NF", ftype)]
                t0 = np.array([seg.t_start for seg in segs])
                X = self.slice_matrix(session, t0, t0 + duration)
                rows.extend(
                    SegmentRow(
                        task=task,
                        participant=seg.participant_id,
                        puzzle=seg.puzzle_id,
                        piece=seg.piece_index,
                        label=seg.label,
                        t0=seg.t_start,
                        t1=seg.t_start + duration,
                        features=features,
                        session=session,
                    )
                    for seg, features in zip(segs, X)
                )
            self._task_rows[task] = rows
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

    def window_features(self, session: Session, width: float, slide: float = 1.0):
        """(windows, feature matrix) computed causally and cached."""
        key = (self._key(session), float(width), float(slide))
        if key not in self._window_cache:
            windows = sliding_windows(session, width, slide)
            self._window_cache[key] = (windows, causal_window_matrix(
                self.debouncer(session), windows))
        return self._window_cache[key]


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


def _fit_split(X, y, groups, config: ClassifierConfig, held_out: int) -> TrainedModel:
    """The fold model: train on every participant except ``held_out``, with
    SMOTE on the training split only, seeded by (config seed, held-out
    participant)."""
    train_split = LabeledDataset(X, y, groups).subset(groups != held_out)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(held_out,)))
    return train(config, smote(train_split, k=SMOTE_K, rng=rng))


def _fit_pickled(X, y, groups, config: ClassifierConfig, held_out: int) -> bytes:
    """``_fit_split`` in a worker. The model goes back pickled, so the
    parent's main thread, not the pool's result thread, allocates it."""
    return pickle.dumps(_fit_split(X, y, groups, config, held_out))


def fit_fold(dataset: LabeledDataset, config: ClassifierConfig,
             held_out: int) -> TrainedModel:
    """The fold model of ``held_out`` (see ``_fit_split``).

    These arguments determine the fit and the dataset's arrays are
    read-only, so the model is fitted once and kept in
    ``dataset.fold_models``: every regime run on one dataset shares it.
    """
    key = (config, int(held_out))
    if key not in dataset.fold_models:
        dataset.fold_models[key] = _fit_split(dataset.X, dataset.y, dataset.groups,
                                              config, int(held_out))
    return dataset.fold_models[key]


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def fit_folds(dataset: LabeledDataset, config: ClassifierConfig, held_out) -> list:
    """The fold models of the ``held_out`` participants, each as
    ``fit_fold`` gives it.

    The folds not yet in ``dataset.fold_models`` are fitted in worker
    processes, one per CPU this process may use, and kept there; with one
    CPU or at most one such fold, ``fit_fold`` fits in-process. A fold is a
    function of the arrays, the config and the held-out id alone, so the
    models are byte-identical either way. The first failing fold in
    ``held_out`` order raises its own error, as it would in-process, and
    the folds not yet started are cancelled.

    Workers are forked. The pool lives for one call, and two forked
    workers start in about 10 ms with numpy and this package imported;
    spawned or forkserver ones import both anew, 0.3-0.5 s per pool on a
    2-vCPU VM, and re-run the caller's main module, which fails in scripts
    without a ``__main__`` guard. The executor forks its workers before it
    starts its own threads; the only other threads are OpenBLAS's, which
    it stops around a fork.
    """
    held_out = [int(p) for p in held_out]
    missing = [p for p in held_out if (config, p) not in dataset.fold_models]
    workers = min(_usable_cpus(), len(missing))
    if workers > 1:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_fit_pickled, dataset.X, dataset.y, dataset.groups,
                                   config, p) for p in missing]
            try:
                for p, future in zip(missing, futures):
                    dataset.fold_models[(config, p)] = pickle.loads(future.result())
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    return [fit_fold(dataset, config, p) for p in held_out]


def _loo_folds(dataset: LabeledDataset, config: ClassifierConfig, test_sets,
               n_sets: int = 1) -> list:
    """The participant leave-one-out loop of every regime.

    ``test_sets(pid)`` gives the held-out participant's ``n_sets`` test sets
    as (blocks, truth) pairs, and its fold model labels each block of rows
    in one call. Returns, per test set, a (participant, truth, labels,
    scores) tuple per fold. A participant whose first test set is empty is
    skipped with a warning. Every test set is built before ``fit_folds``
    fits the folds.

    Blocks keep scores bit-identical to the detector's: the svm margin is a
    BLAS product whose last bits depend on the rows beside a row, and
    ``stream_detect`` labels one session's windows in one call.
    """
    pids = np.unique(dataset.groups)
    if pids.size < 2:
        raise InvalidParameterError("leave-one-out needs at least two participants")
    tested = []
    for pid in pids.tolist():
        sets = test_sets(pid)
        if len(sets[0][1]) == 0:
            warnings.warn(f"participant {pid} has no test rows; fold skipped")
            continue
        tested.append((pid, sets))
    models = fit_folds(dataset, config, [pid for pid, _ in tested])
    folds: list = [[] for _ in range(n_sets)]
    for (pid, sets), model in zip(tested, models):
        for out, (blocks, truth) in zip(folds, sets):
            labels, scores = zip(*(predict_batch(model, X) for X in blocks))
            out.append((pid, truth, np.concatenate(labels), np.concatenate(scores)))
    return folds


def loo_cv(dataset: LabeledDataset, config: ClassifierConfig,
           task: str = "") -> EvalReport:
    """One fold per participant, tested on its full-segment rows."""

    def test_set(pid):
        mask = dataset.groups == pid
        return [([dataset.X[mask]], dataset.y[mask])]

    (folds,) = _loo_folds(dataset, config, test_set)
    return _pooled_report(task, "full-segment", folds)


def first_n_blocks(corpus: Corpus, rows, n_values) -> list:
    """Per n of ``n_values``, the (rows, 11) features of ``rows`` with each
    failure row measured over its first n seconds, [t0, min(t0 + n, t1)];
    NF rows keep their features. One ``slice_matrix`` call per session
    covers every n."""
    blocks = [np.array([r.features for r in rows]) for _ in n_values]
    failures: dict = {}
    for i, r in enumerate(rows):
        if r.label != "NF":
            failures.setdefault(id(r.session), []).append(i)
    for at in failures.values():
        t0 = np.tile([rows[i].t0 for i in at], len(n_values))
        t1 = np.minimum(t0 + np.repeat(n_values, len(at)),
                        np.tile([rows[i].t1 for i in at], len(n_values)))
        X = corpus.slice_matrix(rows[at[0]].session, t0, t1)
        for block, part in zip(blocks, np.split(X, len(n_values))):
            block[at] = part
    return blocks


def eval_first_n(corpus: Corpus, task: str, config: ClassifierConfig,
                 n_values) -> dict:
    """Fig.-2-style evaluation: models fitted on full-duration segments, then
    failure test rows re-featurized from their first n seconds."""
    n_values = [float(n) for n in n_values]
    if not all(0 < n < math.inf for n in n_values):
        raise InvalidParameterError("truncation lengths must be positive and finite")
    dataset, rows = corpus.dataset_for_task(task)

    def test_sets(pid):
        test_rows = [r for r in rows if r.participant == pid]
        truth = np.array([0 if r.label == "NF" else 1 for r in test_rows], dtype=np.int64)
        return [([block], truth) for block in first_n_blocks(corpus, test_rows, n_values)]

    folds = _loo_folds(dataset, config, test_sets, len(n_values))
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


def sliding_windows(session: Session, width: float, slide: float = 1.0) -> list:
    """Windows [k*slide, k*slide + width] for k = 0..floor((T-width)/slide)."""
    if not (0 < width < math.inf and 0 < slide < math.inf):
        raise InvalidParameterError("width and slide must be positive and finite")
    duration = session.timeline.duration
    if duration < width:
        warnings.warn("session shorter than the window width; no windows")
        return []
    count = int(np.floor((duration - width) / slide + 1e-9)) + 1
    window_frame = session.timeline.failure_window()
    out = []
    for k in range(count):
        t0 = k * slide
        t1 = t0 + width
        truth = 0
        if window_frame is not None:
            fs, fe = window_frame
            overlap = min(t1, fe) - max(t0, fs)
            if overlap >= width / 2 - 1e-9:
                truth = 1
        out.append(Window(t0=t0, t1=t1, truth=truth))
    return out


def causal_window_matrix(debouncer: Debouncer, windows) -> np.ndarray:
    """The (windows, 11) feature matrix, each window's row computed only from
    the samples with t <= its end."""
    t0 = np.array([w.t0 for w in windows], dtype=np.float64)
    t1 = np.array([w.t1 for w in windows], dtype=np.float64)
    return feature_matrix(*debouncer.window_events(t0, t1), t0, t1)


def stream_detect(model: TrainedModel, session: Session, width: float,
                  slide: float = 1.0, debouncer: Optional[Debouncer] = None) -> list:
    """Classify every sliding window causally: window k's features use only
    samples with t <= its end."""
    deb = debouncer or Debouncer(session.gaze, session.layout)
    windows = sliding_windows(session, width, slide)
    if not windows:
        return []
    labels, scores = predict_batch(model, causal_window_matrix(deb, windows))
    return [
        DetectionEvent(session.participant_id, session.puzzle_id,
                       w.t0, w.t1, int(l), float(s))
        for w, l, s in zip(windows, labels, scores)
    ]


@dataclass(frozen=True)
class StreamEvalResult:
    report: EvalReport
    detections: tuple


def loo_stream_eval(corpus: Corpus, task: str, config: ClassifierConfig,
                    width: float, slide: float = 1.0) -> StreamEvalResult:
    """Train per-fold on full segments, then classify the held-out
    participant's failure-type sessions window by window."""
    ftype = _failure_type(task)
    dataset, _ = corpus.dataset_for_task(task)
    sessions: dict = {}
    for session in corpus.failure_sessions(ftype):
        sessions.setdefault(session.participant_id, []).append(session)

    def test_set(pid):
        parts = [corpus.window_features(s, width, slide) for s in sessions.get(pid, ())]
        truth = np.array([w.truth for windows, _ in parts for w in windows], dtype=np.int64)
        return [([X for _, X in parts], truth)]

    (folds,) = _loo_folds(dataset, config, test_set)
    detections = []
    for pid, _, labels, scores in folds:
        located = [(s, w) for s in sessions[pid]
                   for w in corpus.window_features(s, width, slide)[0]]
        detections.extend(
            DetectionEvent(s.participant_id, s.puzzle_id, w.t0, w.t1, int(l), float(p))
            for (s, w), l, p in zip(located, labels, scores)
        )
    report = _pooled_report(task, f"window-{width:g}", folds)
    return StreamEvalResult(report=report, detections=tuple(detections))


def interval_detection_rate(detections, corpus: Corpus, width: float) -> list:
    """Fraction of participants detected in [failure_start+o, +o+width] per
    integer offset o.

    A participant counts as detected at offset o when any of their positive
    windows starts within half a slide of failure_start + o (nearest-window
    assignment under the 1-second slide).
    """
    by_session: dict = {}
    for d in detections:
        by_session.setdefault((d.participant, d.puzzle), []).append(d)

    session_info = {}
    ftypes = set()
    for session in corpus.sessions:
        key = (session.participant_id, session.puzzle_id)
        if key not in by_session:
            continue
        window_frame = session.timeline.failure_window()
        if window_frame is None:
            raise InvalidParameterError("detections reference a failure-free session")
        ftypes.add(session.timeline.failure_type)
        session_info[key] = window_frame[0]
    if len(ftypes) > 1:
        raise InvalidParameterError("detections span multiple failure types")
    if not session_info:
        return []
    duration = FAILURE_DURATIONS[next(iter(ftypes))]
    offsets = range(int(np.floor(duration - width + 1e-9)) + 1)

    total = len(corpus.participants)
    curve = []
    for o in offsets:
        detected = set()
        for key, events in by_session.items():
            fs = session_info[key]
            lo, hi = fs + o - 0.5, fs + o + 0.5
            for d in events:
                if d.predicted == 1 and lo <= d.t0 < hi:
                    detected.add(key[0])
                    break
        curve.append((o, len(detected) / total))
    return curve
