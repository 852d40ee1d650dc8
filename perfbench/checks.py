"""Output checks. Each raises ``CheckFailed`` naming what is wrong.

Every check compares the program's output with a value derived apart from
the program (``reference``) or with a property the method must have; none
compares with a saved copy of an earlier output.
"""

from __future__ import annotations

import math

import reference

FEATURE_TOL = 1e-9
POOLED_TOL = 1e-12
T_TOL = 5e-7
XY_TOL = 5e-4


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---- paper-eval -------------------------------------------------------------

def check_fold_makeup(labels_by_participant: dict, participants, nf: int = 12,
                      failures: int = 2) -> None:
    """Each participant contributes ``nf`` NF and ``failures`` failure rows."""
    require(sorted(labels_by_participant) == list(participants),
            f"dataset participants {sorted(labels_by_participant)} != {list(participants)}")
    for pid, labels in labels_by_participant.items():
        n_fail = sum(1 for v in labels if v == 1)
        require(len(labels) - n_fail == nf and n_fail == failures,
                f"participant {pid} has {len(labels) - n_fail} NF + {n_fail} failure rows")


def check_fold_report(report, participants, rows_per_fold: int) -> None:
    """One fold per participant of ``rows_per_fold`` rows; pooled accuracy is
    the n-weighted mean of the fold accuracies."""
    label = f"{report.task} {report.regime}"
    require(len(report.folds) == len(participants),
            f"{label}: {len(report.folds)} folds, expected {len(participants)}")
    require([f.participant for f in report.folds] == list(participants),
            f"{label}: fold participants differ from the corpus")
    for f in report.folds:
        require(f.n_test == rows_per_fold,
                f"{label}: fold {f.participant} has {f.n_test} rows, expected {rows_per_fold}")
    pooled = reference.weighted_accuracy([(f.n_test, f.accuracy) for f in report.folds])
    require(abs(pooled - report.accuracy) <= POOLED_TOL,
            f"{label}: pooled accuracy {report.accuracy!r} != fold-weighted {pooled!r}")


def check_balanced_floor(report, floor: float) -> None:
    value = report.balanced_accuracy
    require(value is not None and value >= floor,
            f"{report.task} {report.regime}: balanced accuracy {value} below {floor}")


def check_stream_report(report, detections, failure_windows: dict, durations: dict,
                        width: float) -> None:
    """Recompute the window report from its detections against truths derived
    here from each session's failure window by the half-overlap rule.

    ``failure_windows`` and ``durations`` are keyed by (participant, puzzle)
    and cover exactly the sessions the report should have classified.
    """
    by_session: dict = {}
    for d in detections:
        by_session.setdefault((d.participant, d.puzzle), []).append(d)
    require(sorted(by_session) == sorted(failure_windows),
            f"stream detections cover {len(by_session)} sessions, expected {len(failure_windows)}")
    by_fold: dict = {}
    for key, events in sorted(by_session.items()):
        expected = reference.window_bounds(durations[key], width)
        require([(d.t0, d.t1) for d in events] == expected,
                f"session {key}: stream windows differ from the window formula")
        truth, predicted = by_fold.setdefault(key[0], ([], []))
        truth.extend(reference.window_truth(d.t0, d.t1, failure_windows[key]) for d in events)
        predicted.extend(d.predicted for d in events)
    require([f.participant for f in report.folds] == sorted(by_fold),
            "stream report folds differ from the participants detected")
    all_truth, all_pred = [], []
    for fold in report.folds:
        truth, predicted = by_fold[fold.participant]
        accuracy, recall, _ = reference.fold_scores(truth, predicted)
        require(fold.n_test == len(truth) and _close(fold.accuracy, accuracy)
                and _close(fold.recall, recall),
                f"stream fold {fold.participant}: report ({fold.n_test}, {fold.accuracy}, "
                f"{fold.recall}) != recomputed ({len(truth)}, {accuracy}, {recall})")
        all_truth.extend(truth)
        all_pred.extend(predicted)
    accuracy, recall, fpr = reference.fold_scores(all_truth, all_pred)
    require(_close(report.accuracy, accuracy) and _close(report.recall, recall)
            and _close(report.fpr, fpr),
            f"stream pooled ({report.accuracy}, {report.recall}, {report.fpr}) != "
            f"recomputed ({accuracy}, {recall}, {fpr})")


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= POOLED_TOL


# ---- live-detect ------------------------------------------------------------

def check_window_bounds(detections, duration: float, width: float, key) -> None:
    expected = reference.window_bounds(duration, width)
    got = [(d.t0, d.t1) for d in detections]
    require(len(got) == len(expected),
            f"session {key} width {width:g}: {len(got)} windows, expected {len(expected)}")
    require(got == expected, f"session {key} width {width:g}: window bounds differ")


def check_features(program, expected, where: str) -> None:
    """Program features equal the reference ones within ``FEATURE_TOL``."""
    require(len(program) == len(expected), f"{where}: feature count differs")
    for i, (a, b) in enumerate(zip(program, expected)):
        require(math.isfinite(a) and abs(a - b) <= FEATURE_TOL,
                f"{where}: feature {i} is {a!r}, reference gives {b!r}")


def check_prediction(detection, label: int, score: float, where: str) -> None:
    require(detection.predicted == label and detection.score == score,
            f"{where}: detected ({detection.predicted}, {detection.score!r}) but the "
            f"model gives ({label}, {score!r}) on reference features")


def check_prefix(cut, full, where: str) -> None:
    """Detections of a session cut at a window end are a prefix of the full
    session's detections."""
    require(len(cut) <= len(full) and list(cut) == list(full[:len(cut)]),
            f"{where}: detections of the cut session are not a prefix of the full ones")


# ---- cli-files --------------------------------------------------------------

def check_session_roundtrip(parsed: dict, session, where: str) -> None:
    """A session file read back matches the simulated session within the
    format's rounding (t to 1e-6 s, x and y to 1e-3 mm)."""
    gaze = session.gaze
    require(parsed["participant"] == session.participant_id
            and parsed["puzzle"] == session.puzzle_id,
            f"{where}: header names another session")
    require(parsed["duration"] == session.timeline.duration
            and parsed["failure_type"] == session.timeline.failure_type,
            f"{where}: header timeline differs")
    require(len(parsed["t"]) == len(gaze), f"{where}: {len(parsed['t'])} samples, "
            f"expected {len(gaze)}")
    for name, column, tol in (("t", gaze.t, T_TOL), ("x", gaze.x, XY_TOL), ("y", gaze.y, XY_TOL)):
        worst = max((abs(a - b) for a, b in zip(parsed[name], column.tolist())), default=0.0)
        require(worst <= tol, f"{where}: {name} off by {worst} (tolerance {tol})")
    require(parsed["valid"] == gaze.valid.tolist(), f"{where}: validity flags differ")


def check_feature_table(rows: list, participants, durations: dict) -> None:
    """28 rows per participant (12 NF + 2 failure per task); every row spans
    its task's failure duration."""
    per_participant: dict = {}
    for row in rows:
        per_participant[row["participant"]] = per_participant.get(row["participant"], 0) + 1
        span = row["t1"] - row["t0"]
        require(abs(span - durations[row["task"]]) <= 1e-9,
                f"feature row {row['task']} p{row['participant']} z{row['puzzle']} "
                f"piece {row['piece']} spans {span} s")
    require(sorted(per_participant) == list(participants),
            "feature table participants differ from the corpus")
    for pid, count in per_participant.items():
        require(count == 28, f"participant {pid} has {count} feature rows, expected 28")


def check_window_records(records: list, duration: float, width: float, where: str) -> None:
    """One detection record per window by the window formula."""
    bounds = reference.window_bounds(duration, width)
    require([(r["t0"], r["t1"]) for r in records] == bounds,
            f"{where}: {len(records)} records, {len(bounds)} windows by the formula")


def check_detections_file(records: list, expected, duration: float, width: float,
                          where: str) -> None:
    """One record per window by the window formula, each equal to the
    in-process detection."""
    check_window_records(records, duration, width, where)
    got = [(r["participant"], r["puzzle"], r["t0"], r["t1"], r["predicted"], r["score"])
           for r in records]
    want = [(d.participant, d.puzzle, d.t0, d.t1, d.predicted, d.score) for d in expected]
    require(got == want, f"{where}: records differ from in-process stream_detect")
