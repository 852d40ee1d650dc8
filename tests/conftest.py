import json
import time
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("suite")

from gaze_sentinel import storage
from gaze_sentinel.core import FAILURE_DURATIONS, MIN_DWELL_S
from gaze_sentinel.errors import InvalidParameterError
from gaze_sentinel.evaluate import TASKS, Corpus
from gaze_sentinel.sim import CorpusSpec, generate_corpus

# The committed behaviour profile, the one the simulator reads by default.
DEFAULT_PROFILE = resources.files("gaze_sentinel") / "profiles" / "default.json"


def read_session_header(path) -> dict:
    """The header of a session file, read without its samples."""
    with open(path, encoding="utf-8") as fh:
        return storage._parse_session_header(fh.readline(), path)


def segment_duration(segment) -> float:
    """The length of an ``EpisodeSegment`` in seconds."""
    return segment.t_end - segment.t_start


def profile_dict() -> dict:
    """A fresh dict of the committed profile, without its ``name``, a key
    the profile reader ignores."""
    data = json.loads(DEFAULT_PROFILE.read_text())
    del data["name"]
    return data


# Wall-clock cost of building shared fixtures, charged to the first
# acceptance criterion that needs them.
BUILD_SECONDS = {}


@pytest.fixture(scope="session")
def default_corpus():
    """The committed synthetic corpus: 26 participants, master seed 7."""
    t0 = time.monotonic()
    corpus = Corpus(generate_corpus(CorpusSpec()))
    for task in TASKS:
        corpus.rows_for_task(task)
    BUILD_SECONDS["default_corpus"] = time.monotonic() - t0
    return corpus


@pytest.fixture(scope="session")
def mini_corpus():
    """Small corpus for fast integration tests (4 participants)."""
    corpus = Corpus(generate_corpus(CorpusSpec(participants=4, master_seed=11)))
    for task in TASKS:
        corpus.rows_for_task(task)
    return corpus


def scalar_event_table(run_t0, run_t1, run_code, period):
    """The per-run loop the debouncer's vectorised event table replaced,
    kept as its reference: (events before each run, running duration of
    the last of them, event codes, starts, durations)."""
    n_runs = len(run_t0)
    run_events = np.zeros(n_runs, dtype=np.int64)
    run_last_dur = np.zeros(n_runs, dtype=np.float64)
    durations = (run_t1 - run_t0) + period
    threshold = MIN_DWELL_S - 1e-12
    out_code, out_t0, out_dur = [], [], []
    for i in range(n_runs):
        run_events[i] = len(out_code)
        if out_dur:
            run_last_dur[i] = out_dur[-1]
        dur = float(durations[i])
        if dur < threshold:
            continue
        code = int(run_code[i])
        if out_code and out_code[-1] == code:
            out_dur[-1] += dur
        else:
            out_code.append(code)
            out_t0.append(float(run_t0[i]))
            out_dur.append(dur)
    return (run_events, run_last_dur, np.array(out_code, dtype=np.int64),
            np.array(out_t0, dtype=np.float64), np.array(out_dur, dtype=np.float64))


def reference_fit_svm(X, y, c, epochs, seed):
    """Pegasos one row at a time, the fit the lockstep svm replaced, kept as
    its reference: every dot product and norm is numpy's sum of one row's
    products, the order ``fit_svm`` uses. Returns (w, b)."""
    n, d = X.shape
    s = 2.0 * y.astype(np.float64) - 1.0
    lam = 1.0 / (c * n)
    radius = 1.0 / np.sqrt(lam)
    Xa = np.hstack([X, np.ones((n, 1))])
    w = np.zeros(d + 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = 1
    for _ in range(epochs):
        for i in rng.permutation(n):
            eta = 1.0 / (lam * t)
            row = Xa[i]
            margin = s[i] * np.sum(row * w)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * s[i] * row
            norm = np.sqrt(np.sum(w * w))
            if norm > radius:
                w *= radius / norm
            t += 1
    return w[:d], float(w[d])


def reference_interval_detection_rate(detections, corpus, width) -> list:
    """The per-offset loop the columnar ``interval_detection_rate``
    replaced, kept as its reference."""
    by_session: dict = {}
    for d in detections:
        by_session.setdefault((d.participant, d.puzzle), []).append(d)

    sessions = {corpus._key(s): s for s in corpus.sessions}
    session_info = {}
    ftypes = set()
    for key in by_session:
        if key not in sessions:
            raise InvalidParameterError(
                f"detections reference participant {key[0]} puzzle {key[1]}, not in the corpus")
        timeline = sessions[key].timeline
        window_frame = timeline.failure_window()
        if window_frame is None:
            raise InvalidParameterError("detections reference a failure-free session")
        ftypes.add(timeline.failure_type)
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
