"""The reference featurizer and window rules agree with the program on
simulated sessions; they share no code with it."""

import random

import numpy as np
import pytest

import reference
import speed
from gaze_sentinel.core import Debouncer
from gaze_sentinel.evaluate import sliding_windows
from gaze_sentinel.features import extract_features
from gaze_sentinel.sim import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def sessions():
    return generate_corpus(CorpusSpec(participants=1, master_seed=5))


def _columns(session):
    g = session.gaze
    rects = [(int(label), r.x0, r.y0, r.x1, r.y1) for label, r in session.layout.entries]
    return g.t.tolist(), g.x.tolist(), g.y.tolist(), g.valid.tolist(), rects


def test_reference_does_not_import_the_program():
    with open(reference.__file__, encoding="utf-8") as fh:
        assert "gaze_sentinel" not in fh.read().replace('``gaze_sentinel``', "")


@pytest.mark.parametrize("width", [3.0, 5.0, 10.0])
def test_features_match_program(sessions, width):
    rng = random.Random(int(width))
    for session in sessions:
        t, x, y, valid, rects = _columns(session)
        debouncer = Debouncer(session.gaze, session.layout)
        windows = sliding_windows(session, width)
        for w in rng.sample(windows, 4):
            expected = reference.window_features(
                reference.fixations_until(t, x, y, valid, rects, w.t1), w.t0, w.t1)
            program = extract_features(debouncer.fixations_until(w.t1), w.t0, w.t1)
            np.testing.assert_allclose(program.as_array(), expected, rtol=0, atol=1e-9)


def test_fixations_match_program_on_whole_session(sessions):
    session = sessions[0]
    t, x, y, valid, rects = _columns(session)
    expected = reference.fixations_until(t, x, y, valid, rects, t[-1])
    program = Debouncer(session.gaze, session.layout).fixations()
    assert [(int(f.aoi), f.start) for f in program] == [(c, s) for c, s, _ in expected]
    np.testing.assert_allclose([f.duration for f in program], [d for _, _, d in expected],
                               rtol=0, atol=1e-12)


def test_bridge_and_dwell_rules():
    rects = [(0, 0.0, 0.0, 10.0, 10.0)]
    period = 0.01
    t = [i * period for i in range(50)]
    x = [5.0] * 50
    y = [5.0] * 50
    valid = [True] * 50
    for i in range(10, 14):  # 0.04 s missing: bridged
        valid[i] = False
    for i in range(25, 31):  # 0.06 s missing: breaks the run
        valid[i] = False
    events = reference.fixations_until(t, x, y, valid, rects, t[-1])
    # The runs split at the long gap and merge again as equal neighbours.
    assert len(events) == 1
    assert events[0][2] == pytest.approx((0.24 + period) + (0.49 - 0.31 + period))
    short = reference.fixations_until(t[:5], x[:5], y[:5], valid[:5], rects, 1.0)
    assert short == []  # 0.05 s is under the minimum dwell


def test_window_rules_match_program(sessions):
    for session in sessions:
        for width in (3.0, 5.0, 10.0):
            windows = sliding_windows(session, width)
            bounds = reference.window_bounds(session.timeline.duration, width)
            assert [(w.t0, w.t1) for w in windows] == bounds
            fw = session.timeline.failure_window()
            assert [w.truth for w in windows] == [
                reference.window_truth(a, b, fw) for a, b in bounds]


def test_fold_scores():
    assert reference.fold_scores([1, 1, 0, 0], [1, 0, 0, 1]) == (0.5, 0.5, 0.5)
    assert reference.fold_scores([0, 0], [0, 0]) == (1.0, None, 0.0)
    assert reference.weighted_accuracy([(2, 1.0), (6, 0.5)]) == 0.625


def test_speed_probe_scales_to_its_reference():
    probe = speed.SpeedProbe()
    probe.after(0.0)
    assert probe.kernels == 1
    probe.after(1.0)  # probes for SHARE of a busy second
    assert probe.seconds >= speed.SHARE
    assert probe.scale() == speed.REFERENCE_S * probe.kernels / probe.seconds
