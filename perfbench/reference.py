"""Independent re-derivations that the benchmark checks the program against.

Nothing here imports ``gaze_sentinel``: the featurizer is rebuilt from the
documented rules, sample by sample, in plain Python, so that a fault shared
by the program's vectorised paths cannot hide in both.

* AOI rectangles, closed on the lower/left edge and open on the upper/right
  one; the first rectangle that contains a point wins, else ``elsewhere``.
* Invalid samples are skipped; a run stays one run across less than 0.05 s of
  missing data (consecutive valid samples less than 0.05 s + one sample
  period apart). The period is the median sample spacing, rounded to 1 ns.
* A run lasts from its first to its last sample plus one period. Runs shorter
  than 0.1 s are dropped, then equal neighbours are merged (durations add).
* A window [t0, t1] sees only samples with t <= t1, and its fixations are
  clipped to it.
* The 11 metrics, in column order: shift rate (fixations - 1 over the span),
  robot-body entry rate (robot-body fixations starting after t0 over the
  span), mean end-effector dwell, six AOI occupancy shares (elsewhere takes
  the remainder), transition entropy and visit (stationary) entropy in bits.
"""

from __future__ import annotations

import math
import statistics

# AOI codes in the documented order.
ROBOT_BODY, END_EFFECTOR, ROBOT_PIECES, PARTICIPANT_PIECES, PUZZLE_BOARD, ELSEWHERE = range(6)
N_AOI = 6
MIN_DWELL_S = 0.1
BRIDGE_S = 0.05
DEFAULT_PERIOD_S = 1.0 / 200.0
EPS = 1e-12


def aoi_code(x: float, y: float, rects) -> int:
    """``rects``: (code, x0, y0, x1, y1) in layout order."""
    for code, x0, y0, x1, y1 in rects:
        if x0 <= x < x1 and y0 <= y < y1:
            return code
    return ELSEWHERE


def sample_period(t) -> float:
    if len(t) < 2:
        return DEFAULT_PERIOD_S
    return round(statistics.median(b - a for a, b in zip(t, t[1:])), 9)


def fixations_until(t, x, y, valid, rects, t_end: float) -> list:
    """[code, start, duration] fixations from the samples with t <= t_end.

    ``t``, ``x``, ``y`` and ``valid`` are plain sequences of the whole
    recording; only its prefix up to ``t_end`` is read.
    """
    n = 0
    while n < len(t) and t[n] <= t_end:
        n += 1
    period = sample_period(t[:n])
    runs = []  # [code, first t, last t]
    prev_t = None
    for i in range(n):
        if not valid[i]:
            continue
        code = aoi_code(x[i], y[i], rects)
        if runs and runs[-1][0] == code and t[i] - prev_t < BRIDGE_S + period:
            runs[-1][2] = t[i]
        else:
            runs.append([code, t[i], t[i]])
        prev_t = t[i]
    events = []
    for code, first, last in runs:
        duration = last - first + period
        if duration < MIN_DWELL_S - EPS:
            continue
        if events and events[-1][0] == code:
            events[-1][2] += duration
        else:
            events.append([code, first, duration])
    return events


def _entropy(weights) -> float:
    total = sum(weights)
    return -sum((w / total) * math.log2(w / total) for w in weights if w > 0)


def window_features(events, t0: float, t1: float) -> list:
    """The 11 metrics of the window [t0, t1] over unclipped fixations."""
    span = t1 - t0
    fx = []
    for code, start, duration in events:
        s = max(start, t0)
        e = min(start + duration, t1)
        if e - s > EPS:
            fx.append((code, s, e - s))
    n = len(fx)
    shift_rate = (n - 1) / span if n > 1 else 0.0
    robot_entries = sum(1 for code, s, _ in fx if code == ROBOT_BODY and s > t0) / span
    ee = [d for code, _, d in fx if code == END_EFFECTOR]
    mean_ee = sum(ee) / len(ee) if ee else 0.0

    share = [0.0] * N_AOI
    for code, _, d in fx:
        share[code] += d / span
    share[ELSEWHERE] = max(0.0, 1.0 - sum(share[:ELSEWHERE]))

    visits = [0] * N_AOI
    moves = [[0] * N_AOI for _ in range(N_AOI)]
    for code, _, _ in fx:
        visits[code] += 1
    for (a, _, _), (b, _, _) in zip(fx, fx[1:]):
        moves[a][b] += 1
    transition = sum(
        (visits[i] / n) * _entropy(moves[i]) for i in range(N_AOI) if sum(moves[i]) > 0
    )
    stationary = _entropy(visits) if n else 0.0
    return [shift_rate, robot_entries, mean_ee, *share, transition, stationary]


def window_bounds(duration: float, width: float, slide: float = 1.0) -> list:
    """Every [k * slide, k * slide + width] that ends within the recording."""
    out = []
    k = 0
    while k * slide + width <= duration + 1e-9:
        out.append((k * slide, k * slide + width))
        k += 1
    return out


def window_truth(t0: float, t1: float, failure_window) -> int:
    """1 iff at least half the window lies inside the failure period."""
    if failure_window is None:
        return 0
    fs, fe = failure_window
    return int(min(t1, fe) - max(t0, fs) >= (t1 - t0) / 2 - 1e-9)


def fold_scores(truth, predicted) -> tuple:
    """(accuracy, failure recall or None, false-positive rate or None)."""
    pairs = list(zip(truth, predicted))
    accuracy = sum(1 for a, b in pairs if a == b) / len(pairs)
    pos = [b for a, b in pairs if a == 1]
    neg = [b for a, b in pairs if a == 0]
    recall = sum(pos) / len(pos) if pos else None
    fpr = sum(neg) / len(neg) if neg else None
    return accuracy, recall, fpr


def weighted_accuracy(folds) -> float:
    """Pooled accuracy from per-fold (n, accuracy) pairs."""
    return sum(n * acc for n, acc in folds) / sum(n for n, _ in folds)
