"""Gaze-metric features over a time slice: shift rates, end-effector dwell,
AOI occupancy shares, and scanpath entropies.

All metrics are computed from a debounced fixation sequence clipped to the
slice. A gaze shift is the boundary between consecutive fixations; an entry
at exactly the slice start counts as a visit, not a shift. Entropies are in
bits and use the empirical visit distribution, which stays well-defined on
short, possibly non-ergodic slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AoiLabel, N_AOI
from .errors import InvalidSliceError

FEATURE_SCHEMA_VERSION = 1
FEATURE_NAMES = (
    "shift_rate_all",
    "shift_rate_robot_body",
    "mean_ee_dwell",
    "p_robot_body",
    "p_end_effector",
    "p_robot_pieces",
    "p_participant_pieces",
    "p_puzzle_board",
    "p_elsewhere",
    "transition_entropy",
    "stationary_entropy",
)
N_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureVector:
    """The 11 gaze metrics for one time slice, in persisted column order."""

    shift_rate_all: float
    shift_rate_robot_body: float
    mean_ee_dwell: float
    p_aoi: tuple  # six occupancy probabilities in AoiLabel order
    transition_entropy: float
    stationary_entropy: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.shift_rate_all,
                self.shift_rate_robot_body,
                self.mean_ee_dwell,
                *self.p_aoi,
                self.transition_entropy,
                self.stationary_entropy,
            ],
            dtype=np.float64,
        )

    @classmethod
    def from_array(cls, values) -> "FeatureVector":
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (N_FEATURES,):
            raise InvalidSliceError(f"expected {N_FEATURES} components, got {v.shape}")
        return cls(
            shift_rate_all=float(v[0]),
            shift_rate_robot_body=float(v[1]),
            mean_ee_dwell=float(v[2]),
            p_aoi=tuple(float(p) for p in v[3:9]),
            transition_entropy=float(v[9]),
            stationary_entropy=float(v[10]),
        )


def _columns(fixations):
    fx = list(fixations)
    return (np.array([int(f.aoi) for f in fx], dtype=np.int64),
            np.array([f.start for f in fx], dtype=np.float64),
            np.array([f.duration for f in fx], dtype=np.float64))


def _clip(win, start, duration, t0, t1):
    """Clip each event to its slice [t0[win], t1[win]]: (kept mask, clipped
    starts and durations of the kept events)."""
    s = np.maximum(start, t0[win])
    d = np.minimum(start + duration, t1[win]) - s
    keep = d > 1e-12
    return keep, s[keep], d[keep]


def _tally(win, code, n_slices: int):
    """Per slice: visit counts (n_slices, 6) and counts of consecutive
    fixation pairs (n_slices, 6, 6)."""
    visits = np.bincount(win * N_AOI + code, minlength=n_slices * N_AOI)
    same = win[1:] == win[:-1]
    pairs = (win[1:] * N_AOI + code[:-1]) * N_AOI + code[1:]
    counts = np.bincount(pairs[same], minlength=n_slices * N_AOI * N_AOI)
    return (visits.reshape(n_slices, N_AOI),
            counts.reshape(n_slices, N_AOI, N_AOI))


def _plogp_sum(p: np.ndarray) -> np.ndarray:
    """Sum over the last axis of p log2 p (0 log 0 := 0), added left to right
    as ``np.sum`` adds a vector this short."""
    terms = p * np.log2(np.where(p > 0, p, 1.0))
    total = terms[..., 0]
    for j in range(1, p.shape[-1]):
        total = total + terms[..., j]
    return total


def _stationary_entropies(visit_dist: np.ndarray) -> np.ndarray:
    return np.where((visit_dist > 0).any(axis=-1), -_plogp_sum(visit_dist), 0.0)


def _transition_entropies(counts: np.ndarray, visit_dist: np.ndarray) -> np.ndarray:
    counts = counts.astype(np.float64)
    row_sums = counts.sum(axis=-1)
    row_entropy = -_plogp_sum(counts / np.maximum(row_sums, 1.0)[..., None])
    total = np.zeros(row_sums.shape[:-1])
    for i in range(N_AOI):
        used = (row_sums[..., i] > 0) & (visit_dist[..., i] > 0)
        total = total + np.where(used, visit_dist[..., i] * row_entropy[..., i], 0.0)
    return total


def feature_matrix(win, code, start, duration, t0, t1) -> np.ndarray:
    """The (slices, 11) feature matrix of the slices [t0[i], t1[i]].

    The events are columns (slice index, AOI code, start, duration), slice
    by slice and in time order within a slice; they are clipped to their
    slice. Every sum adds its terms in event order, as one slice at a time
    would, so a row does not depend on the other slices.
    """
    t0 = np.asarray(t0, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)
    win = np.asarray(win, dtype=np.int64)
    code = np.asarray(code, dtype=np.int64)
    start = np.asarray(start, dtype=np.float64)
    duration = np.asarray(duration, dtype=np.float64)
    keep, start, duration = _clip(win, start, duration, t0, t1)
    win, code = win[keep], code[keep]
    n_slices = len(t0)
    span = t1 - t0
    out = np.empty((n_slices, N_FEATURES))

    n = np.bincount(win, minlength=n_slices)
    out[:, 0] = np.where(n > 1, (n - 1) / span, 0.0)
    entries = (code == int(AoiLabel.ROBOT_BODY)) & (start > t0[win])
    out[:, 1] = np.bincount(win[entries], minlength=n_slices) / span
    ee = code == int(AoiLabel.END_EFFECTOR)
    ee_n = np.bincount(win[ee], minlength=n_slices)
    ee_sum = np.bincount(win[ee], weights=duration[ee], minlength=n_slices)
    out[:, 2] = np.where(ee_n > 0, ee_sum / np.maximum(ee_n, 1), 0.0)

    dwell = np.bincount(win * N_AOI + code, weights=duration, minlength=n_slices * N_AOI)
    p = dwell.reshape(n_slices, N_AOI) / span[:, None]
    elsewhere = int(AoiLabel.ELSEWHERE)
    on_aoi = p[:, 0]
    for j in range(1, elsewhere):
        on_aoi = on_aoi + p[:, j]
    p[:, elsewhere] = np.maximum(0.0, 1.0 - on_aoi)
    out[:, 3:9] = p

    visits, counts = _tally(win, code, n_slices)
    visit_dist = visits / np.maximum(n, 1)[:, None]
    out[:, 9] = _transition_entropies(counts, visit_dist)
    out[:, 10] = _stationary_entropies(visit_dist)
    return out


def extract_features(fixations, t0: float, t1: float) -> FeatureVector:
    """Compute the feature vector for the slice [t0, t1] of a fixation
    sequence, clipping it to the slice. Elsewhere occupancy absorbs off-AOI
    and invalid time so the six probabilities always sum to 1.
    """
    if not t1 > t0:
        raise InvalidSliceError(f"slice [{t0}, {t1}] is empty")
    code, start, duration = _columns(fixations)
    row = feature_matrix(np.zeros(len(code), dtype=np.int64), code, start, duration,
                         [t0], [t1])
    return FeatureVector.from_array(row[0])
