import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaze_sentinel.core import AoiLabel, FixationEvent, N_AOI
from gaze_sentinel.errors import InvalidSliceError
from gaze_sentinel.features import (
    FEATURE_NAMES,
    FeatureVector,
    _tally,
    extract_features,
    feature_matrix,
)

A, B, C = AoiLabel.ROBOT_BODY, AoiLabel.END_EFFECTOR, AoiLabel.ROBOT_PIECES


def seq_to_fixations(labels, dwell=1.0, start=0.0):
    out = []
    t = start
    for lbl in labels:
        out.append(FixationEvent(lbl, t, dwell))
        t += dwell
    return out


def brute_stationary(labels):
    """Independent re-derivation: -sum p log2 p over visit frequencies."""
    if not labels:
        return 0.0
    counts = Counter(labels)
    n = len(labels)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def brute_transition(labels):
    """Independent re-derivation of the visit-weighted row entropy."""
    if not labels:
        return 0.0
    visits = Counter(labels)
    n = len(labels)
    rows = defaultdict(Counter)
    for a, b in zip(labels, labels[1:]):
        rows[a][b] += 1
    total = 0.0
    for state, row in rows.items():
        m = sum(row.values())
        h_row = -sum((c / m) * math.log2(c / m) for c in row.values())
        total += (visits[state] / n) * h_row
    return total


def entropies(seq):
    """(transition, stationary) entropy of a label sequence: columns 9 and 10
    of the feature row of back-to-back 1 s fixations."""
    v = extract_features(seq_to_fixations(seq), 0.0, float(max(len(seq), 1)))
    return v.transition_entropy, v.stationary_entropy


def tally(seq):
    """Visit counts (6,) and consecutive-pair counts (6, 6) of one slice."""
    visits, counts = _tally(np.zeros(len(seq), dtype=np.int64),
                            np.array([int(a) for a in seq], dtype=np.int64), 1)
    return visits[0], counts[0]


class TestTransitionModel:
    def test_empty_sequence(self):
        visits, counts = tally([])
        assert counts.sum() == 0
        assert visits.sum() == 0
        assert entropies([]) == (0.0, 0.0)

    def test_direct_tally(self):
        visits, counts = tally([A, B, C])
        assert counts[int(A), int(B)] == 1
        assert counts[int(B), int(C)] == 1
        assert counts.sum() == 2
        np.testing.assert_array_equal(visits[[int(A), int(B), int(C)]], 1)

    def test_counts_match_pairwise_oracle_on_random_sequences(self):
        rng = np.random.default_rng(0)
        labels6 = list(AoiLabel)
        for _ in range(200):
            seq = [labels6[i] for i in rng.integers(0, 6, size=8)]
            expected = np.zeros((N_AOI, N_AOI), dtype=int)
            for a, b in zip(seq, seq[1:]):
                expected[int(a), int(b)] += 1
            np.testing.assert_array_equal(tally(seq)[1], expected)

    def test_debounced_input_has_zero_diagonal(self):
        _, counts = tally([A, B, A, C, B, C, A])
        assert np.all(np.diag(counts) == 0)

    def test_visit_dist_sums_to_one(self):
        # The occupancy shares of back-to-back fixations are the visit
        # distribution.
        v = extract_features(seq_to_fixations([A, B, A]), 0.0, 3.0)
        assert sum(v.p_aoi) == pytest.approx(1.0, abs=1e-12)
        assert v.p_aoi[int(A)] == pytest.approx(2 / 3, abs=1e-12)


class TestEntropies:
    def test_degenerate_distribution(self):
        assert entropies([A]) == (0.0, 0.0)

    def test_uniform_maximum(self):
        ht, hs = entropies(list(AoiLabel))
        assert hs == pytest.approx(math.log2(6), abs=1e-12)
        assert ht == 0.0

    def test_hand_derived_mixed_sequence(self):
        # [A,B,A,C,A,B]: visits (1/2, 1/3, 1/6); outgoing from A: B twice, C
        # once; rows B and C are deterministic. Evaluating the double sum by
        # hand: H_t = 1/2 * H(2/3, 1/3) = 0.45914791702724..., and
        # H_s = H(1/2, 1/3, 1/6).
        ht, hs = entropies([A, B, A, C, A, B])
        h_a = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
        assert ht == pytest.approx(0.5 * h_a, abs=1e-12)
        assert ht == pytest.approx(0.4591479170272448, abs=1e-12)
        assert hs == pytest.approx(brute_stationary([A, B, A, C, A, B]), abs=1e-12)

    def test_alternating_chain_is_deterministic(self):
        ht, hs = entropies([A, B, A, B])
        assert hs == pytest.approx(1.0, abs=1e-12)
        assert ht == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_on_random_six_label_sequences(self):
        rng = np.random.default_rng(42)
        labels6 = list(AoiLabel)
        for _ in range(300):
            n = int(rng.integers(1, 20))
            seq = [labels6[i] for i in rng.integers(0, 6, size=n)]
            ht, hs = entropies(seq)
            assert ht == pytest.approx(brute_transition(seq), abs=1e-12)
            assert hs == pytest.approx(brute_stationary(seq), abs=1e-12)

    @given(st.lists(st.integers(0, 5), min_size=0, max_size=15))
    def test_bounds(self, codes):
        ht, hs = entropies([AoiLabel(c) for c in codes])
        assert 0.0 <= hs <= math.log2(6) + 1e-12
        assert 0.0 <= ht <= math.log2(6) + 1e-12

    def test_hs_zero_iff_single_aoi(self):
        assert entropies([A, A, A])[1] == 0.0
        assert entropies([A, B, A])[1] > 0.0


class TestClipFixations:
    """The kernel clips each event to its slice before measuring it."""

    def test_truncates_edges(self):
        fx = [FixationEvent(A, 0.0, 4.0), FixationEvent(B, 4.0, 4.0)]
        v = extract_features(fx, 2.0, 6.0)
        # A clipped to [2, 4], B to [4, 6]; A starts at the slice start, so
        # it is a visit, not an entry.
        assert v.p_aoi[int(A)] == 0.5 and v.p_aoi[int(B)] == 0.5
        assert v.mean_ee_dwell == 2.0
        assert v.shift_rate_all == 0.25
        assert v.shift_rate_robot_body == 0.0

    def test_drops_zero_overlap(self):
        fx = [FixationEvent(A, 0.0, 2.0), FixationEvent(B, 2.0, 2.0)]
        v = extract_features(fx, 2.0, 4.0)
        assert v.p_aoi[int(A)] == 0.0 and v.p_aoi[int(B)] == 1.0
        assert v.shift_rate_all == 0.0
        assert (v.transition_entropy, v.stationary_entropy) == (0.0, 0.0)


class TestExtractFeatures:
    def test_single_fixation_covering_slice(self):
        fx = [FixationEvent(AoiLabel.PUZZLE_BOARD, 0.0, 10.0)]
        v = extract_features(fx, 0.0, 10.0)
        assert v.shift_rate_all == 0.0
        assert v.p_aoi[int(AoiLabel.PUZZLE_BOARD)] == pytest.approx(1.0)
        assert v.transition_entropy == 0.0
        assert v.stationary_entropy == 0.0

    def test_shift_rate_direct_count(self):
        fx = seq_to_fixations([A, B, A, B], dwell=2.5)  # 3 boundaries in 10s
        v = extract_features(fx, 0.0, 10.0)
        assert v.shift_rate_all == pytest.approx(0.3)

    def test_two_state_chain_entropies(self):
        fx = seq_to_fixations([A, B, A, B], dwell=2.0)
        v = extract_features(fx, 0.0, 8.0)
        assert v.stationary_entropy == pytest.approx(1.0, abs=1e-12)
        assert v.transition_entropy == pytest.approx(0.0, abs=1e-12)
        assert v.p_aoi[int(A)] == pytest.approx(0.5)
        assert v.p_aoi[int(B)] == pytest.approx(0.5)

    def test_robot_body_entries_exclude_slice_start(self):
        fx = [FixationEvent(A, 0.0, 2.0), FixationEvent(B, 2.0, 2.0),
              FixationEvent(A, 4.0, 2.0)]
        # entry already in progress at t0=1 (clipped start == t0) is a visit,
        # not a shift; the A at 4.0 is the only counted entry
        v = extract_features(fx, 1.0, 6.0)
        assert v.shift_rate_robot_body == pytest.approx(1 / 5)
        # a fixation starting exactly at the slice start is not a shift either
        v2 = extract_features(fx, 0.0, 6.0)
        assert v2.shift_rate_robot_body == pytest.approx(1 / 6)

    def test_mean_ee_dwell_zero_without_visits(self):
        fx = seq_to_fixations([A, C], dwell=1.0)
        assert extract_features(fx, 0.0, 2.0).mean_ee_dwell == 0.0

    def test_mean_ee_dwell_counts_visits(self):
        fx = [FixationEvent(B, 0.0, 2.0), FixationEvent(A, 2.0, 1.0),
              FixationEvent(B, 3.0, 1.0)]
        v = extract_features(fx, 0.0, 4.0)
        assert v.mean_ee_dwell == pytest.approx(1.5)

    def test_elsewhere_absorbs_uncovered_time(self):
        fx = [FixationEvent(A, 0.0, 3.0)]  # 7s of the 10s slice uncovered
        v = extract_features(fx, 0.0, 10.0)
        assert v.p_aoi[int(AoiLabel.ELSEWHERE)] == pytest.approx(0.7)
        assert sum(v.p_aoi) == pytest.approx(1.0, abs=1e-9)

    def test_empty_slice_raises(self):
        with pytest.raises(InvalidSliceError):
            extract_features([], 5.0, 5.0)

    def test_featureless_slice_is_total(self):
        v = extract_features([], 0.0, 5.0)
        assert v.p_aoi[int(AoiLabel.ELSEWHERE)] == 1.0
        assert v.as_array().shape == (len(FEATURE_NAMES),)
        assert np.all(np.isfinite(v.as_array()))

    @given(st.integers(-200, 200), st.integers(2, 8), st.integers(1, 10))
    def test_time_shift_invariance_exact_on_dyadic_grid(self, q_delta, n_fix, seed):
        # Values on a 0.25 grid translate exactly in binary floats, so the
        # shifted vector must be bit-identical.
        rng = np.random.default_rng(seed)
        delta = q_delta * 0.25
        labels = [AoiLabel(int(c)) for c in rng.integers(0, 6, n_fix)]
        durations = rng.integers(1, 9, n_fix) * 0.25
        fx, t = [], 1.0
        for lbl, d in zip(labels, durations):
            fx.append(FixationEvent(lbl, t, float(d)))
            t += float(d)
        t0, t1 = 1.5, t - 0.25
        if not t1 > t0:
            return
        base = extract_features(fx, t0, t1)
        shifted_fx = [FixationEvent(f.aoi, f.start + delta, f.duration) for f in fx]
        shifted = extract_features(shifted_fx, t0 + delta, t1 + delta)
        assert base == shifted

    @given(st.floats(-50, 50), st.integers(2, 8), st.integers(1, 10))
    def test_time_shift_invariance_general(self, delta, n_fix, seed):
        rng = np.random.default_rng(seed)
        labels = [AoiLabel(int(c)) for c in rng.integers(0, 6, n_fix)]
        durations = rng.uniform(0.2, 2.0, n_fix)
        fx, t = [], 1.0
        for lbl, d in zip(labels, durations):
            fx.append(FixationEvent(lbl, t, float(d)))
            t += float(d)
        t0, t1 = 1.5, t - 0.2
        if not t1 > t0:
            return
        base = extract_features(fx, t0, t1).as_array()
        shifted_fx = [FixationEvent(f.aoi, f.start + delta, f.duration) for f in fx]
        shifted = extract_features(shifted_fx, t0 + delta, t1 + delta).as_array()
        np.testing.assert_allclose(shifted, base, rtol=1e-9, atol=1e-9)

    @given(st.integers(1, 12), st.integers(0, 2 ** 31 - 1))
    def test_probabilities_in_unit_interval_and_sum_to_one(self, n_fix, seed):
        rng = np.random.default_rng(seed)
        labels = [AoiLabel(int(c)) for c in rng.integers(0, 6, n_fix)]
        fx, t = [], 0.0
        for lbl in labels:
            d = float(rng.uniform(0.1, 3.0))
            fx.append(FixationEvent(lbl, t, d))
            t += d
        v = extract_features(fx, 0.0, max(t, 0.5))
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in v.p_aoi)
        assert sum(v.p_aoi) == pytest.approx(1.0, abs=1e-9)
        assert np.all(v.as_array() >= 0.0)

    def test_full_fixation_count_identity(self):
        # for slices containing n full fixations: shift_rate * span == n - 1
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            fx, t = [], 0.0
            for i in range(n):
                d = float(rng.uniform(0.3, 1.5))
                fx.append(FixationEvent(AoiLabel(int(rng.integers(0, 6))), t, d))
                t += d
            v = extract_features(fx, 0.0, t)
            assert v.shift_rate_all * t == pytest.approx(n - 1, abs=1e-9)

    def test_vector_roundtrip(self):
        fx = seq_to_fixations([A, B, C], dwell=1.0)
        v = extract_features(fx, 0.0, 3.0)
        assert FeatureVector.from_array(v.as_array()) == v


def loop_features(fixations, t0, t1):
    """The per-slice loop the feature kernel replaced, operation for
    operation: the kernel must reproduce it bit for bit."""
    fx = []
    for f in fixations:
        s, e = max(f.start, t0), min(f.end, t1)
        if e - s > 1e-12:
            fx.append(FixationEvent(f.aoi, s, e - s))
    span = t1 - t0
    n = len(fx)
    shift_rate_all = (n - 1) / span if n > 1 else 0.0
    rb = sum(1 for f in fx if f.aoi is AoiLabel.ROBOT_BODY and f.start > t0) / span
    ee = [f.duration for f in fx if f.aoi is AoiLabel.END_EFFECTOR]
    mean_ee = sum(ee) / len(ee) if ee else 0.0
    dwell = np.zeros(N_AOI)
    for f in fx:
        dwell[int(f.aoi)] += f.duration
    p = dwell / span
    p[5] = max(0.0, 1.0 - float(np.sum(np.delete(p, 5))))
    codes = [int(f.aoi) for f in fx]
    counts = np.zeros((N_AOI, N_AOI))
    for a, b in zip(codes, codes[1:]):
        counts[a, b] += 1
    pi = np.bincount(codes, minlength=N_AOI) / n if n else np.zeros(N_AOI)
    row_sums = counts.sum(axis=1)
    ht = 0.0
    for i in range(N_AOI):
        if row_sums[i] > 0 and pi[i] > 0:
            q = counts[i] / row_sums[i]
            q = q[q > 0]
            ht += pi[i] * float(-(q * np.log2(q)).sum())
    q = pi[pi > 0]
    hs = float(-(q * np.log2(q)).sum()) if q.size else 0.0
    return np.array([shift_rate_all, rb, mean_ee, *p, ht, hs])


class TestFeatureKernel:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(0, 30), st.integers(1, 6))
    def test_rows_match_the_per_slice_loop_bit_for_bit(self, seed, n_events, n_slices):
        rng = np.random.default_rng(seed)
        fx, t = [], 0.5
        for _ in range(n_events):
            d = float(rng.uniform(0.05, 2.0))
            fx.append(FixationEvent(AoiLabel(int(rng.integers(0, 6))), t, d))
            # Ends may pass the next start by less than a sample period.
            t += d + float(rng.uniform(-0.004, 0.05))
        ends = [f.end for f in fx] or [1.0]
        t0 = rng.uniform(-1.0, t, n_slices)
        # Some slices start within 1e-12 of an event's end.
        near = rng.random(n_slices) < 0.3
        t0[near] = rng.choice(ends, near.sum()) - rng.choice([0.0, 5e-13, 2e-12], near.sum())
        t1 = t0 + rng.uniform(1e-3, 10.0, n_slices)
        code = np.array([int(f.aoi) for f in fx], dtype=np.int64)
        start = np.array([f.start for f in fx])
        duration = np.array([f.duration for f in fx])
        # Every slice is given every event: the kernel clips them.
        rows = feature_matrix(np.repeat(np.arange(n_slices), n_events),
                              np.tile(code, n_slices), np.tile(start, n_slices),
                              np.tile(duration, n_slices), t0, t1)
        for row, a, b in zip(rows, t0, t1):
            assert row.tobytes() == loop_features(fx, float(a), float(b)).tobytes()
