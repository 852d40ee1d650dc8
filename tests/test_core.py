import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import scalar_event_table, segment_duration
from gaze_sentinel.core import (
    AoiLabel,
    AoiLayout,
    Debouncer,
    EpisodeSegment,
    GazeStream,
    Rect,
    RobotEvent,
    Session,
    Timeline,
    segment_session,
)
from gaze_sentinel.errors import (
    InvalidParameterError,
    MalformedStreamError,
    MalformedTimelineError,
)
from gaze_sentinel.evaluate import causal_window_matrix
from gaze_sentinel.features import FEATURE_NAMES, extract_features, feature_matrix

RATE = 200.0
PERIOD = 1.0 / RATE

BOARD_ONLY = AoiLayout(entries=((AoiLabel.PUZZLE_BOARD, Rect(0, 0, 100, 100)),))
TWO_ZONES = AoiLayout(
    entries=(
        (AoiLabel.ROBOT_BODY, Rect(0, 0, 10, 10)),
        (AoiLabel.PUZZLE_BOARD, Rect(20, 20, 30, 30)),
    )
)


def debounce(stream, layout):
    """The fixations of the whole recording."""
    return Debouncer(stream, layout).fixations()


def label_of(point, layout):
    """The label ``AoiLayout.label_points`` gives one point."""
    x, y = point
    return AoiLabel(layout.label_points(np.array([float(x)]), np.array([float(y)]))[0])


def constant_stream(n, x, y, rate=RATE, valid=None):
    t = np.arange(n) / rate
    valid = np.ones(n, dtype=bool) if valid is None else np.asarray(valid)
    return GazeStream(t=t, x=np.full(n, float(x)), y=np.full(n, float(y)), valid=valid)


class TestHitTest:
    def test_empty_layout_maps_to_elsewhere(self):
        assert label_of((0, 0), AoiLayout(entries=())) is AoiLabel.ELSEWHERE

    def test_unique_containment(self):
        layout = AoiLayout(entries=((AoiLabel.END_EFFECTOR, Rect(0, 0, 5, 5)),))
        assert label_of((2, 3), layout) is AoiLabel.END_EFFECTOR
        assert label_of((7, 7), layout) is AoiLabel.ELSEWHERE

    def test_edges_closed_low_open_high(self):
        layout = AoiLayout(entries=((AoiLabel.ROBOT_BODY, Rect(0, 0, 10, 10)),))
        assert label_of((0, 0), layout) is AoiLabel.ROBOT_BODY
        assert label_of((10, 5), layout) is AoiLabel.ELSEWHERE
        assert label_of((5, 10), layout) is AoiLabel.ELSEWHERE

    def test_first_wins_exhaustive_grid(self):
        # Three overlapping rectangles; compare against a direct scalar scan
        # over the ordered entry list for every grid point.
        entries = (
            (AoiLabel.ROBOT_BODY, Rect(0, 0, 6, 6)),
            (AoiLabel.END_EFFECTOR, Rect(3, 3, 9, 9)),
            (AoiLabel.ROBOT_PIECES, Rect(5, 0, 12, 12)),
        )
        layout = AoiLayout(entries=entries)

        def oracle(x, y):
            for lbl, rect in entries:
                if rect.x0 <= x < rect.x1 and rect.y0 <= y < rect.y1:
                    return lbl
            return AoiLabel.ELSEWHERE

        xs = np.arange(-1.0, 13.5, 0.5)
        for x in xs:
            for y in xs:
                assert label_of((x, y), layout) is oracle(x, y)

    def test_vectorised_labelling_matches_scalar(self):
        rng = np.random.default_rng(5)
        layout = TWO_ZONES
        x = rng.uniform(-5, 35, 500)
        y = rng.uniform(-5, 35, 500)
        codes = layout.label_points(x, y)
        for xi, yi, c in zip(x, y, codes):
            inside = [lbl for lbl, r in layout.entries
                      if r.x0 <= xi < r.x1 and r.y0 <= yi < r.y1]
            assert (inside or [AoiLabel.ELSEWHERE])[0] is AoiLabel(c)

    def test_non_finite_point_is_elsewhere(self):
        assert label_of((float("nan"), 1.0), BOARD_ONLY) is AoiLabel.ELSEWHERE

    def test_layout_rejects_elsewhere_and_duplicates(self):
        with pytest.raises(InvalidParameterError):
            AoiLayout(entries=((AoiLabel.ELSEWHERE, Rect(0, 0, 1, 1)),))
        with pytest.raises(InvalidParameterError):
            AoiLayout(
                entries=(
                    (AoiLabel.ROBOT_BODY, Rect(0, 0, 1, 1)),
                    (AoiLabel.ROBOT_BODY, Rect(2, 2, 3, 3)),
                )
            )


class TestGazeStream:
    def test_rejects_non_monotone_timestamps(self):
        with pytest.raises(MalformedStreamError):
            GazeStream(
                t=np.array([0.0, 0.2, 0.1]),
                x=np.zeros(3),
                y=np.zeros(3),
                valid=np.ones(3, dtype=bool),
            )

    def test_rejects_negative_start(self):
        with pytest.raises(MalformedStreamError):
            GazeStream(t=np.array([-0.1, 0.0]), x=np.zeros(2), y=np.zeros(2),
                       valid=np.ones(2, dtype=bool))

    def test_sample_roundtrip(self):
        columns = ([0.0, 0.005], [1.0, 3.0], [2.0, 4.0], [True, False])
        stream = GazeStream(*columns)
        assert [c.dtype for c in (stream.t, stream.x, stream.y, stream.valid)] == [
            np.float64, np.float64, np.float64, bool]
        assert tuple(c.tolist() for c in (stream.t, stream.x, stream.y, stream.valid)) == columns

    def test_arrays_are_frozen(self):
        s = constant_stream(10, 1, 1)
        with pytest.raises(ValueError):
            s.t[0] = 5.0


class TestDebounce:
    def test_constant_gaze_single_fixation(self):
        stream = constant_stream(200, 50, 50)
        fx = debounce(stream, BOARD_ONLY)
        assert len(fx) == 1
        assert fx[0].aoi is AoiLabel.PUZZLE_BOARD
        assert fx[0].start == 0.0
        assert fx[0].duration == pytest.approx(1.0, abs=1e-12)

    def test_alternating_every_sample_yields_nothing(self):
        n = 200
        x = np.where(np.arange(n) % 2 == 0, 5.0, 25.0)
        stream = GazeStream(t=np.arange(n) / RATE, x=x, y=x,
                            valid=np.ones(n, dtype=bool))
        assert debounce(stream, TWO_ZONES) == []

    def test_short_middle_run_is_dropped_and_merged(self):
        # A(0.5s) B(0.05s) A(0.5s) -> one merged A fixation of ~1.0s
        xs = np.concatenate([np.full(100, 5.0), np.full(10, 25.0), np.full(100, 5.0)])
        stream = GazeStream(t=np.arange(210) / RATE, x=xs, y=xs,
                            valid=np.ones(210, dtype=bool))
        fx = debounce(stream, TWO_ZONES)
        assert len(fx) == 1
        assert fx[0].aoi is AoiLabel.ROBOT_BODY
        assert fx[0].duration == pytest.approx(1.0, abs=PERIOD)

    def test_invalid_gap_below_bridge_is_continuous(self):
        valid = np.ones(200, dtype=bool)
        valid[100:105] = False  # 25 ms of invalid samples
        stream = constant_stream(200, 50, 50, valid=valid)
        fx = debounce(stream, BOARD_ONLY)
        assert len(fx) == 1
        assert fx[0].duration == pytest.approx(1.0, abs=PERIOD)

    def test_invalid_gap_at_bridge_breaks_run(self):
        valid = np.ones(400, dtype=bool)
        valid[200:220] = False  # 100 ms of invalid samples
        stream = constant_stream(400, 50, 50, valid=valid)
        fx = debounce(stream, BOARD_ONLY)
        # Both fragments survive and merge: the gap is not counted as dwell.
        assert len(fx) == 1
        assert fx[0].duration == pytest.approx(2.0 - 0.1, abs=2 * PERIOD)

    def test_invalid_samples_are_never_labelled(self):
        # Invalid samples inside a foreign AOI must not create fixations.
        xs = np.full(300, 50.0)
        xs[100:140] = 250.0  # outside the board, but all invalid
        valid = np.ones(300, dtype=bool)
        valid[100:140] = False
        stream = GazeStream(t=np.arange(300) / RATE, x=xs, y=xs, valid=valid)
        fx = debounce(stream, BOARD_ONLY)
        assert {f.aoi for f in fx} == {AoiLabel.PUZZLE_BOARD}

    def test_empty_and_all_invalid_streams(self):
        empty = GazeStream(t=np.array([]), x=np.array([]), y=np.array([]),
                           valid=np.array([], dtype=bool))
        assert debounce(empty, BOARD_ONLY) == []
        stream = constant_stream(50, 50, 50, valid=np.zeros(50, dtype=bool))
        assert debounce(stream, BOARD_ONLY) == []

    def test_consecutive_fixations_differ_in_label(self):
        rng = np.random.default_rng(3)
        n = 4000
        x = np.where(rng.random(n) < 0.5, 5.0, 25.0)
        # hold each draw for a random run of samples
        runs = np.maximum(1, rng.poisson(30, n))
        x = np.repeat(x, runs)[:n]
        stream = GazeStream(t=np.arange(n) / RATE, x=x, y=x,
                            valid=rng.random(n) > 0.02)
        fx = debounce(stream, TWO_ZONES)
        for a, b in zip(fx, fx[1:]):
            assert a.aoi is not b.aoi
            assert b.start >= a.start
        for f in fx:
            assert f.duration >= 0.1 - 1e-12

    def test_fixation_durations_bounded_by_span(self):
        rng = np.random.default_rng(9)
        n = 2000
        x = np.repeat(np.where(rng.random(60) < 0.5, 5.0, 25.0), 40)[:n]
        stream = GazeStream(t=np.arange(n) / RATE, x=x, y=x,
                            valid=np.ones(n, dtype=bool))
        fx = debounce(stream, TWO_ZONES)
        total = sum(f.duration for f in fx)
        span = stream.t[-1] - stream.t[0] + PERIOD
        assert total <= span + 1e-9

    @given(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=12).filter(
        lambda seq: any(a != b for a, b in zip(seq, seq[1:]))))
    def test_idempotent_on_resynthesized_output(self, pattern):
        # collapse repeats so consecutive entries differ
        labels = [pattern[0]] + [b for a, b in zip(pattern, pattern[1:]) if a != b]
        rng = np.random.default_rng(sum(labels) + len(labels))
        durations = rng.uniform(0.15, 0.8, len(labels)).round(2)
        positions = {0: (5.0, 5.0), 1: (25.0, 25.0)}
        ts, xs = [], []
        t = 0.0
        for lbl, dur in zip(labels, durations):
            k = int(round(dur * RATE))
            ts.extend(t + np.arange(k) / RATE)
            xs.extend([positions[lbl][0]] * k)
            t += dur
        stream = GazeStream(t=np.array(ts), x=np.array(xs), y=np.array(xs),
                            valid=np.ones(len(ts), dtype=bool))
        first = debounce(stream, TWO_ZONES)
        # re-feed the debounced output as synthetic samples at the same rate
        ts2, xs2 = [], []
        for f in first:
            k = int(round(f.duration * RATE))
            ts2.extend(f.start + np.arange(k) / RATE)
            pos = positions[0 if f.aoi is AoiLabel.ROBOT_BODY else 1]
            xs2.extend([pos[0]] * k)
        stream2 = GazeStream(t=np.array(ts2), x=np.array(xs2), y=np.array(xs2),
                             valid=np.ones(len(ts2), dtype=bool))
        second = debounce(stream2, TWO_ZONES)
        assert [f.aoi for f in first] == [f.aoi for f in second]
        for a, b in zip(first, second):
            assert b.duration == pytest.approx(a.duration, abs=2 * PERIOD)


class TestCausalDebouncer:
    def test_prefix_matches_truncated_stream(self):
        rng = np.random.default_rng(17)
        n = 3000
        x = np.repeat(np.where(rng.random(100) < 0.5, 5.0, 25.0), 30)[:n]
        valid = rng.random(n) > 0.03
        t = np.arange(n) / RATE
        stream = GazeStream(t=t, x=x, y=x, valid=valid)
        deb = Debouncer(stream, TWO_ZONES)
        for cut in (0.4, 3.0, 7.77, 14.999):
            keep = t <= cut
            trimmed = GazeStream(t=t[keep], x=x[keep], y=x[keep], valid=valid[keep])
            expected = debounce(trimmed, TWO_ZONES)
            assert deb.fixations_until(cut) == expected

    def test_full_equals_plain_debounce(self):
        rng = np.random.default_rng(5)
        n = 2000
        x = np.repeat(np.where(rng.random(60) < 0.5, 5.0, 25.0), 40)[:n]
        stream = GazeStream(t=np.arange(n) / RATE, x=x, y=x, valid=rng.random(n) > 0.05)
        deb = Debouncer(stream, TWO_ZONES)
        # The prefix that ends at the last sample is the whole recording.
        assert deb.fixations() == deb.fixations_until(float(stream.t[-1]))
        assert len(deb.fixations()) > 10



# Zone x positions in TWO_ZONES, plus invalid samples (None).
ZONE_X = {"body": 5.0, "board": 25.0, "elsewhere": 50.0, "invalid": None}
# Run lengths in samples on either side of MIN_DWELL_S (0.1 s = 20 samples),
# and invalid stretches whose valid-to-valid gap lies on either side of
# INVALID_BRIDGE_S + period (0.055 s = 11 periods).
RUN_SAMPLES = st.one_of(st.sampled_from([9, 10, 11, 12, 19, 20, 21]), st.integers(1, 60))


def piecewise_stream(pieces):
    """A 200 Hz stream of (zone, samples) pieces on the sample grid."""
    x, valid = [], []
    for zone, k in pieces:
        x.extend([ZONE_X[zone] or 0.0] * k)
        valid.extend([ZONE_X[zone] is not None] * k)
    t = np.arange(len(x)) / RATE
    x = np.array(x)
    return GazeStream(t=t, x=x, y=x, valid=np.array(valid, dtype=bool))


def truncated_features(stream, t0, t1):
    """What a window [t0, t1] would read from a recording that ends at t1."""
    keep = stream.t <= t1
    trimmed = GazeStream(t=stream.t[keep], x=stream.x[keep], y=stream.y[keep],
                         valid=stream.valid[keep])
    return extract_features(debounce(trimmed, TWO_ZONES), t0, t1).as_array()


def assert_windows_match_truncation(stream, bounds):
    deb = Debouncer(stream, TWO_ZONES)
    t0, t1 = np.array(bounds, dtype=np.float64).reshape(-1, 2).T
    rows = causal_window_matrix(deb, t0, t1)
    assert rows.shape == (len(bounds), len(FEATURE_NAMES))
    for (t0, t1), row in zip(bounds, rows):
        expected = truncated_features(stream, t0, t1)
        assert np.array_equal(row, expected), (t0, t1, row, expected)
        assert row.tobytes() == expected.tobytes(), (t0, t1)


class TestCausalWindows:
    """Each window's row equals the features of the recording cut at its end."""

    @given(
        pieces=st.lists(st.tuples(st.sampled_from(sorted(ZONE_X)), RUN_SAMPLES),
                        min_size=1, max_size=25),
        ends=st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(),
                                st.sampled_from([0.004, 0.05, 0.3, 1.0, 3.0])),
                      min_size=1, max_size=12),
    )
    def test_rows_match_truncated_streams(self, pieces, ends):
        stream = piecewise_stream(pieces)
        t = stream.t
        bounds = []
        for k, on_sample, width in ends:
            # Either exactly on a sample timestamp or between two of them.
            t1 = float(t[k % len(t)]) + (0.0 if on_sample else 0.4 * PERIOD)
            bounds.append((t1 - width, t1))
        assert_windows_match_truncation(stream, bounds)

    def test_explicit_window_ends(self):
        pieces = [("invalid", 5), ("body", 40), ("board", 10), ("body", 40),
                  ("board", 15), ("elsewhere", 30)]
        stream = piecewise_stream(pieces)
        t = stream.t
        deb = Debouncer(stream, TWO_ZONES)
        before_first_valid = float(t[2])
        assert deb.fixations_until(before_first_valid) == []
        # 25 samples into the second body run: the board run between is
        # dropped, so the provisional body run merges into the first.
        merging = float(t[5 + 40 + 10 + 24])
        merged = deb.fixations_until(merging)
        assert [f.aoi for f in merged] == [AoiLabel.ROBOT_BODY]
        assert merged[0].duration == pytest.approx(65 * PERIOD)
        # 10 samples into the last board run: too short yet, dropped.
        dropped = float(t[5 + 40 + 10 + 40 + 9])
        assert [f.aoi for f in deb.fixations_until(dropped)] == [AoiLabel.ROBOT_BODY]
        ends = [before_first_valid, float(t[60]), merging, dropped,
                merging + 0.3 * PERIOD, float(t[-1]), float(t[-1]) + 1.0]
        bounds = [(t1 - width, t1) for t1 in ends for width in (0.05, 0.2, 1.0)]
        assert_windows_match_truncation(stream, bounds)

    def test_no_valid_samples(self):
        stream = piecewise_stream([("invalid", 50)])
        assert_windows_match_truncation(stream, [(0.0, 0.1), (-1.0, 0.3)])


def jittered_stream(pieces, period, jitter, seed):
    """``piecewise_stream`` with sample gaps of ``period`` that vary by up to
    ``jitter`` of it."""
    stream = piecewise_stream(pieces)
    gaps = period * (1.0 + jitter * np.random.default_rng(seed).uniform(-1, 1, len(stream)))
    return GazeStream(t=np.cumsum(gaps) - gaps[0], x=stream.x, y=stream.y, valid=stream.valid)


class TestEventTable:
    """The run and event tables, built with array operations, equal the
    per-run loop they replaced bit for bit, on streams whose runs are
    dropped (under 0.1 s) and merged (the same AOI after a dropped run or an
    invalid gap). The simulated corpus never drops or merges a run, so only
    these streams reach that path."""

    @given(
        pieces=st.lists(st.tuples(st.sampled_from(sorted(ZONE_X)),
                                  st.one_of(st.integers(1, 25), st.sampled_from([30, 60]))),
                        min_size=1, max_size=30),
        period=st.sampled_from([0.005, 0.004, 1 / 60]),
        jitter=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(pieces=[("body", 30), ("board", 5), ("body", 30), ("invalid", 15), ("body", 30),
                     ("elsewhere", 40)], period=0.005, jitter=0.0, seed=0)
    def test_tables_match_the_scalar_loop(self, pieces, period, jitter, seed):
        deb = Debouncer(jittered_stream(pieces, period, jitter, seed), TWO_ZONES)
        got = (deb._run_events, deb._run_last_dur, deb._ev_code, deb._ev_start, deb._ev_dur)
        want = scalar_event_table(deb._run_t0, deb._run_t1, deb._run_code, deb._period)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSliceEvents:
    """Each slice's row over the events ``slice_events`` picks equals the
    row over the whole fixation list, which the kernel clips itself."""

    @given(
        pieces=st.lists(st.tuples(st.sampled_from(sorted(ZONE_X)), RUN_SAMPLES),
                        min_size=1, max_size=25),
        slices=st.lists(st.tuples(st.integers(0, 10 ** 6), st.booleans(),
                                  st.sampled_from([0.004, 0.05, 0.3, 1.0, 3.0])),
                        min_size=1, max_size=12),
    )
    def test_rows_match_the_whole_fixation_list(self, pieces, slices):
        stream = piecewise_stream(pieces)
        t = stream.t
        deb = Debouncer(stream, TWO_ZONES)
        fixations = deb.fixations()
        # Slices start on an event's end, on a sample or between two.
        edges = [f.end for f in fixations] + t.tolist()
        t0 = np.array([edges[k % len(edges)] + (0.0 if exact else 0.4 * PERIOD)
                       for k, exact, _ in slices])
        t1 = t0 + np.array([width for *_, width in slices])
        rows = feature_matrix(*deb.slice_events(t0, t1), t0, t1)
        for a, b, row in zip(t0, t1, rows):
            expected = extract_features(fixations, float(a), float(b)).as_array()
            assert row.tobytes() == expected.tobytes(), (a, b)

    def test_events_are_those_that_overlap(self):
        pieces = [("body", 40), ("board", 30), ("elsewhere", 25), ("body", 40)]
        deb = Debouncer(piecewise_stream(pieces), TWO_ZONES)
        fixations = deb.fixations()
        assert [f.aoi for f in fixations] == [AoiLabel.ROBOT_BODY, AoiLabel.PUZZLE_BOARD,
                                              AoiLabel.ELSEWHERE, AoiLabel.ROBOT_BODY]
        # Slice 0 ends where the second event starts; slice 1 spans the end
        # of the first to the start of the last; slice 2 holds the whole
        # recording.
        win, code, start, _ = deb.slice_events(
            [0.0, fixations[0].end, -1.0], [fixations[1].start, fixations[3].start, 10.0])
        assert win.tolist() == [0, 1, 1, 2, 2, 2, 2]
        assert code.tolist() == [0, 4, 5, 0, 4, 5, 0]
        assert start.tolist() == [f.start for f in fixations[:1] + fixations[1:3]
                                  + fixations]


def make_timeline(failure_piece=1, failure_type="EF"):
    events = []
    t = 5.0
    for piece in range(1, 5):
        events.append(RobotEvent("pickup_start", piece, t))
        extra = 0.0
        if piece == failure_piece and failure_type is not None:
            fs = t + 3.0
            dur = 15.0 if failure_type == "EF" else 16.5
            events.append(RobotEvent("failure_start", piece, fs, failure_type=failure_type))
            events.append(RobotEvent("failure_end", piece, fs + dur, failure_type=failure_type))
            extra = dur
        events.append(RobotEvent("placement_done", piece, t + 14.0 + extra))
        t += 14.0 + extra + 30.0
    return Timeline(
        events=tuple(events),
        duration=t,
        failure_type=failure_type,
        failure_piece=failure_piece if failure_type else None,
    )


def session_for(timeline):
    return Session(participant_id=1, puzzle_id=1,
                   gaze=constant_stream(10, 50, 50),
                   layout=BOARD_ONLY, timeline=timeline)


class TestSegmentSession:
    def test_ef_on_piece_one(self):
        segs = segment_session(session_for(make_timeline(1, "EF")))
        assert [s.label for s in segs] == ["EF", "NF", "NF", "NF"]
        assert segment_duration(segs[0]) == pytest.approx(15.0, abs=1e-9)
        assert segs[0].t_start == pytest.approx(8.0)

    def test_df_on_piece_three(self):
        segs = segment_session(session_for(make_timeline(3, "DF")))
        assert [s.label for s in segs] == ["NF", "NF", "DF", "NF"]
        assert segment_duration(segs[2]) == pytest.approx(16.5, abs=1e-9)

    def test_nf_bounds_span_pickup_to_placement(self):
        segs = segment_session(session_for(make_timeline(1, "EF")))
        nf = segs[1]
        assert nf.t_start == pytest.approx(5.0 + 14.0 + 15.0 + 30.0)
        assert nf.t_end - nf.t_start == pytest.approx(14.0)

    def test_no_failure_session_is_all_nf(self):
        segs = segment_session(session_for(make_timeline(None, None)))
        assert [s.label for s in segs] == ["NF"] * 4

    def test_missing_failure_start_raises(self):
        tl = make_timeline(None, None)
        broken = Timeline(events=tl.events, duration=tl.duration,
                          failure_type="EF", failure_piece=2)
        with pytest.raises(MalformedTimelineError):
            segment_session(session_for(broken))

    def test_wrong_failure_duration_raises(self):
        events = list(make_timeline(None, None).events)
        events.insert(1, RobotEvent("failure_start", 1, 8.0, failure_type="EF"))
        events.insert(2, RobotEvent("failure_end", 1, 20.0, failure_type="EF"))
        events.sort(key=lambda e: e.t)
        with pytest.raises(MalformedTimelineError):
            segment_session(session_for(Timeline(
                events=tuple(events), duration=300.0,
                failure_type="EF", failure_piece=1)))

    def test_timeline_rejects_disorder(self):
        with pytest.raises(MalformedTimelineError):
            Timeline(events=(RobotEvent("pickup_start", 1, 5.0),
                             RobotEvent("placement_done", 1, 4.0)),
                     duration=10.0)

    def test_segment_invariants(self):
        with pytest.raises(InvalidParameterError):
            EpisodeSegment(1, 1, 1, "XX", 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            EpisodeSegment(1, 1, 1, "NF", 1.0, 1.0)
