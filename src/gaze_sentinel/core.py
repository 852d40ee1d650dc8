"""Core gaze domain: AOI geometry, sample streams, fixation debouncing, and
robot-episode segmentation.

Coordinates are scene millimeters; timestamps are seconds from session start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

from .errors import (
    InvalidParameterError,
    MalformedStreamError,
    MalformedTimelineError,
)

EF_DURATION_S = 15.0
DF_DURATION_S = 16.5
FAILURE_DURATIONS = {"EF": EF_DURATION_S, "DF": DF_DURATION_S}
SEGMENT_LABELS = ("NF", "EF", "DF")

MIN_DWELL_S = 0.1  # a run shorter than this is not a fixation
DEFAULT_SAMPLE_RATE_HZ = 200.0
# A run interrupted by less than this much missing/invalid data stays one run.
INVALID_BRIDGE_S = 0.05


class AoiLabel(IntEnum):
    """The six scene regions a gaze point can be attributed to.

    ``ELSEWHERE`` is the catch-all: any point outside every layout rectangle
    maps to it, so each sample carries exactly one label.
    """

    ROBOT_BODY = 0
    END_EFFECTOR = 1
    ROBOT_PIECES = 2
    PARTICIPANT_PIECES = 3
    PUZZLE_BOARD = 4
    ELSEWHERE = 5

    @property
    def token(self) -> str:
        return self.name.lower()

    @classmethod
    def from_token(cls, token: str) -> "AoiLabel":
        try:
            return cls[token.upper()]
        except KeyError:
            raise InvalidParameterError(f"unknown AOI label {token!r}") from None


N_AOI = len(AoiLabel)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, closed on lower/left edges and open on
    upper/right ones."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise InvalidParameterError(f"degenerate rectangle {self}")


@dataclass(frozen=True)
class AoiLayout:
    """Ordered (label, rectangle) pairs; earlier entries win on overlap.

    ``ELSEWHERE`` never appears in the list — it is the implicit remainder.
    """

    entries: tuple

    def __post_init__(self):
        entries = tuple((AoiLabel(lbl), rect) for lbl, rect in self.entries)
        object.__setattr__(self, "entries", entries)
        seen = set()
        for lbl, rect in entries:
            if lbl is AoiLabel.ELSEWHERE:
                raise InvalidParameterError("ELSEWHERE must not carry a rectangle")
            if lbl in seen:
                raise InvalidParameterError(f"duplicate rectangle for {lbl.token}")
            if not isinstance(rect, Rect):
                raise InvalidParameterError("layout entries must hold Rect values")
            seen.add(lbl)

    def label_points(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised first-wins labelling; returns int codes."""
        codes = np.full(len(x), int(AoiLabel.ELSEWHERE), dtype=np.int64)
        # Assign in reverse order so earlier entries overwrite later ones.
        for lbl, rect in reversed(self.entries):
            inside = (x >= rect.x0) & (x < rect.x1) & (y >= rect.y0) & (y < rect.y1)
            codes[inside] = int(lbl)
        return codes


@dataclass(eq=False)
class GazeStream:
    """Columnar gaze recording with strictly increasing timestamps."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        self.t = np.ascontiguousarray(self.t, dtype=np.float64)
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        self.valid = np.ascontiguousarray(self.valid, dtype=bool)
        n = self.t.shape[0]
        if any(a.ndim != 1 or a.shape[0] != n for a in (self.x, self.y, self.valid)):
            raise MalformedStreamError("stream columns must be 1-D and equal length")
        if n and self.t[0] < 0:
            raise MalformedStreamError("timestamps must be non-negative")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise MalformedStreamError("timestamps must be strictly increasing")
        for a in (self.t, self.x, self.y, self.valid):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self.t.shape[0]

    def sample_period(self) -> float:
        if len(self) < 2:
            return 1.0 / DEFAULT_SAMPLE_RATE_HZ
        # Rounded to 1 ns so prefixes of a stream estimate the same period.
        return round(float(np.median(np.diff(self.t))), 9)


@dataclass(frozen=True)
class FixationEvent:
    """A debounced dwell on one AOI."""

    aoi: AoiLabel
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class Debouncer:
    """Run table and fixation-event table over a labelled stream, for
    slices of the whole recording and causal (prefix-limited) windows.

    Invalid samples are skipped; a run interrupted by less than
    ``INVALID_BRIDGE_S`` of missing data is treated as continuous. Runs
    shorter than ``MIN_DWELL_S`` are dropped and adjacent surviving runs with
    equal labels are merged (duration sums, gap time is not counted).

    The event table is built once, with array operations over the runs. In a
    causal prefix only the last run is provisional (it may still grow), and
    every earlier drop and merge decision is final; so the prefix's events
    are the first few of the table, the last of them as long as it had grown
    by then, plus the provisional run.
    """

    def __init__(self, stream: GazeStream, layout: AoiLayout):
        self._period = stream.sample_period()

        mask = np.asarray(stream.valid, dtype=bool)
        t = stream.t[mask]
        self._t = t
        codes = layout.label_points(stream.x[mask], stream.y[mask])
        gap_break = np.diff(t) >= (INVALID_BRIDGE_S + self._period)
        label_break = codes[1:] != codes[:-1]
        starts = np.flatnonzero(np.concatenate([[t.size > 0], gap_break | label_break]))
        ends = np.append(starts[1:], t.size)[: starts.size]
        self._run_first = starts
        self._run_code = codes[starts]
        self._run_t0 = t[starts]
        self._run_t1 = t[ends - 1]
        self._build_events()

    def _build_events(self) -> None:
        """The final events, and for each run the number of events before it
        and the running duration of the last of them. A kept run opens an
        event unless the kept run before it has its AOI."""
        durations = (self._run_t1 - self._run_t0) + self._period
        is_kept = durations >= MIN_DWELL_S - 1e-12
        kept = np.flatnonzero(is_kept)
        code = self._run_code[kept]
        opens = np.append(True, code[1:] != code[:-1])[: kept.size]
        first = np.flatnonzero(opens)
        # running[j]: kept run j's event's duration once run j joined it, added
        # left to right: the k-th runs of every event at once.
        running = durations[kept]
        rank = np.arange(kept.size) - first[np.cumsum(opens) - 1]
        for k in range(1, rank.max(initial=0) + 1):
            at = np.flatnonzero(rank == k)
            running[at] = running[at - 1] + running[at]
        self._run_events = np.searchsorted(kept[first], np.arange(len(self._run_first)))
        self._run_last_dur = np.append(0.0, running)[np.cumsum(is_kept) - is_kept]
        self._ev_code = code[first]
        self._ev_start = self._run_t0[kept[first]]
        self._ev_dur = running[np.flatnonzero(np.append(opens, True)[1:])]
        # Ends need not increase (an event lasts one period past its last
        # sample), so windows search their running maximum.
        self._ev_reach = np.maximum.accumulate(self._ev_start + self._ev_dur)

    def fixations(self) -> list[FixationEvent]:
        return _events(self._ev_code, self._ev_start, self._ev_dur)

    def fixations_until(self, t_end: float) -> list[FixationEvent]:
        """Debounce using only samples with t <= t_end (causal prefix)."""
        _, code, start, duration = self.window_events([-np.inf], [t_end])
        return _events(code, start, duration)

    def window_events(self, t0, t1):
        """The events of each causal window [t0[i], t1[i]] (samples with
        t <= t1[i] only) that may overlap it, unclipped: (window index, code,
        start, duration), window by window and in time order within one.

        A window's events are the final table events that can reach past
        t0, then the last event it had begun, as long as it had grown by
        then, then the provisional run, truncated at the window's last
        sample, if it is kept and does not merge into that event. Per window
        this costs three binary searches plus the events it returns.
        """
        t0 = np.asarray(t0, dtype=np.float64)
        p = np.searchsorted(self._t, np.asarray(t1, dtype=np.float64), side="right")
        q = np.searchsorted(self._run_first, p, side="left") - 1
        live = np.flatnonzero(q >= 0)
        q = q[live]
        begun = self._run_events[q]
        n_final = np.zeros(len(t0), dtype=np.int64)
        n_final[live] = np.maximum(begun - 1, 0)

        dur = (self._t[p[live] - 1] - self._run_t0[q]) + self._period
        kept = dur >= MIN_DWELL_S - 1e-12
        code = self._run_code[q]
        has_last = begun > 0
        last = begun[has_last] - 1
        merged = np.zeros_like(kept)
        merged[has_last] = kept[has_last] & (self._ev_code[last] == code[has_last])
        last_dur = self._run_last_dur[q[has_last]] + np.where(merged, dur, 0.0)[has_last]
        appended = kept & ~merged

        # Final events lo..n_final-1: the ones before lo end by t0 (their
        # running maximum end does).
        lo = np.minimum(np.searchsorted(self._ev_reach, t0, side="right"), n_final)
        win, idx = _expand_ranges(lo, n_final)
        win = np.concatenate([win, live[has_last], live[appended]])
        order = np.argsort(win, kind="stable")
        return (
            win[order],
            np.concatenate([self._ev_code[idx], self._ev_code[last],
                            code[appended]])[order],
            np.concatenate([self._ev_start[idx], self._ev_start[last],
                            self._run_t0[q[appended]]])[order],
            np.concatenate([self._ev_dur[idx], last_dur, dur[appended]])[order],
        )

    def slice_events(self, t0, t1):
        """The final events that may overlap each slice [t0[i], t1[i]] of the
        whole recording, unclipped: the same (slice index, code, start,
        duration) columns as ``window_events``, slice by slice and in time
        order within one. They are the events that reach past t0 and start
        before t1, two binary searches per slice.
        """
        lo = np.searchsorted(self._ev_reach, np.asarray(t0, dtype=np.float64), side="right")
        hi = np.searchsorted(self._ev_start, np.asarray(t1, dtype=np.float64), side="left")
        win, idx = _expand_ranges(lo, hi)
        return win, self._ev_code[idx], self._ev_start[idx], self._ev_dur[idx]


def _expand_ranges(lo, hi):
    """(slice index, event index) of the event index ranges lo[i]..hi[i]-1,
    slice by slice."""
    counts = hi - lo
    offsets = np.cumsum(counts) - counts
    idx = np.arange(int(counts.sum())) + np.repeat(lo - offsets, counts)
    return np.repeat(np.arange(len(lo)), counts), idx


def _events(code, start, duration) -> list[FixationEvent]:
    return [
        FixationEvent(AoiLabel(c), s, d)
        for c, s, d in zip(code.tolist(), start.tolist(), duration.tolist())
    ]


EVENT_KINDS = ("pickup_start", "placement_done", "failure_start", "failure_end")


@dataclass(frozen=True)
class RobotEvent:
    """One timestamped robot-action event."""

    kind: str
    piece: int
    t: float
    failure_type: Optional[str] = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise MalformedTimelineError(f"unknown event kind {self.kind!r}")
        if not 1 <= self.piece <= 4:
            raise MalformedTimelineError(f"piece index {self.piece} out of range")
        is_failure = self.kind in ("failure_start", "failure_end")
        if is_failure and self.failure_type not in FAILURE_DURATIONS:
            raise MalformedTimelineError("failure events must carry a failure type")
        if not is_failure and self.failure_type is not None:
            raise MalformedTimelineError("non-failure events must not carry a failure type")


@dataclass(frozen=True)
class Timeline:
    """Ordered robot-action events plus the session's declared scenario, at
    finite times."""

    events: tuple
    duration: float
    failure_type: Optional[str] = None
    failure_piece: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        ts = [e.t for e in self.events]
        if not all(map(math.isfinite, (*ts, self.duration))):
            raise MalformedTimelineError("timeline times and duration must be finite")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise MalformedTimelineError("timeline events must be strictly ordered")
        if ts and self.duration < ts[-1]:
            raise MalformedTimelineError("duration precedes the final event")
        if (self.failure_type is None) != (self.failure_piece is None):
            raise MalformedTimelineError("failure type and piece must be declared together")
        if self.failure_type is not None and self.failure_type not in FAILURE_DURATIONS:
            raise MalformedTimelineError(f"unknown failure type {self.failure_type!r}")

    def failure_window(self) -> Optional[tuple[float, float]]:
        start = next((e.t for e in self.events if e.kind == "failure_start"), None)
        end = next((e.t for e in self.events if e.kind == "failure_end"), None)
        if start is None or end is None:
            return None
        return (start, end)


@dataclass(eq=False)
class Session:
    """One participant-puzzle recording: gaze stream, AOI layout, timeline."""

    participant_id: int
    puzzle_id: int
    gaze: GazeStream
    layout: AoiLayout
    timeline: Timeline


@dataclass(frozen=True)
class EpisodeSegment:
    """One robot pick-and-place interval with its ground-truth label."""

    participant_id: int
    puzzle_id: int
    piece_index: int
    label: str
    t_start: float
    t_end: float

    def __post_init__(self):
        if self.label not in SEGMENT_LABELS:
            raise InvalidParameterError(f"unknown segment label {self.label!r}")
        if not self.t_end > self.t_start:
            raise InvalidParameterError("segment must have positive duration")


def segment_session(session: Session) -> list[EpisodeSegment]:
    """Emit one labelled segment per robot piece.

    NF bounds span the pick-and-place action; EF/DF bounds start at the
    failure onset and extend for the canonical failure duration.
    """
    tl = session.timeline
    pickups: dict[int, float] = {}
    placements: dict[int, float] = {}
    fail_start: dict[int, RobotEvent] = {}
    fail_end: dict[int, RobotEvent] = {}
    for e in tl.events:
        bucket = {
            "pickup_start": pickups,
            "placement_done": placements,
            "failure_start": fail_start,
            "failure_end": fail_end,
        }[e.kind]
        if e.piece in bucket:
            raise MalformedTimelineError(f"duplicate {e.kind} for piece {e.piece}")
        bucket[e.piece] = e if e.kind.startswith("failure") else e.t

    for piece in range(1, 5):
        if piece not in pickups or piece not in placements:
            raise MalformedTimelineError(f"piece {piece} lacks pickup/placement events")
        if placements[piece] <= pickups[piece]:
            raise MalformedTimelineError(f"piece {piece} placement precedes pickup")

    if tl.failure_piece is not None and tl.failure_piece not in fail_start:
        raise MalformedTimelineError(
            f"declared failure on piece {tl.failure_piece} has no failure_start event"
        )
    for piece, ev in fail_start.items():
        if tl.failure_piece != piece or tl.failure_type != ev.failure_type:
            raise MalformedTimelineError("failure events disagree with declared scenario")
        if piece not in fail_end:
            raise MalformedTimelineError(f"failure on piece {piece} never ends")
        span = fail_end[piece].t - ev.t
        if abs(span - FAILURE_DURATIONS[ev.failure_type]) > 1e-9:
            raise MalformedTimelineError(
                f"{ev.failure_type} period lasts {span:.6f}s instead of "
                f"{FAILURE_DURATIONS[ev.failure_type]}s"
            )

    segments = []
    for piece in range(1, 5):
        if piece in fail_start:
            ev = fail_start[piece]
            t0 = ev.t
            t1 = t0 + FAILURE_DURATIONS[ev.failure_type]
            label = ev.failure_type
        else:
            t0, t1, label = pickups[piece], placements[piece], "NF"
        segments.append(
            EpisodeSegment(session.participant_id, session.puzzle_id, piece, label, t0, t1)
        )
    return segments
