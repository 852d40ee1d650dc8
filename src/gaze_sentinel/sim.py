"""Synthetic experiment corpora: counterbalanced failure schedules, robot
pick-and-place timelines, and semi-Markov AOI gaze streams whose
failure-period behaviour shifts are calibrated against the committed default
profile.

The generator is deterministic: per-session random streams derive purely
from (master seed, participant, puzzle), so corpora are reproducible and
order-independent.
"""

from __future__ import annotations

import bisect
import functools
import json
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from typing import Optional

import numpy as np

from .core import (
    AoiLabel,
    AoiLayout,
    FAILURE_DURATIONS,
    GazeStream,
    N_AOI,
    Rect,
    RobotEvent,
    Session,
    Timeline,
)
from . import storage
from .errors import InvalidParameterError
from .fields import holds

PROFILE_SCHEMA_VERSION = 1
DEFAULT_MASTER_SEED = 7
DEFAULT_PARTICIPANTS = 26


@dataclass(frozen=True)
class ScenarioCondition:
    """One puzzle's failure assignment: type (EF/DF) and timing (early/late)."""

    failure_type: str
    timing: str

    def __post_init__(self):
        if self.failure_type not in ("EF", "DF"):
            raise InvalidParameterError(f"unknown failure type {self.failure_type!r}")
        if self.timing not in ("early", "late"):
            raise InvalidParameterError(f"unknown timing {self.timing!r}")

    @property
    def piece(self) -> int:
        return 1 if self.timing == "early" else 3


def _cond(ft: str, timing: str) -> ScenarioCondition:
    return ScenarioCondition(ft, timing)


# Four-condition counterbalancing rows; participants cycle through them.
LATIN_SQUARE = (
    (_cond("EF", "early"), _cond("EF", "late"), _cond("DF", "late"), _cond("DF", "early")),
    (_cond("EF", "late"), _cond("DF", "early"), _cond("EF", "early"), _cond("DF", "late")),
    (_cond("DF", "early"), _cond("DF", "late"), _cond("EF", "late"), _cond("EF", "early")),
    (_cond("DF", "late"), _cond("EF", "early"), _cond("DF", "early"), _cond("EF", "late")),
)


def latin_square_schedule(participant_id: int) -> tuple:
    """The participant's four puzzle conditions, cycling the square rows."""
    if participant_id < 1:
        raise InvalidParameterError("participant ids start at 1")
    return LATIN_SQUARE[(participant_id - 1) % 4]


# The robot/participant turn structure (seconds): a uniform draw from
# (low, high), or a normal (mean, sd) clipped to (low, high).
# Slice length carries no class signal because every row of a task, NF
# included, is measured over that task's failure duration (15.0 / 16.5 s;
# ``evaluate.Corpus.rows_for_task``). Robot actions in a band around those
# durations would not suffice: count-over-span features such as the shift
# rates would sit on the lattice k/15 or k/16.5 for failure rows only.
LEAD_IN_S = (4.0, 7.0)
ROBOT_ACTION_S = (15.7, 0.7, (14.5, 17.0))
GRASP_OFFSET_S = (3.5, 0.6, (2.0, 5.0))
HANDOVER_S = (1.6, 0.4, (0.8, 3.0))
PARTICIPANT_TURN_S = (27.0, 4.0, (16.0, 38.0))
LEAD_OUT_S = (3.0, 6.0)


@dataclass(frozen=True)
class RegimeParams:
    """One behavioural regime: mean AOI dwells plus a transition matrix."""

    dwell_means: tuple  # six values, seconds
    transitions: tuple  # six rows of six probabilities, zero diagonal

    def __post_init__(self):
        dw = tuple(self.dwell_means)
        if len(dw) != N_AOI or not all(holds(v, "a number > 0") for v in dw):
            raise InvalidParameterError("need six positive, finite dwell means")
        rows = []
        for i, row in enumerate(self.transitions):
            if len(row) != N_AOI or not all(holds(v, "a number >= 0") for v in row):
                raise InvalidParameterError("transition rows need six non-negative entries")
            r = np.asarray(row, dtype=np.float64)
            if r[i] != 0:
                raise InvalidParameterError("transition diagonal must be zero")
            total = r.sum()
            if not np.isclose(total, 1.0, atol=1e-3):
                raise InvalidParameterError(f"transition row {i} sums to {total}")
            if abs(total - 1.0) > 1e-12:
                r = r / total
            rows.append(tuple(float(v) for v in r))
        object.__setattr__(self, "dwell_means", tuple(float(v) for v in dw))
        object.__setattr__(self, "transitions", tuple(rows))

    def matrix(self) -> np.ndarray:
        return np.array(self.transitions, dtype=np.float64)

    @classmethod
    def _read(cls, block: dict) -> "RegimeParams":
        labels = [a.token for a in AoiLabel]
        return cls(dwell_means=tuple(block["dwell_mean_s"][lbl] for lbl in labels),
                   transitions=tuple(tuple(block["transitions"][src].get(dst, 0.0)
                                           for dst in labels) for src in labels))


def _key(key: str, rule, pair: bool = False):
    """A required profile field: its key in the profile JSON, and either the
    block class that reads its value or the rule (a key of ``fields.RULES``)
    that its number, or with ``pair`` each number of its ascending pair,
    must meet."""
    return field(metadata={"key": key, "rule": rule, "pair": pair})


class _ProfileBlock:
    """A profile block whose dataclass fields are all declared with ``_key``:
    one reader and one checker serve every field. A field with a rule is
    coerced to a float of it, or with ``pair`` to an ascending pair of them;
    anything else raises ``InvalidParameterError``."""

    def __post_init__(self):
        for f in fields(self):
            rule, pair, value = f.metadata["rule"], f.metadata["pair"], getattr(self, f.name)
            if not isinstance(rule, str):
                continue
            items = list(value) if pair and isinstance(value, (list, tuple)) else [value]
            if (len(items) != (2 if pair else 1) or not all(holds(v, rule) for v in items)
                    or items != sorted(items)):
                what = f"an ascending pair, each {rule}" if pair else rule
                raise InvalidParameterError(
                    f"{type(self).__name__}.{f.name} must be {what}, got {value!r}")
            items = tuple(float(v) for v in items)
            object.__setattr__(self, f.name, items if pair else items[0])

    @classmethod
    def _read(cls, block: dict):
        values = {}
        for f in fields(cls):
            value, rule = block[f.metadata["key"]], f.metadata["rule"]
            if not isinstance(rule, str):
                value = rule._read(value)
            values[f.name] = value
        return cls(**values)


@dataclass(frozen=True)
class ReactionParams(_ProfileBlock):
    """When and how strongly the failure regime applies within the failure
    period. After ``hold`` seconds the effect fades to ``tail_strength`` of
    its per-type strength. ``slow_reactor_prob`` participants add a large
    extra latency before responding, on every failure they see."""

    ef_delay: float = _key("ef_delay_s", "a number >= 0")
    ef_hold: float = _key("ef_hold_s", "a number >= 0")
    ef_strength: float = _key("ef_strength", "a number in [0, 1]")
    df_delay: float = _key("df_delay_s", "a number >= 0")
    df_hold: float = _key("df_hold_s", "a number >= 0")
    df_strength: float = _key("df_strength", "a number in [0, 1]")
    tail_strength: float = _key("tail_strength", "a number in [0, 1]")
    slow_reactor_prob: float = _key("slow_reactor_prob", "a number in [0, 1]")
    slow_extra_delay: tuple = _key("slow_extra_delay_s", "a number >= 0", pair=True)
    fast_extra_delay: tuple = _key("fast_extra_delay_s", "a number >= 0", pair=True)
    # Slow reactors also react weakly: their envelope scales by a draw from
    # this range, giving a coherent subgroup of faint failure responses.
    slow_strength: tuple = _key("slow_strength", "a number in [0, 1]", pair=True)
    # Per failure instance, the whole envelope scales by a uniform draw from
    # this range: some failures barely register with some participants.
    instance_strength: tuple = _key("instance_strength", "a number in [0, 1]", pair=True)
    # Beta(a, a) mixing of the stare/scan archetypes; a < 1 polarises
    # participants toward one style or the other.
    style_beta: float = _key("style_beta", "a number > 0")


@dataclass(frozen=True)
class BehaviorParams(_ProfileBlock):
    """Full gaze-behaviour profile for the generator. Its values come from a
    profile JSON only; the committed one is ``profiles/default.json``.

    Failure-period behaviour mixes two reaction archetypes per participant:
    ``failure_scan`` (rapid gaze shifting with a robot bias) and
    ``failure_stare`` (long locked dwells on the robot body/end effector).
    """

    baseline: RegimeParams = _key("baseline", RegimeParams)
    failure_scan: RegimeParams = _key("failure_scan", RegimeParams)
    failure_stare: RegimeParams = _key("failure_stare", RegimeParams)
    reaction: ReactionParams = _key("reaction", ReactionParams)
    sample_rate_hz: float = _key("sample_rate_hz", "a number > 0")
    dwell_floor_s: float = _key("dwell_floor_s", "a number >= 0")
    position_jitter_mm: float = _key("position_jitter_mm", "a number >= 0")
    invalid_rate: float = _key("invalid_rate", "a number in [0, 1]")
    participant_dwell_sigma: float = _key("participant_dwell_sigma", "a number >= 0")
    # One log-normal distortion per participant, applied to BOTH regime
    # matrices, so regime contrasts stay untouched by participant noise.
    participant_transition_sigma: float = _key("participant_transition_sigma", "a number >= 0")

    @classmethod
    @functools.cache
    def default(cls) -> "BehaviorParams":
        text = (resources.files("gaze_sentinel") / "profiles" / "default.json").read_text()
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "BehaviorParams":
        """The profile in a JSON file. A file that does not parse, is nested
        too deep, is not an object or lacks a key or value a profile needs
        raises ``InvalidParameterError`` naming it; unknown keys are
        ignored."""
        data = storage.read_json(path, InvalidParameterError, "profile")
        with storage.decoding(InvalidParameterError, f"profile {path}"):
            return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "BehaviorParams":
        schema = data.get("schema")
        if not holds(schema, "an integer") or schema != PROFILE_SCHEMA_VERSION:
            raise InvalidParameterError(f"unsupported profile schema {schema!r}")
        return cls._read(data)

    def zero_failure_deltas(self) -> "BehaviorParams":
        """Null profile: failure periods behave exactly like baseline."""
        return replace(self, failure_scan=self.baseline, failure_stare=self.baseline)


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate: participant count, master seed, behaviour."""

    participants: int = DEFAULT_PARTICIPANTS
    master_seed: int = DEFAULT_MASTER_SEED
    behavior: Optional[BehaviorParams] = None

    def resolved_behavior(self) -> BehaviorParams:
        return self.behavior if self.behavior is not None else BehaviorParams.default()


# Tabletop geometry (millimetres): the box each AOI's synthesized points aim
# at, indexed by AOI code. The first five are the layout's rectangles,
# disjoint so synthesized points always land on their intended AOI; the
# ELSEWHERE box sits in free margin space.
TARGET_BOXES = (
    Rect(460.0, 630.0, 760.0, 800.0),  # robot body
    Rect(480.0, 575.0, 740.0, 620.0),  # end effector
    Rect(920.0, 500.0, 1100.0, 700.0),  # robot pieces
    Rect(350.0, 20.0, 750.0, 120.0),  # participant pieces
    Rect(300.0, 150.0, 894.0, 570.0),  # puzzle board
    Rect(20.0, 640.0, 260.0, 780.0),  # elsewhere
)
DEFAULT_LAYOUT = AoiLayout(entries=tuple(zip(AoiLabel, TARGET_BOXES[:-1])))
# Per axis (x, y): each AOI code's box centre, and the bounds that keep a
# synthesized point 2 mm inside its box.
_BOX_TARGETS = np.array([[(0.5 * (b.x0 + b.x1), b.x0 + 2.0, b.x1 - 2.0) for b in TARGET_BOXES],
                         [(0.5 * (b.y0 + b.y1), b.y0 + 2.0, b.y1 - 2.0) for b in TARGET_BOXES]]
                        ).transpose(0, 2, 1)


def _clipped_normal(rng, mean, sd, bounds) -> float:
    return float(np.clip(rng.normal(mean, sd), bounds[0], bounds[1]))


def build_timeline(condition: ScenarioCondition, rng: np.random.Generator) -> Timeline:
    """Four robot pick-and-place episodes interleaved with participant turns;
    the failure is injected at piece 1 (early) or piece 3 (late)."""
    events = []
    t = float(rng.uniform(*LEAD_IN_S))
    for piece in range(1, 5):
        action = _clipped_normal(rng, *ROBOT_ACTION_S)
        grasp = _clipped_normal(rng, *GRASP_OFFSET_S)
        events.append(RobotEvent("pickup_start", piece, t))
        place_t = t + action
        if piece == condition.piece:
            fail_t = t + grasp
            extra = FAILURE_DURATIONS[condition.failure_type]
            events.append(RobotEvent("failure_start", piece, fail_t,
                                     failure_type=condition.failure_type))
            events.append(RobotEvent("failure_end", piece, fail_t + extra,
                                     failure_type=condition.failure_type))
            place_t += extra
        events.append(RobotEvent("placement_done", piece, place_t))
        t = place_t + _clipped_normal(rng, *HANDOVER_S)
        if piece < 4:
            t += _clipped_normal(rng, *PARTICIPANT_TURN_S)
    duration = t + float(rng.uniform(*LEAD_OUT_S))
    return Timeline(
        events=tuple(events),
        duration=duration,
        failure_type=condition.failure_type,
        failure_piece=condition.piece,
    )


@dataclass(frozen=True)
class ParticipantTraits:
    """Stable per-participant distortions of the behaviour profile.

    The failure regime blends the stare and scan archetypes by a drawn
    style; ``reaction_delay_extra`` adds latency before the reaction starts
    and ``reaction_strength_mult`` scales its strength.
    """

    dwell_scale: tuple  # six multipliers
    baseline_rows: tuple  # jittered transition matrix rows
    failure_dwell: tuple  # style-blended failure dwell means
    failure_rows: tuple
    reaction_delay_extra: float
    reaction_strength_mult: float


def draw_traits(behavior: BehaviorParams, rng: np.random.Generator) -> ParticipantTraits:
    scale = np.exp(rng.normal(0.0, behavior.participant_dwell_sigma, size=N_AOI))
    # A single multiplicative distortion shared by both regimes: identical
    # regime matrices stay identical after participant noise, so a zeroed
    # failure delta cannot leak through trait structure.
    eps = np.exp(rng.normal(0.0, behavior.participant_transition_sigma,
                            size=(N_AOI, N_AOI)))

    def distort(matrix: np.ndarray) -> tuple:
        out = matrix * eps
        np.fill_diagonal(out, 0.0)
        out /= out.sum(axis=1, keepdims=True)
        return tuple(map(tuple, out))

    sb = behavior.reaction.style_beta
    style = float(rng.beta(sb, sb))
    slow = rng.random() < behavior.reaction.slow_reactor_prob
    if slow:
        # Disengaged participants respond late, weakly, and by staring.
        style *= 0.15
    stare_d = np.array(behavior.failure_stare.dwell_means)
    scan_d = np.array(behavior.failure_scan.dwell_means)
    fail_dwell = (1 - style) * stare_d + style * scan_d
    fail_rows = ((1 - style) * behavior.failure_stare.matrix()
                 + style * behavior.failure_scan.matrix())
    fail_rows /= fail_rows.sum(axis=1, keepdims=True)

    reaction = behavior.reaction
    if slow:
        extra = float(rng.uniform(*reaction.slow_extra_delay))
        strength_mult = float(rng.uniform(*reaction.slow_strength))
    else:
        extra = float(rng.uniform(*reaction.fast_extra_delay))
        strength_mult = 1.0

    return ParticipantTraits(
        dwell_scale=tuple(float(v) for v in scale),
        baseline_rows=distort(behavior.baseline.matrix()),
        failure_dwell=tuple(float(v) for v in fail_dwell),
        failure_rows=distort(fail_rows),
        reaction_delay_extra=extra,
        reaction_strength_mult=strength_mult,
    )


def _blend_regime(base_dwell, base_rows, fail_dwell, fail_rows, s: float):
    """Linear blend of dwell means and transition rows at strength s."""
    if s <= 0:
        return base_dwell, base_rows
    if s >= 1:
        return fail_dwell, fail_rows
    dwell = (1 - s) * base_dwell + s * fail_dwell
    rows = (1 - s) * base_rows + s * fail_rows
    sums = rows.sum(axis=1, keepdims=True)
    rows = np.where(sums > 0, rows / sums, rows)
    return dwell, rows


def _regime_spans(timeline: Timeline, reaction: ReactionParams,
                  delay_extra: float) -> list:
    """(start, end, strength) spans covering [0, duration]."""
    window = timeline.failure_window()
    if window is None:
        return [(0.0, timeline.duration, 0.0)]
    fs, fe = window
    if timeline.failure_type == "EF":
        delay, hold, strength = reaction.ef_delay, reaction.ef_hold, reaction.ef_strength
    else:
        delay, hold, strength = reaction.df_delay, reaction.df_hold, reaction.df_strength
    r0 = min(fs + delay + delay_extra, fe)
    r1 = min(r0 + hold, fe)
    spans = [
        (0.0, r0, 0.0),
        (r0, r1, strength),
        (r1, fe, strength * reaction.tail_strength),
        (fe, timeline.duration, 0.0),
    ]
    return [(a, b, s) for a, b, s in spans if b - a > 1e-9]


def _row_cdfs(rows: np.ndarray) -> list:
    """Each row's CDF as ``Generator.choice(N_AOI, p=row)`` builds it, so
    ``bisect_right(cdf, rng.random())`` is that call's draw, bit for bit
    and with the same use of the generator."""
    cdfs = np.cumsum(rows, axis=1)
    cdfs /= cdfs[:, -1:]
    return cdfs.tolist()


def synthesize_gaze(timeline: Timeline, behavior: BehaviorParams,
                    traits: ParticipantTraits, rng: np.random.Generator) -> GazeStream:
    """Sample a semi-Markov AOI walk at the configured rate.

    Dwells are floor-shifted exponentials, so every dwell clears the
    debounce threshold. Regime changes truncate the running dwell but keep
    the state, so behaviour shifts take effect from the next draw onward.
    """
    floor = behavior.dwell_floor_s
    base_dwell = np.array(behavior.baseline.dwell_means) * np.array(traits.dwell_scale)
    fail_dwell = np.array(traits.failure_dwell) * np.array(traits.dwell_scale)
    base_rows = np.array(traits.baseline_rows)
    fail_rows = np.array(traits.failure_rows)

    spans = _regime_spans(timeline, behavior.reaction, traits.reaction_delay_extra)
    if timeline.failure_window() is not None:
        lo, hi = behavior.reaction.instance_strength
        mult = float(rng.uniform(lo, hi)) * traits.reaction_strength_mult
        spans = [(a, b, s * mult) for a, b, s in spans]
    regimes = []  # per span: each state's dwell scale and transition CDF
    for _, _, s in spans:
        dwell_means, rows = _blend_regime(base_dwell, base_rows, fail_dwell, fail_rows, s)
        regimes.append((np.maximum(dwell_means - floor, 1e-3).tolist(), _row_cdfs(rows)))

    duration = timeline.duration
    seg_end, seg_state = [], []
    state = int(rng.integers(0, N_AOI))
    t = 0.0
    span_i = 0
    while t < duration - 1e-9:
        while span_i < len(spans) - 1 and t >= spans[span_i][1] - 1e-12:
            span_i += 1
        span_end = spans[span_i][1]
        scales, cdfs = regimes[span_i]
        end = t + floor + rng.exponential(scales[state])
        # A regime boundary truncates the dwell and keeps the state.
        boundary = end >= span_end - 1e-12 and span_end < duration - 1e-9
        t = span_end if boundary else min(end, duration)
        seg_end.append(t)
        seg_state.append(state)
        if not boundary:
            state = bisect.bisect_right(cdfs[state], rng.random())

    n = int(round(duration * behavior.sample_rate_hz))
    ts = np.arange(n, dtype=np.float64) / behavior.sample_rate_hz
    # A sample lies in the first dwell ending after it, or else in the last.
    firsts = np.searchsorted(ts, seg_end[:-1])
    sample_state = np.repeat(seg_state, np.diff(firsts, prepend=0, append=n))

    jitter = rng.normal(0.0, behavior.position_jitter_mm, size=(n, 2))
    xs, ys = (np.clip(centre[sample_state] + jitter[:, axis], low[sample_state],
                      high[sample_state]) for axis, (centre, low, high) in enumerate(_BOX_TARGETS))

    invalid = rng.random(n) < behavior.invalid_rate
    xs[invalid] = 0.0
    ys[invalid] = 0.0
    return GazeStream(t=ts, x=xs, y=ys, valid=~invalid)


def build_session(participant_id: int, puzzle_id: int, condition: ScenarioCondition,
                  behavior: BehaviorParams, master_seed: int) -> Session:
    traits_rng = np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(participant_id, 0))
    )
    traits = draw_traits(behavior, traits_rng)
    rng = np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(participant_id, puzzle_id))
    )
    timeline = build_timeline(condition, rng)
    gaze = synthesize_gaze(timeline, behavior, traits, rng)
    return Session(
        participant_id=participant_id,
        puzzle_id=puzzle_id,
        gaze=gaze,
        layout=DEFAULT_LAYOUT,
        timeline=timeline,
    )


def session_calls(spec: CorpusSpec) -> list:
    """The ``build_session`` arguments of each of the corpus's sessions:
    participants x 4, with Latin-square schedules and derived per-session
    seeds."""
    if spec.participants < 1:
        raise InvalidParameterError("need at least one participant")
    behavior = spec.resolved_behavior()
    return [(pid, puzzle, latin_square_schedule(pid)[puzzle - 1], behavior, spec.master_seed)
            for pid in range(1, spec.participants + 1) for puzzle in range(1, 5)]


def generate_corpus(spec: CorpusSpec) -> list:
    """The corpus's sessions (see ``session_calls``)."""
    return [build_session(*call) for call in session_calls(spec)]
