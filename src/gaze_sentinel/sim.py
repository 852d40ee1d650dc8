"""Synthetic experiment corpora: counterbalanced failure schedules, robot
pick-and-place timelines, and semi-Markov AOI gaze streams whose
failure-period behaviour shifts are calibrated against the committed default
profile.

The generator is deterministic: per-session random streams derive purely
from (master seed, participant, puzzle), so corpora are reproducible and
order-independent.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
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
from .errors import InvalidParameterError

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


@dataclass(frozen=True)
class TimingParams:
    """Durations (seconds) shaping the robot/participant turn structure."""

    # Slice length carries no class signal because every row of a task,
    # NF included, is measured over that task's failure duration (15.0 /
    # 16.5 s; ``Corpus.rows_for_task``). Robot actions in a band around those
    # durations would not suffice: count-over-span features such as the
    # shift rates would sit on the lattice k/15 or k/16.5 for failure rows
    # only.
    lead_in: tuple = (4.0, 7.0)
    robot_action_mean: float = 15.7
    robot_action_sd: float = 0.7
    robot_action_range: tuple = (14.5, 17.0)
    grasp_offset_mean: float = 3.5
    grasp_offset_sd: float = 0.6
    grasp_offset_range: tuple = (2.0, 5.0)
    handover_mean: float = 1.6
    handover_sd: float = 0.4
    handover_range: tuple = (0.8, 3.0)
    participant_turn_mean: float = 27.0
    participant_turn_sd: float = 4.0
    participant_turn_range: tuple = (16.0, 38.0)
    lead_out: tuple = (3.0, 6.0)


@dataclass(frozen=True)
class RegimeParams:
    """One behavioural regime: mean AOI dwells plus a transition matrix."""

    dwell_means: tuple  # six values, seconds
    transitions: tuple  # six rows of six probabilities, zero diagonal

    def __post_init__(self):
        dw = tuple(float(v) for v in self.dwell_means)
        if len(dw) != N_AOI or not all(0 < v < math.inf for v in dw):
            raise InvalidParameterError("need six positive, finite dwell means")
        rows = []
        for i, row in enumerate(self.transitions):
            r = np.asarray(row, dtype=np.float64)
            if r.shape != (N_AOI,) or (r < 0).any():
                raise InvalidParameterError("transition rows need six non-negative entries")
            if r[i] != 0:
                raise InvalidParameterError("transition diagonal must be zero")
            total = r.sum()
            if not np.isclose(total, 1.0, atol=1e-3):
                raise InvalidParameterError(f"transition row {i} sums to {total}")
            if abs(total - 1.0) > 1e-12:
                r = r / total
            rows.append(tuple(float(v) for v in r))
        object.__setattr__(self, "dwell_means", dw)
        object.__setattr__(self, "transitions", tuple(rows))

    def matrix(self) -> np.ndarray:
        return np.array(self.transitions, dtype=np.float64)


_RULES = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
          "in [0, 1]": lambda v: 0 <= v <= 1}


def _checked(params, name: str, rule: str, pair: bool = False) -> None:
    """Coerce field ``name`` of frozen ``params`` to a finite float meeting
    ``rule`` (a key of ``_RULES``), or with ``pair`` to an ascending pair of
    them; anything else raises ``InvalidParameterError``."""
    value = getattr(params, name)
    items = list(value) if pair and isinstance(value, (list, tuple)) else [value]
    if (len(items) != (2 if pair else 1)
            or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                       and math.isfinite(v) and _RULES[rule](v) for v in items)
            or items != sorted(items)):
        what = f"an ascending pair of numbers {rule}" if pair else f"a number {rule}"
        raise InvalidParameterError(
            f"{type(params).__name__}.{name} must be {what}, got {value!r}")
    items = tuple(float(v) for v in items)
    object.__setattr__(params, name, items if pair else items[0])


@dataclass(frozen=True)
class ReactionParams:
    """When and how strongly the failure regime applies within the failure
    period. After ``hold`` seconds the effect fades to ``tail_strength`` of
    its per-type strength. ``slow_reactor_prob`` participants add a large
    extra latency before responding, on every failure they see."""

    ef_delay: float = 2.0
    ef_hold: float = 7.0
    ef_strength: float = 1.0
    df_delay: float = 0.4
    df_hold: float = 7.0
    df_strength: float = 0.75
    tail_strength: float = 0.35
    slow_reactor_prob: float = 0.13
    slow_extra_delay: tuple = (2.0, 3.0)
    fast_extra_delay: tuple = (0.0, 0.4)
    # Slow reactors also react weakly: their envelope scales by a draw from
    # this range, giving a coherent subgroup of faint failure responses.
    slow_strength: tuple = (0.25, 0.5)
    # Per failure instance, the whole envelope scales by a uniform draw from
    # this range: some failures barely register with some participants.
    instance_strength: tuple = (0.6, 1.0)
    # Beta(a, a) mixing of the stare/scan archetypes; a < 1 polarises
    # participants toward one style or the other.
    style_beta: float = 0.4

    def __post_init__(self):
        for name in ("ef_delay", "ef_hold", "df_delay", "df_hold"):
            _checked(self, name, ">= 0")
        for name in ("ef_strength", "df_strength", "tail_strength", "slow_reactor_prob"):
            _checked(self, name, "in [0, 1]")
        _checked(self, "style_beta", "> 0")
        for name in ("slow_extra_delay", "fast_extra_delay"):
            _checked(self, name, ">= 0", pair=True)
        for name in ("slow_strength", "instance_strength"):
            _checked(self, name, "in [0, 1]", pair=True)


@dataclass(frozen=True)
class BehaviorParams:
    """Full gaze-behaviour profile for the generator.

    Failure-period behaviour mixes two reaction archetypes per participant:
    ``failure_scan`` (rapid gaze shifting with a robot bias) and
    ``failure_stare`` (long locked dwells on the robot body/end effector).
    """

    baseline: RegimeParams
    failure_scan: RegimeParams
    failure_stare: RegimeParams
    reaction: ReactionParams = ReactionParams()
    sample_rate_hz: float = 200.0
    dwell_floor_s: float = 0.12
    # Dwells are floor + Gamma(shape, mean_excess/shape); shape 1 is the
    # standard truncated-exponential process, larger values suppress dwell
    # variability for near-noise-free probe sessions.
    dwell_shape: float = 1.0
    position_jitter_mm: float = 6.0
    invalid_rate: float = 0.02
    participant_dwell_sigma: float = 0.12
    # One log-normal distortion per participant, applied to BOTH regime
    # matrices, so regime contrasts stay untouched by participant noise.
    participant_transition_sigma: float = 0.3

    def __post_init__(self):
        for name in ("sample_rate_hz", "dwell_shape"):
            _checked(self, name, "> 0")
        for name in ("dwell_floor_s", "position_jitter_mm", "participant_dwell_sigma",
                     "participant_transition_sigma"):
            _checked(self, name, ">= 0")
        _checked(self, "invalid_rate", "in [0, 1]")

    @classmethod
    def default(cls) -> "BehaviorParams":
        global _DEFAULT_CACHE
        if _DEFAULT_CACHE is None:
            text = (
                resources.files("gaze_sentinel") / "profiles" / "default.json"
            ).read_text()
            _DEFAULT_CACHE = cls.from_dict(json.loads(text))
        return _DEFAULT_CACHE

    @classmethod
    def from_file(cls, path) -> "BehaviorParams":
        """The profile in a JSON file. A file that does not parse, is nested
        too deep, is not an object or lacks a key or value a profile needs
        raises ``InvalidParameterError`` naming it; unknown keys are
        ignored."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise TypeError("not a JSON object")
            return cls.from_dict(data)
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
                InvalidParameterError) as exc:  # RecursionError: nested too deep
            raise InvalidParameterError(
                f"bad profile {path} ({type(exc).__name__}: {exc})") from None

    @classmethod
    def from_dict(cls, data: dict) -> "BehaviorParams":
        if data.get("schema") != PROFILE_SCHEMA_VERSION:
            raise InvalidParameterError(
                f"unsupported profile schema {data.get('schema')!r}"
            )

        def regime(block: dict) -> RegimeParams:
            labels = [a.token for a in AoiLabel]
            dwells = tuple(block["dwell_mean_s"][lbl] for lbl in labels)
            rows = []
            for src in labels:
                row = [block["transitions"][src].get(dst, 0.0) for dst in labels]
                rows.append(tuple(row))
            return RegimeParams(dwell_means=dwells, transitions=tuple(rows))

        r = data["reaction"]
        return cls(
            baseline=regime(data["baseline"]),
            failure_scan=regime(data["failure_scan"]),
            failure_stare=regime(data["failure_stare"]),
            reaction=ReactionParams(
                ef_delay=r["ef_delay_s"],
                ef_hold=r["ef_hold_s"],
                ef_strength=r["ef_strength"],
                df_delay=r["df_delay_s"],
                df_hold=r["df_hold_s"],
                df_strength=r["df_strength"],
                tail_strength=r["tail_strength"],
                slow_reactor_prob=r["slow_reactor_prob"],
                slow_extra_delay=tuple(r["slow_extra_delay_s"]),
                fast_extra_delay=tuple(r["fast_extra_delay_s"]),
                slow_strength=tuple(r["slow_strength"]),
                instance_strength=tuple(r["instance_strength"]),
                style_beta=r["style_beta"],
            ),
            sample_rate_hz=data["sample_rate_hz"],
            dwell_floor_s=data["dwell_floor_s"],
            dwell_shape=data.get("dwell_shape", 1.0),
            position_jitter_mm=data["position_jitter_mm"],
            invalid_rate=data["invalid_rate"],
            participant_dwell_sigma=data["participant_dwell_sigma"],
            participant_transition_sigma=data["participant_transition_sigma"],
        )

    def to_dict(self) -> dict:
        labels = [a.token for a in AoiLabel]

        def regime(r: RegimeParams) -> dict:
            return {
                "dwell_mean_s": dict(zip(labels, r.dwell_means)),
                "transitions": {
                    src: {
                        dst: row[j]
                        for j, dst in enumerate(labels)
                        if row[j] > 0
                    }
                    for src, row in zip(labels, r.transitions)
                },
            }

        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "sample_rate_hz": self.sample_rate_hz,
            "dwell_floor_s": self.dwell_floor_s,
            "dwell_shape": self.dwell_shape,
            "position_jitter_mm": self.position_jitter_mm,
            "invalid_rate": self.invalid_rate,
            "participant_dwell_sigma": self.participant_dwell_sigma,
            "participant_transition_sigma": self.participant_transition_sigma,
            "baseline": regime(self.baseline),
            "failure_scan": regime(self.failure_scan),
            "failure_stare": regime(self.failure_stare),
            "reaction": {
                "ef_delay_s": self.reaction.ef_delay,
                "ef_hold_s": self.reaction.ef_hold,
                "ef_strength": self.reaction.ef_strength,
                "df_delay_s": self.reaction.df_delay,
                "df_hold_s": self.reaction.df_hold,
                "df_strength": self.reaction.df_strength,
                "tail_strength": self.reaction.tail_strength,
                "slow_reactor_prob": self.reaction.slow_reactor_prob,
                "slow_extra_delay_s": list(self.reaction.slow_extra_delay),
                "fast_extra_delay_s": list(self.reaction.fast_extra_delay),
                "slow_strength": list(self.reaction.slow_strength),
                "instance_strength": list(self.reaction.instance_strength),
                "style_beta": self.reaction.style_beta,
            },
        }

    def zero_failure_deltas(self) -> "BehaviorParams":
        """Null profile: failure periods behave exactly like baseline."""
        return replace(self, failure_scan=self.baseline, failure_stare=self.baseline)


_DEFAULT_CACHE: Optional[BehaviorParams] = None


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate: participant count, master seed, behaviour/timing."""

    participants: int = DEFAULT_PARTICIPANTS
    master_seed: int = DEFAULT_MASTER_SEED
    behavior: Optional[BehaviorParams] = None
    timing: TimingParams = TimingParams()

    def resolved_behavior(self) -> BehaviorParams:
        return self.behavior if self.behavior is not None else BehaviorParams.default()


# Tabletop geometry (millimetres). Rectangles are disjoint so synthesized
# points always land on their intended AOI; the elsewhere box sits in free
# margin space.
SCENE_W, SCENE_H = 1200.0, 800.0
DEFAULT_LAYOUT = AoiLayout(
    entries=(
        (AoiLabel.ROBOT_BODY, Rect(460.0, 630.0, 760.0, 800.0)),
        (AoiLabel.END_EFFECTOR, Rect(480.0, 575.0, 740.0, 620.0)),
        (AoiLabel.ROBOT_PIECES, Rect(920.0, 500.0, 1100.0, 700.0)),
        (AoiLabel.PARTICIPANT_PIECES, Rect(350.0, 20.0, 750.0, 120.0)),
        (AoiLabel.PUZZLE_BOARD, Rect(300.0, 150.0, 894.0, 570.0)),
    )
)
ELSEWHERE_BOX = Rect(20.0, 640.0, 260.0, 780.0)


def _target_box(label: AoiLabel) -> Rect:
    if label is AoiLabel.ELSEWHERE:
        return ELSEWHERE_BOX
    rect = DEFAULT_LAYOUT.rect_for(label)
    assert rect is not None
    return rect


def _clipped_normal(rng, mean, sd, bounds) -> float:
    return float(np.clip(rng.normal(mean, sd), bounds[0], bounds[1]))


def build_timeline(condition: ScenarioCondition, timing: TimingParams,
                   rng: np.random.Generator) -> Timeline:
    """Four robot pick-and-place episodes interleaved with participant turns;
    the failure is injected at piece 1 (early) or piece 3 (late)."""
    events = []
    t = float(rng.uniform(*timing.lead_in))
    for piece in range(1, 5):
        action = _clipped_normal(rng, timing.robot_action_mean,
                                 timing.robot_action_sd, timing.robot_action_range)
        grasp = _clipped_normal(rng, timing.grasp_offset_mean,
                                timing.grasp_offset_sd, timing.grasp_offset_range)
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
        t = place_t + _clipped_normal(rng, timing.handover_mean, timing.handover_sd,
                                      timing.handover_range)
        if piece < 4:
            t += _clipped_normal(rng, timing.participant_turn_mean,
                                 timing.participant_turn_sd,
                                 timing.participant_turn_range)
    duration = t + float(rng.uniform(*timing.lead_out))
    return Timeline(
        events=tuple(events),
        duration=duration,
        failure_type=condition.failure_type,
        failure_piece=condition.piece,
    )


@dataclass(frozen=True)
class ParticipantTraits:
    """Stable per-participant distortions of the behaviour profile.

    ``reaction_style`` mixes the stare (0) and scan (1) archetypes;
    ``reaction_delay_extra`` adds latency before the reaction starts.
    """

    dwell_scale: tuple  # six multipliers
    baseline_rows: tuple  # jittered transition matrix rows
    failure_dwell: tuple  # style-blended failure dwell means
    failure_rows: tuple
    reaction_style: float
    reaction_delay_extra: float
    reaction_strength_mult: float = 1.0


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
        reaction_style=style,
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
                  delay_extra: float = 0.0) -> list:
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


def synthesize_gaze(timeline: Timeline, behavior: BehaviorParams,
                    traits: ParticipantTraits, rng: np.random.Generator) -> GazeStream:
    """Sample a semi-Markov AOI walk at the configured rate.

    Dwells are floor-shifted exponentials by default (every dwell clears the
    debounce threshold; ``dwell_shape`` > 1 trades the exponential for a
    concentrated gamma). Regime changes truncate the running dwell but keep
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
    regimes = {}
    for _, _, s in spans:
        if s not in regimes:
            regimes[s] = _blend_regime(base_dwell, base_rows, fail_dwell, fail_rows, s)

    duration = timeline.duration
    seg_end, seg_state = [], []
    state = int(rng.integers(0, N_AOI))
    t = 0.0
    span_i = 0
    while t < duration - 1e-9:
        while span_i < len(spans) - 1 and t >= spans[span_i][1] - 1e-12:
            span_i += 1
        span_end = spans[span_i][1]
        dwell_means, rows = regimes[spans[span_i][2]]
        scale = max(dwell_means[state] - floor, 1e-3)
        shape = behavior.dwell_shape
        if shape == 1.0:
            excess = float(rng.exponential(scale))
        else:
            excess = float(rng.gamma(shape, scale / shape))
        end = t + floor + excess
        if end >= span_end - 1e-12 and span_end < duration - 1e-9:
            # Regime boundary: truncate the dwell, keep the state.
            seg_end.append(span_end)
            seg_state.append(state)
            t = span_end
            continue
        end = min(end, duration)
        seg_end.append(end)
        seg_state.append(state)
        t = end
        state = int(rng.choice(N_AOI, p=rows[state]))

    ends = np.array(seg_end)
    states = np.array(seg_state, dtype=np.int64)

    n = int(round(duration * behavior.sample_rate_hz))
    ts = np.arange(n, dtype=np.float64) / behavior.sample_rate_hz
    idx = np.searchsorted(ends, ts, side="right")
    idx = np.minimum(idx, len(states) - 1)
    sample_state = states[idx]

    jitter = rng.normal(0.0, behavior.position_jitter_mm, size=(n, 2))
    xs = np.empty(n)
    ys = np.empty(n)
    inset = 2.0
    for label in AoiLabel:
        mask = sample_state == int(label)
        if not mask.any():
            continue
        box = _target_box(label)
        cx, cy = box.center
        xs[mask] = np.clip(cx + jitter[mask, 0], box.x0 + inset, box.x1 - inset)
        ys[mask] = np.clip(cy + jitter[mask, 1], box.y0 + inset, box.y1 - inset)

    invalid = rng.random(n) < behavior.invalid_rate
    xs[invalid] = 0.0
    ys[invalid] = 0.0
    return GazeStream(t=ts, x=xs, y=ys, valid=~invalid)


def session_seed(master_seed: int, participant_id: int, puzzle_id: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=(participant_id, puzzle_id))


def build_session(participant_id: int, puzzle_id: int, condition: ScenarioCondition,
                  behavior: BehaviorParams, timing: TimingParams,
                  master_seed: int) -> Session:
    traits_rng = np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(participant_id, 0))
    )
    traits = draw_traits(behavior, traits_rng)
    rng = np.random.default_rng(session_seed(master_seed, participant_id, puzzle_id))
    timeline = build_timeline(condition, timing, rng)
    gaze = synthesize_gaze(timeline, behavior, traits, rng)
    return Session(
        participant_id=participant_id,
        puzzle_id=puzzle_id,
        gaze=gaze,
        layout=DEFAULT_LAYOUT,
        timeline=timeline,
    )


def generate_corpus(spec: CorpusSpec) -> list:
    """participants x 4 sessions with Latin-square schedules and derived
    per-session seeds."""
    if spec.participants < 1:
        raise InvalidParameterError("need at least one participant")
    behavior = spec.resolved_behavior()
    sessions = []
    for pid in range(1, spec.participants + 1):
        schedule = latin_square_schedule(pid)
        for puzzle in range(1, 5):
            sessions.append(
                build_session(pid, puzzle, schedule[puzzle - 1], behavior,
                              spec.timing, spec.master_seed)
            )
    return sessions


def nf_probe_session(seed: int = 1, behavior: Optional[BehaviorParams] = None) -> Session:
    """A failure-free, low-noise session for detector smoke checks."""
    behavior = behavior or BehaviorParams.default()
    quiet = replace(
        behavior,
        invalid_rate=0.0,
        participant_dwell_sigma=0.0,
        participant_transition_sigma=0.0,
        dwell_shape=60.0,
    )
    timing = TimingParams()
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(99, 1)))
    events = []
    t = 5.0
    for piece in range(1, 5):
        events.append(RobotEvent("pickup_start", piece, t))
        events.append(RobotEvent("placement_done", piece, t + 14.0))
        t += 14.0 + 2.0
        if piece < 4:
            t += 27.0
    timeline = Timeline(events=tuple(events), duration=t + 4.0)
    traits = draw_traits(quiet, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(99, 0))))
    gaze = synthesize_gaze(timeline, quiet, traits, rng)
    return Session(participant_id=99, puzzle_id=1, gaze=gaze,
                   layout=DEFAULT_LAYOUT, timeline=timeline)
