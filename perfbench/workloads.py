"""The three workloads. Each builds its inputs from the seed (set-up), runs
whole rounds of the same operations, and checks every round's outputs.

An operation is one fold evaluation (paper-eval), one ``stream_detect`` call
(live-detect) or one ``cli.main`` command (cli-files).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import random
import shutil
import sys
import time
import traceback

import numpy as np

from gaze_sentinel import cli, core, evaluate, features, learners, model_io, sim

import checks
import reference
import speed

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
MODEL_SEED = 7  # the seed CLI train and the published configs default to
TASK_OF = {"EF": "nf-ef", "DF": "nf-df"}
FAILURE_DURATIONS = {"nf-ef": 15.0, "nf-df": 16.5}


@dataclasses.dataclass
class Round:
    seconds: float
    ops: int
    failed: int
    op_seconds: list  # latency of each timed operation
    windows: int  # windows classified
    window_seconds: float  # the time they are counted over
    outputs: object  # what the checks read


def _corpus(participants: int, seed: int) -> list:
    return sim.generate_corpus(sim.CorpusSpec(participants=participants, master_seed=seed))


class Workload:
    def __init__(self, seed: int, probe):
        self.seed = seed
        self.probe = probe

    def attempt(self, fn, *args, **kwargs):
        """(result or None, seconds), then a speed probe; a raising call is
        reported on stderr."""
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = None
        seconds = time.perf_counter() - start
        self.probe.after(seconds)
        return result, seconds

    def elapsed(self, start: float, probed: float) -> float:
        """Seconds since ``start`` less the probing since ``probed``."""
        return time.perf_counter() - start - (self.probe.seconds - probed)

    def finish(self) -> None:
        pass


class PaperEval(Workload):
    """LOO for the five learners, first-n for forest and the width-5 stream
    regime for forest, all on nf-ef."""

    participants = 12
    task = "nf-ef"
    first_n = (1.0, 2.0, 3.0, 4.0, 5.0)
    width = 5.0
    balanced_floor = 0.75

    def setup(self):
        return _corpus(self.participants, self.seed)

    def run_round(self, sessions) -> Round:
        start, probed = time.perf_counter(), self.probe.seconds
        corpus = evaluate.Corpus(sessions)
        dataset, _ = corpus.dataset_for_task(self.task)
        forest = learners.default_config("forest")
        calls = [(kind, evaluate.loo_cv, (dataset, learners.default_config(kind)),
                  {"task": self.task}) for kind in learners.KINDS]
        calls.append(("first-n", evaluate.eval_first_n,
                      (corpus, self.task, forest, self.first_n), {}))
        calls.append(("stream", evaluate.loo_stream_eval,
                      (corpus, self.task, forest, self.width), {}))
        n_folds = self.participants
        results, failed = {}, 0
        for label, fn, args, kwargs in calls:
            result, seconds = self.attempt(fn, *args, **kwargs)
            if result is None:
                failed += n_folds
                continue
            results[label] = (result, seconds)
        elapsed = self.elapsed(start, probed)
        ops = n_folds * len(calls)
        stream, _ = results.get("stream", (None, 0.0))
        windows = len(stream.detections) if stream is not None else 0
        labels = {int(p): dataset.y[dataset.groups == p].tolist()
                  for p in np.unique(dataset.groups)}
        # Folds run inside the library's calls and cannot be timed one by
        # one from outside: each is charged the round's mean. Windows are
        # counted over the round too, since one call is too short a sample.
        return Round(elapsed, ops, failed, [elapsed / ops], windows, elapsed,
                     {"labels": labels, "results": results})

    def check_round(self, sessions, rnd: Round, first) -> None:
        participants = list(range(1, self.participants + 1))
        results = {k: r for k, (r, _) in rnd.outputs["results"].items()}
        checks.check_fold_makeup(rnd.outputs["labels"], participants)
        for kind in learners.KINDS:
            if kind in results:
                checks.check_fold_report(results[kind], participants, 14)
                checks.check_balanced_floor(results[kind], self.balanced_floor)
        for report in results.get("first-n", {}).values():
            checks.check_fold_report(report, participants, 14)
        if "stream" in results:
            ef = [s for s in sessions if s.timeline.failure_type == "EF"]
            key = lambda s: (s.participant_id, s.puzzle_id)  # noqa: E731
            checks.check_stream_report(
                results["stream"].report, results["stream"].detections,
                {key(s): s.timeline.failure_window() for s in ef},
                {key(s): s.timeline.duration for s in ef}, self.width)
        if first is not None:
            before = {k: r for k, (r, _) in first.outputs["results"].items()}
            checks.require(results == before, "a repeated round changed its reports")
        rnd.outputs = {"results": rnd.outputs["results"]} if first is None else None


class LiveDetect(Workload):
    """stream_detect over every session at widths 3, 5 and 10 s with forest
    models fitted in set-up as CLI train fits them."""

    participants = 26
    widths = (3.0, 5.0, 10.0)
    sampled_windows = 16
    prefix_cuts = 3

    def setup(self):
        sessions = _corpus(self.participants, self.seed)
        corpus = evaluate.Corpus(sessions)
        models = {}
        for ftype, task in TASK_OF.items():
            dataset, _ = corpus.dataset_for_task(task)
            rng = np.random.default_rng(np.random.SeedSequence(MODEL_SEED, spawn_key=(0,)))
            balanced = learners.smote(dataset, k=2, rng=rng)
            models[ftype] = learners.train(
                learners.default_config("forest", seed=MODEL_SEED), balanced)
        return sessions, models

    def run_round(self, state) -> Round:
        sessions, models = state
        start, probed = time.perf_counter(), self.probe.seconds
        detections, op_seconds, failed, windows = {}, [], 0, 0
        for i, session in enumerate(sessions):
            model = models[session.timeline.failure_type]
            for width in self.widths:
                # A fresh debouncer per call: nothing is cached across calls.
                events, seconds = self.attempt(evaluate.stream_detect, model, session, width)
                if events is None:
                    failed += 1
                    continue
                detections[(i, width)] = events
                op_seconds.append(seconds)
                windows += len(events)
        elapsed = self.elapsed(start, probed)
        return Round(elapsed, len(sessions) * len(self.widths), failed, op_seconds,
                     windows, sum(op_seconds), detections)

    def check_round(self, state, rnd: Round, first) -> None:
        sessions, models = state
        if first is not None:
            checks.require(rnd.outputs == first.outputs, "a repeated round changed its detections")
            rnd.outputs = None
            return
        for (i, width), events in rnd.outputs.items():
            s = sessions[i]
            checks.check_window_bounds(events, s.timeline.duration, width,
                                       (s.participant_id, s.puzzle_id))
        rng = random.Random(self.seed)
        keys = sorted(k for k, v in rnd.outputs.items() if v)
        for i, width in rng.sample(keys, self.sampled_windows):
            events = rnd.outputs[(i, width)]
            k = rng.randrange(len(events))
            self._check_window(sessions[i], models, events[k], f"session {i} window {k}")
        for i, width in rng.sample(keys, self.prefix_cuts):
            events = rnd.outputs[(i, width)]
            k = rng.randrange(1, len(events))
            cut = _cut_session(sessions[i], events[k - 1].t1)
            got = evaluate.stream_detect(models[cut.timeline.failure_type], cut, width)
            where = f"session {i} width {width:g} cut after window {k}"
            checks.require(len(got) == k, f"{where}: {len(got)} windows, expected {k}")
            checks.check_prefix(got, events, where)

    def _check_window(self, session, models, event, where: str) -> None:
        g = session.gaze
        rects = [(int(label), r.x0, r.y0, r.x1, r.y1) for label, r in session.layout.entries]
        expected = reference.window_features(
            reference.fixations_until(g.t.tolist(), g.x.tolist(), g.y.tolist(),
                                      g.valid.tolist(), rects, event.t1),
            event.t0, event.t1)
        fx = core.Debouncer(g, session.layout).fixations_until(event.t1)
        program = features.extract_features(fx, event.t0, event.t1).as_array().tolist()
        checks.check_features(program, expected, where)
        labels, scores = learners.predict_batch(models[session.timeline.failure_type],
                                                np.array([expected]))
        checks.check_prediction(event, int(labels[0]), float(scores[0]), where)


def _cut_session(session, t_cut: float):
    """The session as recorded up to ``t_cut``: samples and events after it
    are not there yet."""
    g = session.gaze
    keep = g.t <= t_cut
    tl = session.timeline
    timeline = core.Timeline(events=tuple(e for e in tl.events if e.t <= t_cut),
                             duration=t_cut, failure_type=tl.failure_type,
                             failure_piece=tl.failure_piece)
    gaze = core.GazeStream(t=g.t[keep], x=g.x[keep], y=g.y[keep], valid=g.valid[keep])
    return dataclasses.replace(session, gaze=gaze, timeline=timeline)


class CliFiles(Workload):
    """simulate -> extract -> train (forest, both tasks) -> detect on every
    session file, in-process through cli.main."""

    participants = 8
    width = 5.0
    replayed_detections = 8  # files whose detections are recomputed in-process

    def __init__(self, seed: int, probe):
        super().__init__(seed, probe)
        self.roots = []

    def setup(self):
        return {(s.participant_id, s.puzzle_id): s
                for s in _corpus(self.participants, self.seed)}

    def _commands(self, sessions: dict, root: str) -> list:
        corpus_dir = os.path.join(root, "corpus")
        table = os.path.join(root, "features.csv")
        model = {task: os.path.join(root, f"model_{task}.json") for task in FAILURE_DURATIONS}
        commands = [
            ["simulate", "--participants", str(self.participants), "--seed", str(self.seed),
             "--out", corpus_dir],
            ["extract", "--corpus", corpus_dir, "--out", table],
        ]
        for task, path in model.items():
            commands.append(["train", "--features", table, "--task", task,
                             "--classifier", "forest", "--out", path])
        for (pid, puzzle), s in sorted(sessions.items()):
            name = f"session_p{pid:03d}_z{puzzle}.jsonl"
            commands.append(["detect", "--model", model[TASK_OF[s.timeline.failure_type]],
                             "--session", os.path.join(corpus_dir, name),
                             "--width", f"{self.width:g}",
                             "--out", os.path.join(root, "detections", name)])
        return commands

    def run_round(self, sessions) -> Round:
        root = os.path.join(OUT_DIR, f"cli-files-{os.getpid()}-{len(self.roots)}")
        self.roots.append(root)
        shutil.rmtree(root, ignore_errors=True)
        commands = self._commands(sessions, root)
        codes, op_seconds, detect_seconds = [], [], []
        start, probed = time.perf_counter(), self.probe.seconds
        for argv in commands:
            rc, seconds = self.attempt(_quiet_main, argv)
            codes.append((argv, rc))
            op_seconds.append(seconds)
            if argv[0] == "detect":
                detect_seconds.append(seconds)
        elapsed = self.elapsed(start, probed)
        windows = sum(len(reference.window_bounds(s.timeline.duration, self.width))
                      for s in sessions.values())
        failed = sum(1 for _, rc in codes if rc != 0)
        return Round(elapsed, len(commands), failed, op_seconds, windows,
                     sum(detect_seconds),
                     {"root": root, "codes": codes, "detect_seconds": detect_seconds})

    def check_round(self, sessions, rnd: Round, first) -> None:
        root = rnd.outputs["root"]
        digests = _digests(root)
        if first is not None:
            checks.require(digests == first.outputs["digests"],
                           "a repeated round wrote different files")
            shutil.rmtree(root, ignore_errors=True)
            rnd.outputs = {"detect_seconds": rnd.outputs["detect_seconds"]}
            return
        rnd.outputs["digests"] = digests
        corpus_dir = os.path.join(root, "corpus")
        with open(os.path.join(corpus_dir, "manifest.json"), encoding="utf-8") as fh:
            names = json.load(fh)["sessions"]
        expected_names = [f"session_p{p:03d}_z{z}.jsonl" for p, z in sorted(sessions)]
        checks.require(names == expected_names, "manifest lists other session files")
        participants = list(range(1, self.participants + 1))
        checks.check_feature_table(_read_feature_table(os.path.join(root, "features.csv")),
                                   participants, FAILURE_DURATIONS)
        models = {task: model_io.load_model(os.path.join(root, f"model_{task}.json"))
                  for task in FAILURE_DURATIONS}
        replayed = set(random.Random(self.seed).sample(names, self.replayed_detections))
        for key, name in zip(sorted(sessions), names):
            session = sessions[key]
            parsed = _read_session_file(os.path.join(corpus_dir, name))
            checks.check_session_roundtrip(parsed, session, name)
            records = _read_jsonl_records(os.path.join(root, "detections", name))
            duration = session.timeline.duration
            if name not in replayed:
                checks.check_window_records(records, duration, self.width, name)
                continue
            read_back = dataclasses.replace(session, gaze=core.GazeStream(
                t=np.array(parsed["t"]), x=np.array(parsed["x"]), y=np.array(parsed["y"]),
                valid=np.array(parsed["valid"], dtype=bool)))
            expected = evaluate.stream_detect(
                models[TASK_OF[session.timeline.failure_type]], read_back, self.width)
            checks.check_detections_file(records, expected, duration, self.width, name)

    def finish(self) -> None:
        for root in self.roots:
            shutil.rmtree(root, ignore_errors=True)


def _quiet_main(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        sys.stderr.write(f"{' '.join(argv)} -> {rc}: {err.getvalue()}")
    return rc


def _digests(root: str) -> dict:
    out = {}
    for directory, _, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read_session_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        columns = {"t": [], "x": [], "y": [], "valid": []}
        for line in fh:
            record = json.loads(line)
            for name, values in columns.items():
                values.append(record[name])
    return {**{k: header[k] for k in ("participant", "puzzle", "duration", "failure_type")},
            **columns}


def _read_feature_table(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = []
    for row in csv.DictReader(lines):
        rows.append({"task": row["task"], "participant": int(row["participant"]),
                     "puzzle": int(row["puzzle"]), "piece": int(row["piece"]),
                     "t0": float(row["t0"]), "t1": float(row["t1"])})
    return rows


def _read_jsonl_records(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        fh.readline()  # provenance header
        return [json.loads(line) for line in fh if line.strip()]


WORKLOADS = {"paper-eval": PaperEval, "live-detect": LiveDetect, "cli-files": CliFiles}


def run(name: str, seed: int, seconds: float, tracer, setup_repeats: int = 3) -> dict:
    """Set up ``setup_repeats`` times, then run whole rounds until ``seconds``
    of rounds are measured; checks run between rounds, outside the timing."""
    probe = speed.SpeedProbe()
    workload = WORKLOADS[name](seed, probe)
    setup_seconds = []
    for _ in range(setup_repeats):
        with tracer.phase("setup"):
            start = time.perf_counter()
            state = workload.setup()
            setup_seconds.append(time.perf_counter() - start)
        probe.after(setup_seconds[-1])
    rounds, round_cpu, error = [], [], None
    try:
        while not rounds or sum(r.seconds for r in rounds) < seconds:
            cpu = time.process_time()
            with tracer.phase("round"):
                rnd = workload.run_round(state)
            round_cpu.append(time.process_time() - cpu)
            rounds.append(rnd)
            if rnd.failed == 0:
                workload.check_round(state, rnd, rounds[0] if len(rounds) > 1 else None)
    except checks.CheckFailed as exc:
        error = str(exc)
    finally:
        workload.finish()
    op_seconds = [s for r in rounds for s in r.op_seconds]
    summary = {
        "setup_seconds": setup_seconds,
        "round_seconds": [r.seconds for r in rounds],
        "round_cpu_seconds": round_cpu,
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "op_seconds": op_seconds,
        "windows": sum(r.windows for r in rounds),
        "window_seconds": sum(r.window_seconds for r in rounds),
        "error": error,
        "probe_kernel_seconds": probe.seconds / probe.kernels,
        "speed_scale": probe.scale(),
    }
    if name == "cli-files":
        summary["detect_seconds"] = [s for r in rounds if r.outputs
                                     for s in r.outputs["detect_seconds"]]
    return summary
