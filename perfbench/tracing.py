"""Span tracing from outside the program.

``Tracer.install`` wraps public functions of each layer at the names their
callers look up (``train`` as ``evaluate.fit_fold`` calls it, for example) and
records a span per call: name, start, end, parent span and run phase, kept in
memory until the run ends. Counts are taken at the same boundaries. A name
that no longer exists is listed as absent rather than failing the run.

``NullTracer`` is what untraced runs use: it marks phases and nothing else.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import time
from collections import Counter, defaultdict

MB = 1024 * 1024


class NullTracer:
    enabled = False

    @contextlib.contextmanager
    def phase(self, name: str):
        yield


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, phase]
        self.counts = defaultdict(Counter)  # phase -> key -> n
        self.phase_runs = Counter()
        self.absent = []
        self._stack = []
        self._phase = "other"
        self._undo = []
        self._last_fixations = None
        self._train_keys = set()

    @contextlib.contextmanager
    def phase(self, name: str):
        """A top-level phase: "setup" or "round"."""
        previous, self._phase = self._phase, name
        self.phase_runs[name] += 1
        try:
            with self.span(f"bench.{name}"):
                yield
        finally:
            self._phase = previous

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._phase])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self._phase][key] += n

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` by a traced call. ``name`` is a span name or
        a function of the call's (args, kwargs); ``after(args, kwargs,
        result)`` takes counts once the span has closed."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from gaze_sentinel import cli, core, evaluate, sim, storage

        self.wrap(sim, "generate_corpus", "sim.generate")
        self.wrap(cli, "generate_corpus", "sim.generate")

        self.wrap(core.Debouncer, "__init__", "core.debouncer")
        self.wrap(core.Debouncer, "fixations_until", "core.fixations_until",
                  after=self._after_fixations_until)
        self.wrap(evaluate, "extract_features", "features.extract",
                  after=self._after_extract)

        for owner in (evaluate, cli):
            self.wrap(owner, "smote", "learners.smote")
            self.wrap(owner, "train", _train_span, after=self._after_train)
        self.wrap(evaluate, "predict_batch", "learners.predict")

        self.wrap(evaluate.Corpus, "rows_for_task", "evaluate.rows_for_task")
        self.wrap(evaluate.Corpus, "window_features", "evaluate.window_features")
        self.wrap(evaluate, "fit_fold", "evaluate.fit_fold",
                  after=lambda a, k, r: self.count("evaluate.fit_fold_calls"))
        for fn in ("loo_cv", "eval_first_n", "loo_stream_eval"):
            self.wrap(evaluate, fn, f"evaluate.{fn}")
        self.wrap(evaluate, "stream_detect", "evaluate.stream_detect")
        self.wrap(cli, "stream_detect", "evaluate.stream_detect")

        self.wrap(storage, "write_session_jsonl", "storage.write_session",
                  after=lambda a, k, r: self.count("storage.write_bytes", _size(a[1])))
        self.wrap(storage, "read_session_jsonl", "storage.read_session",
                  after=lambda a, k, r: self.count("storage.read_bytes", _size(a[0])))
        self.wrap(storage, "write_feature_csv", "storage.feature_csv_write")
        self.wrap(storage, "read_feature_csv", "storage.feature_csv_read")
        self.wrap(storage, "write_detections_jsonl", "storage.detections_write")

        self.wrap(cli, "save_model", "model_io.save")
        self.wrap(cli, "load_model", "model_io.load")
        for command in ("simulate", "extract", "train", "detect"):
            self.wrap(cli, f"cmd_{command}", f"cli.{command}")

    # ---- counts taken at the boundaries ------------------------------------

    def _after_fixations_until(self, args, kwargs, result) -> None:
        self.count("core.fixations_until_calls")
        self.count("core.fixations_assembled", len(result))
        self._last_fixations = result

    def _after_extract(self, args, kwargs, result) -> None:
        self.count("features.extract_calls")
        fixations, t0, t1 = args[:3]
        if fixations is self._last_fixations:
            # Events fixations_until assembled that overlap the window.
            used = sum(1 for f in fixations if min(f.end, t1) - max(f.start, t0) > 1e-12)
            self.count("core.fixations_used", used)

    def _after_train(self, args, kwargs, result) -> None:
        # Fold training sets are seeded by (task, config, held-out
        # participant), so equal inputs mean a refit of the same fold.
        config, dataset = args[:2]
        digest = hashlib.blake2b(dataset.X.tobytes() + dataset.y.tobytes(),
                                 digest_size=16).hexdigest()
        key = (self._phase, self.phase_runs[self._phase], config, digest)
        if key not in self._train_keys:
            self._train_keys.add(key)
            self.count("learners.train_unique")
        self.count("learners.train_calls")

    # ---- results ------------------------------------------------------------

    def per_layer(self) -> dict:
        """Per-layer metrics: times and counts per round, except
        ``sim.generate_s``, which is seconds per generated corpus."""
        rounds = max(self.phase_runs["round"], 1)
        busy = Counter()
        for name, start, end, _, phase in self.spans:
            if phase == "round":
                busy[name] += end - start
        counts = self.counts["round"]
        generate = [end - start for name, start, end, _, _ in self.spans
                    if name == "sim.generate"]

        def per_round(key):
            return busy[key] / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        out = {"sim.generate_s": (sum(generate) / len(generate) if generate else 0.0, "s")}
        for key in ("core.debouncer", "core.fixations_until"):
            out[f"{key}_s"] = (per_round(key), "s")
        out["core.fixations_until_calls"] = (counts["core.fixations_until_calls"] / rounds, "count")
        out["core.fixations_assembled"] = (counts["core.fixations_assembled"] / rounds, "count")
        out["core.fixations_used_ratio"] = (
            ratio(counts["core.fixations_used"], counts["core.fixations_assembled"]), "ratio")
        out["features.extract_s"] = (per_round("features.extract"), "s")
        out["features.extract_calls"] = (counts["features.extract_calls"] / rounds, "count")
        out["learners.smote_s"] = (per_round("learners.smote"), "s")
        for kind in ("forest", "ada", "gbt-a", "svm", "gbt-b"):
            out[f"learners.train_s.{kind}"] = (per_round(f"learners.train.{kind}"), "s")
        out["learners.train_calls"] = (counts["learners.train_calls"] / rounds, "count")
        out["learners.train_unique_ratio"] = (
            ratio(counts["learners.train_unique"], counts["learners.train_calls"]), "ratio")
        out["learners.predict_s"] = (per_round("learners.predict"), "s")
        for key in ("rows_for_task", "fit_fold"):
            out[f"evaluate.{key}_s"] = (per_round(f"evaluate.{key}"), "s")
        out["evaluate.fit_fold_calls"] = (counts["evaluate.fit_fold_calls"] / rounds, "count")
        for key in ("loo_cv", "eval_first_n", "loo_stream_eval", "window_features",
                    "stream_detect"):
            out[f"evaluate.{key}_s"] = (per_round(f"evaluate.{key}"), "s")
        for key in ("write_session", "read_session", "feature_csv_write",
                    "feature_csv_read", "detections_write"):
            out[f"storage.{key}_s"] = (per_round(f"storage.{key}"), "s")
        out["storage.write_mb_per_s"] = (
            ratio(counts["storage.write_bytes"] / MB, busy["storage.write_session"]), "MB/s")
        out["storage.read_mb_per_s"] = (
            ratio(counts["storage.read_bytes"] / MB, busy["storage.read_session"]), "MB/s")
        out["model_io.save_s"] = (per_round("model_io.save"), "s")
        out["model_io.load_s"] = (per_round("model_io.load"), "s")
        for command in ("simulate", "extract", "train", "detect"):
            out[f"cli.{command}_s"] = (per_round(f"cli.{command}"), "s")
        return out

    def self_times(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (duration
        less the time its child spans cover), over the whole run."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        table: dict = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            calls, total, own = table.get(name, (0, 0.0, 0.0))
            table[name] = (calls + 1, total + end - start, own + end - start - covered)
        return {name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(table.items())}

    def record(self) -> dict:
        return {"absent": self.absent, "phase_runs": dict(self.phase_runs),
                "self_times": self.self_times(), "spans": self.spans}


def _train_span(args, kwargs) -> str:
    config = args[0] if args else kwargs["config"]
    return f"learners.train.{config.kind}"


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
