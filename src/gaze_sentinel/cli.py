"""Command-line pipeline: simulate, extract, train, eval, detect, report.

Option resolution order is flags > environment (GAZE_SENTINEL_*) > config
file > built-in defaults; the resolved configuration is echoed into every
output header so runs stay reproducible. Commands exit 0 on success and
nonzero with a machine-readable JSON error record on stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .errors import GazeSentinelError, InvalidParameterError
from .evaluate import (
    Corpus,
    SMOTE_K,
    TASKS,
    dataset_from_rows,
    eval_first_n,
    interval_detection_rate,
    loo_cv,
    loo_stream_eval,
    stream_detect,
)
from .learners import KINDS, default_config, smote, train
from .model_io import load_model, save_model
from .sim import BehaviorParams, CorpusSpec, DEFAULT_MASTER_SEED, generate_corpus
from . import storage

ENV_PREFIX = "GAZE_SENTINEL_"

_DEFAULTS = {
    "seed": DEFAULT_MASTER_SEED,
    "participants": 26,
    "task": "nf-ef",
    "classifier": "all",
    "mode": "full",
    "n": "",
    "width": 5.0,
    "slide": 1.0,
}

_CASTS = {
    "seed": int,
    "participants": int,
    "task": str,
    "classifier": str,
    "mode": str,
    "n": str,
    "width": float,
    "slide": float,
}


def _resolve(args: argparse.Namespace, keys) -> dict:
    """Merge defaults <- config file <- environment <- explicit flags.

    A config file that is not a JSON object, or a config or environment
    value its option cannot take, raises ``InvalidParameterError`` naming
    where the value came from."""
    file_cfg = {}
    config_path = getattr(args, "config", None) or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
                raise InvalidParameterError(
                    f"config file {config_path} is not JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise InvalidParameterError(f"config file {config_path} must hold a JSON object")
    resolved = {}
    for key in keys:
        value = _DEFAULTS[key]
        if key in file_cfg:
            value = _cast(key, file_cfg[key], f"config file {config_path}")
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            value = _cast(key, env, ENV_PREFIX + key.upper())
        flag = getattr(args, key, None)
        if flag is not None:
            value = flag
        resolved[key] = value
    if resolved.get("seed", 0) < 0:
        raise InvalidParameterError(f"seed must be non-negative, not {resolved['seed']}")
    return resolved


def _cast(key: str, value, source: str):
    try:
        return _CASTS[key](value)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"{source}: {key} cannot be {value!r}") from None


def _parse_n_range(spec: str) -> list:
    """'a..b' -> [a, a+1, ..., b]; a single number stands alone. Bounds
    must be finite."""
    try:
        bounds = [float(b) for b in spec.split("..")]
        if len(bounds) > 2 or not all(map(math.isfinite, bounds)) or bounds[-1] < bounds[0]:
            raise ValueError
    except ValueError:
        raise InvalidParameterError(f"cannot parse n range {spec!r}") from None
    if len(bounds) == 1:
        return bounds
    values = []
    v, hi = bounds
    while v <= hi + 1e-9:
        values.append(round(v, 6))
        v += 1.0
    return values


def _classifiers(choice: str) -> list:
    if choice == "all":
        return list(KINDS)
    if choice not in KINDS:
        raise InvalidParameterError(f"unknown classifier {choice!r}")
    return [choice]


def _behavior(args: argparse.Namespace) -> Optional[BehaviorParams]:
    profile = getattr(args, "profile", None) or os.environ.get(ENV_PREFIX + "PROFILE")
    if profile:
        return BehaviorParams.from_file(profile)
    return None


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, ("seed", "participants"))
    behavior = _behavior(args)
    spec = CorpusSpec(participants=cfg["participants"], master_seed=cfg["seed"],
                      behavior=behavior)
    sessions = generate_corpus(spec)
    run_cfg = {"command": "simulate", **cfg,
               "profile": getattr(args, "profile", None) or "default"}
    storage.write_corpus(sessions, args.out, run_cfg)
    print(f"wrote {len(sessions)} sessions to {args.out}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = _resolve(args, ())
    sessions = storage.read_corpus(args.corpus)
    corpus = Corpus(sessions)
    rows = corpus.segment_rows()
    run_cfg = {"command": "extract", **cfg}
    storage.write_feature_csv(rows, args.out, run_cfg)
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args, ("seed", "task", "classifier"))
    if cfg["task"] not in TASKS:
        raise InvalidParameterError(f"unknown task {cfg['task']!r}")
    kinds = _classifiers(cfg["classifier"])
    if len(kinds) != 1:
        raise InvalidParameterError("train expects a single classifier, not 'all'")
    rows = [r for r in storage.read_feature_csv(args.features) if r.task == cfg["task"]]
    if not rows:
        raise InvalidParameterError(f"{args.features} holds no {cfg['task']} rows")
    dataset = dataset_from_rows(rows)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"], spawn_key=(0,)))
    balanced = smote(dataset, k=SMOTE_K, rng=rng)
    model = train(default_config(kinds[0], seed=cfg["seed"]), balanced)
    save_model(model, args.out)
    print(f"trained {kinds[0]} on {len(balanced)} rows -> {args.out}")
    return 0


# The paper's first-n sweeps: whole seconds up to each failure's duration
# (15 s for EF, 16.5 s for DF).
FIRST_N_SWEEP = {
    "nf-ef": [float(n) for n in range(1, 16)],
    "nf-df": [float(n) for n in range(1, 17)] + [16.5],
}
EVAL_MODES = ("full", "first-n", "stream")


def _tag(task: str, mode: str, width: float) -> str:
    return f"{task}_w{width:g}" if mode == "stream" else task


def _report_path(out, task: str, mode: str, width: float) -> str:
    return os.path.join(out, f"report_{mode.replace('-', '_')}_{_tag(task, mode, width)}.csv")


def write_eval(corpus: Corpus, out, task: str, mode: str, kinds, seed: int, run_cfg: dict,
               n_values=None, width: float = 5.0, slide: float = 1.0) -> list:
    """Run one evaluation regime for each learner of ``kinds``, then write
    its files into ``out`` and return the report entries (task, kind,
    n_or_width, EvalReport).

    Files: ``report_{full|first_n}_{task}.csv``; for ``stream``, with tag
    ``{task}_w{width:g}``, ``report_stream_{tag}.csv``, ``offsets_{tag}.csv``
    and ``detections_{tag}_{kind}.jsonl``. ``first-n`` sweeps ``n_values``,
    by default ``FIRST_N_SWEEP[task]``."""
    if task not in TASKS:
        raise InvalidParameterError(f"unknown task {task!r}")
    if mode not in EVAL_MODES:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    os.makedirs(out, exist_ok=True)
    configs = [(kind, default_config(kind, seed=seed)) for kind in kinds]
    entries, offset_rows, detections = [], [], {}
    if mode == "full":
        dataset, _ = corpus.dataset_for_task(task)
        entries = [(task, kind, "full", loo_cv(dataset, config, task=task))
                   for kind, config in configs]
    elif mode == "first-n":
        n_values = FIRST_N_SWEEP[task] if n_values is None else n_values
        for kind, config in configs:
            reports = eval_first_n(corpus, task, config, n_values)
            entries.extend((task, kind, f"{n:g}", reports[n]) for n in n_values)
    else:
        for kind, config in configs:
            result = loo_stream_eval(corpus, task, config, width, slide)
            entries.append((task, kind, f"{width:g}", result.report))
            detections[kind] = result.detections
            offset_rows.extend((task, kind, width, offset, pct) for offset, pct
                               in interval_detection_rate(result.detections, corpus, width))
    storage.write_report_csv(_report_path(out, task, mode, width), entries, run_cfg)
    if mode == "stream":
        tag = _tag(task, mode, width)
        storage.write_offsets_csv(os.path.join(out, f"offsets_{tag}.csv"), offset_rows, run_cfg)
        for kind, events in detections.items():
            storage.write_detections_jsonl(
                os.path.join(out, f"detections_{tag}_{kind}.jsonl"), events, run_cfg)
    return entries


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve(args, ("seed", "task", "classifier", "mode", "n", "width", "slide"))
    kinds = _classifiers(cfg["classifier"])
    n_values = _parse_n_range(cfg["n"]) if cfg["mode"] == "first-n" and cfg["n"] else None
    corpus = Corpus(storage.read_corpus(args.corpus))
    write_eval(corpus, args.out, cfg["task"], cfg["mode"], kinds, cfg["seed"],
               {"command": "eval", **cfg}, n_values, cfg["width"], cfg["slide"])
    print(f"wrote {_report_path(args.out, cfg['task'], cfg['mode'], cfg['width'])}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = _resolve(args, ("width", "slide"))
    model = load_model(args.model)
    session = storage.read_session_jsonl(args.session)
    events = stream_detect(model, session, cfg["width"], cfg["slide"])
    run_cfg = {"command": "detect", **cfg}
    storage.write_detections_jsonl(args.out, events, run_cfg)
    positives = sum(1 for e in events if e.predicted == 1)
    print(f"classified {len(events)} windows ({positives} flagged) -> {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _resolve(args, ())
    names = sorted(
        name for name in os.listdir(args.reports)
        if name.startswith("report_") and name.endswith(".csv")
    )
    if not names:
        raise InvalidParameterError(f"no report CSVs found in {args.reports}")
    pooled = []
    for name in names:
        for row in storage.read_report_csv(os.path.join(args.reports, name)):
            if row["fold"] == "pooled":
                pooled.append((name, row))
    lines = storage.provenance_lines({"command": "report", **cfg})
    lines.append("source,task,classifier,n_or_width,accuracy,recall")
    for name, row in pooled:
        recall = "" if row["recall"] is None else repr(row["recall"])
        lines.append(
            f"{name},{row['task']},{row['classifier']},{row['n_or_width']},"
            f"{row['accuracy']!r},{recall}"
        )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "summary.csv")
    storage.atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaze-sentinel",
        description="Gaze-dynamics failure detection pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *names):
        if "seed" in names:
            p.add_argument("--seed", type=int)
        if "config" in names:
            p.add_argument("--config", help="JSON file with default options")

    p = sub.add_parser("simulate", help="generate a synthetic session corpus")
    p.add_argument("--participants", type=int)
    p.add_argument("--profile", help="behaviour profile JSON (default: built-in)")
    p.add_argument("--out", required=True)
    common(p, "seed", "config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("extract", help="compute the per-segment feature table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    common(p, "config")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="fit one classifier on a feature table")
    p.add_argument("--features", required=True)
    p.add_argument("--task", choices=sorted(TASKS))
    p.add_argument("--classifier", choices=KINDS)
    p.add_argument("--out", required=True)
    common(p, "seed", "config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run leave-one-out evaluation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=EVAL_MODES)
    p.add_argument("--task", choices=sorted(TASKS))
    p.add_argument("--classifier", choices=KINDS + ("all",))
    p.add_argument("--n", help="truncation sweep, e.g. 1..15 (default: full per-task sweep)")
    p.add_argument("--width", type=float, choices=(3.0, 5.0, 10.0))
    p.add_argument("--slide", type=float)
    p.add_argument("--out", required=True)
    common(p, "seed", "config")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="stream-classify one session with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--session", required=True)
    p.add_argument("--width", type=float, choices=(3.0, 5.0, 10.0))
    p.add_argument("--slide", type=float)
    p.add_argument("--out", required=True)
    common(p, "config")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("report", help="aggregate report CSVs into one table")
    p.add_argument("--reports", required=True)
    p.add_argument("--out", required=True)
    common(p, "config")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GazeSentinelError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    except OSError as exc:
        record = {"error": "IOError", "message": str(exc),
                  "path": getattr(exc, "filename", None)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
