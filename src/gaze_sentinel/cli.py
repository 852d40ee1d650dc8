"""Command-line pipeline: simulate, extract, train, eval, detect, report.

Option resolution order is flags > environment (GAZE_SENTINEL_*) > config
file > built-in defaults; the resolved configuration is echoed into every
output header so runs stay reproducible. Commands exit 0 on success and
nonzero with a machine-readable JSON error record on stderr otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

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
from .sim import (BehaviorParams, CorpusSpec, DEFAULT_MASTER_SEED, DEFAULT_PARTICIPANTS,
                  generate_corpus)
from . import storage

ENV_PREFIX = "GAZE_SENTINEL_"

# The paper's first-n sweeps: whole seconds up to each failure's duration
# (15 s for EF, 16.5 s for DF).
FIRST_N_SWEEP = {
    "nf-ef": [float(n) for n in range(1, 16)],
    "nf-df": [float(n) for n in range(1, 17)] + [16.5],
}
EVAL_MODES = ("full", "first-n", "stream")


# Every option a command resolves (its flag, GAZE_SENTINEL_<KEY> variable
# and config-file key): its type, built-in default, the values it may take
# (None: any of its type) and its help.
_OPTIONS = {
    "seed": (int, DEFAULT_MASTER_SEED, None, "master seed, at least 0"),
    "participants": (int, DEFAULT_PARTICIPANTS, None, "participants to simulate"),
    "task": (str, "nf-ef", tuple(sorted(TASKS)), "NF against EF or against DF"),
    "classifier": (str, "all", KINDS + ("all",), "one learner, or all of them"),
    "mode": (str, "full", EVAL_MODES, "evaluation regime"),
    "n": (str, "", None, "truncation sweep, e.g. 1..15 (default: full per-task sweep)"),
    "width": (float, 5.0, (3.0, 5.0, 10.0), "window width, seconds"),
    "profile": (str, "", None, "behaviour profile JSON (default: built-in)"),
}
# Each command's help, its required path flags and the options it resolves.
_COMMANDS = {
    "simulate": ("generate a synthetic session corpus", ("out",),
                 ("seed", "participants", "profile")),
    "extract": ("compute the per-segment feature table", ("corpus", "out"), ()),
    "train": ("fit one classifier on a feature table", ("features", "out"),
              ("seed", "task", "classifier")),
    "eval": ("run leave-one-out evaluation", ("corpus", "out"),
             ("seed", "task", "classifier", "mode", "n", "width")),
    "detect": ("stream-classify one session with a saved model", ("model", "session", "out"),
               ("width",)),
    "report": ("aggregate report CSVs into one table", ("reports", "out"), ()),
}
# A first-n range may hold at most this many values.
_MAX_N_VALUES = 10_000


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults <- config file <- environment <- explicit flags for the
    options of the parsed command.

    A config file that is not a JSON object, or a config or environment
    value its option cannot take, raises ``InvalidParameterError`` naming
    where the value came from."""
    config_path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    file_cfg = storage.read_json(config_path, InvalidParameterError, "config file") \
        if config_path else {}
    resolved = {}
    for key in args.options:
        value = _OPTIONS[key][1]
        if key in file_cfg:
            value = _cast(key, file_cfg[key], f"config file {config_path}")
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            value = _cast(key, env, ENV_PREFIX + key.upper())
        flag = getattr(args, key)
        if flag is not None:
            value = flag
        resolved[key] = value
    if resolved.get("seed", 0) < 0:
        raise InvalidParameterError(f"seed must be non-negative, not {resolved['seed']}")
    return resolved


def _cast(key: str, value, source: str):
    """``value`` as option ``key``'s type. Every option refuses a bool or a
    null, an int option a number that is not whole, and an option with
    choices a value not among them."""
    kind, _, choices, _ = _OPTIONS[key]
    with storage.decoding(InvalidParameterError, f"{source}: {key} cannot be {value!r}"):
        if isinstance(value, bool) or value is None or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"expected {kind.__name__}")
        value = kind(value)
    if choices is not None and value not in choices:
        finite = "finite " if kind is float else ""
        raise InvalidParameterError(
            f"{source}: {key} must be one of the {finite}values {choices}, not {value!r}")
    return value


def _parse_n_range(spec: str) -> list:
    """'a..b' -> [a, a+1, ..., b]; a single number stands alone. Bounds
    must be finite, and a range must give at most ``_MAX_N_VALUES`` values."""
    try:
        bounds = [float(b) for b in spec.split("..")]
        if len(bounds) > 2 or not all(map(math.isfinite, bounds)) or bounds[-1] < bounds[0]:
            raise ValueError
    except ValueError:
        raise InvalidParameterError(f"cannot parse n range {spec!r}") from None
    if len(bounds) == 1:
        return bounds
    v, hi = bounds
    # The loop gives about hi - v + 1 values; it would never end where a
    # step of 1.0 is below float precision (v + 1.0 == v).
    if hi - v >= _MAX_N_VALUES or v + 1.0 == v or hi + 1.0 == hi:
        raise InvalidParameterError(
            f"n range {spec!r} must give at most {_MAX_N_VALUES} values one second apart")
    values = []
    while v <= hi + 1e-9:
        values.append(round(v, 6))
        v += 1.0
    return values


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    profile = cfg["profile"]
    spec = CorpusSpec(participants=cfg["participants"], master_seed=cfg["seed"],
                      behavior=BehaviorParams.from_file(profile) if profile else None)
    sessions = generate_corpus(spec)
    run_cfg = {"command": "simulate", **cfg, "profile": profile or "default"}
    if profile:  # the fingerprint then covers the profile's content, not just its path
        with open(profile, "rb") as fh:
            run_cfg["profile_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    storage.write_corpus(sessions, args.out, run_cfg)
    print(f"wrote {len(sessions)} sessions to {args.out}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    sessions = storage.read_corpus(args.corpus)
    corpus = Corpus(sessions)
    rows = corpus.segment_rows()
    run_cfg = {"command": "extract", **cfg}
    storage.write_feature_csv(rows, args.out, run_cfg)
    print(f"wrote {len(rows)} feature rows to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    kind = cfg["classifier"]
    if kind == "all":
        raise InvalidParameterError("train expects a single classifier, not 'all'")
    rows = [r for r in storage.read_feature_csv(args.features) if r.task == cfg["task"]]
    if not rows:
        raise InvalidParameterError(f"{args.features} holds no {cfg['task']} rows")
    dataset = dataset_from_rows(rows)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"], spawn_key=(0,)))
    balanced = smote(dataset, k=SMOTE_K, rng=rng)
    model = train(default_config(kind, seed=cfg["seed"]), balanced)
    save_model(model, args.out)
    print(f"trained {kind} on {len(balanced)} rows -> {args.out}")
    return 0


def _tag(task: str, mode: str, width: float) -> str:
    return f"{task}_w{width:g}" if mode == "stream" else task


def _report_path(out, task: str, mode: str, width: float) -> str:
    return os.path.join(out, f"report_{mode.replace('-', '_')}_{_tag(task, mode, width)}.csv")


def write_eval(corpus: Corpus, out, task: str, mode: str, kinds, seed: int, run_cfg: dict,
               n_values=None, width: float = 5.0) -> list:
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
            result = loo_stream_eval(corpus, task, config, width)
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
    cfg = _resolve(args)
    kinds = list(KINDS) if cfg["classifier"] == "all" else [cfg["classifier"]]
    n_values = _parse_n_range(cfg["n"]) if cfg["mode"] == "first-n" and cfg["n"] else None
    corpus = Corpus(storage.read_corpus(args.corpus))
    write_eval(corpus, args.out, cfg["task"], cfg["mode"], kinds, cfg["seed"],
               {"command": "eval", **cfg}, n_values, cfg["width"])
    print(f"wrote {_report_path(args.out, cfg['task'], cfg['mode'], cfg['width'])}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    model = load_model(args.model)
    session = storage.read_session_jsonl(args.session)
    events = stream_detect(model, session, cfg["width"])
    run_cfg = {"command": "detect", **cfg}
    storage.write_detections_jsonl(args.out, events, run_cfg)
    positives = sum(1 for e in events if e.predicted == 1)
    print(f"classified {len(events)} windows ({positives} flagged) -> {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
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
    storage.atomic_write(path, ("\n".join(lines) + "\n").encode())
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaze-sentinel",
        description="Gaze-dynamics failure detection pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, paths, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for path in paths:
            p.add_argument(f"--{path}", required=True)
        p.add_argument("--config", help="JSON file with default options")
        for key in keys:
            kind, _, choices, about = _OPTIONS[key]
            p.add_argument(f"--{key}", type=kind, choices=choices, help=about)
        # cmd_<name> is looked up on each call, so a wrapper installed over
        # it after import is the one that runs.
        p.set_defaults(func=globals()[f"cmd_{name}"], options=keys)
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
