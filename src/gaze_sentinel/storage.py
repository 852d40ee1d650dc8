"""On-disk formats: session JSONL, feature CSV, report CSV, and detection
JSONL.

Every output embeds the tool version, the resolved run configuration, and
its fingerprint, and is written atomically (temp file + rename). Formatting
is deterministic, so equal configurations produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile
from typing import Optional

import numpy as np

from . import __version__
from .core import (
    AoiLabel,
    AoiLayout,
    GazeStream,
    Rect,
    RobotEvent,
    Session,
    Timeline,
)
from .errors import GazeSentinelError, InvalidParameterError, MalformedStreamError
from .evaluate import TASKS, SegmentRow
from .features import FEATURE_NAMES, FEATURE_SCHEMA_VERSION
from .learners import config_fingerprint

SESSION_SCHEMA_VERSION = 1

# The writer's own sample line. A number is a strict subset of JSON's number
# grammar (no exponent, no bare "1." or "01.5"), so a body made only of these
# lines parses to exactly what ``json.loads`` would give it, line by line.
_SAMPLE_FORMAT = '{"t":%.6f,"x":%.3f,"y":%.3f,"valid":%s}\n'
_NUMBER = rb"-?(?:0|[1-9][0-9]*)\.[0-9]+"
_SAMPLE_LINE = re.compile(
    rb'\{"t":%s,"x":%s,"y":%s,"valid":(?:true|false)\}\n' % (_NUMBER, _NUMBER, _NUMBER))
# Translating a body of such lines turns each into "t x y  ": separators
# become spaces and every other byte that is not part of a number is deleted.
# Deleting all but "u" and "s" leaves one byte a line, the "u" of "true" or
# the "s" of "false": no key holds either letter.
_SEPARATORS = bytes.maketrans(b",\n", b"  ")
_NOT_NUMBERS = b'{}":txyvalidruefs'
_NOT_FLAGS = bytes(b for b in range(256) if b not in b"us")


@contextlib.contextmanager
def decoding(error, where: str):
    """Raise any fault in decoding input inside the block (a RecursionError
    is JSON nested too deep) as ``error`` with a message that names
    ``where``; a fault that already is an ``error`` keeps its type."""
    try:
        yield
    except error as exc:
        raise type(exc)(f"{where}: {exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError, IndexError, OverflowError,
            RecursionError, GazeSentinelError) as exc:
        raise error(f"{where}: {type(exc).__name__}: {exc}") from None


def read_json(path, error, what: str) -> dict:
    """The JSON object in file ``path``. A file that is not UTF-8 JSON (or is
    nested too deep) or holds no object raises ``error`` naming ``what`` and
    the path; an ``OSError`` propagates."""
    with open(path, encoding="utf-8") as fh, decoding(error, f"{what} {path}"):
        data = json.load(fh)
        if not isinstance(data, dict):
            raise TypeError(f"holds a {type(data).__name__}, not a JSON object")
    return data


def _fmt(value: float) -> str:
    return repr(float(value))


def atomic_write_text(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def provenance(config: Optional[dict]) -> dict:
    """The tool version, the run configuration and its fingerprint, as every
    output records them."""
    config = config or {}
    return {"tool_version": __version__, "fingerprint": config_fingerprint(config),
            "config": config}


def provenance_lines(config: Optional[dict]) -> list:
    p = provenance(config)
    return [
        f"# gaze-sentinel {p['tool_version']}",
        f"# fingerprint={p['fingerprint']}",
        f"# config={json.dumps(p['config'], sort_keys=True, separators=(',', ':'))}",
    ]


def write_session_jsonl(session: Session, path, config: Optional[dict] = None) -> None:
    header = {
        "schema": SESSION_SCHEMA_VERSION,
        "kind": "session",
        "participant": session.participant_id,
        "puzzle": session.puzzle_id,
        "duration": session.timeline.duration,
        "failure_type": session.timeline.failure_type,
        "failure_piece": session.timeline.failure_piece,
        "layout": [
            [lbl.token, rect.x0, rect.y0, rect.x1, rect.y1]
            for lbl, rect in session.layout.entries
        ],
        "timeline": [
            [e.kind, e.piece, e.t, e.failure_type]
            for e in session.timeline.events
        ],
        "provenance": provenance(config),
    }
    g = session.gaze
    flags = ["true" if v else "false" for v in g.valid.tolist()]
    samples = map(_SAMPLE_FORMAT.__mod__,
                  zip(g.t.tolist(), g.x.tolist(), g.y.tolist(), flags))
    atomic_write_text(path, json.dumps(header, sort_keys=True, separators=(",", ":"))
                      + "\n" + "".join(samples))


def _parse_session_header(line: str, path) -> dict:
    with decoding(MalformedStreamError, f"{path}, line 1"):
        header = json.loads(line)
        if not isinstance(header, dict) or header.get("kind") != "session":
            raise MalformedStreamError("not a session header")
        if header.get("schema") != SESSION_SCHEMA_VERSION:
            raise MalformedStreamError(f"unsupported session schema {header.get('schema')!r}")
    return header


def session_from_header(header: dict, gaze: GazeStream) -> Session:
    layout = AoiLayout(
        entries=tuple(
            (AoiLabel.from_token(token), Rect(x0, y0, x1, y1))
            for token, x0, y0, x1, y1 in header["layout"]
        )
    )
    events = tuple(
        RobotEvent(kind, piece, t, failure_type=ft)
        for kind, piece, t, ft in header["timeline"]
    )
    timeline = Timeline(
        events=events,
        duration=header["duration"],
        failure_type=header.get("failure_type"),
        failure_piece=header.get("failure_piece"),
    )
    return Session(
        participant_id=header["participant"],
        puzzle_id=header["puzzle"],
        gaze=gaze,
        layout=layout,
        timeline=timeline,
    )


def read_session_jsonl(path) -> Session:
    """Read a session file, failing closed.

    A body made only of the writer's own sample lines is parsed in bulk;
    any other body is read line by line (``_read_session_lines``), with the
    same result, so that reader alone reports malformed lines.

    A sample line that does not parse or lacks one of ``t``, ``x``, ``y``,
    ``valid`` raises ``MalformedStreamError`` with the path and its 1-based
    line number. A last line cut mid-record (a file still being written) is
    such a line: a truncated session is an error, not a shorter session.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"\n") + 1
    head, body = data[:end], data[end:]
    # Checked with sub, not fullmatch on a repeated group: fullmatch keeps
    # backtracking state for every line, about 25 MB for a 1.9 MB session.
    if body and b"\r" not in head and not _SAMPLE_LINE.sub(b"", body):
        try:
            header = _parse_session_header(head.decode("utf-8"), path)
        except UnicodeDecodeError:
            raise MalformedStreamError(f"{path} is not UTF-8 text") from None
        columns = _parse_sample_lines(body)
    else:
        header, columns = _read_session_lines(data, path)
    return _session(path, header, columns)


def _session(path, header: dict, columns: tuple) -> Session:
    """The session of a parsed file; any fault in its samples, layout or
    timeline raises ``MalformedStreamError`` naming the path."""
    t, x, y, valid = columns
    with decoding(MalformedStreamError, f"malformed session {path}"):
        gaze = GazeStream(t=np.array(t, dtype=np.float64), x=np.array(x, dtype=np.float64),
                          y=np.array(y, dtype=np.float64), valid=np.array(valid, dtype=bool))
        return session_from_header(header, gaze)


def _parse_sample_lines(body: bytes) -> tuple:
    """Columns t, x, y, valid of a body of the writer's sample lines, all
    numbers parsed by one numpy call."""
    numbers = np.fromstring(body.translate(_SEPARATORS, _NOT_NUMBERS),
                            dtype=np.float64, sep=" ").reshape(-1, 3)
    flags = np.frombuffer(body.translate(None, _NOT_FLAGS), dtype=np.uint8)
    return numbers[:, 0], numbers[:, 1], numbers[:, 2], flags == ord("u")


def _read_session_lines(data: bytes, path) -> tuple:
    """The header and the sample columns of a session file's bytes ``data``,
    read as text mode reads the file (UTF-8, universal newlines), one
    ``json.loads`` per line."""
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
            header = _parse_session_header(fh.readline(), path)
            t, x, y, valid = [], [], [], []
            for number, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    t.append(rec["t"])
                    x.append(rec["x"])
                    y.append(rec["y"])
                    valid.append(rec["valid"])
                except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
                    raise MalformedStreamError(
                        f"{path}, line {number}: malformed gaze sample "
                        f"({type(exc).__name__}: {exc})"
                    ) from None
    except UnicodeDecodeError:
        raise MalformedStreamError(f"{path} is not UTF-8 text") from None
    return header, (t, x, y, valid)


def session_filename(participant: int, puzzle: int) -> str:
    return f"session_p{participant:03d}_z{puzzle}.jsonl"


def write_corpus(sessions, out_dir, config: Optional[dict] = None) -> list:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for session in sessions:
        path = os.path.join(
            out_dir, session_filename(session.participant_id, session.puzzle_id)
        )
        write_session_jsonl(session, path, config)
        paths.append(path)
    manifest = {
        "kind": "corpus",
        "schema": SESSION_SCHEMA_VERSION,
        "sessions": [os.path.basename(p) for p in paths],
        "provenance": provenance(config),
    }
    atomic_write_text(
        os.path.join(out_dir, "manifest.json"),
        json.dumps(manifest, sort_keys=True, indent=1) + "\n",
    )
    return paths


def corpus_paths(corpus_dir) -> list:
    """The session files ``manifest.json`` lists, or without one every
    ``.jsonl`` file. A manifest that does not parse, or is not an object
    with a ``sessions`` list of file names, raises ``MalformedStreamError``
    naming it."""
    manifest_path = os.path.join(corpus_dir, "manifest.json")
    if os.path.exists(manifest_path):
        names = read_json(manifest_path, MalformedStreamError, "corpus manifest").get("sessions")
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise MalformedStreamError(
                f"corpus manifest {manifest_path} holds no sessions list of file names")
        return [os.path.join(corpus_dir, name) for name in names]
    return sorted(
        os.path.join(corpus_dir, name)
        for name in os.listdir(corpus_dir)
        if name.endswith(".jsonl")
    )


def read_corpus(corpus_dir) -> list:
    paths = corpus_paths(corpus_dir)
    if not paths:
        raise InvalidParameterError(f"no session files found in {corpus_dir}")
    return [read_session_jsonl(p) for p in paths]


_FEATURE_CSV_HEADER = ("task", "participant", "puzzle", "piece", "label", "t0", "t1",
                       *FEATURE_NAMES)


def write_feature_csv(rows, path, config: Optional[dict] = None) -> None:
    """One line per task row (``Corpus.segment_rows``): the task, the slice
    it was measured over, and its features."""
    lines = provenance_lines(config)
    lines.append(f"# feature_schema={FEATURE_SCHEMA_VERSION}")
    lines.append(",".join(_FEATURE_CSV_HEADER))
    for r in rows:
        values = ",".join(_fmt(v) for v in r.features)
        lines.append(
            f"{r.task},{r.participant},{r.puzzle},{r.piece},{r.label},"
            f"{_fmt(r.t0)},{_fmt(r.t1)},{values}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def _csv_rows(path, header: tuple, what: str):
    """(1-based line number, fields) of each row of a CSV table under
    ``header``, skipping blank and ``#`` lines. A file that is not UTF-8
    text, another header, or a row without exactly the header's fields
    raises ``InvalidParameterError`` with the path (and the line number)."""
    with open(path, encoding="utf-8") as fh, decoding(InvalidParameterError, path):
        lines = fh.readlines()
    seen_header = False
    for number, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if not seen_header:
            if tuple(parts) != header:
                raise InvalidParameterError(f"unexpected {what} CSV header in {path}")
            seen_header = True
        elif len(parts) != len(header):
            raise InvalidParameterError(
                f"{path}, line {number}: {len(parts)} fields, expected {len(header)}")
        else:
            yield number, parts


def read_feature_csv(path) -> list:
    """Rows of a feature table; a header other than the writer's, a row
    without exactly its fields, a number that does not parse or is not
    finite, a task not in ``TASKS``, a label other than ``NF`` and its
    task's failure type, or ``t1 <= t0`` raises ``InvalidParameterError``
    with the path and the 1-based line number, and a file that is not UTF-8
    text raises it with the path."""
    rows = []
    for number, parts in _csv_rows(path, _FEATURE_CSV_HEADER, "feature"):
        with decoding(InvalidParameterError, f"{path}, line {number}"):
            row = SegmentRow(
                task=parts[0],
                participant=int(parts[1]),
                puzzle=int(parts[2]),
                piece=int(parts[3]),
                label=parts[4],
                t0=float(parts[5]),
                t1=float(parts[6]),
                features=np.array([float(v) for v in parts[7:]]),
            )
            finite = np.isfinite([row.t0, row.t1, *row.features])
            if not finite.all():
                field = 5 + int(np.argmin(finite))
                raise ValueError(f"{_FEATURE_CSV_HEADER[field]} is {parts[field]}, "
                                 f"not a finite number")
            if row.task not in TASKS:
                raise ValueError(f"unknown task {row.task!r}")
            if row.label not in ("NF", TASKS[row.task]):
                raise ValueError(f"label {row.label!r} is neither NF nor {TASKS[row.task]}")
            if not row.t1 > row.t0:
                raise ValueError(f"slice [{row.t0}, {row.t1}] is empty")
        rows.append(row)
    if not rows:
        raise InvalidParameterError(f"feature CSV {path} holds no rows")
    return rows


_REPORT_CSV_HEADER = "task,classifier,n_or_width,fold,accuracy,recall"


def write_report_csv(path, entries, config: Optional[dict] = None) -> None:
    """entries: iterable of (task, classifier, n_or_width, EvalReport)."""
    lines = provenance_lines(config)
    lines.append(_REPORT_CSV_HEADER)

    def fmt_recall(value) -> str:
        return "" if value is None else _fmt(value)

    for task, classifier, n_or_width, report in entries:
        for fold in report.folds:
            lines.append(
                f"{task},{classifier},{n_or_width},{fold.participant},"
                f"{_fmt(fold.accuracy)},{fmt_recall(fold.recall)}"
            )
        lines.append(
            f"{task},{classifier},{n_or_width},pooled,"
            f"{_fmt(report.accuracy)},{fmt_recall(report.recall)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_report_csv(path) -> list:
    """Rows of a report table; a header other than the writer's, a row
    without exactly its six fields, or an accuracy or recall that is not a
    number raises ``InvalidParameterError`` with the path and the 1-based
    line number, and a file that is not UTF-8 text raises it with the
    path."""
    rows = []
    for number, parts in _csv_rows(path, tuple(_REPORT_CSV_HEADER.split(",")), "report"):
        task, classifier, n_or_width, fold, accuracy, recall = parts
        with decoding(InvalidParameterError, f"{path}, line {number}"):
            rows.append({
                "task": task,
                "classifier": classifier,
                "n_or_width": n_or_width,
                "fold": fold,
                "accuracy": float(accuracy),
                "recall": float(recall) if recall else None,
            })
    return rows


def write_offsets_csv(path, entries, config: Optional[dict] = None) -> None:
    """entries: iterable of (task, classifier, width, offset_s, pct_detected)."""
    lines = provenance_lines(config)
    lines.append("task,classifier,width,offset_s,pct_detected")
    for task, classifier, width, offset, pct in entries:
        lines.append(f"{task},{classifier},{_fmt(width)},{offset},{_fmt(pct)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_detections_jsonl(path, detections, config: Optional[dict] = None) -> None:
    header = {
        "kind": "detections",
        "schema": 1,
        "provenance": provenance(config),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    # Each record holds the fields of one ``DetectionEvent``.
    lines += (json.dumps(vars(d), sort_keys=True, separators=(",", ":")) for d in detections)
    atomic_write_text(path, "\n".join(lines) + "\n")
