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
_DECIMALS = (6, 3, 3)  # of t, x and y
_KEYS = (b'{"t":', b',"x":', b',"y":')
_FLAGS = (b"false}", b"true}\0")  # each padded to six bytes
_PAD = b"\0"  # fills a written line's unused cells; no sample line holds it


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


def atomic_write(path, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
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
    head = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    atomic_write(path, head.encode() + _sample_lines(session.gaze))


def _fixed_point(v: np.ndarray, decimals: int) -> Optional[np.ndarray]:
    """``|v|·10^decimals`` rounded to an integer as ``%.<decimals>f`` rounds
    it, half to even on the exact binary value; None unless every product is
    below 2^52, so for any NaN or infinity too."""
    a = np.abs(v)
    scale = 10.0 ** decimals  # exact, with at most 14 significant bits
    with np.errstate(over="ignore"):
        p = a * scale
    if not np.all(p < 2.0 ** 52):
        return None
    # Dekker's product, with a split into two 26-bit halves by Veltkamp's
    # method: each product below is exact, so p + e is exactly a·scale.
    c = a * 134217729.0
    hi = c - (c - a)
    e = (hi * scale - p) + (a - hi) * scale
    k = np.rint(p)
    # Below 2^52 a half-integer p is exact: only where a·scale is not does
    # the sign of e break the tie.
    tie = (p - np.floor(p) == 0.5) & (e != 0)
    k[tie] = p[tie] + np.copysign(0.5, e[tie])
    return k.astype(np.int64)


def _sample_lines(g: GazeStream) -> bytes:
    """The sample lines of ``g``, byte for byte as ``_SAMPLE_FORMAT`` formats
    them. The lines are the columns of a byte matrix: t, x and y are written
    as fixed-point integers digit by digit, right-aligned in fields as wide
    as the column's widest value, and the pad bytes left over are deleted."""
    columns = [(v, _fixed_point(v, d), d) for v, d in zip((g.t, g.x, g.y), _DECIMALS)]
    if any(k is None for _, k, _ in columns):
        return _formatted_sample_lines(g)
    template, fields = bytearray(), []
    for (v, k, d), key in zip(columns, _KEYS):
        width = len(str(int(k.max(initial=0)) // 10 ** d))
        template += key
        fields.append((len(template), width))
        template += _PAD * (1 + width) + b"." + _PAD * d
    template += b',"valid":'
    flag = len(template)
    template += _PAD * 6 + b"\n"
    lines = np.empty((len(template), len(g)), np.uint8)
    lines[:] = np.frombuffer(template, np.uint8)[:, None]
    for (v, k, d), (sign, width) in zip(columns, fields):
        lines[sign] = np.where(np.signbit(v), ord("-"), _PAD[0])
        point = sign + width + 1
        # The fraction from its last digit, then the integer part from its units.
        for cell in (*range(point + d, point, -1), *range(point - 1, sign, -1)):
            rest = k // 10  # with the product below, several times faster than divmod
            digit = k - rest * 10 + ord("0")
            lines[cell] = digit if cell >= point - 1 else np.where(k > 0, digit, _PAD[0])
            k = rest
    flags = np.frombuffer(b"".join(_FLAGS), np.uint8).reshape(2, 6).T
    lines[flag:flag + 6] = flags[:, g.valid.view(np.uint8)]
    return lines.T.tobytes().translate(None, _PAD)


def _formatted_sample_lines(g: GazeStream) -> bytes:
    """The sample lines of ``g``, formatted one sample at a time. Only a
    stream holding a value the fixed-point writer cannot hold comes here."""
    flags = ["true" if v else "false" for v in g.valid.tolist()]
    samples = map(_SAMPLE_FORMAT.__mod__,
                  zip(g.t.tolist(), g.x.tolist(), g.y.tolist(), flags))
    return "".join(samples).encode()


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
    head, body = data[:end], memoryview(data)[end:]
    columns = _parse_sample_lines(body) if body and b"\r" not in head else None
    if columns is not None:
        try:
            header = _parse_session_header(head.decode("utf-8"), path)
        except UnicodeDecodeError:
            raise MalformedStreamError(f"{path} is not UTF-8 text") from None
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


def _parse_sample_lines(body) -> Optional[tuple]:
    """Columns t, x, y, valid of ``body`` (bytes or a view of them) if it is
    made only of the writer's sample lines, else None.

    A line is accepted only as the writer forms it: its literals, and t, x
    and y as ``-?(0|[1-9][0-9]*)`` with exactly 6, 3 and 3 decimals and
    fewer than 2^53 units of the last decimal. The newline and the three
    points of each line fix where its literals must be; one count of the
    body's digits then shows that every other byte of a number is a digit.
    A number is the exact integer ``k`` of its digits over ``10^decimals``:
    with ``k < 2^53`` one IEEE division rounds it correctly, as
    ``json.loads`` does.
    """
    # A line cut short puts the last word read below up to 18 bytes past the
    # body; the pads keep every read inside ``data``.
    pad = bytes(24)
    data = b"".join((pad, body, pad))
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    points = np.flatnonzero(buf == ord("."))
    n = len(ends)
    if body[-1:] != b"\n" or len(points) != 3 * n:
        return None
    points = points.reshape(n, 3).T
    # The little-endian word of the eight bytes from each offset of ``data``.
    words = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))

    def holds(word, literal: bytes):
        return word & (1 << 8 * len(literal)) - 1 == int.from_bytes(literal, "little")

    at = np.concatenate(([len(pad)], ends[:-1] + 1))  # each line's first byte
    ok, numbers = True, []
    for key, point, d in zip(_KEYS, points, _DECIMALS):
        ok &= holds(words[at], key)
        first = at + len(key)
        minus = buf[first] == ord("-")
        length = point - first - minus
        # At most 16 digits in all, so that no k overflows 64 bits.
        ok &= (length >= 1) & (length <= 16 - d)
        ok &= (buf[first + minus] != ord("0")) | (length == 1)
        numbers.append((point, length, d, minus))
        at = point + d + 1
    flag = at + len(b',"valid"')
    word = words[flag]
    true = holds(word, b":true}\n") & (ends == flag + 6)
    ok &= holds(words[at], b',"valid"') & (true | holds(word, b":false}\n") & (ends == flag + 7))
    expected = sum(int(length.sum()) for _, length, _, _ in numbers) + sum(_DECIMALS) * n
    digits = np.count_nonzero(buf - np.uint8(ord("0")) < 10)  # bytes below "0" wrap past 9
    if not ok.all() or digits != expected:
        return None
    columns = [_decimal(buf, *number) for number in numbers]
    if any(column is None for column in columns):
        return None
    return (*columns, true)


def _decimal(buf, point, length, decimals, minus) -> Optional[np.ndarray]:
    """The numbers whose point is at ``point``, with ``length`` integer
    digits and ``decimals`` decimals, negated where ``minus``; None if one
    has 2^53 or more units of its last decimal."""
    k = np.zeros(len(point), np.uint64)
    # The digits from the last decimal to the highest integer digit, as the
    # writer writes them.
    offsets = (*range(decimals, 0, -1), *range(-1, -1 - int(length.max()), -1))
    shortest = int(length.min())
    for power, offset in enumerate(offsets):
        digit = buf[point + offset] - np.uint8(ord("0"))
        if -offset > shortest:
            digit[length < -offset] = 0
        k += digit * np.uint64(10 ** power)
    if not np.all(k < 2 ** 53):
        return None
    value = k.astype(np.float64) / 10.0 ** decimals
    return np.where(minus, -value, value)


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
    atomic_write(os.path.join(out_dir, "manifest.json"),
                 (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode())
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
    atomic_write(path, ("\n".join(lines) + "\n").encode())


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
    atomic_write(path, ("\n".join(lines) + "\n").encode())


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
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def write_detections_jsonl(path, detections, config: Optional[dict] = None) -> None:
    header = {
        "kind": "detections",
        "schema": 1,
        "provenance": provenance(config),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    # Each record holds the fields of one ``DetectionEvent``.
    lines += (json.dumps(vars(d), sort_keys=True, separators=(",", ":")) for d in detections)
    atomic_write(path, ("\n".join(lines) + "\n").encode())
