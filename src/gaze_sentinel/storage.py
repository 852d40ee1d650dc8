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

from . import __version__, fields
from .core import (
    AoiLabel,
    AoiLayout,
    GazeStream,
    Rect,
    RobotEvent,
    Session,
    Timeline,
)
from .errors import (GazeSentinelError, InvalidParameterError, MalformedStreamError,
                     MalformedTimelineError)
from .evaluate import TASKS, TaskTable
from .features import FEATURE_NAMES, FEATURE_SCHEMA_VERSION
from .learners import config_fingerprint

SESSION_SCHEMA_VERSION = 1
# ``json.dumps(..., sort_keys=True, separators=(",", ":"))``, built once.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# A sample line is {"t":%.6f,"x":%.3f,"y":%.3f,"valid":true|false}. Its numbers
# are a strict subset of JSON's (no exponent, no bare "1." or "01.5"), so such
# lines parse to exactly what ``json.loads`` would give them, line by line.
_DECIMALS = (6, 3, 3)  # of t, x and y
_KEYS = (b'{"t":', b',"x":', b',"y":')
_FLAGS = (b"false}", b"true}\0")  # each padded to six bytes
_PAD = b"\0"  # fills a written line's unused cells; no sample line holds it
# A session may go at most this long without a sample: before its first one,
# between two, and from its last one (from 0 s without samples) to the end of
# its duration. Every window inside a longer gap would hold no gaze, and a
# huge gap would ask for more windows than memory holds.
MAX_TAIL_S = 60.0
# Little-endian words of the reader: "0" in every byte, and ``_LAST[m]``,
# the mask of a word's last m bytes.
_ZEROS = int.from_bytes(b"0" * 8, "little")
_LAST = np.array([(1 << 64) - (1 << 8 * (8 - m)) for m in range(9)], np.uint64)


@contextlib.contextmanager
def decoding(error, where: str):
    """Raise any fault in decoding input inside the block (a RecursionError
    is JSON nested too deep) as ``error`` with a message that names
    ``where``; a fault that already is an ``error`` keeps its type, and a
    ``FieldError``'s message is kept without its type name."""
    try:
        yield
    except fields.FieldError as exc:
        raise error(f"{where}: {exc}") from None
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
        f"# config={_COMPACT.encode(p['config'])}",
    ]


def write_session_jsonl(session: Session, path, config: Optional[dict] = None) -> None:
    """Write ``session`` to ``path`` atomically. A gaze t, x or y that the
    reader refuses (NaN or infinite), or of 2^52 units of its last written
    digit or more, raises before anything is written."""
    for name, decimals in zip(("t", "x", "y"), _DECIMALS):
        with np.errstate(over="ignore"):
            units = np.abs(getattr(session.gaze, name)) * 10.0 ** decimals
        if not np.all(units < 2.0 ** 52):  # NaN fails too
            raise InvalidParameterError(f"participant {session.participant_id} puzzle "
                                        f"{session.puzzle_id}: gaze {name} is not a finite "
                                        f"number below 2^52 / 10^{decimals}, so {path} is "
                                        f"not written")
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
    head = _COMPACT.encode(header) + "\n"
    atomic_write(path, head.encode() + _sample_lines(session.gaze))


def _fixed_point(v: np.ndarray, decimals: int) -> np.ndarray:
    """``|v|·10^decimals``, each below 2^52, rounded to an integer as
    ``%.<decimals>f`` rounds it, half to even on the exact binary value."""
    a = np.abs(v)
    scale = 10.0 ** decimals  # exact, with at most 14 significant bits
    p = a * scale
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
    """The sample lines of ``g``, byte for byte in the format above. The
    lines are the columns of a byte matrix: t, x and y are written as
    fixed-point integers digit by digit, right-aligned in fields as wide as
    the column's widest value, and the pad bytes left over are deleted."""
    columns = [(v, _fixed_point(v, d), d) for v, d in zip((g.t, g.x, g.y), _DECIMALS)]
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


def _parse_session_header(line: str, path) -> dict:
    """The header on line 1 of session file ``path``, its ``layout`` and
    ``timeline`` read into an ``AoiLayout`` and a ``Timeline``; any fault
    raises ``MalformedStreamError`` naming the path and line 1."""
    with decoding(MalformedStreamError, f"{path}, line 1"):
        header = json.loads(line)
        if not isinstance(header, dict) or header.get("kind") != "session":
            raise MalformedStreamError("not a session header")
        schema = header.get("schema")
        if not fields.holds(schema, "an integer") or schema != SESSION_SCHEMA_VERSION:
            raise MalformedStreamError(f"unsupported session schema {schema!r}")
        for key in ("participant", "puzzle"):
            fields.read(header.get(key), key, "an integer of at least 1")
        header["layout"] = AoiLayout(entries=tuple(
            (AoiLabel.from_token(token),
             Rect(*(fields.read(v, f"{token} corner", "a finite number") for v in corners)))
            for token, *corners in header["layout"]))
        events = tuple(
            RobotEvent(kind, fields.read(piece, f"{kind} piece", "in 1..4"),
                       fields.read(t, f"{kind} time", "a finite number"), failure_type=ft)
            for kind, piece, t, ft in header["timeline"])
        piece = header.get("failure_piece")
        header["timeline"] = Timeline(
            events, fields.read(header["duration"], "duration", "a finite number"),
            header.get("failure_type"),
            None if piece is None else fields.read(piece, "failure_piece", "in 1..4"))
    return header


def session_from_header(header: dict, gaze: GazeStream) -> Session:
    return Session(participant_id=header["participant"], puzzle_id=header["puzzle"],
                   gaze=gaze, layout=header["layout"], timeline=header["timeline"])


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
    """The session of a parsed file; any fault in its samples, or a gap of
    more than ``MAX_TAIL_S`` without a sample, raises ``MalformedStreamError``
    naming the path."""
    t, x, y, valid = columns
    with decoding(MalformedStreamError, f"malformed session {path}"):
        gaze = GazeStream(t=np.asarray(t, dtype=np.float64), x=np.asarray(x, dtype=np.float64),
                          y=np.asarray(y, dtype=np.float64), valid=np.asarray(valid, dtype=bool))
        session = session_from_header(header, gaze)
        t = np.append(0.0, gaze.t)
        if not session.timeline.duration <= t[-1] + MAX_TAIL_S:
            raise MalformedTimelineError(
                f"duration {session.timeline.duration!r} ends more than {MAX_TAIL_S:g} s "
                f"after the last sample, at {float(t[-1])!r}")
        gap = np.flatnonzero(~(t[1:] <= t[:-1] + MAX_TAIL_S))
        if gap.size:
            a, b = t[gap[0]:gap[0] + 2].tolist()
            raise MalformedTimelineError(
                f"no sample for more than {MAX_TAIL_S:g} s, from {a!r} to {b!r}")
        return session


def _parse_sample_lines(body) -> Optional[tuple]:
    """Columns t, x, y, valid of ``body`` (bytes or a view of them) if it is
    made only of the writer's sample lines, else None.

    A line is accepted only as the writer forms it: its literals, and t, x
    and y as ``-?(0|[1-9][0-9]*)`` with exactly 6, 3 and 3 decimals, at most
    16 digits and fewer than 2^53 units of the last decimal. The body's
    points fix where each line's numbers and literals must be: a line ends
    after its y's decimals with its valid literal, and the next one starts
    there. A number is the exact integer ``k`` of its digits over
    ``10^decimals``: with ``k < 2^53`` one IEEE division rounds it
    correctly, as ``json.loads`` does.
    """
    # Reads below reach up to 16 bytes before the body and, where a line is
    # cut short, up to 24 past it; the pads keep them inside ``data``.
    pad = bytes(32)
    data = b"".join((pad, body, pad))
    points = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("."))
    if not points.size or points.size % 3:
        return None
    # A line ends after y's decimals with ,"valid":true}\n or ,"valid":false}\n.
    after = points[2::3] + _DECIMALS[2] + 1
    literal, flag = _words(data, after, 2)
    true = _holds(flag, b":true}\n")
    ok = _holds(literal, b',"valid"') & (true | _holds(flag, b":false}\n"))
    end = after + 15 - true  # each line's newline
    if end[-1] != len(data) - len(pad) - 1:
        return None
    at = np.concatenate(([len(pad)], end[:-1] + 1))  # each line's first byte
    numbers = []
    for j, (key, decimals) in enumerate(zip(_KEYS, _DECIMALS)):
        point = points[j::3]
        # The word at the key also holds the first bytes of its number.
        (word,) = _words(data, at, 1)
        minus = (word >> 8 * len(key) & 0xFF) == ord("-")
        lead = np.where(minus, word >> 8 * len(key) + 8, word >> 8 * len(key)) & 0xFF
        length = point - at - len(key) - minus  # integer digits
        ok &= _holds(word, key) & (length >= 1) & (length <= 16 - decimals)
        ok &= (lead != ord("0")) | (length == 1)
        numbers.append((point, length, minus, decimals))
        at = point + decimals + 1
    if not ok.all():
        return None
    columns = [_decimal(data, *number) for number in numbers]
    if any(column is None for column in columns):
        return None
    return (*columns, true)


def _words(data: bytes, at, count: int) -> np.ndarray:
    """The ``count`` little-endian 8-byte words from each offset ``at`` of
    ``data``, one row per word: the bytes of each offset are read at once."""
    rows = np.ndarray((len(data) - 8 * count + 1,), f"V{8 * count}", data, strides=(1,))
    return rows[at].view("<u8").reshape(-1, count).T


def _holds(word, literal: bytes):
    """Whether each little-endian ``word`` starts with the bytes ``literal``."""
    return word & (1 << 8 * len(literal)) - 1 == int.from_bytes(literal, "little")


def _digits(word, count):
    """The number of the ``count`` digits that end each ``word``, and a
    nonzero flag where one of those bytes is not a digit."""
    x = (word ^ _ZEROS) & _LAST[count]
    # Each byte is now a digit's value, or above 9 where a digit was not.
    bad = (x | x + 0x7676767676767676) & 0x8080808080808080
    # Eight digits into one number, as simdjson does: pairs, fours, then all.
    x = (x * 2561 >> 8) & 0x00FF00FF00FF00FF
    x = (x * 6553601 >> 16) & 0x0000FFFF0000FFFF
    return x * 42949672960001 >> 32, bad


def _decimal(data, point, length, minus, decimals) -> Optional[np.ndarray]:
    """The numbers whose point is at offset ``point`` of ``data``, with
    ``length`` integer digits and ``decimals`` decimals, negated where
    ``minus``; None if a byte among their digits is not one, or one has 2^53
    or more units of its last decimal. The 24 bytes from 16 before each
    point hold all its digits: the last eight, the point left out, make one
    word, and the integer digits before them another."""
    before, last, after = _words(data, point - 16, 3)
    # high: the 8 bytes that end 8 - decimals before the point; low: the last
    # 8 - decimals bytes before the point, then the decimals after it.
    high = before >> 8 * decimals | last << 8 * (8 - decimals)
    low = last >> 8 * decimals | after >> 8 << 8 * (8 - decimals)
    lows = np.minimum(length, 8 - decimals)
    high, bad = _digits(high, length - lows)
    low, bad_low = _digits(low, lows + decimals)
    if (bad | bad_low).any():
        return None
    k = high * 10 ** 8 + low
    if not np.all(k < 2 ** 53):
        return None
    value = k.astype(np.float64) / 10.0 ** decimals
    return np.negative(value, out=value, where=minus)


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


def write_manifest(out_dir, names, config: Optional[dict] = None) -> None:
    """``out_dir``'s ``manifest.json``, listing its session files ``names``."""
    manifest = {
        "kind": "corpus",
        "schema": SESSION_SCHEMA_VERSION,
        "sessions": list(names),
        "provenance": provenance(config),
    }
    atomic_write(os.path.join(out_dir, "manifest.json"),
                 (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode())


def corpus_paths(corpus_dir) -> list:
    """The session files ``manifest.json`` lists, or without one every
    ``.jsonl`` file. A manifest that does not parse, or is not an object
    with a ``sessions`` list of file names, raises ``MalformedStreamError``
    naming it; no files at all raise ``InvalidParameterError``."""
    manifest_path = os.path.join(corpus_dir, "manifest.json")
    if os.path.exists(manifest_path):
        names = read_json(manifest_path, MalformedStreamError, "corpus manifest").get("sessions")
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise MalformedStreamError(
                f"corpus manifest {manifest_path} holds no sessions list of file names")
        paths = [os.path.join(corpus_dir, name) for name in names]
    else:
        paths = sorted(os.path.join(corpus_dir, name) for name in os.listdir(corpus_dir)
                       if name.endswith(".jsonl"))
    if not paths:
        raise InvalidParameterError(f"no session files found in {corpus_dir}")
    return paths


def refuse_duplicates(paths, keys) -> None:
    """Raise ``MalformedStreamError`` naming both files when two of ``paths``
    hold one (participant, puzzle) of ``keys``, their sessions' keys."""
    seen: dict = {}
    for path, key in zip(paths, keys):
        if key in seen:
            raise MalformedStreamError(f"{seen[key]} and {path} both hold participant "
                                       f"{key[0]} puzzle {key[1]}")
        seen[key] = path


def read_corpus(corpus_dir) -> list:
    """The sessions of ``corpus_paths``, refusing duplicates (see
    ``refuse_duplicates``)."""
    paths = corpus_paths(corpus_dir)
    sessions = [read_session_jsonl(p) for p in paths]
    refuse_duplicates(paths, [(s.participant_id, s.puzzle_id) for s in sessions])
    return sessions


# A CSV table's columns in order, each with the rule (a key of
# ``fields.RULES``) its cells are read by, or None for text: the writer
# writes them as its header and the reader reads each row by them.
_FEATURE_COLUMNS = {"task": None, "participant": "an integer of at least 1",
                    "puzzle": "an integer of at least 1", "piece": "in 1..4", "label": None,
                    **dict.fromkeys(("t0", "t1", *FEATURE_NAMES), "a finite number")}
_REPORT_COLUMNS = {"task": None, "classifier": None, "n_or_width": None, "fold": None,
                   "accuracy": "a number in [0, 1]", "recall": "a number in [0, 1]"}


def write_feature_csv(tables, path, config: Optional[dict] = None) -> None:
    """One line per row of each ``TaskTable`` of ``tables`` in turn: the
    task, the slice it was measured over, and its features."""
    lines = provenance_lines(config)
    lines.append(f"# feature_schema={FEATURE_SCHEMA_VERSION}")
    lines.append(",".join(_FEATURE_COLUMNS))
    for table in tables:
        labels = ("NF", TASKS[table.task])
        columns = (table.participant, table.puzzle, table.piece, table.y, table.t0, table.t1)
        lines.extend(f"{table.task},{p},{z},{piece},{labels[y]},{_fmt(t0)},{_fmt(t1)},"
                     + ",".join(map(_fmt, x)) for p, z, piece, y, t0, t1, x in zip(
                         *(c.tolist() for c in columns), table.X.tolist()))
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def _csv_rows(path, columns: dict, what: str, optional=()):
    """(1-based line number, values) of each row of a CSV table of
    ``columns``, skipping blank and ``#`` lines: each cell read by its
    column's rule, an empty cell of an ``optional`` column as None. A file
    that is not UTF-8 text, another header, a row without exactly the
    header's fields or a cell outside its rule raises
    ``InvalidParameterError`` with the path (and the line number)."""
    with open(path, encoding="utf-8") as fh, decoding(InvalidParameterError, path):
        lines = fh.readlines()
    header, seen_header = list(columns), False
    for number, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if not seen_header:
            if parts != header:
                raise InvalidParameterError(f"unexpected {what} CSV header in {path}")
            seen_header = True
        elif len(parts) != len(header):
            raise InvalidParameterError(
                f"{path}, line {number}: {len(parts)} fields, expected {len(header)}")
        else:
            with decoding(InvalidParameterError, f"{path}, line {number}"):
                values = [None if not cell and name in optional
                          else cell if rule is None else fields.parse(cell, name, rule)
                          for (name, rule), cell in zip(columns.items(), parts)]
            yield number, values


def read_feature_csv(path) -> dict:
    """The ``TaskTable`` of each task a feature table holds rows of, by
    task in ``TASKS`` order; a header other than the writer's, a row
    without exactly its fields, a cell outside its column's rule (a
    participant or puzzle that is not a JSON integer of at least 1 or is
    past 64 bits, a piece outside 1..4, a t0, t1 or feature that is not a
    finite JSON number), a task not in ``TASKS``, a label other than ``NF``
    and its task's failure type, or ``t1 <= t0`` raises
    ``InvalidParameterError`` with the path and the 1-based line number, and
    a file that is not UTF-8 text raises it with the path."""
    ids: dict = {task: [] for task in TASKS}
    values: dict = {task: [] for task in TASKS}
    for number, (task, participant, puzzle, piece, label, *numbers) in _csv_rows(
            path, _FEATURE_COLUMNS, "feature"):
        with decoding(InvalidParameterError, f"{path}, line {number}"):
            if task not in TASKS:
                raise ValueError(f"unknown task {task!r}")
            if label not in ("NF", TASKS[task]):
                raise ValueError(f"label {label!r} is neither NF nor {TASKS[task]}")
            if not numbers[1] > numbers[0]:
                raise ValueError(f"slice [{numbers[0]}, {numbers[1]}] is empty")
            ids[task].append(np.array([participant, puzzle, piece, label != "NF"], np.int64))
            values[task].append(numbers)
    tables = {task: TaskTable(task, *np.transpose(ids[task]), *np.transpose(values[task])[:2],
                              np.array(values[task])[:, 2:]) for task in TASKS if ids[task]}
    if not tables:
        raise InvalidParameterError(f"feature CSV {path} holds no rows")
    return tables


def write_report_csv(path, entries, config: Optional[dict] = None) -> None:
    """entries: iterable of (task, classifier, n_or_width, EvalReport)."""
    lines = provenance_lines(config)
    lines.append(",".join(_REPORT_COLUMNS))

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
    without exactly its six fields, or an accuracy or non-empty recall that
    is not a JSON number in [0, 1] raises ``InvalidParameterError`` with
    the path and the 1-based line number, and a file that is not UTF-8 text
    raises it with the path."""
    return [dict(zip(_REPORT_COLUMNS, values)) for _, values
            in _csv_rows(path, _REPORT_COLUMNS, "report", optional=("recall",))]


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
    lines = [_COMPACT.encode(header)]
    # Each record holds the fields of one ``DetectionEvent``.
    lines += map(_COMPACT.encode, map(vars, detections))
    atomic_write(path, ("\n".join(lines) + "\n").encode())
