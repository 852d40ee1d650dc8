import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import read_session_header
from gaze_sentinel import storage
from gaze_sentinel.core import AoiLabel, AoiLayout, GazeStream, Rect, Session, Timeline
from gaze_sentinel.errors import (
    GazeSentinelError,
    InvalidParameterError,
    MalformedStreamError,
)
from gaze_sentinel.evaluate import TaskTable
from gaze_sentinel.features import FEATURE_NAMES
from gaze_sentinel.sim import CorpusSpec, generate_corpus

LAYOUT = AoiLayout(entries=((AoiLabel.PUZZLE_BOARD, Rect(0, 0, 100, 100)),))


def small_session(n=30):
    t = np.arange(n) / 200.0
    x = np.linspace(10.0, 90.0, n)
    valid = np.arange(n) % 7 != 3
    gaze = GazeStream(t=t, x=x, y=x, valid=valid)
    return Session(participant_id=1, puzzle_id=2, gaze=gaze, layout=LAYOUT,
                   timeline=Timeline(events=(), duration=1.0))


@pytest.fixture
def session_file(tmp_path):
    path = tmp_path / "session.jsonl"
    storage.write_session_jsonl(small_session(), path)
    return path


def lines_of(path):
    return path.read_text().splitlines(keepends=True)


def header_edit(old, new):
    def edit(lines):
        assert old in lines[0]
        lines[0] = lines[0].replace(old, new)
    return edit


def swap_samples(lines):
    lines[4], lines[5] = lines[5], lines[4]


def nested_too_deep(k):
    """An edit making line k JSON nested too deep for the parser."""
    def edit(lines):
        lines[k] = "[" * 100000 + "\n"
    return edit


class TestSessionReader:
    def test_roundtrip(self, session_file):
        session = storage.read_session_jsonl(session_file)
        assert len(session.gaze) == 30
        np.testing.assert_array_equal(session.gaze.valid, small_session().gaze.valid)

    def test_every_cut_of_the_last_line_fails_closed(self, session_file):
        data = session_file.read_bytes()
        last = lines_of(session_file)[-1].encode()
        number = len(lines_of(session_file))
        for drop in range(2, len(last)):
            session_file.write_bytes(data[:-drop])
            with pytest.raises(MalformedStreamError) as err:
                storage.read_session_jsonl(session_file)
            assert f"{session_file}, line {number}:" in str(err.value)

    def test_dropping_only_the_final_newline_loads(self, session_file):
        session_file.write_bytes(session_file.read_bytes()[:-1])
        assert len(storage.read_session_jsonl(session_file).gaze) == 30

    @pytest.mark.parametrize("bad", [
        '{"t":0.5,"x":1.0,"y":2.0}',  # no valid flag
        '{"x":1.0,"y":2.0,"valid":true}',  # no timestamp
        '{"t":0.5,"x":1.0,"y":2.0,"valid":true',  # cut record
        '[0.5, 1.0, 2.0, true]',  # not an object
        'not json',
    ])
    def test_malformed_sample_line_names_its_line(self, session_file, bad):
        lines = lines_of(session_file)
        lines[5] = bad + "\n"
        session_file.write_text("".join(lines))
        with pytest.raises(MalformedStreamError) as err:
            storage.read_session_jsonl(session_file)
        assert f"{session_file}, line 6:" in str(err.value)

    @pytest.mark.parametrize("samples", [30, 0])
    @pytest.mark.parametrize("past, reads", [(0.0, True), (1.0, False), (1e9, False)])
    def test_duration_at_most_max_tail_past_the_last_sample(self, tmp_path, samples, past,
                                                            reads):
        """The duration may end ``MAX_TAIL_S`` after the last sample (after
        0 s without samples), and no later."""
        session = small_session(samples)
        last = float(session.gaze.t[-1]) if samples else 0.0
        duration = last + storage.MAX_TAIL_S + past
        path = tmp_path / "session.jsonl"
        storage.write_session_jsonl(Session(
            participant_id=1, puzzle_id=2, gaze=session.gaze, layout=LAYOUT,
            timeline=Timeline(events=(), duration=duration)), path)
        if reads:
            assert storage.read_session_jsonl(path).timeline.duration == duration
        else:
            with pytest.raises(MalformedStreamError, match=re.escape(
                    f"malformed session {path}: MalformedTimelineError: duration "
                    f"{duration!r} ends more than 60 s after the last sample, at {last!r}")):
                storage.read_session_jsonl(path)

    @pytest.mark.parametrize("lead, step, reads", [(60.0, 0.005, True), (61.0, 0.005, False),
                                                   (0.0, 60.0, True), (0.0, 61.0, False)])
    def test_at_most_max_tail_without_a_sample(self, tmp_path, lead, step, reads):
        """At most ``MAX_TAIL_S`` may pass before the first sample, and
        between two samples."""
        t = lead + np.arange(3) * step
        gaze = GazeStream(t=t, x=np.full(3, 10.0), y=np.full(3, 10.0), valid=np.ones(3, bool))
        path = tmp_path / "session.jsonl"
        storage.write_session_jsonl(Session(
            participant_id=1, puzzle_id=2, gaze=gaze, layout=LAYOUT,
            timeline=Timeline(events=(), duration=float(t[-1]))), path)
        if reads:
            assert storage.read_session_jsonl(path).gaze.t.tolist() == t.tolist()
        else:
            with pytest.raises(MalformedStreamError, match=re.escape(
                    f"no sample for more than 60 s, from 0.0 to {max(lead, step)!r}")):
                storage.read_session_jsonl(path)

    def test_unparsable_header(self, session_file):
        lines = lines_of(session_file)
        lines[0] = lines[0][:40] + "\n"
        session_file.write_text("".join(lines))
        with pytest.raises(MalformedStreamError):
            storage.read_session_jsonl(session_file)
        with pytest.raises(MalformedStreamError):
            read_session_header(session_file)

    def test_header_missing_its_layout(self, session_file):
        lines = lines_of(session_file)
        lines[0] = lines[0].replace('"layout"', '"layuot"')
        session_file.write_text("".join(lines))
        with pytest.raises(MalformedStreamError):
            storage.read_session_jsonl(session_file)

    @pytest.mark.parametrize("edit", [
        header_edit('"puzzle_board"', '"puzzle_bored"'),  # unknown AOI token
        header_edit('"timeline":[]', '"timeline":[["explode",1,0.5,null]]'),  # bad event
        swap_samples,  # non-increasing timestamps
        nested_too_deep(0),
        nested_too_deep(1),
        header_edit('"duration":1.0', '"duration":1e400'),  # overflows to inf
        header_edit('"duration":1.0', '"duration":NaN'),
        header_edit('"timeline":[]', '"timeline":[["pickup_start",1,NaN,null]]'),
        header_edit('"puzzle_board",0,', '"puzzle_board",true,'),
        header_edit('"timeline":[]', '"timeline":[["pickup_start",true,0.5,null]]'),
        header_edit('"schema":1', '"schema":true'),
    ], ids=["aoi-token", "timeline-event", "timestamps", "nested-header", "nested-sample",
            "duration-1e400", "duration-NaN", "event-time-NaN", "layout-corner-true",
            "event-piece-true", "schema-true"])
    def test_bad_header_or_sample_order_names_the_file(self, session_file, edit):
        lines = lines_of(session_file)
        edit(lines)
        session_file.write_text("".join(lines))
        for read in (storage.read_session_jsonl, read_line_by_line):
            with pytest.raises(MalformedStreamError) as err:
                read(session_file)
            assert str(session_file) in str(err.value)

    @pytest.mark.parametrize("value", ['"x"', "1.5", "true", "-3", "0"])
    @pytest.mark.parametrize("key", ["participant", "puzzle"])
    def test_header_id_not_an_integer_of_at_least_1_names_the_file(self, session_file, key,
                                                                    value):
        lines = lines_of(session_file)
        lines[0], count = re.subn(f'"{key}":[^,}}]*', f'"{key}":{value}', lines[0])
        assert count == 1
        session_file.write_text("".join(lines))
        for read in (storage.read_session_jsonl, read_line_by_line):
            with pytest.raises(MalformedStreamError, match=f"{key} .* at least 1") as err:
                read(session_file)
            assert str(session_file) in str(err.value)

    def test_binary_file(self, tmp_path):
        path = tmp_path / "session.jsonl"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(MalformedStreamError):
            storage.read_session_jsonl(path)


class TestCorpusManifest:
    @pytest.mark.parametrize("text", ['{"sessions": [', "[" * 100000, '["a.jsonl"]',
                                      '{"kind": "corpus"}', '{"sessions": "a.jsonl"}',
                                      '{"sessions": [1]}'],
                             ids=["cut", "nested too deep", "not an object",
                                  "no sessions", "sessions not a list", "name not text"])
    def test_bad_manifest_names_the_file(self, tmp_path, text):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        with pytest.raises(MalformedStreamError) as err:
            storage.corpus_paths(tmp_path)
        assert str(manifest) in str(err.value)


class TestCorpusReader:
    def test_two_files_of_one_session_name_both(self, tmp_path):
        for name in ("a.jsonl", "b.jsonl"):
            storage.write_session_jsonl(small_session(), tmp_path / name)
        with pytest.raises(MalformedStreamError, match="participant 1 puzzle 2") as err:
            storage.read_corpus(tmp_path)
        assert f"{tmp_path / 'a.jsonl'} and {tmp_path / 'b.jsonl'}" in str(err.value)


def varied_session(n=40):
    """Samples with negative, zero and large coordinates and both flags."""
    t = np.arange(n) / 120.0
    x = np.linspace(-250.0, 1900.0, n) * np.where(np.arange(n) % 5 == 0, 0.0, 1.0)
    y = np.cos(np.arange(n)) * 1e4
    gaze = GazeStream(t=t, x=x, y=y, valid=np.arange(n) % 3 != 1)
    return Session(participant_id=3, puzzle_id=4, gaze=gaze, layout=LAYOUT,
                   timeline=Timeline(events=(), duration=1.0))


def read_line_by_line(path):
    """The per-line JSON reader, which every file not in the writer's exact
    format goes through."""
    return storage._session(path, *storage._read_session_lines(path.read_bytes(), path))


def read_text_mode(path):
    """The per-line reader as it read the file before it parsed bytes in
    memory: the file opened in text mode, and a failing line's number
    looked up by reading the file again. Its arrays and errors are the
    reference for the in-memory reader."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = storage._parse_session_header(fh.readline(), path)
            columns, line = ([], [], [], []), ""
            try:
                for line in fh:
                    line = line.strip()
                    if line:
                        rec = json.loads(line)
                        for column, key in zip(columns, ("t", "x", "y", "valid")):
                            column.append(rec[key])
            except UnicodeDecodeError:
                raise
            except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
                with open(path, encoding="utf-8") as again:
                    number = next((k for k, text in enumerate(again, start=1)
                                   if k > 1 and text.strip() == line), 1)
                raise MalformedStreamError(
                    f"{path}, line {number}: malformed gaze sample "
                    f"({type(exc).__name__}: {exc})") from None
    except UnicodeDecodeError:
        raise MalformedStreamError(f"{path} is not UTF-8 text") from None
    return storage._session(path, header, columns)


def outcome(read, path):
    """What a reader makes of a file: its error, or its header fields and
    the raw bits of every column."""
    try:
        session = read(path)
    except GazeSentinelError as exc:
        return type(exc).__name__, str(exc)
    g = session.gaze
    return ("session", session.participant_id, session.puzzle_id,
            session.timeline.duration, g.valid.tolist(),
            *(column.view(np.uint64).tolist() for column in (g.t, g.x, g.y)))


# Numbers outside the writer's grammar, then numbers JSON reads that are long,
# tie-breaking, subnormal or overflow to infinity, then the edges of the
# writer's grammar (6 decimals for t, 3 for x and y, fewer than 2^53 units of
# the last decimal), then for 6 and 3 decimals every integer width from 1 to
# one past the 16 digits the bulk parser takes, a nonzero digit in every
# position, and its negative: these cross each boundary of the 8-byte words
# a number is read from. The list's length is kept prime to 3 and at most 85,
# so that ``mutate``'s byte can put every number under every key.
NUMBERS = [b"01.5", b"1.", b"1e3", b".5", b"+1.0", b"1.5E-2", b"00.0", b"1_0.0", b"NaN",
           b"-Infinity", b"-0.000", b"-0.5", b"0.1" + b"0" * 30, b"9007199254740993.0",
           b"0.30000000000000004440892098500626", b"0." + b"0" * 320 + b"5",
           b"9" * 309 + b".0", b"-" + b"2" * 400 + b".5",
           b"0.50000", b"0.5000000", b"12.50", b"12.5000", b"1234567890.000000",
           b"123456789.000000", b"-0.000000", b"9007199254.740991", b"9007199254.740992",
           b"4503599627370.496", b"18446744073709551616.000", b"9" * 13 + b".999",
           *(sign + b"1234567891234567"[:width] + b"." + b"987654"[:decimals]
             for decimals in (6, 3) for width in range(1, 18 - decimals)
             for sign in (b"", b"-"))]


NON_FINITE = [b"nan", b"inf", b"-inf"]


def mutate(data: bytes, kind: str, at: int, byte: int) -> bytes:
    lines = data.splitlines(keepends=True) or [b""]
    i = at % len(lines)  # any line, the header included
    sample = 1 + at % (len(lines) - 1) if len(lines) > 1 else 0  # a sample line
    pos = at % (len(data) + 1)
    if kind == "flip":
        return data[:pos] + bytes([byte]) + data[pos + 1:]
    if kind == "cut":
        return data[:pos]
    if kind == "space":
        return data[:pos] + b" " + data[pos:]
    if kind == "non-utf8":
        return data[:pos] + bytes([0x80 | byte]) + data[pos:]
    if kind == "digit":
        digits = [k for k, c in enumerate(data) if c in b"0123456789"] or [0]
        pos = digits[at % len(digits)]
        return data[:pos] + str(byte % 10).encode() + data[pos + 1:]
    if kind == "crlf":
        lines[i] = lines[i].replace(b"\n", b"\r\n")
    elif kind == "cr":
        lines[i] = lines[i].replace(b"\n", b"\r")
    elif kind == "blank":
        lines.insert(i + 1, b"  \n" if byte % 2 else b"\n")
    elif kind == "reorder":
        lines[sample] = re.sub(rb'^\{("t":[^,]*),("x":[^,]*),', rb"{\2,\1,", lines[sample])
    elif kind == "number":
        key = b"txy"[byte % 3:byte % 3 + 1]
        lines[sample] = re.sub(rb'"%s":[^,}]*' % key,
                               b'"%s":%s' % (key, NUMBERS[byte % len(NUMBERS)]),
                               lines[sample])
    elif kind == "non-finite":
        fields = lines[i].split(b",")
        fields[byte % len(fields)] = NON_FINITE[at % len(NON_FINITE)]
        lines[i] = b",".join(fields)
    elif kind == "no final newline":
        return data.rstrip(b"\n")
    return b"".join(lines)


MUTATIONS = ["flip", "cut", "space", "non-utf8", "digit", "crlf", "cr", "blank",
             "reorder", "number", "no final newline"]


@pytest.fixture(scope="module")
def varied_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sessions") / "session.jsonl"
    storage.write_session_jsonl(varied_session(), path)
    return path


class TestSessionReaderProperties:
    def test_written_file_is_read_in_bulk(self, varied_file, monkeypatch):
        def refuse(data, path):
            raise AssertionError("the writer's own file was read line by line")
        monkeypatch.setattr(storage, "_read_session_lines", refuse)
        assert len(storage.read_session_jsonl(varied_file).gaze) == 40

    # Most mutations leave the writer's format; the second set mostly keeps it,
    # so the bulk parser meets edited numbers.
    @pytest.mark.parametrize("kinds", [MUTATIONS, ["digit", "number"]],
                             ids=["any", "numbers"])
    @settings(max_examples=300, deadline=2000)
    @given(st.data())
    def test_mutated_file_reads_as_line_by_line(self, varied_file, kinds, draw):
        mutations = draw.draw(st.lists(st.tuples(st.sampled_from(kinds),
                                                 st.integers(0, 10 ** 6),
                                                 st.integers(0, 255)),
                                       min_size=1, max_size=3))
        data = varied_file.read_bytes()
        for kind, at, byte in mutations:
            data = mutate(data, kind, at, byte)
        path = varied_file.with_name("mutated.jsonl")
        path.write_bytes(data)
        result = outcome(storage.read_session_jsonl, path)
        assert result == outcome(read_line_by_line, path) == outcome(read_text_mode, path)

    @pytest.mark.parametrize("number", NUMBERS)
    @pytest.mark.parametrize("key", [b"t", b"x", b"y"], ids=["t", "x", "y"])
    def test_every_number_under_every_key(self, varied_file, tmp_path, key, number):
        """The bulk parser takes a number only in the writer's grammar for its
        key, and either way the file reads as the per-line reader reads it."""
        header, *lines = varied_file.read_bytes().splitlines(keepends=True)
        lines[6] = re.sub(rb'"%s":[^,}]*' % key, b'"%s":%s' % (key, number), lines[6])
        path = tmp_path / "edited.jsonl"
        path.write_bytes(header + b"".join(lines))
        decimals = 6 if key == b"t" else 3
        writers = re.fullmatch(rb"-?(0|[1-9][0-9]*)\.[0-9]{%d}" % decimals, number)
        writers = writers and int(number.lstrip(b"-").replace(b".", b"")) < 2 ** 53
        assert (storage._parse_sample_lines(b"".join(lines)) is not None) == bool(writers)
        assert outcome(storage.read_session_jsonl, path) == outcome(read_line_by_line, path)

    @pytest.mark.parametrize("end", [b'"y":1.5\n', b'"y":1.\n', b'"y":-1.\n',
                                     b'"y":1.500,"valid":t\n', b'"y":1.500,"valid":fals\n',
                                     b'"y":1.500,"valid":true}'])
    def test_last_line_cut_short(self, varied_file, tmp_path, end):
        """A last line that stops short of the writer's end is read as the
        per-line reader reads it, however near its end its last point is."""
        data = varied_file.read_bytes()
        cut = data.rindex(b'"y":')
        path = tmp_path / "cut.jsonl"
        path.write_bytes(data[:cut] + end)
        assert storage._parse_sample_lines(path.read_bytes().split(b"\n", 1)[1]) is None
        assert outcome(storage.read_session_jsonl, path) == outcome(read_line_by_line, path)

    @pytest.mark.parametrize("edit", ["crlf", "cr", "blank", "header repeated"])
    def test_line_numbers_count_every_line(self, varied_file, tmp_path, edit):
        """Line endings and blank lines are counted as text mode counts them,
        and a bad line is named by its own number even where its text repeats
        an earlier line that parsed (the header, which has no ``t``)."""
        lines = varied_file.read_bytes().splitlines(keepends=True)
        if edit == "header repeated":
            lines.insert(7, lines[0])
        else:
            ending = {"crlf": b"\r\n", "cr": b"\r", "blank": b"\n\n"}[edit]
            lines = [line.replace(b"\n", ending) for line in lines]
            lines[9] = b'{"t":0.5}' + ending  # no x, y or valid
        path = tmp_path / "edited.jsonl"
        path.write_bytes(b"".join(lines))
        number = {"crlf": 10, "cr": 10, "blank": 19, "header repeated": 8}[edit]
        with pytest.raises(MalformedStreamError, match=f", line {number}: malformed gaze"):
            storage.read_session_jsonl(path)
        assert outcome(storage.read_session_jsonl, path) == outcome(read_text_mode, path)

    @pytest.mark.parametrize("ending", [b"\r\n", b"\r", b"\n\n"])
    def test_other_line_endings_read_the_written_arrays(self, varied_file, tmp_path, ending):
        path = tmp_path / "edited.jsonl"
        path.write_bytes(varied_file.read_bytes().replace(b"\n", ending))
        assert outcome(storage.read_session_jsonl, path) \
            == outcome(storage.read_session_jsonl, varied_file)


def per_sample_lines(session):
    """The writer's sample lines as first written: one f-string a sample."""
    g = session.gaze
    lines = []
    for t, x, y, v in zip(g.t, g.x, g.y, g.valid):
        flag = "true" if v else "false"
        lines.append(f'{{"t":{t:.6f},"x":{x:.3f},"y":{y:.3f},"valid":{flag}}}\n')
    return lines


# Binary-exact ties: (2k + 1) / 16 has four decimals and halves at three,
# (2k + 1) / 128 has seven and halves at six.
HALF_AT_3 = st.integers(-10 ** 9, 10 ** 9).map(lambda k: (2 * k + 1) / 16)
HALF_AT_6 = st.integers(0, 10 ** 9).map(lambda k: (2 * k + 1) / 128)
COORDINATES = st.one_of(st.floats(allow_nan=True, allow_infinity=True), HALF_AT_3,
                        st.integers(-10 ** 6, 10 ** 6).map(lambda k: (k + 0.5) / 1000),
                        st.sampled_from([0.0, -0.0, -1e-4, 1e300, -1e300, 5e-324]))
TIMES = st.one_of(st.floats(0.0, 1e9), HALF_AT_6, st.sampled_from([0.0, 5e-7, 1e15]))


class TestSessionWriterProperties:
    @settings(max_examples=200)
    @given(st.lists(st.tuples(TIMES, COORDINATES, COORDINATES, st.booleans()),
                    max_size=400, unique_by=lambda s: s[0]))
    def test_bytes_match_the_per_sample_formatter(self, tmp_path_factory, samples):
        samples.sort()
        t, x, y, valid = (np.array(c) for c in zip(*samples)) if samples else [[]] * 4
        session = Session(participant_id=1, puzzle_id=1, layout=LAYOUT,
                          timeline=Timeline(events=(), duration=1.0),
                          gaze=GazeStream(t=t, x=x, y=y, valid=valid))
        path = tmp_path_factory.mktemp("written") / "session.jsonl"
        with np.errstate(over="ignore"):
            units = [np.abs(np.asarray(c, float)) * 10.0 ** d for c, d in ((t, 6), (x, 3), (y, 3))]
        if not all((u < 2.0 ** 52).all() for u in units):  # not finite, or too long to write
            with pytest.raises(InvalidParameterError):
                storage.write_session_jsonl(session, path)
            return
        storage.write_session_jsonl(session, path)
        header, *lines = path.read_text().splitlines(keepends=True)
        assert lines == per_sample_lines(session)

    @pytest.mark.parametrize("column, at, value", [
        ("x", 3, float("nan")), ("y", 10, float("inf")), ("t", -1, float("inf")),
        ("x", 5, 1e13), ("t", -1, 5e9)])  # 10^16 and 5·10^15 units, beyond 2^52
    def test_non_finite_sample_is_refused_before_writing(self, tmp_path, column, at, value):
        g = small_session().gaze
        columns = {name: np.array(getattr(g, name)) for name in ("t", "x", "y", "valid")}
        columns[column][at] = value
        session = Session(participant_id=1, puzzle_id=2, gaze=GazeStream(**columns),
                          layout=LAYOUT, timeline=Timeline(events=(), duration=1.0))
        path = tmp_path / "session.jsonl"
        with pytest.raises(InvalidParameterError,
                           match=f"participant 1 puzzle 2: gaze {column} .*{re.escape(str(path))}"):
            storage.write_session_jsonl(session, path)
        assert list(tmp_path.iterdir()) == []

    def test_simulated_corpus_is_written_in_bulk(self, tmp_path):
        sessions = generate_corpus(CorpusSpec(participants=1, master_seed=1))
        assert len(sessions) > 0
        for session in sessions:
            path = tmp_path / storage.session_filename(session.participant_id, session.puzzle_id)
            storage.write_session_jsonl(session, path)
            with open(path, encoding="utf-8") as fh:
                header, *lines = fh.read().splitlines(keepends=True)
            assert lines == per_sample_lines(session)


def feature_row(task="nf-ef", label="NF", features=None):
    """A one-row table of ``task``."""
    X = np.linspace(0.0, 1.0, len(FEATURE_NAMES)) if features is None else features
    return TaskTable(task=task, participant=np.array([1]), puzzle=np.array([1]),
                     piece=np.array([1]), y=np.array([int(label != "NF")]),
                     t0=np.array([1.0]), t1=np.array([16.0]), X=np.array([X]))


class TestFeatureCsvReader:
    @pytest.fixture
    def csv_file(self, tmp_path):
        path = tmp_path / "features.csv"
        storage.write_feature_csv([feature_row(), feature_row(label="EF")], path)
        return path

    def test_roundtrip(self, csv_file):
        (table,) = storage.read_feature_csv(csv_file).values()
        assert table.task == "nf-ef"
        assert table.y.tolist() == [0, 1]
        np.testing.assert_array_equal(table.X[0], feature_row().X[0])

    @pytest.mark.parametrize("edit", [
        lambda line: ",".join(line.split(",")[:8]),  # one feature value
        lambda line: ",".join(line.split(",")[:6]),  # cut before t1
        lambda line: line + ",0.5",  # one field too many
        lambda line: line.replace(",1,1,1,", ",1,x,1,", 1),  # puzzle not a number
        lambda line: line.rsplit(",", 1)[0] + ",nope",  # feature not a number
        # feature values outside JSON's number grammar, which float() reads
        lambda line: line.rsplit(",", 1)[0] + ",1_0.5",
        lambda line: line.rsplit(",", 1)[0] + ",1_0",
        lambda line: line.rsplit(",", 1)[0] + ", 1",
        lambda line: line.rsplit(",", 1)[0] + ",+1",
    ])
    def test_bad_row_names_its_line(self, csv_file, edit):
        lines = csv_file.read_text().splitlines()
        lines[-1] = edit(lines[-1])
        csv_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError) as err:
            storage.read_feature_csv(csv_file)
        assert f"{csv_file}, line {len(lines)}:" in str(err.value)

    @pytest.mark.parametrize("field", [5, 6, 7, 17], ids=["t0", "t1", "first", "last"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_number_names_its_line(self, csv_file, field, token):
        lines = csv_file.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[field] = token
        lines[-1] = ",".join(parts)
        csv_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError, match="not a finite number") as err:
            storage.read_feature_csv(csv_file)
        assert f"{csv_file}, line {len(lines)}:" in str(err.value)

    @pytest.mark.parametrize("task, label, t0, t1", [
        ("nf-xf", "NF", "1.0", "16.0"),  # unknown task
        ("nf-ef", "NG", "1.0", "16.0"),  # an NF label one letter off
        ("nf-ef", "DF", "1.0", "16.0"),  # another task's failure type
        ("nf-df", "EF", "1.0", "16.0"),
        ("nf-ef", "EF", "16.0", "16.0"),  # empty slice
        ("nf-ef", "EF", "16.0", "1.0"),  # reversed slice
    ])
    def test_row_outside_its_task_names_its_line(self, csv_file, task, label, t0, t1):
        lines = csv_file.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[0], parts[4], parts[5], parts[6] = task, label, t0, t1
        lines[-1] = ",".join(parts)
        csv_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError) as err:
            storage.read_feature_csv(csv_file)
        assert f"{csv_file}, line {len(lines)}:" in str(err.value)

    @pytest.mark.parametrize("field, value, message", [
        (1, "-3", "participant -3 is not an integer of at least 1"),
        (1, "0", "participant 0 is not an integer of at least 1"),
        (2, "0", "puzzle 0 is not an integer of at least 1"),
        (3, "0", "piece 0 is not in 1..4"),
        (3, "5", "piece 5 is not in 1..4"),
        (2, "9" * 20, "OverflowError"),
        (1, "1_0", "participant 1_0 is not an integer of at least 1"),
        (1, " 1", "participant  1 is not an integer of at least 1"),
        (1, "+1", "participant +1 is not an integer of at least 1"),
    ], ids=["participant-3", "participant0", "puzzle0", "piece0", "piece5", "puzzle2^66",
            "participant1_0", "participant-space-1", "participant+1"])
    def test_id_out_of_range_names_its_line(self, csv_file, field, value, message):
        lines = csv_file.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[field] = value
        lines[-1] = ",".join(parts)
        csv_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError) as err:
            storage.read_feature_csv(csv_file)
        assert f"{csv_file}, line {len(lines)}:" in str(err.value)
        assert message in str(err.value)


class TestReportCsvReader:
    @pytest.fixture
    def report_file(self, tmp_path):
        path = tmp_path / "report_full_nf-ef.csv"
        path.write_text("# gaze-sentinel\ntask,classifier,n_or_width,fold,accuracy,recall\n"
                        "nf-ef,ada,full,1,0.75,\nnf-ef,ada,full,pooled,0.5,0.25\n")
        return path

    def test_roundtrip(self, report_file):
        rows = storage.read_report_csv(report_file)
        assert [(r["fold"], r["accuracy"], r["recall"]) for r in rows] == [
            ("1", 0.75, None), ("pooled", 0.5, 0.25)]

    @pytest.mark.parametrize("fold_row, loads", [
        ("nf-ef,ada,full,1,0,1", True), ("nf-ef,ada,full,1,1,0", True),
        ("nf-ef,ada,full,1,inf,", False), ("nf-ef,ada,full,1,0.5,nan", False)])
    def test_values_are_read_in_0_to_1(self, report_file, fold_row, loads):
        lines = report_file.read_text().splitlines()
        lines[2] = fold_row
        report_file.write_text("\n".join(lines) + "\n")
        if loads:
            assert len(storage.read_report_csv(report_file)) == 2
        else:
            with pytest.raises(InvalidParameterError, match="not a number in") as err:
                storage.read_report_csv(report_file)
            assert f"{report_file}, line 3:" in str(err.value)

    @pytest.mark.parametrize("edit", [
        lambda line: line.rsplit(",", 1)[0],  # five fields
        lambda line: line + ",0.5",  # seven fields
        lambda line: line.replace(",0.5,", ",half,"),  # accuracy not a number
        lambda line: line.rsplit(",", 1)[0] + ",x",  # recall not a number
        lambda line: line.replace(",0.5,", ",7.5,"),
        lambda line: line.replace(",0.5,", ",-0.0001,"),
        lambda line: line.replace(",0.5,", ",nan,"),
        lambda line: line.replace(",0.5,", ",inf,"),
        lambda line: line.rsplit(",", 1)[0] + ",-2",
        lambda line: line.rsplit(",", 1)[0] + ",1.0000001",
        lambda line: line.rsplit(",", 1)[0] + ",nan",
        lambda line: line.rsplit(",", 1)[0] + ",-inf",
    ], ids=["5 fields", "7 fields", "accuracy", "recall", "accuracy 7.5", "accuracy below 0",
            "accuracy nan", "accuracy inf", "recall -2", "recall above 1", "recall nan",
            "recall -inf"])
    def test_bad_row_names_its_line(self, report_file, edit):
        lines = report_file.read_text().splitlines()
        lines[-1] = edit(lines[-1])
        report_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError) as err:
            storage.read_report_csv(report_file)
        assert f"{report_file}, line {len(lines)}:" in str(err.value)

    @pytest.mark.parametrize("header", ["task,classifier,n_or_width,fold,accuracy",
                                        "task,classifier,width,fold,accuracy,recall"])
    def test_wrong_header_names_the_file(self, report_file, header):
        lines = report_file.read_text().splitlines()
        lines[1] = header
        report_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError, match="header") as err:
            storage.read_report_csv(report_file)
        assert str(report_file) in str(err.value)


def csv_rows(tables):
    """The rows of a feature table's tables, every float as its raw bits."""
    return [(t.task, *row) for t in tables.values() for row in zip(
        t.participant.tolist(), t.puzzle.tolist(), t.piece.tolist(), t.y.tolist(),
        *np.column_stack([t.t0, t.t1, t.X]).view(np.uint64).T.tolist())]


@pytest.fixture(scope="module")
def varied_csv(tmp_path_factory):
    tables = [feature_row(), feature_row(label="EF", features=np.array(
        [-0.0, 1e-300, 12345.678, 0.1, 1e16, 2.5, -7.25, 3.0, 0.0, 0.5, 9.75])),
        feature_row("nf-df", "DF")]
    path = tmp_path_factory.mktemp("features") / "features.csv"
    storage.write_feature_csv(tables, path, {"seed": 7})
    return path


CSV_MUTATIONS = ["flip", "cut", "space", "non-utf8", "digit", "crlf", "cr", "blank",
                 "non-finite", "no final newline"]
# Text a number cell may be given: numbers as repr() and str() write them,
# and text near them. Written here, not taken from the reader.
CELL_TEXT = st.one_of(
    st.floats().map(repr), st.integers().map(str), st.text("0123456789-+._eE naif", max_size=8),
    st.sampled_from(["1_0", " 1", "+1", "1_0.5", "01", "1.", ".5", "1e5", "-0", "1e400"]))
JSON_INTEGER = r"-?(0|[1-9][0-9]*)"
JSON_NUMBER = JSON_INTEGER + r"(\.[0-9]+)?([eE][+-]?[0-9]+)?"


class TestFeatureCsvReaderProperties:
    @settings(max_examples=300, deadline=2000)
    @given(st.data())
    def test_mutated_file_fails_closed_or_round_trips(self, varied_csv, draw):
        """A mutated table either raises a toolkit error or loads finite rows
        that the writer writes back and the reader loads again unchanged."""
        mutations = draw.draw(st.lists(st.tuples(st.sampled_from(CSV_MUTATIONS),
                                                 st.integers(0, 10 ** 6),
                                                 st.integers(0, 255)),
                                       min_size=1, max_size=3))
        data = varied_csv.read_bytes()
        for kind, at, byte in mutations:
            data = mutate(data, kind, at, byte)
        path = varied_csv.with_name("mutated.csv")
        path.write_bytes(data)
        try:
            tables = storage.read_feature_csv(path)
        except GazeSentinelError:
            return
        assert all(np.isfinite(np.column_stack([t.t0, t.t1, t.X])).all()
                   for t in tables.values())
        again = varied_csv.with_name("rewritten.csv")
        storage.write_feature_csv(tables.values(), again)
        assert csv_rows(storage.read_feature_csv(again)) == csv_rows(tables)

    @settings(max_examples=300)
    @given(field=st.sampled_from([1, 2, 3, *range(5, 7 + len(FEATURE_NAMES))]), text=CELL_TEXT)
    def test_number_cell_loads_only_in_json_grammar(self, varied_csv, field, text):
        """A table with one number cell of its last row replaced by any text
        either fails, naming its file and line, or the text is a JSON number
        (a JSON integer in an id column) and loads as int() or float() of it."""
        lines = varied_csv.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[field] = text
        lines[-1] = ",".join(parts)
        path = varied_csv.with_name("edited.csv")
        path.write_text("\n".join(lines) + "\n")
        try:
            table = storage.read_feature_csv(path)[parts[0]]
        except InvalidParameterError as exc:
            assert f"{path}, line {len(lines)}:" in str(exc)
            return
        integer = field < 4
        assert re.fullmatch(JSON_INTEGER if integer else JSON_NUMBER, text)
        row = [table.participant, table.puzzle, table.piece, None, table.t0, table.t1,
               *table.X.T]
        assert row[field - 1][-1] == (int if integer else float)(text)
