import numpy as np
import pytest

from gaze_sentinel import storage
from gaze_sentinel.core import AoiLabel, AoiLayout, GazeStream, Rect, Session, Timeline
from gaze_sentinel.errors import InvalidParameterError, MalformedStreamError
from gaze_sentinel.evaluate import SegmentRow
from gaze_sentinel.features import FEATURE_NAMES

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

    def test_unparsable_header(self, session_file):
        lines = lines_of(session_file)
        lines[0] = lines[0][:40] + "\n"
        session_file.write_text("".join(lines))
        with pytest.raises(MalformedStreamError):
            storage.read_session_jsonl(session_file)
        with pytest.raises(MalformedStreamError):
            storage.read_session_header(session_file)

    def test_header_missing_its_layout(self, session_file):
        lines = lines_of(session_file)
        lines[0] = lines[0].replace('"layout"', '"layuot"')
        session_file.write_text("".join(lines))
        with pytest.raises(MalformedStreamError):
            storage.read_session_jsonl(session_file)

    def test_binary_file(self, tmp_path):
        path = tmp_path / "session.jsonl"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(MalformedStreamError):
            storage.read_session_jsonl(path)


def feature_row(task="nf-ef", label="NF"):
    return SegmentRow(task=task, participant=1, puzzle=1, piece=1, label=label,
                      t0=1.0, t1=16.0, features=np.linspace(0.0, 1.0, len(FEATURE_NAMES)))


class TestFeatureCsvReader:
    @pytest.fixture
    def csv_file(self, tmp_path):
        path = tmp_path / "features.csv"
        storage.write_feature_csv([feature_row(), feature_row(label="EF")], path)
        return path

    def test_roundtrip(self, csv_file):
        rows = storage.read_feature_csv(csv_file)
        assert [r.label for r in rows] == ["NF", "EF"]
        np.testing.assert_array_equal(rows[0].features, feature_row().features)

    @pytest.mark.parametrize("edit", [
        lambda line: ",".join(line.split(",")[:8]),  # one feature value
        lambda line: ",".join(line.split(",")[:6]),  # cut before t1
        lambda line: line + ",0.5",  # one field too many
        lambda line: line.replace(",1,1,1,", ",1,x,1,", 1),  # puzzle not a number
        lambda line: line.rsplit(",", 1)[0] + ",nope",  # feature not a number
    ])
    def test_bad_row_names_its_line(self, csv_file, edit):
        lines = csv_file.read_text().splitlines()
        lines[-1] = edit(lines[-1])
        csv_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidParameterError) as err:
            storage.read_feature_csv(csv_file)
        assert f"{csv_file}, line {len(lines)}:" in str(err.value)
