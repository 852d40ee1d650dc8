import argparse
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gaze_sentinel
from conftest import DEFAULT_PROFILE, profile_dict
from gaze_sentinel import cli, pool, storage
from gaze_sentinel.cli import _parse_n_range, build_parser, main
from gaze_sentinel.evaluate import TASKS, Corpus
from gaze_sentinel.learners import default_config, predict_batch, smote, train
from gaze_sentinel.model_io import load_model, save_model
from gaze_sentinel.sim import CorpusSpec, generate_corpus

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    assert main(["simulate", "--participants", "3", "--seed", "11",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def features_csv(corpus_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("features") / "features.csv"
    assert main(["extract", "--corpus", str(corpus_dir), "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def ada_model(features_csv, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert main(["train", "--features", str(features_csv), "--task", "nf-ef",
                 "--classifier", "ada", "--seed", "3", "--out", str(path)]) == 0
    return path


def data_lines(path) -> list:
    """A CSV's lines without its ``#`` provenance lines, or a JSONL file's
    records without its header line."""
    lines = path.read_text().splitlines()
    if path.suffix == ".jsonl":
        return lines[1:]
    return [line for line in lines if not line.startswith("#")]


# sha256 of each file that ``simulate --participants 3 --seed 7`` writes, and
# of ``extract``'s feature table of that corpus. A change that moves them on
# purpose regenerates these and names the files that moved.
GOLDEN_DIGESTS = {
    "features.csv": "e9d319645df4dbef5bb722b9d66796cda2213a387bfb6502e0f591bb25e40dc5",
    "manifest.json": "8659c0856e71fe50404986ff4b8beff61b8d65b6ae81e847442571bbc032de5f",
    "session_p001_z1.jsonl": "81ee44d5a14c85c29ef511cf254e8ba05088428065b32ea01122796526ba8586",
    "session_p001_z2.jsonl": "e24824fe6fcd674add8ee98a9fee3b021342fcbda5eb44bf192ba6cd8916c032",
    "session_p001_z3.jsonl": "8e27acfbfdff337cb0e208e8204b865e3534543a56c638171d83c1e430d24c1f",
    "session_p001_z4.jsonl": "01df18375e133edfd9c00fb37f98394924b30d1976469c0899c1570ef91004e8",
    "session_p002_z1.jsonl": "bff120548129a3fb6022afb216d6490277f0bb1ac0dc1db039643d543a602713",
    "session_p002_z2.jsonl": "9a7588ab5b4a0751fadfa9ba695239f3022ed628c81921d6dff230d3c6b38bc8",
    "session_p002_z3.jsonl": "6e0cf15551da77442a443e9eb635abf13799355c2e03b45954954ff14ed04a64",
    "session_p002_z4.jsonl": "5ed3bc7e059c3e9154ebbc719ad01b655bfd266a84769eb4d217a759d900ff6e",
    "session_p003_z1.jsonl": "866607d69df7f4d3bed1631a9051b8f8945731c2998d4189d54d95bc1557b6bf",
    "session_p003_z2.jsonl": "479dc1349de8749808a32b5aa6c08584e0c34fa0b36575c60153d6e6fd6a31d2",
    "session_p003_z3.jsonl": "31ee6a81460f2ec762944c7b84c8598ac5721e7cdfe994ee7c60d4aa166b39a3",
    "session_p003_z4.jsonl": "9852a9b39504497284ec3daef6fa6ee4f2df5ad994f746cca74c7c677d2208e4",
}


class TestSimulate:
    def test_outputs_match_golden_digests(self, tmp_path, monkeypatch):
        for name in list(os.environ):
            if name.startswith("GAZE_SENTINEL_"):
                monkeypatch.delenv(name)
        assert main(["simulate", "--participants", "3", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        assert main(["extract", "--corpus", str(tmp_path),
                     "--out", str(tmp_path / "features.csv")]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        moved = {name: digests.get(name)
                 for name in sorted(digests.keys() | GOLDEN_DIGESTS.keys())
                 if digests.get(name) != GOLDEN_DIGESTS.get(name)}
        assert not moved, f"files that moved, with their new sha256: {moved}"

    def test_writes_sessions_and_manifest(self, corpus_dir):
        names = sorted(os.listdir(corpus_dir))
        assert "manifest.json" in names
        assert sum(n.endswith(".jsonl") for n in names) == 12

    def test_session_roundtrip_preserves_structure(self, corpus_dir):
        sessions = generate_corpus(CorpusSpec(participants=3, master_seed=11))
        loaded = storage.read_corpus(corpus_dir)
        assert len(loaded) == len(sessions)
        for a, b in zip(sessions, loaded):
            assert (a.participant_id, a.puzzle_id) == (b.participant_id, b.puzzle_id)
            assert a.timeline.failure_type == b.timeline.failure_type
            assert len(a.gaze) == len(b.gaze)
            # sample columns round-trip at the written precision
            np.testing.assert_allclose(b.gaze.t, a.gaze.t, atol=1e-6)
            np.testing.assert_allclose(b.gaze.x, a.gaze.x, atol=1e-3)
            np.testing.assert_array_equal(b.gaze.valid, a.gaze.valid)
            # timeline timestamps round-trip exactly through the JSON header
            assert [e.t for e in b.timeline.events] == [e.t for e in a.timeline.events]

    def test_repeat_run_is_byte_identical(self, corpus_dir, tmp_path):
        assert main(["simulate", "--participants", "3", "--seed", "11",
                     "--out", str(tmp_path)]) == 0
        for name in sorted(os.listdir(corpus_dir)):
            with open(corpus_dir / name, "rb") as fa, open(tmp_path / name, "rb") as fb:
                assert fa.read() == fb.read(), name


class TestExtract:
    def test_feature_table_shape(self, features_csv):
        # one block per task: 3 participants x (12 NF + 2 failure) segments,
        # NF segments measured once per task at that task's failure length
        tables = storage.read_feature_csv(features_csv)
        assert list(tables) == ["nf-ef", "nf-df"]
        for table in tables.values():
            assert np.sum(table.y == 0) == 36
            assert np.sum(table.y == 1) == 6
            assert len(table) == 42

    def test_feature_values_match_library_pipeline(self, corpus_dir, features_csv):
        corpus = Corpus(storage.read_corpus(corpus_dir))
        loaded = storage.read_feature_csv(features_csv)
        assert list(loaded) == list(TASKS)
        for task, table in loaded.items():
            expected = corpus.rows_for_task(task)
            assert len(table) == len(expected)
            for column in ("participant", "puzzle", "piece", "y", "t0", "t1", "X"):
                np.testing.assert_array_equal(getattr(table, column),
                                              getattr(expected, column), err_msg=column)

    def test_header_carries_provenance(self, features_csv):
        text = features_csv.read_text().splitlines()
        assert text[0].startswith("# gaze-sentinel")
        assert text[1].startswith("# fingerprint=")


class TestCorpusStagesInWorkers:
    """``simulate`` and ``extract`` run one ``fork_map`` call per session:
    in workers with ``_usable_cpus`` patched to 2, in-process with 1."""

    def test_one_or_two_cpus_write_identical_bytes(self, tmp_path, monkeypatch):
        trees = {}
        for cpus in (2, 1):
            monkeypatch.setattr(pool, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["simulate", "--participants", "3", "--seed", "7",
                         "--out", str(out / "corpus")]) == 0
            assert main(["extract", "--corpus", str(out / "corpus"),
                         "--out", str(out / "features.csv")]) == 0
            assert multiprocessing.active_children() == []
            trees[cpus] = {str(p.relative_to(out)): p.read_bytes()
                           for p in out.rglob("*") if p.is_file()}
        assert len(trees[1]) == 14
        assert trees[2] == trees[1]

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_first_malformed_file_in_manifest_order_is_json_error(
            self, corpus_dir, tmp_path, monkeypatch, capsys, cpus):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: cpus)
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        paths = storage.corpus_paths(corpus)
        for path in (paths[1], paths[3]):
            with open(path) as fh:
                lines = fh.read().splitlines(keepends=True)
            lines[5] = '{"t": 0.01}\n'
            with open(path, "w") as fh:
                fh.write("".join(lines))
        capsys.readouterr()
        assert main(["extract", "--corpus", str(corpus), "--out", str(tmp_path / "f.csv")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err) == {
            "error": "MalformedStreamError",
            "message": f"{paths[1]}, line 6: malformed gaze sample (KeyError: 'x')"}
        assert not (tmp_path / "f.csv").exists()
        assert multiprocessing.active_children() == []


class TestTrainAndDetect:
    def test_train_saves_loadable_model(self, features_csv, corpus_dir, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(features_csv), "--task", "nf-ef",
                     "--classifier", "ada", "--seed", "3",
                     "--out", str(model_path)]) == 0
        model = load_model(model_path)
        labels, _ = predict_batch(model, np.zeros((2, 11)))
        assert labels.shape == (2,)

    def test_detect_writes_detections(self, features_csv, corpus_dir, tmp_path):
        model_path = tmp_path / "model.json"
        main(["train", "--features", str(features_csv), "--task", "nf-ef",
              "--classifier", "ada", "--seed", "3", "--out", str(model_path)])
        session = storage.corpus_paths(corpus_dir)[0]
        out = tmp_path / "detections.jsonl"
        assert main(["detect", "--model", str(model_path), "--session", session,
                     "--width", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "detections"
        record = json.loads(lines[1])
        assert set(record) == {"participant", "puzzle", "t0", "t1", "predicted", "score"}

    def test_train_fits_library_task_dataset(self, features_csv, corpus_dir, tmp_path):
        corpus = Corpus(storage.read_corpus(corpus_dir))
        for task in ("nf-ef", "nf-df"):
            cli_path = tmp_path / f"cli_{task}.json"
            assert main(["train", "--features", str(features_csv), "--task", task,
                         "--classifier", "ada", "--seed", "3",
                         "--out", str(cli_path)]) == 0
            dataset, _ = corpus.dataset_for_task(task)
            rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(0,)))
            model = train(default_config("ada", seed=3), smote(dataset, k=2, rng=rng))
            lib_path = tmp_path / f"lib_{task}.json"
            save_model(model, lib_path)
            assert cli_path.read_bytes() == lib_path.read_bytes(), task

    def test_train_rejects_all(self, features_csv, tmp_path):
        code = main(["train", "--features", str(features_csv), "--task", "nf-ef",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1  # default classifier resolves to 'all'


class TestEvalCommand:
    def test_first_n_report(self, corpus_dir, tmp_path):
        assert main(["eval", "--corpus", str(corpus_dir), "--mode", "first-n",
                     "--task", "nf-ef", "--classifier", "ada", "--n", "3..5",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        rows = storage.read_report_csv(tmp_path / "report_first_n_nf-ef.csv")
        pooled = [r for r in rows if r["fold"] == "pooled"]
        assert [r["n_or_width"] for r in pooled] == ["3", "4", "5"]
        per_fold = [r for r in rows if r["fold"] != "pooled"]
        assert len(per_fold) == 9  # 3 folds x 3 truncations

    def test_stream_outputs(self, corpus_dir, tmp_path):
        assert main(["eval", "--corpus", str(corpus_dir), "--mode", "stream",
                     "--task", "nf-df", "--classifier", "svm", "--width", "5",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "report_stream_nf-df_w5.csv").exists()
        assert (tmp_path / "offsets_nf-df_w5.csv").exists()
        assert (tmp_path / "detections_nf-df_w5_svm.jsonl").exists()
        offsets = (tmp_path / "offsets_nf-df_w5.csv").read_text().splitlines()
        data = [line for line in offsets if line and not line.startswith("#")]
        assert data[0] == "task,classifier,width,offset_s,pct_detected"
        assert len(data) == 1 + 12  # offsets 0..11 for the 16.5s DF period

    @pytest.mark.parametrize("task, expected", [
        ("nf-ef", [str(n) for n in range(1, 16)]),
        ("nf-df", [str(n) for n in range(1, 17)] + ["16.5"]),
    ])
    def test_first_n_default_sweep(self, corpus_dir, tmp_path, task, expected):
        assert main(["eval", "--corpus", str(corpus_dir), "--mode", "first-n",
                     "--task", task, "--classifier", "ada", "--seed", "3",
                     "--out", str(tmp_path)]) == 0
        rows = storage.read_report_csv(tmp_path / f"report_first_n_{task}.csv")
        assert [r["n_or_width"] for r in rows if r["fold"] == "pooled"] == expected

    @pytest.mark.parametrize("spec, expected", [
        ("1..15", [float(n) for n in range(1, 16)]), ("0.5..3.5", [0.5, 1.5, 2.5, 3.5]),
        ("2..2", [2.0]),
    ])
    def test_n_range_values(self, spec, expected):
        assert _parse_n_range(spec) == expected

    def test_reproduce_curves_matches_cli_chain(self, corpus_dir, features_csv, tmp_path):
        # The script evaluates a corpus it generates in memory; the CLI reads
        # the same corpus back from the files simulate wrote.
        script_out = tmp_path / "script"
        done = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "scripts", "reproduce_curves.py"),
             "--participants", "3", "--seed", "11", "--skip-first-n",
             "--out", str(script_out)],
            capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        cli_out = tmp_path / "cli"
        for task in ("nf-ef", "nf-df"):
            for mode in (["full"], ["stream", "--width", "5"]):
                assert main(["eval", "--corpus", str(corpus_dir), "--task", task,
                             "--seed", "11", "--mode", *mode, "--out", str(cli_out)]) == 0
        names = sorted(os.listdir(cli_out))
        assert sorted(os.listdir(script_out)) == sorted(names + ["features.csv"])
        assert len(names) == 2 * (2 + 1 + 5)  # per task: 2 reports, offsets, detections
        for name in names:
            assert data_lines(cli_out / name) == data_lines(script_out / name), name
        assert data_lines(features_csv) == data_lines(script_out / "features.csv")

    def test_report_aggregates_pooled_rows(self, corpus_dir, tmp_path):
        main(["eval", "--corpus", str(corpus_dir), "--mode", "full",
              "--task", "nf-ef", "--classifier", "ada", "--seed", "3",
              "--out", str(tmp_path)])
        assert main(["report", "--reports", str(tmp_path), "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        data = [line for line in summary if line and not line.startswith("#")]
        assert data[0] == "source,task,classifier,n_or_width,accuracy,recall"
        assert len(data) == 2


class TestConfigResolution:
    def test_env_overrides_default(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("GAZE_SENTINEL_SEED", "11")
        out_a = tmp_path / "a"
        assert main(["simulate", "--participants", "3", "--out", str(out_a)]) == 0
        listing = storage.read_corpus(out_a)
        baseline = storage.read_corpus(corpus_dir)
        np.testing.assert_array_equal(listing[0].gaze.x, baseline[0].gaze.x)

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAZE_SENTINEL_PARTICIPANTS", "2")
        out = tmp_path / "c"
        assert main(["simulate", "--participants", "1", "--seed", "5",
                     "--out", str(out)]) == 0
        assert len(storage.corpus_paths(out)) == 4

    def test_config_file_feeds_defaults(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"participants": 1, "seed": 9}))
        out = tmp_path / "d"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(storage.corpus_paths(out)) == 4

    @pytest.mark.parametrize("via", ["--profile", "GAZE_SENTINEL_PROFILE", "config"])
    def test_profile_is_recorded_from_every_source(self, tmp_path, monkeypatch, via):
        profile = str(DEFAULT_PROFILE)
        argv = ["simulate", "--participants", "1", "--out", str(tmp_path / "c")]
        if via == "--profile":
            argv += ["--profile", profile]
        elif via == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"profile": profile}))
            argv += ["--config", str(cfg)]
        else:
            monkeypatch.setenv(via, profile)
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["provenance"]["config"]["profile"] == profile
        digest = hashlib.sha256(DEFAULT_PROFILE.read_bytes()).hexdigest()
        assert manifest["provenance"]["config"]["profile_sha256"] == digest

    def test_fingerprint_tracks_profile_content(self, tmp_path, monkeypatch):
        """The same profile path with other content gives another
        fingerprint; a built-in run records no profile digest."""
        for name in ("GAZE_SENTINEL_PROFILE", "GAZE_SENTINEL_CONFIG"):
            monkeypatch.delenv(name, raising=False)
        profile = tmp_path / "p.json"
        fingerprints = []
        for k, rate in enumerate((0.02, 0.2)):
            data = profile_dict()
            data["invalid_rate"] = rate
            profile.write_text(json.dumps(data))
            out = tmp_path / f"c{k}"
            assert main(["simulate", "--participants", "1", "--profile", str(profile),
                         "--out", str(out)]) == 0
            fingerprints.append(
                json.loads((out / "manifest.json").read_text())["provenance"]["fingerprint"])
        assert fingerprints[0] != fingerprints[1]
        assert main(["simulate", "--participants", "1", "--out", str(tmp_path / "b")]) == 0
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert "profile_sha256" not in manifest["provenance"]["config"]

    def test_env_beats_config_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"participants": 2}))
        monkeypatch.setenv("GAZE_SENTINEL_PARTICIPANTS", "1")
        out = tmp_path / "e"
        assert main(["simulate", "--config", str(cfg), "--seed", "5",
                     "--out", str(out)]) == 0
        assert len(storage.corpus_paths(out)) == 4


class TestErrors:
    def test_missing_corpus_is_json_error(self, tmp_path, capsys):
        code = main(["extract", "--corpus", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "f.csv")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert "error" in record and "message" in record

    def test_corrupt_model_is_json_error(self, tmp_path, corpus_dir, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        session = storage.corpus_paths(corpus_dir)[0]
        code = main(["detect", "--model", str(bad), "--session", session,
                     "--width", "5", "--out", str(tmp_path / "d.jsonl")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ModelFormatError"

    def test_cut_session_is_json_error(self, features_csv, corpus_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(features_csv), "--task", "nf-ef",
                     "--classifier", "ada", "--seed", "3", "--out", str(model_path)]) == 0
        session = tmp_path / "cut.jsonl"
        with open(storage.corpus_paths(corpus_dir)[0], "rb") as fh:
            data = fh.read()
        session.write_bytes(data[:-20])
        last_line = data.count(b"\n")
        capsys.readouterr()
        code = main(["detect", "--model", str(model_path), "--session", str(session),
                     "--width", "5", "--out", str(tmp_path / "d.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "MalformedStreamError"
        assert f"line {last_line}:" in record["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("fault", ["cyclic root", "feature 99", "params.n_features"])
    def test_malformed_tree_model_is_json_error(self, features_csv, corpus_dir, tmp_path,
                                                fault):
        model_path = tmp_path / "model.json"
        assert main(["train", "--features", str(features_csv), "--task", "nf-ef",
                     "--classifier", "forest", "--seed", "3", "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text())
        root = payload["params"]["trees"][0]
        if fault == "cyclic root":  # a walk that followed it would never end
            root["left"][0] = root["right"][0] = 0
        elif fault == "feature 99":
            root["feature"][0] = 99
        else:
            payload["params"]["n_features"] = 3
        model_path.write_text(json.dumps(payload))
        package_root = os.path.dirname(os.path.dirname(gaze_sentinel.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        done = subprocess.run(
            [sys.executable, "-m", "gaze_sentinel", "detect", "--model", str(model_path),
             "--session", storage.corpus_paths(corpus_dir)[0], "--width", "5",
             "--out", str(tmp_path / "d.jsonl")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        record = json.loads(done.stderr.strip())
        assert record["error"] == "ModelFormatError"
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("name, value, argv", [
        ("GAZE_SENTINEL_WIDTH", "abc", ["eval", "--corpus", "unread"]),
        ("GAZE_SENTINEL_SEED", "1.5", ["simulate", "--participants", "1"]),
        ("GAZE_SENTINEL_WIDTH", "7", ["eval", "--corpus", "unread"]),
        ("GAZE_SENTINEL_PARTICIPANTS", "1_0", ["simulate"]),
    ])
    def test_uncastable_env_value_is_json_error(self, tmp_path, monkeypatch, capsys,
                                                name, value, argv):
        monkeypatch.setenv(name, value)
        code = main(argv + ["--out", str(tmp_path / "out")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InvalidParameterError"
        assert name in record["message"]

    @pytest.mark.parametrize("text", ['{"participants": "many"}', '{"participants": 1',
                                      '{"seed": [1]}',
                                      pytest.param("[" * 100000, id="nested too deep")])
    def test_bad_config_file_is_json_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InvalidParameterError"
        assert str(cfg) in record["message"]

    @pytest.mark.parametrize("text", ['{"sessions": [', '["session_p001_z1.jsonl"]',
                                      '{"kind": "corpus"}'],
                             ids=["cut", "not an object", "no sessions list"])
    def test_bad_manifest_is_json_error(self, tmp_path, capsys, text):
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--participants", "1", "--out", str(corpus)]) == 0
        (corpus / "manifest.json").write_text(text)
        capsys.readouterr()
        code = main(["extract", "--corpus", str(corpus), "--out", str(tmp_path / "f.csv")])
        assert code == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "MalformedStreamError"
        assert str(corpus / "manifest.json") in record["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["manifest.json", "session.jsonl"])
    def test_too_deeply_nested_corpus_file_is_json_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_text("[" * 100000 + "\n")
        code = main(["extract", "--corpus", str(tmp_path), "--out", str(tmp_path / "f.csv")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "MalformedStreamError"
        assert str(path) in record["message"]

    @pytest.mark.parametrize("via", ["--profile", "GAZE_SENTINEL_PROFILE", "config"])
    @pytest.mark.parametrize("text", ['{"schema": 1, ', '{"schema": 1}', '[1, 2]',
                                      '{"schema": 1, "reaction": {}, "baseline": 3}',
                                      "[" * 100000],
                             ids=["cut", "incomplete", "not an object", "bad block",
                                  "nested too deep"])
    def test_bad_profile_is_json_error(self, tmp_path, monkeypatch, capsys, via, text):
        profile = tmp_path / "profile.json"
        profile.write_text(text)
        argv = ["simulate", "--participants", "1", "--out", str(tmp_path / "c")]
        if via == "--profile":
            argv += ["--profile", str(profile)]
        elif via == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"profile": str(profile)}))
            argv += ["--config", str(cfg)]
        else:
            monkeypatch.setenv(via, str(profile))
        code = main(argv)
        assert code == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "InvalidParameterError"
        assert str(profile) in record["message"]
        assert "Traceback" not in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("key, value", [("sample_rate_hz", "fast"),
                                            ("dwell_floor_s", -0.05),
                                            ("invalid_rate", None)])
    def test_bad_profile_value_is_json_error(self, tmp_path, capsys, key, value):
        profile = tmp_path / "profile.json"
        data = profile_dict()
        data[key] = value
        profile.write_text(json.dumps(data))
        code = main(["simulate", "--participants", "1", "--profile", str(profile),
                     "--out", str(tmp_path / "c")])
        assert code == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "InvalidParameterError"
        assert str(profile) in record["message"] and key in record["message"]
        assert "Traceback" not in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_feature_csv_is_json_error(self, features_csv, tmp_path, capsys,
                                                  token):
        lines = features_csv.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[-1] = token
        lines[-1] = ",".join(parts)
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "model.json"
        code = main(["train", "--features", str(bad), "--task", parts[0],
                     "--classifier", "forest", "--out", str(model_path)])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InvalidParameterError"
        assert f"{bad}, line {len(lines)}:" in record["message"]
        assert not model_path.exists()

    def test_bad_report_row_is_json_error(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        path = reports / "report_full_nf-ef.csv"
        path.write_text("task,classifier,n_or_width,fold,accuracy,recall\n"
                        "nf-ef,ada,full,pooled,0.5\n")
        code = main(["report", "--reports", str(reports), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "InvalidParameterError"
        assert f"{path}, line 2:" in record["message"]
        assert "Traceback" not in err

    def test_report_value_outside_0_to_1_is_json_error(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        path = reports / "report_full_nf-ef.csv"
        path.write_text("task,classifier,n_or_width,fold,accuracy,recall\n"
                        "nf-ef,ada,full,pooled,7.5,-2\n")
        code = main(["report", "--reports", str(reports), "--out", str(tmp_path / "out")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InvalidParameterError"
        assert f"{path}, line 2: ValueError: accuracy is 7.5" in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["extract", "detect"])
    def test_session_id_not_an_integer_is_json_error(self, corpus_dir, ada_model, tmp_path,
                                                     capsys, command):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        bad = corpus / "session_p001_z1.jsonl"
        bad.write_text(bad.read_text().replace('"participant":1,', '"participant":"x",', 1))
        argv = (["extract", "--corpus", str(corpus)] if command == "extract" else
                ["detect", "--model", str(ada_model), "--session", str(bad)])
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "MalformedStreamError"
        assert f"{bad}, line 1: participant 'x'" in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("duration", ["1.65e302", "1e9"])
    @pytest.mark.parametrize("command", ["detect", "eval"])
    def test_duration_far_past_the_samples_is_json_error(self, corpus_dir, ada_model,
                                                         tmp_path, capsys, command, duration):
        """A finite duration that ends far past the last sample is refused as
        the session is read, before any window is allocated."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        bad = corpus / "session_p001_z1.jsonl"
        bad.write_text(re.sub(r'"duration":[^,]*', f'"duration":{duration}', bad.read_text(),
                              count=1))
        out = tmp_path / "out"
        argv = (["detect", "--model", str(ada_model), "--session", str(bad), "--width", "5"]
                if command == "detect" else
                ["eval", "--corpus", str(corpus), "--mode", "stream", "--task", "nf-ef",
                 "--classifier", "ada"])
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "MalformedStreamError"
        assert str(bad) in record["message"]
        assert f"more than {storage.MAX_TAIL_S:g} s after the last sample" in record["message"]
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("times", [(0.0, 200000.0), (200000.0,)],
                             ids=["between-samples", "before-the-first"])
    @pytest.mark.parametrize("command", ["detect", "eval"])
    def test_long_gap_without_samples_is_json_error(self, corpus_dir, ada_model, tmp_path,
                                                    capsys, command, times):
        """A session that goes more than ``MAX_TAIL_S`` without a sample,
        between two samples or before its first, is refused as it is read,
        before any window is allocated; its duration ends at its last
        sample."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        bad = corpus / "session_p001_z1.jsonl"
        header = re.sub(r'"duration":[^,]*', f'"duration":{times[-1]}',
                        bad.read_text().splitlines()[0], count=1)
        samples = [f'{{"t":{t:.6f},"x":1.000,"y":1.000,"valid":true}}' for t in times]
        bad.write_text("\n".join([header, *samples]) + "\n")
        out = tmp_path / "out"
        argv = (["detect", "--model", str(ada_model), "--session", str(bad), "--width", "5"]
                if command == "detect" else
                ["eval", "--corpus", str(corpus), "--mode", "stream", "--task", "nf-ef",
                 "--classifier", "ada"])
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record == {"error": "MalformedStreamError", "message": (
            f"malformed session {bad}: MalformedTimelineError: no sample for more than "
            f"{storage.MAX_TAIL_S:g} s, from 0.0 to 200000.0")}
        assert "Traceback" not in err
        assert not out.exists()

    def test_feature_too_large_to_standardize_is_json_error(self, features_csv, tmp_path,
                                                            capsys):
        """svm refuses a table whose feature mean overflows before it writes a
        model; the learners that do not standardize still train from it, and
        their models load."""
        lines = features_csv.read_text().splitlines()
        column = next(line for line in lines if line.startswith("task,")).split(",").index(
            "p_robot_body")
        row = next(i for i, line in enumerate(lines) if line.startswith("nf-ef,"))
        parts = lines[row].split(",")
        parts[column] = "1e308"
        lines[row] = ",".join(parts)
        table = tmp_path / "features.csv"
        table.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = ["train", "--features", str(table), "--task", "nf-ef", "--classifier"]
        model = tmp_path / "svm.json"
        assert main(argv + ["svm", "--out", str(model)]) == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "InvalidParameterError"
        assert "standard deviation is not a finite number" in record["message"]
        assert not model.exists()
        for kind in ("forest", "ada", "gbt-a", "gbt-b"):
            model = tmp_path / f"{kind}.json"
            assert main(argv + [kind, "--out", str(model)]) == 0
            assert load_model(model).config.kind == kind

    def test_two_sessions_of_one_key_is_json_error(self, corpus_dir, tmp_path, capsys):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for copy in (first, second):
            shutil.copyfile(corpus_dir / "session_p001_z1.jsonl", copy)
        code = main(["extract", "--corpus", str(tmp_path), "--out", str(tmp_path / "f.csv")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "MalformedStreamError",
                          "message": f"{first} and {second} both hold participant 1 puzzle 1"}
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("kind", ["config file", "profile", "model envelope",
                                      "model params", "manifest", "session header",
                                      "session sample", "feature CSV", "report CSV"])
    def test_decode_fault_names_its_file(self, corpus_dir, features_csv, ada_model, tmp_path,
                                         capsys, kind):
        """A fault in any kind of input file ends the command with exit 1 and
        a JSON record naming the file, not a traceback."""
        session = storage.corpus_paths(corpus_dir)[0]
        if kind == "config file":
            bad, text = tmp_path / "cfg.json", '{"seed": 1'
            argv = ["simulate", "--config", str(bad)]
        elif kind == "profile":
            bad, text = tmp_path / "profile.json", '{"schema": 1}'
            argv = ["simulate", "--profile", str(bad)]
        elif kind.startswith("model"):
            model = json.loads(ada_model.read_text())
            if kind == "model envelope":
                model["n_features"] = "11"
            else:
                model["params"]["threshold"][0] = float("nan")
            bad, text = tmp_path / "model.json", json.dumps(model)
            argv = ["detect", "--model", str(bad), "--session", session]
        elif kind == "manifest":
            bad, text = tmp_path / "manifest.json", '{"sessions": ['
            argv = ["extract", "--corpus", str(tmp_path)]
        elif kind.startswith("session"):
            lines = open(session).read().splitlines(keepends=True)
            if kind == "session header":
                lines[0] = re.sub(r'"duration":[^,]*', '"duration":1e400', lines[0])
            else:
                lines[2] = '{"t": 0.01}\n'
            bad, text = tmp_path / "session.jsonl", "".join(lines)
            argv = ["detect", "--model", str(ada_model), "--session", str(bad)]
        elif kind == "feature CSV":
            bad = tmp_path / "features.csv"
            text = features_csv.read_text().rstrip("\n").rsplit(",", 1)[0] + ",nan\n"
            argv = ["train", "--features", str(bad), "--classifier", "ada"]
        else:
            (tmp_path / "reports").mkdir()
            bad = tmp_path / "reports" / "report_full_nf-ef.csv"
            text = "task,classifier,n_or_width,fold,accuracy,recall\nnf-ef,ada,full,1,x,0.5\n"
            argv = ["report", "--reports", str(tmp_path / "reports")]
        bad.write_text(text)
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert str(bad) in record["message"]
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_fold_error_in_worker_is_json_error(self, tmp_path):
        # With two participants each training split keeps the other's two
        # EF rows, too few for SMOTE's k = 2; both folds go to workers when
        # the process may use two CPUs.
        corpus = tmp_path / "corpus"
        assert main(["simulate", "--participants", "2", "--seed", "11",
                     "--out", str(corpus)]) == 0
        package_root = os.path.dirname(os.path.dirname(gaze_sentinel.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        done = subprocess.run(
            [sys.executable, "-m", "gaze_sentinel", "eval", "--corpus", str(corpus),
             "--task", "nf-ef", "--classifier", "forest", "--mode", "full",
             "--out", str(tmp_path / "eval")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert json.loads(done.stderr) == {
            "error": "InsufficientMinorityError",
            "message": "minority class has 2 rows; need more than k=2"}

    @pytest.mark.parametrize("n", ["nan", "inf", "1..inf", "-inf..3", "nan..2", "1..nan"])
    def test_non_finite_first_n_is_json_error(self, tmp_path, capsys, n):
        # the range is refused before the corpus is opened
        out = tmp_path / "out"
        code = main(["eval", "--corpus", str(tmp_path / "unread"), "--mode", "first-n",
                     f"--n={n}", "--out", str(out)])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InvalidParameterError"
        assert repr(n) in record["message"]
        assert not out.exists()

    # Each range used to run without end, or to build a list of 10**12 values,
    # so each runs in its own process with a time limit.
    @pytest.mark.parametrize("n", ["1e17..1e17", "-1e17..-1e17", f"{2 ** 53}..{2 ** 53}",
                                   "1..1e12", "-1e308..1e308"])
    def test_unending_first_n_range_is_json_error(self, tmp_path, n):
        package_root = os.path.dirname(os.path.dirname(gaze_sentinel.__file__))
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "gaze_sentinel", "eval", "--corpus", str(tmp_path / "unread"),
             "--mode", "first-n", f"--n={n}", "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=package_root),
            timeout=60)
        assert done.returncode == 1
        record = json.loads(done.stderr)
        assert record["error"] == "InvalidParameterError"
        assert repr(n) in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "seed", 1.5), ("simulate", "participants", 2.9),
        ("simulate", "seed", True), ("simulate", "participants", False),
        ("simulate", "seed", float("inf")), ("eval", "width", False),
        pytest.param("eval", "width", 10 ** 400, id="eval-width-10**400"),
        ("eval", "width", 7), ("simulate", "profile", None), ("simulate", "profile", True),
        ("eval", "n", None), ("simulate", "seed", "5"), ("simulate", "seed", 5.0),
        ("simulate", "participants", "1_0"),
    ])
    def test_config_value_of_wrong_kind_is_json_error(self, tmp_path, capsys, command, key,
                                                      value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        argv = ["eval", "--corpus", str(tmp_path / "unread")] if command == "eval" \
            else ["simulate", "--participants", "1"]
        code = main(argv + ["--config", str(cfg), "--out", str(out)])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InvalidParameterError"
        assert str(cfg) in record["message"] and key in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "eval"])
    @pytest.mark.parametrize("key, value, via", [
        ("width", "nan", "env"), ("width", "inf", "env"), ("width", float("nan"), "config"),
    ])
    def test_non_finite_width_or_slide_is_json_error(self, corpus_dir, ada_model, tmp_path,
                                                     monkeypatch, capsys, command, key,
                                                     value, via):
        out = tmp_path / "out"
        if command == "detect":
            argv = ["detect", "--model", str(ada_model),
                    "--session", storage.corpus_paths(corpus_dir)[0], "--out", str(out)]
        else:
            argv = ["eval", "--corpus", str(corpus_dir), "--mode", "stream",
                    "--classifier", "ada", "--out", str(out)]
        if via == "env":
            monkeypatch.setenv(f"GAZE_SENTINEL_{key.upper()}", value)
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))  # NaN / Infinity tokens
            argv += ["--config", str(cfg)]
        code = main(argv)
        assert code == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "InvalidParameterError"
        assert "finite" in record["message"]
        assert "Traceback" not in err
        assert not out.exists() or not os.listdir(out)

    def test_stream_eval_without_failure_sessions_is_json_error(self, corpus_dir, tmp_path,
                                                                 recwarn, capsys):
        corpus = tmp_path / "no_ef"
        corpus.mkdir()
        for path in storage.corpus_paths(corpus_dir):
            if storage.read_session_jsonl(path).timeline.failure_type != "EF":
                shutil.copy(path, corpus)
        out = tmp_path / "out"
        code = main(["eval", "--corpus", str(corpus), "--mode", "stream", "--task", "nf-ef",
                     "--classifier", "ada", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "InvalidParameterError"
        assert "task nf-ef has no EF sessions" in record["message"]
        assert "Traceback" not in err
        assert not recwarn.list
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("via", ["flag", "env", "config"])
    @pytest.mark.parametrize("command", ["simulate", "train", "eval"])
    def test_negative_seed_is_json_error(self, corpus_dir, features_csv, tmp_path,
                                         monkeypatch, capsys, command, via):
        out = tmp_path / "out"
        argv = {
            "simulate": ["simulate", "--participants", "1"],
            "train": ["train", "--features", str(features_csv), "--task", "nf-ef",
                      "--classifier", "ada"],
            "eval": ["eval", "--corpus", str(corpus_dir), "--classifier", "ada"],
        }[command] + ["--out", str(out)]
        if via == "flag":
            argv += ["--seed", "-1"]
        elif via == "env":
            monkeypatch.setenv("GAZE_SENTINEL_SEED", "-1")
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(cfg)]
        code = main(argv)
        assert code == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "InvalidParameterError"
        assert "seed" in record["message"]
        assert "Traceback" not in err
        assert not out.exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--corpus", "x", "--out", "y", "--mode", "bogus"])
        assert err.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


# Each subcommand's flags: (type, choices, required). Written out here, not
# read from the CLI's tables, so a change to any of them shows.
PATH, REQUIRED = (str, None, False), (str, None, True)
TASK_CHOICES = (str, ("nf-df", "nf-ef"), False)
WIDTH_CHOICES = (float, (3.0, 5.0, 10.0), False)
SEED = (int, None, False)
KIND_CHOICES = ("forest", "ada", "gbt-a", "svm", "gbt-b")
PARSER_CONTRACT = {
    "simulate": {"--out": REQUIRED, "--profile": PATH, "--config": PATH, "--seed": SEED,
                 "--participants": (int, None, False)},
    "extract": {"--corpus": REQUIRED, "--out": REQUIRED, "--config": PATH},
    "train": {"--features": REQUIRED, "--out": REQUIRED, "--config": PATH, "--seed": SEED,
              "--task": TASK_CHOICES, "--classifier": (str, KIND_CHOICES, False)},
    "eval": {"--corpus": REQUIRED, "--out": REQUIRED, "--config": PATH, "--seed": SEED,
             "--task": TASK_CHOICES, "--classifier": (str, KIND_CHOICES + ("all",), False),
             "--mode": (str, ("full", "first-n", "stream"), False), "--n": PATH,
             "--width": WIDTH_CHOICES},
    "detect": {"--model": REQUIRED, "--session": REQUIRED, "--out": REQUIRED,
               "--config": PATH, "--width": WIDTH_CHOICES},
    "report": {"--reports": REQUIRED, "--out": REQUIRED, "--config": PATH},
}


def parser_flags() -> dict:
    """{command: {flag: (type, choices, required)}} as the parser builds them.
    ``train --classifier all`` is left out of the choices: train refuses
    ``all`` with exit 1 whether its parser offers it or not
    (``test_train_refuses_all_from_every_source``)."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {command: {a.option_strings[0]: (
        a.type or str,
        tuple(c for c in a.choices if (command, c) != ("train", "all")) if a.choices else None,
        a.required) for a in p._actions if a.option_strings and a.dest != "help"}
        for command, p in sub.choices.items()}


class TestParser:
    def test_parser_contract(self):
        assert parser_flags() == PARSER_CONTRACT

    def test_later_call_resolves_a_flag_it_omits(self, corpus_dir, ada_model, tmp_path,
                                                 monkeypatch):
        """The parser is built once per process, and a flag one call sets does
        not carry over: a later call that omits it resolves it from its own
        environment, or else from the default."""
        for name in list(os.environ):
            if name.startswith("GAZE_SENTINEL_"):
                monkeypatch.delenv(name)
        session = storage.corpus_paths(corpus_dir)[0]
        outs = [tmp_path / f"{name}.jsonl" for name in ("flag", "env", "default")]
        argv = ["detect", "--model", str(ada_model), "--session", session, "--out"]
        assert main(argv + [str(outs[0]), "--width", "3"]) == 0
        monkeypatch.setenv("GAZE_SENTINEL_WIDTH", "10")
        assert main(argv + [str(outs[1])]) == 0
        monkeypatch.delenv("GAZE_SENTINEL_WIDTH")
        assert main(argv + [str(outs[2])]) == 0
        headers = [json.loads(out.read_text().splitlines()[0]) for out in outs]
        assert [h["provenance"]["config"]["width"] for h in headers] == [3.0, 10.0, 5.0]

    def test_wrapper_installed_after_a_call_is_the_one_that_runs(self, corpus_dir, ada_model,
                                                                  tmp_path, monkeypatch):
        """``cmd_detect`` is looked up when ``main`` runs, so a tracer that
        wraps it after the first call sees every later one."""
        session = storage.corpus_paths(corpus_dir)[0]
        argv = ["detect", "--model", str(ada_model), "--session", session, "--out"]
        assert main(argv + [str(tmp_path / "a.jsonl")]) == 0
        seen, unwrapped = [], cli.cmd_detect
        monkeypatch.setattr(cli, "cmd_detect", lambda args: seen.append(args) or unwrapped(args))
        assert main(argv + [str(tmp_path / "b.jsonl")]) == 0
        assert [args.out for args in seen] == [str(tmp_path / "b.jsonl")]
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in PARSER_CONTRACT.items()
        for flag, (kind, choices, _) in flags.items() if kind is not str or choices])
    def test_bad_flag_value_exits_2(self, command, flag, tmp_path):
        required = [part for f, (_, _, req) in PARSER_CONTRACT[command].items() if req
                    for part in (f, str(tmp_path / f.strip("-")))]
        with pytest.raises(SystemExit) as err:
            main([command, *required, flag, "bogus"])
        assert err.value.code == 2
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", sorted(PARSER_CONTRACT))
    def test_missing_required_flag_exits_2(self, command, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([command])
        assert err.value.code == 2

    @pytest.mark.parametrize("via", ["env", "config"])
    @pytest.mark.parametrize("command, key, value", [
        ("eval", "task", "nf-xx"), ("eval", "mode", "bogus"), ("eval", "classifier", "mlp"),
        ("train", "task", "nf-xx"), ("train", "classifier", "mlp"), ("train", "task", 1),
    ])
    def test_bad_choice_from_env_or_config_is_refused_before_reading(
            self, tmp_path, monkeypatch, capsys, command, key, value, via):
        """Refused with exit 1, naming where the value came from, before the
        command reads its input (which does not exist here)."""
        path_flag = "--corpus" if command == "eval" else "--features"
        argv = [command, path_flag, str(tmp_path / "unread"), "--out", str(tmp_path / "out")]
        if via == "env":
            source = f"GAZE_SENTINEL_{key.upper()}"
            monkeypatch.setenv(source, str(value))
        else:
            source = str(tmp_path / "cfg.json")
            (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
            argv += ["--config", source]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InvalidParameterError"
        assert source in record["message"] and key in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via", ["flag", "env", "config"])
    def test_train_refuses_all_from_every_source(self, tmp_path, monkeypatch, capsys, via):
        argv = ["train", "--features", str(tmp_path / "unread"), "--out", str(tmp_path / "m")]
        if via == "flag":
            argv += ["--classifier", "all"]
        elif via == "env":
            monkeypatch.setenv("GAZE_SENTINEL_CLASSIFIER", "all")
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"classifier": "all"}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "InvalidParameterError",
                          "message": "train expects a single classifier, not 'all'"}
