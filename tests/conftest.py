import json
import time
from importlib import resources

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("suite")

from gaze_sentinel import storage
from gaze_sentinel.evaluate import Corpus
from gaze_sentinel.sim import CorpusSpec, generate_corpus

# The committed behaviour profile, the one the simulator reads by default.
DEFAULT_PROFILE = resources.files("gaze_sentinel") / "profiles" / "default.json"


def read_session_header(path) -> dict:
    """The header of a session file, read without its samples."""
    with open(path, encoding="utf-8") as fh:
        return storage._parse_session_header(fh.readline(), path)


def segment_duration(segment) -> float:
    """The length of an ``EpisodeSegment`` in seconds."""
    return segment.t_end - segment.t_start


def profile_dict() -> dict:
    """A fresh dict of the committed profile, without its ``name``, a key
    the profile reader ignores."""
    data = json.loads(DEFAULT_PROFILE.read_text())
    del data["name"]
    return data


# Wall-clock cost of building shared fixtures, charged to the first
# acceptance criterion that needs them.
BUILD_SECONDS = {}


@pytest.fixture(scope="session")
def default_corpus():
    """The committed synthetic corpus: 26 participants, master seed 7."""
    t0 = time.monotonic()
    corpus = Corpus(generate_corpus(CorpusSpec()))
    corpus.segment_rows()
    BUILD_SECONDS["default_corpus"] = time.monotonic() - t0
    return corpus


@pytest.fixture(scope="session")
def mini_corpus():
    """Small corpus for fast integration tests (4 participants)."""
    corpus = Corpus(generate_corpus(CorpusSpec(participants=4, master_seed=11)))
    corpus.segment_rows()
    return corpus
