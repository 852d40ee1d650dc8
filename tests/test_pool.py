import multiprocessing
import os
import time

import pytest

from gaze_sentinel import pool
from gaze_sentinel.errors import InvalidParameterError, MalformedStreamError
from gaze_sentinel.pool import fork_map


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs ``fork_map`` sees, so the pool runs on any machine."""
    def set_cpus(n: int) -> None:
        monkeypatch.setattr(pool, "_usable_cpus", lambda: n)
    return set_cpus


def sleep_then(seconds: float, value):
    time.sleep(seconds)
    if isinstance(value, Exception):
        raise value
    return value


class TestForkMap:
    def test_results_come_back_in_call_order(self, cpus):
        cpus(2)
        # Earlier calls take longer, so workers finish them last.
        delays = [0.2, 0.15, 0.1, 0.05, 0.0, 0.0]
        got = fork_map(lambda i: (sleep_then(delays[i], i), os.getpid()), range(6))
        assert [i for i, _ in got] == list(range(6))
        assert os.getpid() not in {pid for _, pid in got}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_cpus, n_calls", [(1, 4), (2, 1)])
    def test_one_cpu_or_one_call_runs_in_process(self, cpus, n_cpus, n_calls):
        cpus(n_cpus)
        assert fork_map(lambda _: os.getpid(), range(n_calls)) == [os.getpid()] * n_calls
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_cpus", [2, 1])
    def test_first_failing_call_in_order_raises_its_own_error(self, cpus, n_cpus):
        cpus(n_cpus)
        # Call 1 fails after call 3 has failed; call 1's error is raised.
        calls = [(0.0, "a"), (0.3, InvalidParameterError("call 1")), (0.0, "c"),
                 (0.0, MalformedStreamError("call 3")), (0.0, "e")]
        with pytest.raises(InvalidParameterError) as raised:
            fork_map(lambda call: sleep_then(*call), calls)
        assert type(raised.value) is InvalidParameterError
        assert str(raised.value) == "call 1"
        assert multiprocessing.active_children() == []

    def test_arguments_are_inherited_not_pickled(self, cpus):
        cpus(2)
        # Lambdas cannot be pickled, so these reach the workers only through
        # the fork.
        calls = [lambda: "one", lambda: "two", lambda: "three"]
        parent = os.getpid()
        assert fork_map(lambda call: (call(), os.getpid() != parent), calls) == [
            ("one", True), ("two", True), ("three", True)]
        assert multiprocessing.active_children() == []

