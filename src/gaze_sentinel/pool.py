"""The package's one worker pool: ``fork_map`` runs a list of calls in
forked worker processes, one per CPU this process may use."""

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

_calls = None  # a worker's (fn, args), set once as it starts


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _inherit(fn, args) -> None:
    global _calls
    _calls = (fn, args)


def _run(i: int) -> bytes:
    # Pickled here, so the parent's main thread, not the pool's result
    # thread, allocates the result.
    fn, args = _calls
    return pickle.dumps(fn(args[i]))


def fork_map(fn, args) -> list:
    """``[fn(a) for a in args]``, in worker processes, one per CPU this
    process may use; with one CPU or one call, in-process. Results come back
    in call order, and the first failing call in that order raises its own
    error; calls not yet started are cancelled.

    Workers are forked, and they inherit ``fn`` and ``args`` through the
    fork: only a call's index goes down the pipe and only its result comes
    back, so a call's arguments need not pickle and a corpus's samples never
    cross. The pool lives for one call. Two forked workers start in about
    10 ms with numpy and this package imported; spawned or forkserver ones
    import both anew, 0.3-0.5 s per pool on a 2-vCPU VM, and re-run the
    caller's main module, which fails in scripts without a ``__main__``
    guard. The executor forks its workers before it starts its own threads;
    the only other threads are OpenBLAS's, which it stops around a fork.
    """
    args = list(args)
    workers = min(_usable_cpus(), len(args))
    if workers <= 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit, initargs=(fn, args)) as pool:
        futures = [pool.submit(_run, i) for i in range(len(args))]
        try:
            return [pickle.loads(future.result()) for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
