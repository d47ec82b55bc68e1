"""The thread-backed worker pool: one compile thread, one worker.

An in-process service runs one compile thread over one live engine,
reporting as one worker.  Its job count and the snapshot the pool
keeps are read by other threads while chunks run, so a lost update
would show as a short ``jobs`` count or stale cache counters;
snapshots can reach the pool out of order, and the newest must win.
Readiness waits until every worker has answered a ping, however the
pings land.
"""

import sys
from concurrent.futures import Future

from repro.engine import ExperimentEngine
from repro.experiments.models import flat_machine_with_unreachable_state
from repro.service import WorkerPool, compile_params


def test_the_compile_thread_counts_every_job():
    pool = WorkerPool(engine=ExperimentEngine())
    params = compile_params(flat_machine_with_unreachable_state())
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        futures = [pool.submit_chunk([params] * 5) for _ in range(40)]
        for future in futures:
            assert len(future.result(timeout=120)["payloads"]) == 5
    finally:
        sys.setswitchinterval(previous)
        pool.shutdown()
    assert pool.workers == 1
    (worker,) = pool.per_worker()
    assert worker["jobs"] == 200
    assert worker["hits"] + worker["misses"] == 200
    assert worker["misses"] == 1
    assert pool.aggregate_stats()["jobs"] == 200


def test_an_older_snapshot_does_not_replace_a_newer_one():
    pool = WorkerPool(engine=ExperimentEngine())
    try:
        pool._note_stats({"token": "t", "jobs": 5, "hits": 4})
        pool._note_stats({"token": "t", "jobs": 3, "hits": 2})
    finally:
        pool.shutdown()
    assert pool.per_worker() == [{"token": "t", "jobs": 5, "hits": 4}]


class ScriptedPings:
    """An executor whose pings answer with scripted worker tokens, in
    order; running out of tokens fails the submit."""

    def __init__(self, tokens):
        self.tokens = iter(tokens)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(next(self.tokens))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_readiness_pings_until_every_worker_has_answered():
    pool = WorkerPool(workers=2)
    pool._executor.shutdown()
    # Round one: worker a takes both pings while b still spawns.
    pool._executor = ScriptedPings(["a", "a", "a", "b"])
    assert pool.wait_ready(timeout=5) == 2


def test_a_thread_backed_pool_is_ready_after_one_round():
    pool = WorkerPool(engine=ExperimentEngine())
    pool._executor.shutdown()
    pool._executor = ScriptedPings(["t"])
    assert pool.wait_ready(timeout=5) == 1
