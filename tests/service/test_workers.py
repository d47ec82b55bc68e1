"""The thread-backed worker pool: threads sharing one worker.

An in-process service runs ``engine.jobs`` threads over one live
engine, all reporting as one worker.  Its job count and the snapshot
the pool keeps are shared state, so a lost update would show as a
short ``jobs`` count or stale cache counters; snapshots can reach the
pool out of order, and the newest must win.
"""

import sys

from repro.engine import ExperimentEngine
from repro.experiments.models import flat_machine_with_unreachable_state
from repro.service import WorkerPool, compile_params


def test_threads_sharing_one_worker_count_every_job():
    engine = ExperimentEngine(jobs=4)            # more threads than cores
    pool = WorkerPool(engine=engine)
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
    assert pool.workers == 4
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
