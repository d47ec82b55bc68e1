"""Bounded-queue backpressure: immediate busy replies, client backoff.

A slow-engine stub saturates a tiny queue; the contract under test:

* a request that would exceed the bound is answered ``busy`` within a
  deadline — *immediately*, not after queueing behind slow work;
* a client with backoff retries absorbs busy replies and eventually
  drains its whole batch;
* a single batch larger than the entire queue is rejected
  non-retryably (waiting could never admit it);
* rejections and high-water marks land in the metrics document;
* duplicates in a batch are folded before admission, so they take one
  queue slot.
"""

import threading
import time

import pytest

from repro.engine import ExperimentEngine
from repro.experiments.workload import WorkloadSpec, generate_machine
from repro.service import ServiceBusy, ServiceThread
from repro.service.protocol import compile_params


class SlowEngine(ExperimentEngine):
    """Every compile takes >= ``delay`` seconds (cache bypass included:
    distinct machines below keep every compile a miss)."""

    delay = 0.4

    def compile_machine(self, *args, **kwargs):
        time.sleep(self.delay)
        return super().compile_machine(*args, **kwargs)


@pytest.fixture()
def machines():
    return [generate_machine(WorkloadSpec(n_live=2, seed=seed,
                                          name=f"BP{seed}"))
            for seed in range(8)]


@pytest.fixture()
def saturated(machines):
    """A queue_limit=2 server with both slots held by slow compiles."""
    with ServiceThread(SlowEngine(), queue_limit=2) as handle:
        holders = []
        for index in range(2):
            def hold(i=index):
                with handle.client(busy_retries=0) as client:
                    client.compile_machine(machines[i])
            thread = threading.Thread(target=hold, daemon=True)
            thread.start()
            holders.append(thread)
        deadline = time.time() + 5.0
        while time.time() < deadline:
            with handle.client() as client:
                if client.metrics()["queue"]["depth"] >= 2:
                    break
            time.sleep(0.01)
        else:
            pytest.fail("queue never saturated")
        yield handle
        for thread in holders:
            thread.join(timeout=10)


class TestBusyReplies:
    def test_busy_reply_arrives_within_deadline(self, saturated,
                                                machines):
        with saturated.client(busy_retries=0) as client:
            began = time.perf_counter()
            with pytest.raises(ServiceBusy):
                client.compile_machine(machines[2])
            elapsed = time.perf_counter() - began
        # the reply must not have queued behind ~0.4 s compiles
        assert elapsed < 0.2, f"busy reply took {elapsed:.3f}s"

    def test_backoff_client_eventually_drains(self, saturated, machines):
        with saturated.client(busy_retries=30,
                              busy_backoff=0.05) as client:
            # every slot is held; backoff must carry all three singles
            # through as the slow compiles finish
            payloads = [client.compile_machine(machine)
                        for machine in machines[2:5]]
            assert all(p["total_size"] > 0 for p in payloads)
            assert client.busy_retries_used >= 1
            metrics = client.metrics()
        assert metrics["queue"]["busy_rejections"] >= 1
        assert metrics["queue"]["high_water"] <= 2

    def test_oversized_batch_is_rejected_non_retryably(self, saturated,
                                                       machines):
        with saturated.client(busy_retries=50) as client:
            began = time.perf_counter()
            with pytest.raises(ServiceBusy):
                client.submit_batch([compile_params(machine)
                                     for machine in machines])   # 8 > 2
            elapsed = time.perf_counter() - began
            # non-retryable: no backoff loop, instant rejection
            assert elapsed < 0.2
            assert client.busy_retries_used == 0


class TestUnboundedDefault:
    def test_no_limit_never_rejects(self, machines):
        with ServiceThread(ExperimentEngine()) as handle:
            with handle.client(busy_retries=0) as client:
                results = client.submit_batch(
                    [compile_params(machine) for machine in machines])
                assert len(results) == len(machines)
                metrics = client.metrics()
        assert metrics["queue"]["limit"] is None
        assert metrics["queue"]["busy_rejections"] == 0


class TestAdmission:
    def test_duplicates_take_one_queue_slot(self, machines):
        job = compile_params(machines[0])
        with ServiceThread(ExperimentEngine(), queue_limit=2) as handle:
            with handle.client(busy_retries=0) as client:
                response = client.request("batch", jobs=[job] * 3)
        assert len(response["results"]) == 3
        assert response["deduplicated"] == 2
