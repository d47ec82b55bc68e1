"""The compile service end to end: unix socket and TCP, identical
results to in-process engine runs, batching, coalescing, metrics."""

import asyncio
import gc
import logging
import socket
import sys
import threading
import time

import pytest

from repro.engine import ExperimentEngine
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.service import (CompileService, ServiceClient, ServiceError,
                           ServiceThread, compile_params,
                           compile_result_payload, job_from_params)


@pytest.fixture(scope="module")
def machine():
    return flat_machine_with_unreachable_state()


@pytest.fixture(scope="module")
def hierarchical():
    return hierarchical_machine_with_shadowed_composite()


@pytest.fixture()
def handle():
    with ServiceThread(ExperimentEngine()) as running:
        yield running


class TestEndToEnd:
    def test_ping(self, handle):
        with handle.client() as client:
            result = client.ping()
        assert result["pong"] is True and "version" in result

    def test_compile_identical_to_in_process(self, handle, machine):
        """The acceptance criterion: submit-via-client returns results
        identical to an in-process ExperimentEngine run."""
        local = ExperimentEngine()
        job = job_from_params(
            compile_params(machine, pattern="state-table", target="rt16",
                           want_asm=True))
        expected = compile_result_payload(
            job, local.compile_machine(machine, pattern="state-table",
                                       target="rt16"), want_asm=True)
        with handle.client() as client:
            served = client.compile_machine(machine, pattern="state-table",
                                            target="rt16", want_asm=True)
        assert served == expected

    def test_batch_order_and_dedup(self, handle, machine, hierarchical):
        jobs = [compile_params(machine, pattern="nested-switch"),
                compile_params(hierarchical, pattern="state-table"),
                compile_params(machine, pattern="nested-switch")]
        with handle.client() as client:
            response = client.request("batch", jobs=jobs)
        results = response["results"]
        assert len(results) == 3
        assert results[0] == results[2]
        assert results[1]["machine"] == hierarchical.name
        assert response["deduplicated"] == 1
        assert handle.service.engine.stats.misses == 2

    def test_compiles_share_the_engine_cache(self, handle, machine):
        with handle.client() as client:
            client.compile_machine(machine)
            client.compile_machine(machine)
        stats = handle.service.engine.stats
        assert stats.misses == 1 and stats.hits == 1

    def test_service_block_counts_connections(self, handle, machine):
        with handle.client() as first:
            first.compile_machine(machine)
            with handle.client() as second:
                second.ping()
                doc = second.metrics()
        assert doc["service"]["connections"] == 2
        # compile + ping; the metrics request counts once it is answered
        assert doc["service"]["requests"] == 2
        assert doc["endpoints"]["compile"]["count"] == 1
        assert doc["cache"]["misses"] == 1

    def test_stats_op_is_retired(self, handle):
        with handle.client() as client:
            with pytest.raises(ServiceError,
                               match="unknown operation 'stats'"):
                client.request("stats")
            doc = client.metrics()
        assert doc["endpoints"]["invalid"]["errors"] == 1
        assert doc["service"]["errors"] == 1

    def test_errors_do_not_kill_the_connection(self, handle, machine):
        with handle.client() as client:
            with pytest.raises(ServiceError, match="unknown operation"):
                client.request("definitely-not-an-op")
            with pytest.raises(ServiceError):
                client.request("compile", machine={"format": 99})
            assert client.ping()["pong"] is True

    def test_unknown_ops_share_one_metric_label(self, handle):
        with handle.client() as client:
            for n in range(20):
                with pytest.raises(ServiceError, match="unknown operation"):
                    client.request(f"bogus-{n}")
            doc = client.metrics()
        assert set(doc["endpoints"]) == {"invalid"}
        assert doc["endpoints"]["invalid"]["errors"] == 20
        series = doc["registry"]["service_request_seconds"]["series"]
        assert set(series) == {"op=invalid"}

    def test_tcp_mode(self, machine):
        with ServiceThread(ExperimentEngine(), port=0) as running:
            assert running.address.startswith("tcp:")
            with ServiceClient(host="127.0.0.1",
                               port=running.port) as client:
                payload = client.compile_machine(machine)
        assert payload["total_size"] > 0

    def test_stop_with_an_idle_client_connected(self, caplog, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        running = ServiceThread(ExperimentEngine()).start()
        with socket.socket(socket.AF_UNIX) as idle:
            idle.connect(running.socket_path)
            # One round trip: the connection's handler is up, then idle.
            idle.sendall(b'{"op": "ping"}\n')
            assert idle.makefile("rb").readline()
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                began = time.monotonic()
                running.stop()
                elapsed = time.monotonic() - began
                gc.collect()     # a pending handler task logs when freed
        assert elapsed < 5
        assert [record.getMessage() for record in caplog.records
                if record.name == "asyncio"] == []
        assert unraisable == []

    def test_stop_with_compiles_in_flight(self, caplog, monkeypatch,
                                          machine, hierarchical):
        """A batch and a single compile are queued on the pool's one
        thread when the service stops; the chunk still running finishes
        afterwards.  Nothing is left pending and no callback fails."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        engine = ExperimentEngine()
        release = threading.Event()
        compiling = []
        original = engine.compile_machine

        def held_compile(*args, **kwargs):
            compiling.append(threading.current_thread())
            release.wait(30)
            return original(*args, **kwargs)

        engine.compile_machine = held_compile
        running = ServiceThread(engine).start()

        def request(op, **params):
            try:
                with running.client() as client:
                    client.request(op, **params)
            except (ConnectionError, ServiceError):
                pass                     # the server went away mid-request

        jobs = [compile_params(machine, pattern=pattern)
                for pattern in ("nested-switch", "state-table")]
        clients = [
            threading.Thread(target=request, args=("batch",),
                             kwargs={"jobs": jobs}),
            threading.Thread(target=request, args=("compile",),
                             kwargs=compile_params(hierarchical))]
        for thread in clients:
            thread.start()
        deadline = time.monotonic() + 10
        while running.service.metrics.queue_depth < 3:
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.01)
        with caplog.at_level(logging.WARNING):
            began = time.monotonic()
            running.stop()
            elapsed = time.monotonic() - began
            release.set()                # the running chunk completes late
            for thread in compiling + clients:
                thread.join(timeout=30)
                assert not thread.is_alive()
            gc.collect()                 # a pending task logs when freed
        assert elapsed < 5
        assert not running.service._inflight, "in-flight table must drain"
        assert [record.getMessage() for record in caplog.records
                if record.name in ("asyncio", "concurrent.futures")] == []
        assert unraisable == []

    def test_service_over_persistent_store(self, machine, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with ServiceThread(ExperimentEngine(cache_dir=cache_dir)) as run:
            with run.client() as client:
                first = client.compile_machine(machine)
        # a later service (new process in real life) is warm from disk
        warm_engine = ExperimentEngine(cache_dir=cache_dir)
        with ServiceThread(warm_engine) as run:
            with run.client() as client:
                second = client.compile_machine(machine)
        assert second == first
        assert warm_engine.stats.disk_hits == 1
        assert warm_engine.stats.misses == 0


class TestCoalescing:
    def test_identical_inflight_requests_coalesce(self, machine):
        """Two concurrent identical requests -> one computation, one
        coalesced hit."""
        engine = ExperimentEngine()
        release = threading.Event()
        computed = []
        original = engine.compile_machine

        def slow_compile(*args, **kwargs):
            release.wait(30)
            computed.append(1)
            return original(*args, **kwargs)

        engine.compile_machine = slow_compile
        service = CompileService(engine)
        params = compile_params(machine)

        async def scenario():
            first = asyncio.ensure_future(
                service._compile_one(dict(params)))
            # let the first request install its in-flight task
            while not service._inflight:
                await asyncio.sleep(0.01)
            second = asyncio.ensure_future(
                service._compile_one(dict(params)))
            while service.metrics.coalesced < 1:
                await asyncio.sleep(0.01)
            release.set()
            return await asyncio.gather(first, second)

        try:
            results = asyncio.run(scenario())
        finally:
            service.close()
        assert results[0] == results[1]
        assert len(computed) == 1, "coalesced request must not recompute"
        assert service.metrics.coalesced == 1
        assert service.metrics_payload()["service"]["coalesced"] == 1
        assert not service._inflight, "in-flight table must drain"
