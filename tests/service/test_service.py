"""The compile service end to end: unix socket and TCP, identical
results to in-process engine runs, batching, coalescing, stats."""

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

    def test_per_client_stats(self, handle, machine):
        with handle.client() as first:
            first.compile_machine(machine)
            with handle.client() as second:
                second.ping()
                stats = second.stats()
        clients = stats["clients"]
        assert len(clients) == 2
        assert clients["client-1"]["compiles"] == 1
        assert clients["client-2"]["requests"] == 2
        assert stats["service"]["connections"] == 2
        assert stats["engine"]["misses"] == 1

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
            from repro.service.server import ClientStats
            client = ClientStats()
            request = dict(params)
            first = asyncio.ensure_future(
                service._compile_one(request, client))
            # let the first request install its in-flight task
            while not service._inflight:
                await asyncio.sleep(0.01)
            second = asyncio.ensure_future(
                service._compile_one(dict(params), client))
            while client.compiles < 2:
                await asyncio.sleep(0.01)
            release.set()
            results = await asyncio.gather(first, second)
            return client, results

        client, results = asyncio.run(scenario())
        assert results[0] == results[1]
        assert len(computed) == 1, "coalesced request must not recompute"
        assert client.coalesced == 1
        assert service.totals.coalesced == 1
        assert not service._inflight, "in-flight table must drain"
