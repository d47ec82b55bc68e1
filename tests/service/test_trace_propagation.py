"""End-to-end tracing across the service wire and worker processes.

The acceptance property of the obs subsystem: one traced batch against
a real 2-worker / 2-shard cluster yields ONE connected trace — client
root span -> server ``service.batch`` span -> per-chunk
``worker.chunk`` spans recorded *inside the worker processes* and
shipped back piggybacked on chunk replies -> per-job
``worker.compile`` spans under those.  An in-process service runs the
same chunk path on threads, so its traced batch has the same shape.
"""

import json
import os

import pytest

from repro.engine import ExperimentEngine
from repro.experiments.workload import WorkloadSpec, generate_machine
from repro.obs.export import chrome_trace
from repro.obs.trace import (Tracer, configure, get_tracer, set_tracer,
                             span)
from repro.service import ServiceThread
from repro.service.protocol import compile_params


@pytest.fixture
def client_tracer():
    """A private 100%-sampling tracer installed as the process tracer
    for one test (workers spawned by the cluster stay at their own
    ratio 0 — parent-based sampling must carry the trace)."""
    tracer = Tracer(sample_ratio=1.0, process="test-client")
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    store = tmp_path_factory.mktemp("trace-store")
    with ServiceThread(workers=2, shards=2,
                       cache_dir=str(store)) as handle:
        assert handle.wait_workers_ready() == 2
        yield handle


@pytest.fixture(scope="module")
def machines():
    return [generate_machine(WorkloadSpec(n_live=4, events_per_state=2,
                                          seed=seed))
            for seed in (11, 12, 13, 14)]


def _traced_batch(handle, machines, tracer):
    """Submit one batch under a root span; assert the spans form one
    connected trace ``client.batch -> service.batch -> worker.chunk ->
    worker.compile`` with unique span ids, and return the chunk spans.
    """
    with handle.client() as client:
        root = span("test.root")
        with root:
            results = client.submit_batch(
                [compile_params(m) for m in machines])
    assert len(results) == len(machines)

    spans = tracer.drain()
    by_id = {s["span_id"]: s for s in spans}

    # One trace, every span id unique.
    assert {s["trace_id"] for s in spans} == {root.trace_id}
    assert len(by_id) == len(spans)

    # client.batch -> service.batch -> worker.chunk -> worker.compile
    batch = [s for s in spans if s["name"] == "service.batch"]
    assert len(batch) == 1
    client_side = [s for s in spans if s["name"] == "client.batch"]
    assert len(client_side) == 1
    assert batch[0]["parent_id"] == client_side[0]["span_id"]
    assert client_side[0]["parent_id"] == root.span_id

    chunks = [s for s in spans if s["name"] == "worker.chunk"]
    assert chunks, "no worker spans came back over the wire"
    for chunk in chunks:
        assert by_id[chunk["parent_id"]]["name"] == "service.batch"

    compiles = [s for s in spans if s["name"] == "worker.compile"]
    assert len(compiles) == len(machines)
    for job_span in compiles:
        assert by_id[job_span["parent_id"]]["name"] == "worker.chunk"

    # The whole trace survives a JSON round-trip (wire realism).
    assert json.loads(json.dumps(spans)) == spans
    return chunks


class TestClusterTracePropagation:
    def test_batch_over_two_workers_is_one_connected_trace(
            self, cluster, machines, client_tracer):
        chunks = _traced_batch(cluster, machines, client_tracer)
        # Both worker processes contributed (2 workers, >= 2 chunks).
        worker_pids = {c["pid"] for c in chunks}
        assert len(worker_pids) == 2

    def test_worker_spans_include_stage_detail(self, cluster, machines,
                                               client_tracer):
        with cluster.client() as client:
            with span("test.root"):
                client.compile_machine(machines[0], pattern="state-table")
        names = {s["name"] for s in client_tracer.drain()}
        assert "service.compile" in names
        assert "worker.chunk" in names
        # Compiler-stage spans recorded inside the worker process.
        assert "cache.lookup" in names

    def test_chrome_export_of_a_distributed_trace(self, cluster,
                                                  machines,
                                                  client_tracer):
        with cluster.client() as client:
            with span("test.root"):
                client.submit_batch(
                    [compile_params(m) for m in machines[:2]])
        spans = client_tracer.drain()
        doc = chrome_trace(spans)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(spans)
        # One metadata lane per process: client (+server, same pid)
        # plus every worker that served a chunk.
        lanes = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert 2 <= len(lanes) <= 3
        json.loads(json.dumps(doc))

    def test_untraced_requests_stay_untraced(self, cluster, machines):
        configure(sample_ratio=0.0)
        get_tracer().clear()
        with cluster.client() as client:
            client.compile_machine(machines[1])
        assert get_tracer().spans() == []


class TestInProcessTracePropagation:
    def test_batch_on_threads_is_one_connected_trace(self, machines,
                                                     client_tracer):
        with ServiceThread(ExperimentEngine()) as handle:
            chunks = _traced_batch(handle, machines, client_tracer)
        assert {c["pid"] for c in chunks} == {os.getpid()}
