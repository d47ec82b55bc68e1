"""Cluster mode: worker pool, sharded store, fault injection.

One module-scoped 2-worker/2-shard cluster (spawning processes is the
expensive part) backs every test here:

* byte-identity — cluster-served payloads equal in-process compiles;
* kill-a-worker-mid-batch — the chunk is retried on a live worker and
  the result is *still* byte-identical; fault counters surface it;
* crash-loop worker — retries exhaust gracefully: the one poisoned
  request gets an error reply, the service keeps serving, and
  ``failed_chunks`` records the abandonment;
* the metrics endpoint reports the cluster view (aggregated worker
  cache counters, shard sizes);
* an in-process service runs the same chunk path, so both modes
  dedup, count and report a batch the same way.
"""

import json
import os

import pytest

from repro.engine import ExperimentEngine
from repro.experiments.workload import (WorkloadSpec, generate_machine,
                                        mutate_one_transition)
from repro.service import ServiceError, ServiceThread
from repro.service.protocol import (compile_params, compile_result_payload,
                                    job_from_params)


def _canonical(payload):
    return json.dumps(payload, sort_keys=True)


def _expected(params, engine):
    params = {key: value for key, value in params.items()
              if key != "chaos"}
    job = job_from_params(params)
    result = engine.compile_machine(job.machine, pattern=job.pattern,
                                    level=job.level, target=job.target,
                                    semantics=job.semantics)
    return compile_result_payload(job, result,
                                  want_asm=bool(params.get("want_asm")))


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    store = tmp_path_factory.mktemp("cluster-store")
    with ServiceThread(workers=2, shards=2, cache_dir=str(store),
                       queue_limit=64, allow_chaos=True) as handle:
        assert handle.wait_workers_ready() == 2
        yield handle


@pytest.fixture(scope="module")
def reference():
    return ExperimentEngine()


@pytest.fixture(scope="module")
def machines():
    parent = generate_machine(WorkloadSpec(n_live=4, seed=41,
                                           name="Cluster"))
    return [parent,
            mutate_one_transition(parent, 0),
            generate_machine(WorkloadSpec(n_live=3, seed=42,
                                          name="ClusterB"))]


class TestByteIdentity:
    def test_single_compile_matches_in_process(self, cluster, reference,
                                               machines):
        params = compile_params(machines[0], pattern="state-table",
                                level="O2", want_asm=True)
        with cluster.client() as client:
            served = client.request("compile", **params)
        assert _canonical(served) == _canonical(
            _expected(params, reference))
        assert "asm" in served

    def test_batch_matches_in_process_in_order(self, cluster, reference,
                                               machines):
        batch = [compile_params(machine, pattern=pattern)
                 for machine in machines
                 for pattern in ("nested-switch", "state-table")]
        batch.append(dict(batch[0]))          # exact duplicate
        with cluster.client() as client:
            result = client.request("batch", jobs=batch)
        assert len(result["results"]) == len(batch)
        assert result["deduplicated"] == 1
        for params, served in zip(batch, result["results"]):
            assert _canonical(served) == _canonical(
                _expected(params, reference))


class TestWorkerDeath:
    def test_killed_worker_chunk_is_retried_byte_identically(
            self, cluster, reference, machines, tmp_path):
        marker = os.path.join(str(tmp_path), "die-once")
        batch = [compile_params(machines[2], pattern="nested-switch"),
                 compile_params(machines[2], pattern="state-table")]
        batch[1]["chaos"] = {"exit_before": marker}   # kills one worker
        with cluster.client() as client:
            result = client.request("batch", jobs=batch)
            metrics = client.metrics()
        assert os.path.exists(marker)         # the death really happened
        for params, served in zip(batch, result["results"]):
            assert _canonical(served) == _canonical(
                _expected(params, reference))
        workers = metrics["workers"]
        assert workers["deaths"] >= 1
        assert workers["restarts"] >= 1
        assert workers["retried_chunks"] >= 1

    def test_crash_loop_degrades_gracefully(self, cluster, machines):
        poisoned = compile_params(machines[0], pattern="state-table")
        poisoned["chaos"] = {"exit_always": True}
        with cluster.client() as client:
            before = client.metrics()["workers"]["failed_chunks"]
            with pytest.raises(ServiceError):
                client.request("compile", **poisoned)
            after = client.metrics()["workers"]["failed_chunks"]
            assert after > before             # abandonment is recorded
            # the service survives and keeps serving
            payload = client.compile_machine(machines[0])
            assert payload["total_size"] > 0


class TestClusterIntrospection:
    def test_metrics_cache_aggregates_worker_caches(self, cluster,
                                                    machines):
        with cluster.client() as client:
            client.compile_machine(machines[0])
            cache = client.metrics()["cache"]
        assert cache["lookups"] >= 1
        assert {"unit_hits", "unit_disk_hits", "unit_misses",
                "reused_units", "compiled_units"} <= set(cache)

    def test_metrics_reports_shards_and_schema(self, cluster):
        with cluster.client() as client:
            metrics = client.metrics()
        assert metrics["schema"] == 2
        assert metrics["workers"]["configured"] == 2
        assert metrics["workers"]["mode"] == "process-pool"
        assert sorted(metrics["shards"]) == ["shard-00", "shard-01"]
        assert sum(metrics["shards"].values()) > 0
        assert metrics["queue"]["limit"] == 64

    def test_engine_and_spec_are_mutually_exclusive(self):
        from repro.service import CompileService
        with pytest.raises(ValueError):
            CompileService(ExperimentEngine(), workers=2)


def _batch_and_metrics(handle, jobs):
    """``(batch response, metrics after, jobs compiled by the batch)``."""
    with handle.client() as client:
        before = client.metrics()["cache"]["jobs"]
        response = client.request("batch", jobs=jobs)
        doc = client.metrics()
    return response, doc, doc["cache"]["jobs"] - before


@pytest.fixture(scope="module")
def three_spellings(cluster, machines):
    """One job spelled three ways (level ``-Os``, omitted, ``Os``),
    batched by a fresh in-process service and by the cluster."""
    spelled = compile_params(machines[1], pattern="state-table")
    no_level = {key: value for key, value in spelled.items()
                if key != "level"}
    jobs = [spelled, no_level, dict(spelled, level="Os")]
    with ServiceThread(ExperimentEngine()) as in_process:
        local = _batch_and_metrics(in_process, jobs)
    return {"in-process": local,
            "cluster": _batch_and_metrics(cluster, jobs)}


class TestModesAgree:
    """An in-process service and the cluster share one compile path."""

    def test_same_payloads_and_dedup(self, three_spellings):
        local, served = (three_spellings[mode][0]
                         for mode in ("in-process", "cluster"))
        payloads = {_canonical(payload)
                    for payload in local["results"] + served["results"]}
        assert len(payloads) == 1
        assert local["deduplicated"] == served["deduplicated"]

    def test_cache_jobs_counts_jobs_compiled(self, three_spellings):
        for response, _doc, compiled in three_spellings.values():
            unique = len(response["results"]) - response["deduplicated"]
            assert compiled == unique
        _response, local_doc, compiled = three_spellings["in-process"]
        assert local_doc["cache"]["jobs"] == compiled    # fresh service

    def test_both_documents_carry_per_worker(self, three_spellings):
        local_doc = three_spellings["in-process"][1]
        cluster_doc = three_spellings["cluster"][1]
        assert local_doc["workers"]["mode"] == "in-process"
        assert len(local_doc["workers"]["per_worker"]) == 1
        assert cluster_doc["workers"]["per_worker"]
