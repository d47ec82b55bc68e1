"""Service metrics: queue gauges and the scrape-document schema."""

import pytest

from repro.service.metrics import METRICS_SCHEMA_VERSION, ServiceMetrics


class TestServiceMetricsQueue:
    def test_depth_and_high_water(self):
        metrics = ServiceMetrics(queue_limit=8)
        metrics.enqueue(3)
        metrics.enqueue(2)
        assert metrics.queue_depth == 5 and metrics.queue_high_water == 5
        metrics.dequeue(4, busy_seconds=1.5)
        assert metrics.queue_depth == 1
        assert metrics.queue_high_water == 5          # sticky
        assert metrics.jobs_done == 4
        assert metrics.busy_seconds == pytest.approx(1.5)

    def test_utilization_bounds(self):
        metrics = ServiceMetrics()
        assert metrics.utilization(0) is None
        metrics.dequeue(1, busy_seconds=10_000.0)     # absurd busy time
        assert metrics.utilization(2) == 1.0          # capped


class TestPayloadSchema:
    def test_shape(self):
        metrics = ServiceMetrics(queue_limit=16)
        metrics.observe("compile", 0.01, "ok")
        metrics.observe("compile", 0.02, "error")
        metrics.observe("batch", 0.50, "busy")
        metrics.enqueue(2)
        metrics.dequeue(2, busy_seconds=0.3)
        metrics.reject()
        metrics.connect()
        metrics.coalesce()
        doc = metrics.payload(workers=2,
                              pool_stats={"deaths": 1, "restarts": 1,
                                          "retried_chunks": 2,
                                          "failed_chunks": 0},
                              cache={"hits": 5, "misses": 3,
                                     "disk_hits": 1, "hit_rate": 0.625},
                              shard_sizes={"shard-00": 4, "shard-01": 4})
        assert doc["schema"] == METRICS_SCHEMA_VERSION
        assert doc["uptime_s"] >= 0.0
        compile_block = doc["endpoints"]["compile"]
        assert compile_block["count"] == 2
        assert compile_block["errors"] == 1
        assert doc["endpoints"]["batch"]["busy"] == 1
        assert doc["queue"] == {"depth": 0, "limit": 16,
                                "high_water": 2, "busy_rejections": 1}
        workers = doc["workers"]
        assert workers["configured"] == 2
        assert workers["mode"] == "process-pool"
        assert workers["jobs_done"] == 2
        assert workers["deaths"] == 1 and workers["retried_chunks"] == 2
        assert 0.0 < workers["utilization"] <= 1.0
        assert doc["cache"]["hit_rate"] == 0.625
        assert doc["shards"] == {"shard-00": 4, "shard-01": 4}
        assert doc["service"] == {"connections": 1, "requests": 3,
                                  "errors": 1, "busy": 1, "coalesced": 1}

    def test_in_process_mode_omits_shards(self):
        doc = ServiceMetrics().payload(workers=0)
        assert doc["workers"]["mode"] == "in-process"
        assert doc["workers"]["utilization"] is None
        assert "shards" not in doc


class TestSchemaV2Compat:
    """Schema bump 1 -> 2: every v1 key survives; v2 adds "registry"."""

    V1_TOP_KEYS = {"schema", "uptime_s", "endpoints", "queue", "workers",
                   "cache"}
    V1_ENDPOINT_KEYS = {"count", "mean_ms", "p50_ms", "p90_ms", "p99_ms",
                        "errors", "busy"}

    def _doc(self):
        metrics = ServiceMetrics(queue_limit=8)
        metrics.observe("compile", 0.02, "ok")
        metrics.enqueue(1)
        metrics.dequeue(1, busy_seconds=0.01)
        return metrics.payload(
            workers=2,
            pool_stats={"deaths": 0, "restarts": 0, "retried_chunks": 0,
                        "failed_chunks": 0},
            cache={"hits": 1, "misses": 0, "disk_hits": 0,
                   "hit_rate": 1.0},
            shard_sizes={"shard-00": 1})

    def test_schema_is_2(self):
        assert METRICS_SCHEMA_VERSION == 2
        assert self._doc()["schema"] == 2

    def test_all_v1_keys_survive(self):
        doc = self._doc()
        assert self.V1_TOP_KEYS <= set(doc)
        assert "shards" in doc
        assert self.V1_ENDPOINT_KEYS <= set(doc["endpoints"]["compile"])
        assert set(doc["queue"]) == {"depth", "limit", "high_water",
                                     "busy_rejections"}
        for key in ("configured", "mode", "jobs_done", "utilization",
                    "deaths", "restarts", "retried_chunks",
                    "failed_chunks"):
            assert key in doc["workers"], key

    def test_v2_adds_registry_section(self):
        registry = self._doc()["registry"]
        latency = registry["service_request_seconds"]
        assert latency["kind"] == "histogram"
        assert latency["series"]["op=compile"]["count"] == 1
        requests = registry["service_requests_total"]
        assert requests["series"]["op=compile,outcome=ok"] == 1
        assert registry["service_queue_depth"]["kind"] == "gauge"

    def test_registry_merges_process_wide_metrics(self):
        from repro.obs.metrics import REGISTRY
        REGISTRY.counter("test_only_probe_total").inc(3)
        try:
            registry = self._doc()["registry"]
            assert registry["test_only_probe_total"]["series"][""] == 3
        finally:
            REGISTRY._metrics.pop("test_only_probe_total", None)
