"""Process-wide metrics: labeled counters, gauges, log-bucketed
histograms, and the registry that owns them.

One :data:`REGISTRY` per process is the publication point for every
layer — the engine's cache counters, the VM's cycle counters, the
fleet harness's dispatch totals — and the service ``metrics`` endpoint
(schema v2) merges its own registry with this one at scrape time, so
"what is this process doing" is one snapshot away everywhere.

Design rules (inherited from the PR 8 service histograms, now shared):

* **Cheap on the hot path.**  Recording is a dict lookup plus a few
  adds under one per-metric lock; all percentile/mean math happens at
  read time.
* **Histograms, not reservoirs** — by default.  Values land in fixed
  log-spaced buckets (×1.35 steps from 0.05 ms to ~2 min when the
  values are seconds; the bounds are unit-agnostic).  Percentiles are
  the upper bound of the covering bucket: deterministic, mergeable,
  within one bucket width of the truth.  ``exact=True`` opts a
  histogram into retaining raw samples for exact nearest-rank
  percentiles — the load generator can afford that; a server must not.
* **Labels are kwargs.**  ``counter.inc(op="compile", outcome="ok")``;
  each distinct label set is an independent series.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["DEFAULT_BOUNDS", "Counter", "Gauge", "Histogram",
           "MetricsRegistry", "REGISTRY"]


def _log_bounds() -> List[float]:
    bounds: List[float] = []
    edge = 0.00005                      # 0.05 ms when values are seconds
    while edge < 120.0:                 # ~2 minutes
        bounds.append(edge)
        edge *= 1.35
    bounds.append(float("inf"))
    return bounds


#: The shared ×1.35 log-bucket ladder (39 buckets).
DEFAULT_BOUNDS = tuple(_log_bounds())

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def label_string(key: _LabelKey) -> str:
    """Canonical rendering of one series' label set (``""`` for the
    unlabeled series)."""
    return ",".join(f"{k}={v}" for k, v in key)


class _Metric:
    """Common shape: a named family of label-keyed series."""

    kind = "metric"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "help": self.help,
                "series": self.series()}

    def series(self) -> Dict[str, Any]:     # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing per-series totals."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._series: Dict[_LabelKey, float] = {}

    def inc(self, value: float = 1, **labels: Any) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + value

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)

    def total(self, **labels: Any) -> float:
        """Sum across every label set that includes *labels* (all of
        them when none are given)."""
        want = set(_label_key(labels))
        with self._lock:
            return sum(value for key, value in self._series.items()
                       if want.issubset(key))

    def series(self) -> Dict[str, float]:
        with self._lock:
            return {label_string(key): value
                    for key, value in sorted(self._series.items())}


class Gauge(_Metric):
    """A settable per-series level (queue depths, high-water marks)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._series: Dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value

    def add(self, delta: float, **labels: Any) -> float:
        """Adjust by *delta*; returns the new level."""
        key = _label_key(labels)
        with self._lock:
            value = self._series.get(key, 0) + delta
            self._series[key] = value
            return value

    def max_with(self, value: float, **labels: Any) -> float:
        """Raise the gauge to *value* if higher (sticky high water)."""
        key = _label_key(labels)
        with self._lock:
            level = max(self._series.get(key, 0), value)
            self._series[key] = level
            return level

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0)

    def series(self) -> Dict[str, float]:
        with self._lock:
            return {label_string(key): value
                    for key, value in sorted(self._series.items())}


class _HistogramSeries:
    __slots__ = ("counts", "count", "total", "samples")

    def __init__(self, n_buckets: int, exact: bool) -> None:
        self.counts = [0] * n_buckets
        self.count = 0
        self.total = 0.0
        self.samples: Optional[List[float]] = [] if exact else None


class Histogram(_Metric):
    """Log-bucketed distribution; ``exact=True`` retains raw samples
    for exact nearest-rank percentiles (unbounded memory — load
    generators and tests only).  Values are unit-agnostic: record
    seconds, read seconds."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 bounds: Optional[Iterable[float]] = None,
                 exact: bool = False) -> None:
        super().__init__(name, help)
        self.bounds: Tuple[float, ...] = tuple(bounds) if bounds \
            else DEFAULT_BOUNDS
        self.exact = bool(exact)
        self._series: Dict[_LabelKey, _HistogramSeries] = {}

    def _get(self, key: _LabelKey) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(
                len(self.bounds), self.exact)
        return series

    def record(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        index = 0
        for index, bound in enumerate(self.bounds):  # ~39 bounds: linear
            if value <= bound:                       # scan beats bisect
                break                                # at this size
        with self._lock:
            series = self._get(key)
            series.counts[index] += 1
            series.count += 1
            series.total += value
            if series.samples is not None:
                series.samples.append(value)

    # -- reads --------------------------------------------------------------

    def count(self, **labels: Any) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series is not None else 0

    def sum(self, **labels: Any) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.total if series is not None else 0.0

    def mean(self, **labels: Any) -> Optional[float]:
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or not series.count:
                return None
            return series.total / series.count

    def percentile(self, q: float, **labels: Any) -> Optional[float]:
        """Quantile *q* of one series: exact nearest-rank when the
        histogram retains samples, else the upper bound of the covering
        bucket (``None`` when the series is empty)."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or not series.count:
                return None
            if series.samples is not None:
                ordered = sorted(series.samples)
                rank = max(1, math.ceil(q * len(ordered)))
                return ordered[rank - 1]
            need = max(1, int(q * series.count + 0.9999999))
            seen = 0
            for index, bucket_count in enumerate(series.counts):
                seen += bucket_count
                if seen >= need:
                    bound = self.bounds[index]
                    if bound == float("inf"):
                        bound = self.bounds[-2] * 1.35
                    return bound
            return self.bounds[-2]

    def labelsets(self) -> List[Dict[str, str]]:
        """The distinct label sets recorded so far."""
        with self._lock:
            return [dict(key) for key in sorted(self._series)]

    def series(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            keys = sorted(self._series)
        out: Dict[str, Dict[str, Any]] = {}
        for key in keys:
            labels = dict(key)
            out[label_string(key)] = {
                "count": self.count(**labels),
                "sum": self.sum(**labels),
                "p50": self.percentile(0.50, **labels),
                "p99": self.percentile(0.99, **labels),
            }
        return out


class MetricsRegistry:
    """Get-or-create home of one process's (or one service's) metrics.

    Re-requesting a name returns the existing instrument; requesting
    an existing name as a different kind raises ``TypeError`` — two
    subsystems silently sharing one name as different types is a bug.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       **kwargs: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, **kwargs)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {cls.kind}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  bounds: Optional[Iterable[float]] = None,
                  exact: bool = False) -> Histogram:
        return self._get_or_create(Histogram, name, help,
                                   bounds=bounds, exact=exact)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Every metric's kind, help and series values (plain JSON)."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.describe()
                for name, metric in sorted(metrics)}

    def reset(self) -> None:
        """Drop every registered metric (tests only — live handles
        held by other modules keep publishing into detached objects)."""
        with self._lock:
            self._metrics.clear()


#: The process-wide registry every layer publishes into.
REGISTRY = MetricsRegistry()
