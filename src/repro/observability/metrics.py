"""A zero-dependency metric registry: counters, gauges, histograms.

Modelled on the Prometheus client-library data model, scoped down to
what the reproduction needs: a :class:`MetricRegistry` hands out
get-or-create metric handles keyed by ``(name, labels)``, and exports
either a Prometheus-style text exposition or a JSON snapshot. Adopters:
:class:`~repro.simulator.metrics.MetricsCollector` (tick counters and
job gauges), :class:`~repro.simulator.plan_cache.PlanEvaluationCache`
(hit/miss/eviction counters), :class:`~repro.placement.caps.CapsStrategy`
(search work counters, shipped back from the search's pool workers
through :class:`~repro.core.search.SearchStats`), and the CAPSys controller
(deploys, DS2 decisions, rescales).

Thread safety: the registry protects its metric map with a lock, and
every metric guards its own state, so callers on several threads can
update one registry concurrently. Exported orderings are sorted, so
exposition output is deterministic regardless of creation order.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram buckets (seconds-flavoured, like prometheus).
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _labelset(labels: Optional[Mapping[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + body + "}"


class Counter:
    """Monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet, help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot_value(self) -> Any:
        return self.value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet, help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot_value(self) -> Any:
        return self.value


class Histogram:
    """Cumulative-bucket histogram of observations."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def _bucket(self, value: float) -> Optional[int]:
        """Index of the first bucket bound ``value`` fits under, if any."""
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                return i
        return None

    def observe(self, value: float) -> None:
        value = float(value)
        bucket = self._bucket(value)
        with self._lock:
            self._sum += value
            self._count += 1
            if bucket is not None:
                self._counts[bucket] += 1

    def observe_cycle(self, values: Sequence[float], cycles: int) -> None:
        """Record ``values`` in order, ``cycles`` times over, under one
        lock hold.

        The sum is accumulated by repeated addition in observation order
        so the result stays bit-identical with the separate
        :meth:`observe` calls (``s + v*k`` rounds differently from
        adding ``v`` k times).
        """
        if cycles <= 0:
            return
        values = [float(v) for v in values]
        buckets = [self._bucket(v) for v in values]
        with self._lock:
            for _ in range(cycles):
                for value in values:
                    self._sum += value
            self._count += cycles * len(values)
            for bucket in buckets:
                if bucket is not None:
                    self._counts[bucket] += cycles

    def snapshot_value(self) -> Dict[str, Any]:
        with self._lock:
            cumulative: List[int] = []
            running = 0
            for c in self._counts:
                running += c
                cumulative.append(running)
            return {
                "buckets": [
                    {"le": bound, "count": count}
                    for bound, count in zip(self.bounds, cumulative)
                ],
                "sum": self._sum,
                "count": self._count,
            }


class MetricRegistry:
    """Get-or-create registry of named, labelled metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelSet], Any] = {}
        self._helps: Dict[str, str] = {}

    def _get_or_create(self, cls, name, labels, help, **kwargs):
        labelset = _labelset(labels)
        key = (name, labelset)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labelset, help=help, **kwargs)
                self._metrics[key] = metric
                if help and name not in self._helps:
                    self._helps[name] = help
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels, help, buckets=buckets
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _sorted_metrics(self) -> List[Any]:
        with self._lock:
            return [
                self._metrics[key] for key in sorted(self._metrics.keys())
            ]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able snapshot: one entry per (name, labels) series."""
        series = []
        for metric in self._sorted_metrics():
            series.append(
                {
                    "name": metric.name,
                    "kind": metric.kind,
                    "labels": dict(metric.labels),
                    "value": metric.snapshot_value(),
                }
            )
        return {"metrics": series}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def to_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4 format)."""
        lines: List[str] = []
        seen_header = set()
        for metric in self._sorted_metrics():
            if metric.name not in seen_header:
                seen_header.add(metric.name)
                help_text = self._helps.get(metric.name) or metric.help
                if help_text:
                    lines.append(f"# HELP {metric.name} {help_text}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            label_str = _render_labels(metric.labels)
            if metric.kind == "histogram":
                snap = metric.snapshot_value()
                base = dict(metric.labels)
                for bucket in snap["buckets"]:
                    le = _render_labels(
                        _labelset({**base, "le": repr(bucket["le"])})
                    )
                    lines.append(
                        f"{metric.name}_bucket{le} {bucket['count']}"
                    )
                inf = _render_labels(_labelset({**base, "le": "+Inf"}))
                lines.append(f"{metric.name}_bucket{inf} {snap['count']}")
                lines.append(f"{metric.name}_sum{label_str} {snap['sum']}")
                lines.append(f"{metric.name}_count{label_str} {snap['count']}")
            else:
                value = metric.snapshot_value()
                if value == int(value):
                    value = int(value)
                lines.append(f"{metric.name}{label_str} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_prometheus())
