"""Metrics collection, mirroring the CAPSys Metrics Collector.

The paper's metrics collector (section 5.1) records, per task, the
useful time, observed and true input/output rates (the DS2 quantities),
selectivity statistics, and per-worker CPU utilisation. Here the
simulator pushes one observation per tick; consumers pull either
summaries (the experiment harness) or windowed per-task rates (DS2 and
the profiler) on demand.

Storage is columnar: per-tick observations land in growable numpy
buffers (amortised O(1) appends, no per-tick dataclass allocation), and
the rolling task-rate window is one contiguous slice of a buffer twice
its length. The engine's
fast-forward mode extends every series analytically via
:meth:`MetricsCollector.repeat_last` — the ticks of an exact cycle
would have recorded bit-identical samples again, period after period,
so repeating them keeps ``summarize()`` and ``task_rates()`` outputs
exactly equal to tick-by-tick execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.observability import MetricRegistry
from repro.simulator.results import JobSummary, SimulationSummary
from repro.units import Seconds, SecondsPerTick, Ticks


@dataclass(frozen=True)
class TaskRates:
    """Windowed rate observations for one task (the DS2 inputs).

    Attributes:
        observed_rate: Records/s the task actually processed.
        true_rate: Records/s the task could process if never idle — the
            observed rate divided by its busy fraction (DS2's "true
            processing rate"). Resource contention lowers this value,
            which is precisely how bad placements mislead DS2.
        observed_output_rate: Records/s emitted.
        busy_fraction: Fraction of time spent actively processing.
    """

    observed_rate: float
    true_rate: float
    observed_output_rate: float
    busy_fraction: float

    @property
    def selectivity(self) -> float:
        if self.observed_rate <= 0:
            return 0.0
        return self.observed_output_rate / self.observed_rate


@dataclass(frozen=True)
class TickSample:
    """Per-job metrics recorded for one simulation tick."""

    time_s: float
    target_rate: float
    throughput: float
    backpressure: float
    latency_s: float
    queued_records: float


# Column layout of one job-series row (matches TickSample field order).
_TIME, _TARGET, _THPT, _BP, _LAT, _QUEUED = range(6)


class _ColumnStore:
    """Growable row-major float64 buffer with amortised-O(1) appends."""

    def __init__(self, columns: int, capacity: int = 256) -> None:
        self._buf = np.zeros((max(capacity, 1), max(columns, 1)))
        self.rows = 0

    def _reserve(self, extra: int) -> None:
        need = self.rows + extra
        if need <= len(self._buf):
            return
        capacity = len(self._buf)
        while capacity < need:
            capacity *= 2
        grown = np.zeros((capacity, self._buf.shape[1]))
        grown[: self.rows] = self._buf[: self.rows]
        self._buf = grown

    def append(self, values) -> None:
        self._reserve(1)
        self._buf[self.rows] = values
        self.rows += 1

    def repeat_last(self, period: int, cycles: int) -> np.ndarray:
        """Append ``cycles`` copies of the last ``period`` rows, in
        order; returns the new block."""
        if self.rows < period:
            raise RuntimeError("cannot repeat more rows than the series holds")
        count = period * cycles
        self._reserve(count)
        rows = self.rows
        block = self._buf[rows : rows + count]
        # Whole rows of a C-ordered buffer: the reshape is a view.
        block.reshape(cycles, period, -1)[:] = self._buf[rows - period : rows]
        self.rows += count
        return block

    def data(self) -> np.ndarray:
        """View of the filled rows (no copy)."""
        return self._buf[: self.rows]


class _TaskWindow:
    """Rolling window of the last ``window`` per-task rate observations.

    Rows are appended to a buffer twice the window long; when it fills,
    the rows still needed move to its front. So the window is always one
    contiguous slice, in chronological order.
    """

    # Channel layout: observed, true, out, busy.
    _CHANNELS = 4

    def __init__(self, window: int, n_tasks: int) -> None:
        self._buf = np.zeros((2 * window, self._CHANNELS, max(n_tasks, 1)))
        self._window = window
        self._end = 0

    def __len__(self) -> int:
        return min(self._end, self._window)

    def _make_room(self, count: int, keep: int) -> None:
        """Ensure ``count`` free rows after the last ``keep`` rows."""
        end = self._end
        if end + count > len(self._buf):
            self._buf[:keep] = self._buf[end - keep : end]
            self._end = keep

    def append(
        self,
        observed: np.ndarray,
        true: np.ndarray,
        out: np.ndarray,
        busy: np.ndarray,
    ) -> None:
        self._make_room(1, self._window - 1)
        row = self._buf[self._end]
        row[0] = observed
        row[1] = true
        row[2] = out
        row[3] = busy
        self._end += 1

    def repeat_last(self, period: int, cycles: int) -> None:
        """Append ``cycles`` copies of the last ``period`` rows, in order.

        With ``period`` at least the window, the window is full and
        whole periods leave its rows as they are.
        """
        window = self._window
        if len(self) < min(period, window):
            raise RuntimeError("cannot repeat more rows than the window holds")
        if period >= window:
            return
        count = period * cycles
        if count < window:
            self._make_room(count, max(period, window - count))
            end = self._end
            block = self._buf[end : end + count]
            block.reshape(cycles, period, *block.shape[1:])[:] = (
                self._buf[end - period : end]
            )
            self._end = end + count
        else:
            # Only the last ``window`` new rows stay in the window.
            phase = np.arange(count - window, count) % period
            self._buf[:window] = self._buf[self._end - period : self._end][phase]
            self._end = window

    def rows(self) -> np.ndarray:
        """View of the window's rows, oldest first, shape
        (count, channels, n); the means sum them in tick order."""
        return self._buf[max(0, self._end - self._window) : self._end]


class MetricsCollector:
    """Accumulates per-tick job metrics and windowed task rates.

    Args:
        job_ids: The jobs of the deployment.
        task_uids: Dense-order task uids (simulator index order).
        window_ticks: Size of the rolling window used for task rates;
            DS2 reads averages over this window.
        registry: Optional :class:`~repro.observability.MetricRegistry`
            mirroring the latest per-job samples as labelled gauges and
            a tick counter; ``None`` (the default) records nothing.
    """

    def __init__(
        self,
        job_ids: List[str],
        task_uids: List[str],
        window_ticks: Ticks = 60,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        if window_ticks < 1:
            raise ValueError("window_ticks must be >= 1")
        self.job_ids = list(job_ids)
        self.task_uids = list(task_uids)
        self.window_ticks = window_ticks
        self.registry = registry
        self._series: Dict[str, _ColumnStore] = {
            j: _ColumnStore(columns=6) for j in self.job_ids
        }
        # Worker stores are sized lazily: the worker count is only known
        # at the first record_worker_usage call.
        self._worker_cpu: Optional[_ColumnStore] = None
        self._worker_io: Optional[_ColumnStore] = None
        self._worker_net: Optional[_ColumnStore] = None
        self._task_window = _TaskWindow(window_ticks, len(self.task_uids))

    # ------------------------------------------------------------------
    # Recording (called by the engine once per tick)
    # ------------------------------------------------------------------
    def record_job_tick(self, job_id: str, sample: TickSample) -> None:
        self._series[job_id].append(
            (
                sample.time_s,
                sample.target_rate,
                sample.throughput,
                sample.backpressure,
                sample.latency_s,
                sample.queued_records,
            )
        )
        registry = self.registry
        if registry is not None:
            labels = {"job": job_id}
            registry.counter(
                "sim_job_ticks_total",
                labels=labels,
                help="Simulation ticks recorded per job.",
            ).inc()
            registry.gauge(
                "sim_job_throughput_records_per_s",
                labels=labels,
                help="Latest per-tick job throughput.",
            ).set(sample.throughput)
            registry.gauge(
                "sim_job_backpressure_ratio",
                labels=labels,
                help="Latest per-tick backpressure fraction.",
            ).set(sample.backpressure)
            registry.histogram(
                "sim_job_latency_seconds",
                labels=labels,
                help="Per-tick Little's-law latency estimates.",
            ).observe(sample.latency_s)

    def record_task_tick(
        self,
        observed_rate: np.ndarray,
        true_rate: np.ndarray,
        observed_output_rate: np.ndarray,
        busy_fraction: np.ndarray,
    ) -> None:
        self._task_window.append(
            observed_rate, true_rate, observed_output_rate, busy_fraction
        )

    def record_worker_usage(
        self,
        cpu_utilisation: np.ndarray,
        io_bytes_per_s: np.ndarray,
        net_bytes_per_s: np.ndarray,
    ) -> None:
        """Per-worker resource usage for one tick (profiling inputs)."""
        if self._worker_cpu is None:
            workers = len(cpu_utilisation)
            self._worker_cpu = _ColumnStore(columns=workers)
            self._worker_io = _ColumnStore(columns=workers)
            self._worker_net = _ColumnStore(columns=workers)
        self._worker_cpu.append(cpu_utilisation)
        self._worker_io.append(io_bytes_per_s)
        self._worker_net.append(net_bytes_per_s)

    def repeat_last(self, period: int, cycles: int, times: np.ndarray) -> None:
        """Extend every series by ``cycles`` repeats of its last
        ``period`` samples.

        Called by the engine's fast-forward leap once the dynamics have
        closed an exact cycle of ``period`` ticks (a fixed point is
        period 1): each skipped tick would have recorded exactly the
        sample of the tick ``period`` earlier again, only with an
        advanced timestamp. ``times`` carries the tick-end timestamps of
        the skipped ticks (computed the same way ``step()`` stamps them,
        so warmup slicing stays bit-identical). Registry mirrors advance
        the same way the per-tick path would: the tick counter by the
        skipped ticks, the latency histogram by the period's values in
        tick order, ``cycles`` times over; gauges already hold the
        latest values, which a whole period ends on again.
        """
        if cycles <= 0:
            return
        registry = self.registry
        for job_id in self.job_ids:
            block = self._series[job_id].repeat_last(period, cycles)
            block[:, _TIME] = times
            if registry is not None:
                labels = {"job": job_id}
                registry.counter(
                    "sim_job_ticks_total",
                    labels=labels,
                    help="Simulation ticks recorded per job.",
                ).inc(len(times))
                registry.histogram(
                    "sim_job_latency_seconds",
                    labels=labels,
                    help="Per-tick Little's-law latency estimates.",
                ).observe_cycle(block[:period, _LAT].tolist(), cycles)
        self._task_window.repeat_last(period, cycles)
        if self._worker_cpu is not None:
            self._worker_cpu.repeat_last(period, cycles)
            self._worker_io.repeat_last(period, cycles)
            self._worker_net.repeat_last(period, cycles)

    # ------------------------------------------------------------------
    # Task-rate queries (DS2 / profiler)
    # ------------------------------------------------------------------
    def task_rates(self) -> Dict[str, TaskRates]:
        """Windowed average rates per task uid."""
        if not self._task_window:
            raise RuntimeError("no task samples recorded yet")
        window = self._task_window.rows()
        observed = np.mean(window[:, 0, :], axis=0)
        true = np.mean(window[:, 1, :], axis=0)
        out = np.mean(window[:, 2, :], axis=0)
        busy = np.mean(window[:, 3, :], axis=0)
        return {
            uid: TaskRates(
                observed_rate=float(observed[i]),
                true_rate=float(true[i]),
                observed_output_rate=float(out[i]),
                busy_fraction=float(busy[i]),
            )
            for i, uid in enumerate(self.task_uids)
        }

    def _worker_mean(
        self, store: Optional[_ColumnStore], warmup_s: Seconds, dt: SecondsPerTick
    ) -> np.ndarray:
        if store is None or store.rows == 0:
            raise RuntimeError("no worker samples recorded yet")
        start = min(int(warmup_s / dt), store.rows - 1)
        return np.mean(store.data()[start:], axis=0)

    def worker_cpu_utilisation(self, warmup_s: Seconds = 0.0, dt: SecondsPerTick = 1.0) -> np.ndarray:
        """Mean post-warmup CPU utilisation per worker."""
        return self._worker_mean(self._worker_cpu, warmup_s, dt)

    def worker_io_rate(self, warmup_s: Seconds = 0.0, dt: SecondsPerTick = 1.0) -> np.ndarray:
        """Mean post-warmup state-backend bytes/s per worker."""
        return self._worker_mean(self._worker_io, warmup_s, dt)

    def worker_net_rate(self, warmup_s: Seconds = 0.0, dt: SecondsPerTick = 1.0) -> np.ndarray:
        """Mean post-warmup outbound cross-worker bytes/s per worker."""
        return self._worker_mean(self._worker_net, warmup_s, dt)

    # ------------------------------------------------------------------
    # Job-level series and summaries
    # ------------------------------------------------------------------
    def job_series(self, job_id: str, start: int = 0) -> List[TickSample]:
        """One job's per-tick samples, from row ``start`` on.

        ``job_series(job_id, start)`` equals ``job_series(job_id)[start:]``
        (empty once ``start`` reaches the row count), but builds only the
        rows it returns: a caller that drains the series as it grows
        passes the number of rows it already holds and pays only for the
        new ones. A negative ``start`` raises :class:`ValueError` rather
        than selecting the tail.
        """
        if start < 0:
            raise ValueError(f"start must be non-negative, got {start}")
        try:
            store = self._series[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None
        return [
            TickSample(
                time_s=row[_TIME],
                target_rate=row[_TARGET],
                throughput=row[_THPT],
                backpressure=row[_BP],
                latency_s=row[_LAT],
                queued_records=row[_QUEUED],
            )
            for row in store.data()[start:].tolist()
        ]

    def summarize(self, warmup_s: Seconds = 0.0) -> SimulationSummary:
        """Average the post-warmup portion of every job's series."""
        # The deployment duration is the maximum over *all* job series;
        # it must be final before any summary is built, otherwise jobs
        # summarized earlier would see a partially-accumulated maximum
        # and per-job results would depend on job iteration order.
        duration = 0.0
        for job_id in self.job_ids:
            store = self._series[job_id]
            if store.rows == 0:
                raise RuntimeError(f"no samples recorded for job {job_id!r}")
            duration = max(duration, float(store.data()[-1, _TIME]))
        jobs: Dict[str, JobSummary] = {}
        for job_id in self.job_ids:
            data = self._series[job_id].data()
            times = data[:, _TIME]
            window = data[times >= warmup_s]
            if not len(window):
                window = data[-1:]
            jobs[job_id] = JobSummary(
                job_id=job_id,
                target_rate=float(np.mean(window[:, _TARGET])),
                throughput=float(np.mean(window[:, _THPT])),
                backpressure=float(np.mean(window[:, _BP])),
                latency_s=float(np.mean(window[:, _LAT])),
                duration_s=duration - warmup_s if duration > warmup_s else duration,
            )
        return SimulationSummary(jobs=jobs, duration_s=duration, warmup_s=warmup_s)
