"""Unit tests for the metrics collector and result summaries."""

import numpy as np
import pytest

from repro.simulator.metrics import MetricsCollector, TaskRates, TickSample
from repro.simulator.results import JobSummary, SimulationSummary


def collector(window=3):
    return MetricsCollector(
        job_ids=["job"], task_uids=["job/a[0]", "job/b[0]"], window_ticks=window
    )


def sample(t, target=100.0, thpt=90.0, bp=0.1, lat=1.0, queued=10.0):
    return TickSample(
        time_s=t, target_rate=target, throughput=thpt,
        backpressure=bp, latency_s=lat, queued_records=queued,
    )


class TestTaskRates:
    def test_selectivity(self):
        r = TaskRates(observed_rate=100.0, true_rate=200.0,
                      observed_output_rate=50.0, busy_fraction=0.5)
        assert r.selectivity == pytest.approx(0.5)

    def test_selectivity_of_starved_task(self):
        r = TaskRates(0.0, 100.0, 0.0, 0.0)
        assert r.selectivity == 0.0


class TestTaskWindow:
    def test_window_average(self):
        c = collector(window=2)
        c.record_task_tick(
            np.array([10.0, 0.0]), np.array([100.0, 50.0]),
            np.array([5.0, 0.0]), np.array([0.1, 0.0]),
        )
        c.record_task_tick(
            np.array([20.0, 0.0]), np.array([100.0, 50.0]),
            np.array([10.0, 0.0]), np.array([0.2, 0.0]),
        )
        rates = c.task_rates()
        assert rates["job/a[0]"].observed_rate == pytest.approx(15.0)
        assert rates["job/a[0]"].busy_fraction == pytest.approx(0.15)

    def test_window_is_rolling(self):
        c = collector(window=1)
        c.record_task_tick(np.array([10.0, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2))
        c.record_task_tick(np.array([30.0, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2))
        assert c.task_rates()["job/a[0]"].observed_rate == pytest.approx(30.0)

    def test_empty_window_raises(self):
        with pytest.raises(RuntimeError):
            collector().task_rates()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            collector(window=0)


class TestWorkerUsage:
    def test_post_warmup_means(self):
        c = collector()
        for util in (0.2, 0.4, 0.8):
            c.record_worker_usage(
                np.array([util]), np.array([util * 1e6]), np.array([0.0])
            )
        assert c.worker_cpu_utilisation(warmup_s=1.0, dt=1.0)[0] == pytest.approx(0.6)
        assert c.worker_io_rate(warmup_s=0.0)[0] == pytest.approx(1.4e6 / 3)

    def test_no_samples_raises(self):
        with pytest.raises(RuntimeError):
            collector().worker_cpu_utilisation()


class TestSummaries:
    def test_summarize_filters_warmup(self):
        c = collector()
        c.record_job_tick("job", sample(1.0, thpt=10.0))
        c.record_job_tick("job", sample(2.0, thpt=90.0))
        c.record_job_tick("job", sample(3.0, thpt=110.0))
        summary = c.summarize(warmup_s=2.0)
        assert summary.only.throughput == pytest.approx(100.0)
        assert summary.duration_s == 3.0

    def test_summarize_without_samples_raises(self):
        with pytest.raises(RuntimeError):
            collector().summarize()

    @pytest.mark.parametrize("job_ids", [["short", "long"], ["long", "short"]])
    def test_duration_is_global_max_regardless_of_job_order(self, job_ids):
        """Every job summary reports the deployment-wide duration.

        Jobs whose series end early (e.g. they were rescaled away) must
        not see a partially-accumulated maximum just because they were
        summarized before the longest-running job.
        """
        c = MetricsCollector(
            job_ids=job_ids, task_uids=["j/a[0]"], window_ticks=3
        )
        for t in (1.0, 2.0, 3.0):
            c.record_job_tick("short", sample(t))
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            c.record_job_tick("long", sample(t))
        summary = c.summarize()
        assert summary.duration_s == 5.0
        assert summary.job("short").duration_s == 5.0
        assert summary.job("long").duration_s == 5.0

    def test_job_series_roundtrip(self):
        c = collector()
        c.record_job_tick("job", sample(1.0))
        assert len(c.job_series("job")) == 1
        with pytest.raises(KeyError):
            c.job_series("ghost")

    def test_job_series_from_a_start_row_is_the_tail(self):
        c = collector()
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            c.record_job_tick("job", sample(t, thpt=10.0 * t))
            rates = np.full(2, t)
            c.record_task_tick(rates, rates, rates, np.zeros(2))
        c.repeat_last(1, 3, np.array([6.0, 7.0, 8.0]))
        full = c.job_series("job")
        assert len(full) == 8
        assert full[-1] == sample(8.0, thpt=50.0)
        # first row, middle row, last row, the end, past the end
        for start in (0, 4, 7, 8, 20):
            assert c.job_series("job", start) == full[start:]

    def test_job_series_rejects_a_negative_start(self):
        c = collector()
        c.record_job_tick("job", sample(1.0))
        c.record_job_tick("job", sample(2.0))
        with pytest.raises(ValueError, match="non-negative"):
            c.job_series("job", -1)


class TestJobSummary:
    def test_meets_target(self):
        s = JobSummary("j", target_rate=100.0, throughput=96.0,
                       backpressure=0.0, latency_s=0.1, duration_s=10.0)
        assert s.meets_target()
        assert not s.meets_target(tolerance=0.01)

    def test_zero_target_always_meets(self):
        s = JobSummary("j", 0.0, 0.0, 0.0, 0.0, 1.0)
        assert s.meets_target()


class TestSimulationSummary:
    def two_jobs(self):
        a = JobSummary("a", 100.0, 100.0, 0.0, 0.1, 10.0)
        b = JobSummary("b", 100.0, 50.0, 0.5, 2.0, 10.0)
        return SimulationSummary(jobs={"a": a, "b": b}, duration_s=10.0, warmup_s=0.0)

    def test_job_lookup(self):
        s = self.two_jobs()
        assert s.job("a").throughput == 100.0
        with pytest.raises(KeyError):
            s.job("c")

    def test_only_requires_single_job(self):
        with pytest.raises(ValueError):
            self.two_jobs().only

    def test_all_meet_target(self):
        assert not self.two_jobs().all_meet_target()
