"""A deterministic fluid-flow stream-processing simulator.

This is the substrate that replaces the paper's AWS Flink testbed (see
DESIGN.md). Records are continuous quantities; time advances in fixed
ticks. Each tick resolves per-worker resource contention (CPU, disk I/O,
network) with proportional fair-sharing and convex oversubscription
penalties, then applies bounded-buffer backpressure: a task can only
process what it can emit downstream, and a source's blocked fraction is
the reported backpressure — matching how Flink's credit-based flow
control stalls sources.

The simulator reproduces the causal chain the paper measures: co-located
resource-hungry tasks overload their worker's shared resources, their
service rates drop, queues fill upstream, and source throughput falls
while backpressure rises (paper section 3).
"""

from repro.simulator.contention import ContentionConfig, proportional_scale
from repro.simulator.state_backend import DiskModel
from repro.simulator.network import NicModel
from repro.simulator.engine import FluidSimulation, SimulationConfig
from repro.simulator.metrics import MetricsCollector, TaskRates
from repro.simulator.plan_cache import (
    DEFAULT_CACHE,
    simulate_cached,
    simulation_fingerprint,
)
from repro.simulator.results import JobSummary, SimulationSummary

__all__ = [
    "DEFAULT_CACHE",
    "simulate_cached",
    "simulation_fingerprint",
    "ContentionConfig",
    "proportional_scale",
    "DiskModel",
    "NicModel",
    "FluidSimulation",
    "SimulationConfig",
    "MetricsCollector",
    "TaskRates",
    "JobSummary",
    "SimulationSummary",
]
