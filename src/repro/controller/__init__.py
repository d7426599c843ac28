"""The CAPSys adaptive resource controller (paper section 5).

Implements the deployment workflow of paper Figure 6:

1. the user submits a query graph and a target throughput;
2. the :mod:`profiler <repro.controller.profiler>` deploys a profiling
   job — each operator isolated on its own worker — and derives
   per-record unit costs;
3. the DS2 scaling controller decides operator parallelism;
4. the placement controller runs CAPS (with auto-tuned thresholds) to
   compute the task placement;
5-6. the deployment is effected (here: a fluid-simulation engine).

:class:`~repro.controller.capsys.CAPSysController` also drives the
runtime reconfiguration loop of section 6.4: metrics windows feed DS2,
scaling decisions trigger re-placement, and restarts cost a configurable
downtime.
"""

from repro.controller.events import AdaptiveRunResult, RescaleEvent, TimelineSample
from repro.controller.profiler import CostProfiler
from repro.controller.capsys import CAPSysController, ControllerConfig, Deployment

__all__ = [
    "AdaptiveRunResult",
    "RescaleEvent",
    "TimelineSample",
    "CostProfiler",
    "CAPSysController",
    "ControllerConfig",
    "Deployment",
]
