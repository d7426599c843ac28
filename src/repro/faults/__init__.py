"""Fault injection & recovery: the chaos layer (DESIGN.md section 8).

Deterministic chaos schedules and the grammar both fault planes share
(:mod:`repro.faults.schedule`), control-plane faults
(:mod:`repro.faults.telemetry`), cluster health bookkeeping for
degraded-mode control (:mod:`repro.faults.health`), the
checkpoint/restore cost model (:mod:`repro.faults.checkpoint`), and the
engine-side fault driver plus shared fault observability
(:mod:`repro.faults.injector`).
"""

from repro.faults.checkpoint import CheckpointConfig, recovery_downtime
from repro.faults.health import ClusterHealth
from repro.faults.injector import EngineFaultDriver, observe_fault
from repro.faults.schedule import (
    DEGRADE_KINDS,
    FAULT_KINDS,
    STRUCTURAL_KINDS,
    ChaosSchedule,
    FaultEvent,
)
from repro.faults.telemetry import (
    CONTROL_FAULT_KINDS,
    ControlChaosSchedule,
    ControlChaosView,
    ControlFaultEvent,
    observe_control_fault,
)

__all__ = [
    "CONTROL_FAULT_KINDS",
    "ChaosSchedule",
    "CheckpointConfig",
    "ClusterHealth",
    "ControlChaosSchedule",
    "ControlChaosView",
    "ControlFaultEvent",
    "DEGRADE_KINDS",
    "EngineFaultDriver",
    "FAULT_KINDS",
    "FaultEvent",
    "STRUCTURAL_KINDS",
    "observe_control_fault",
    "observe_fault",
    "recovery_downtime",
]
