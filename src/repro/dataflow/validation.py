"""Cross-structure validation helpers.

These checks guard the model assumptions of paper section 4.1 before a
search or simulation starts, so that failures surface as clear errors at
deployment time rather than as silently wrong results.
"""

from __future__ import annotations

from repro.dataflow.cluster import Cluster
from repro.dataflow.physical import PhysicalGraph


class DeploymentError(ValueError):
    """Raised when a physical graph cannot be deployed on a cluster."""


def validate_deployment(physical: PhysicalGraph, cluster: Cluster) -> None:
    """Check that ``physical`` fits onto ``cluster``.

    Verifies the standing CAPS assumption that the total number of
    compute slots is sufficient to deploy all tasks, and that no single
    operator exceeds the cluster's slot count (which would make Eq. 2
    unsatisfiable regardless of placement).
    """
    total = len(physical.tasks)
    if not cluster.can_host(total):
        raise DeploymentError(
            f"{total} tasks do not fit in {cluster.total_slots} slots"
        )
    for job_id, operator in physical.operator_keys():
        members = physical.operator_tasks(job_id, operator)
        if len(members) > cluster.total_slots:
            raise DeploymentError(
                f"operator {operator!r} of job {job_id!r} has more tasks "
                f"({len(members)}) than the cluster has slots"
            )
