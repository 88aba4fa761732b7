"""The Section 5 batch computing service.

A centralised controller (Fig. 3 of the paper) that manages a cluster of
preemptible VMs on the simulated cloud, applies the Section 4 policies
(model-driven VM reuse, DP checkpointing, hot spares), exposes a
submit/status API, accounts costs, and supports the bag-of-jobs
abstraction for scientific parameter sweeps.
"""

from repro.service.api import BagRequest, BagStatus, JobRequest, JobStatus
from repro.service.bag import BagOfJobs
from repro.service.controller import (
    BatchComputingService,
    ProvisioningLivelockError,
    ServiceConfig,
    ServiceReport,
)
from repro.service.costs import CostModel, on_demand_baseline_cost
from repro.service.database import MetadataStore
from repro.service.evaluate import (
    PolicyEvaluation,
    ServicePolicyEvaluator,
    sweep_configurations,
)
from repro.service.metrics import ServiceMetrics

__all__ = [
    "BagRequest",
    "BagStatus",
    "JobRequest",
    "JobStatus",
    "BagOfJobs",
    "BatchComputingService",
    "ProvisioningLivelockError",
    "ServiceConfig",
    "ServiceReport",
    "CostModel",
    "on_demand_baseline_cost",
    "MetadataStore",
    "PolicyEvaluation",
    "ServicePolicyEvaluator",
    "ServiceMetrics",
    "sweep_configurations",
]
