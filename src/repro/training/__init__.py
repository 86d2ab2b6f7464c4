"""Training system: execution engine, data flows, checkpoints, metrics."""

from .checkpoint import (
    CheckpointError,
    config_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    load_state_dict,
    named_parameters,
    read_checkpoint,
    save_checkpoint,
    state_dict,
    write_checkpoint,
)
from .faults import (
    FaultEvent,
    FaultPlan,
    current_fault_plan,
    set_fault_plan,
)
from .dataflow import (
    BatchPlan,
    DataFlow,
    DistributedFlow,
    FullGraphFlow,
    PartitionedFlow,
    PrefetchFlow,
    PrefetchWorkerError,
    SampledFlow,
    SubgraphCache,
    make_flow,
)
from .engine import Engine, ReplicaGradients, TrainResult, batch_loss
from .parallel import (
    ReplicaWorkerError,
    WorkerSupervisionError,
    available_cores,
    reset_fallback_warnings,
    resolve_process_workers,
)
from .metrics import accuracy, micro_f1, roc_auc
from .schedulers import EarlyStopping
from .seeds import SeededResult, run_seeded

__all__ = [
    "accuracy",
    "micro_f1",
    "roc_auc",
    "Engine",
    "ReplicaGradients",
    "batch_loss",
    "available_cores",
    "reset_fallback_warnings",
    "resolve_process_workers",
    "WorkerSupervisionError",
    "ReplicaWorkerError",
    "FaultEvent",
    "FaultPlan",
    "set_fault_plan",
    "current_fault_plan",
    "BatchPlan",
    "PrefetchWorkerError",
    "DataFlow",
    "DistributedFlow",
    "FullGraphFlow",
    "SampledFlow",
    "PartitionedFlow",
    "PrefetchFlow",
    "SubgraphCache",
    "make_flow",
    "TrainResult",
    "state_dict",
    "load_state_dict",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "named_parameters",
    "config_fingerprint",
    "CheckpointError",
    "read_checkpoint",
    "write_checkpoint",
    "EarlyStopping",
    "SeededResult",
    "run_seeded",
]
