"""Online inference serving over a trained MaxK-GNN.

Layered for robustness: a bounded admission queue with per-request
deadlines (:mod:`~repro.serving.queue`), a deadline-aware micro-batcher
fusing concurrent ego-net queries into one forward pass
(:mod:`~repro.serving.batcher`), served in the calling process, and an
LRU result cache invalidated on model reload and graph delta
(:mod:`~repro.serving.cache`) — composed by
:class:`~repro.serving.service.InferenceService`.
"""

from .batcher import BatcherConfig, EgoBatch, MicroBatcher, build_ego_batch
from .cache import ResultCache
from .queue import (
    DEADLINE_EXCEEDED,
    FAILED,
    OK,
    OVERLOADED,
    AdmissionQueue,
    QueueStats,
    Request,
    ServeResult,
    Ticket,
)
from .service import InferenceService, ServiceConfig

__all__ = [
    "OK",
    "OVERLOADED",
    "DEADLINE_EXCEEDED",
    "FAILED",
    "AdmissionQueue",
    "QueueStats",
    "Request",
    "ServeResult",
    "Ticket",
    "BatcherConfig",
    "EgoBatch",
    "MicroBatcher",
    "build_ego_batch",
    "ResultCache",
    "ServiceConfig",
    "InferenceService",
]
