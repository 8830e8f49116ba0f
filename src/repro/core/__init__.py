"""Core congested-clique simulation substrate.

Public surface:

* :class:`CongestedClique` / :func:`run_protocol` — the simulator facade.
* :class:`ExecutionEngine` and the :func:`get_engine` registry — pluggable
  round-loop drivers (:class:`ReferenceEngine`, :class:`FastEngine`).
* :class:`Packet` and packing helpers — the message model.
* The columnar wire data plane in :mod:`repro.core.wire` —
  :class:`WireBatch`, :func:`fast_packet`, :class:`HeaderCodec`.
* :class:`NodeContext` — the per-node execution environment.
* :class:`PlanCache` / :func:`plan_cache` — the process-wide memoizer for
  structural plans (colorings, partitions, header codecs).
* :class:`GroupPartition` / :class:`OverlayDecomposition` — the paper's
  node-set partitions.
* Piggyback and outbox-composition helpers in :mod:`repro.core.protocol`.
"""

from .context import NodeContext, PlanCache, SharedCache, plan_cache, planned
from .engine import (
    ExecutionEngine,
    FastEngine,
    ReferenceEngine,
    RunRequest,
    RunSummary,
    available_engines,
    get_engine,
    register_engine,
)
from .errors import (
    CapacityExceeded,
    ColoringError,
    EdgeConflict,
    InvalidInstance,
    ModelViolation,
    ProtocolError,
    ReproError,
    VerificationError,
    WordSizeViolation,
)
from .message import (
    DEFAULT_CAPACITY,
    Packet,
    bundle,
    pack_pair,
    pack_triple,
    packet,
    unbundle,
    unpack_pair,
    unpack_triple,
    validate_packet,
)
from .metrics import LatencyHistogram, MeterReport, OperationMeter, RunStats
from .network import CongestedClique, NodeGen, RunResult, run_protocol
from .protocol import (
    attach_piggyback,
    idle,
    merge_outboxes,
    single_round,
    strip_piggyback,
)
from .wire import (
    HeaderCodec,
    WireBatch,
    decode_columns,
    encode_outbox,
    fast_packet,
    header_codec,
    regroup_segments,
    validate_columns,
    validate_words,
    word_bound,
)
from .topology import (
    GroupPartition,
    OverlayDecomposition,
    contiguous_ranges,
    is_perfect_square,
    isqrt_exact,
    split_evenly,
    square_partition,
)

__all__ = [
    "CongestedClique",
    "NodeGen",
    "RunResult",
    "RunRequest",
    "RunSummary",
    "run_protocol",
    "ExecutionEngine",
    "ReferenceEngine",
    "FastEngine",
    "get_engine",
    "register_engine",
    "available_engines",
    "NodeContext",
    "SharedCache",
    "PlanCache",
    "plan_cache",
    "planned",
    "WireBatch",
    "HeaderCodec",
    "header_codec",
    "fast_packet",
    "encode_outbox",
    "decode_columns",
    "validate_columns",
    "validate_words",
    "word_bound",
    "regroup_segments",
    "Packet",
    "packet",
    "bundle",
    "unbundle",
    "pack_pair",
    "unpack_pair",
    "pack_triple",
    "unpack_triple",
    "validate_packet",
    "DEFAULT_CAPACITY",
    "LatencyHistogram",
    "MeterReport",
    "OperationMeter",
    "RunStats",
    "GroupPartition",
    "OverlayDecomposition",
    "square_partition",
    "isqrt_exact",
    "is_perfect_square",
    "split_evenly",
    "contiguous_ranges",
    "attach_piggyback",
    "strip_piggyback",
    "merge_outboxes",
    "idle",
    "single_round",
    "ReproError",
    "ModelViolation",
    "CapacityExceeded",
    "EdgeConflict",
    "WordSizeViolation",
    "InvalidInstance",
    "ProtocolError",
    "ColoringError",
    "VerificationError",
]
