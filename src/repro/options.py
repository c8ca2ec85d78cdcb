"""The unified execution-knob surface: one frozen :class:`ExecutionOptions`.

Before this module, the knobs a run composes from were scattered:
transport/placement/partitions lived on ``StreamQueryConfig`` (under the
historical name ``workers``), transport/placement *again* on
``ParallelConfig`` for planner-driven runs, and per-call kwargs carried
the rest.  Checkpointed shard-failure recovery adds three more knobs
(``checkpoint_interval``, ``restart_limit``, ``seat_timeout``) that must
compose with all of the above — the forcing function for one object.

``ExecutionOptions`` is accepted uniformly by :class:`repro.Engine`,
:class:`repro.stream.StreamQuery`, :class:`repro.dataflow.DataflowQuery`
and ``python -m repro.serve``.  The legacy constructors keep working:
``StreamQueryConfig(workers=...)`` is now a deprecation shim returning an
``ExecutionOptions`` (so every attribute read old call sites perform still
resolves), and ``ParallelConfig(transport=..., placement=...)`` warns that
those two knobs moved here while continuing to honour them.

Field-name note: the transport knob is canonically ``transport``; the
read-only :attr:`ExecutionOptions.workers` alias preserves the historical
``config.workers`` spelling old code reads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .columnar import LAYOUTS
from .obs.metrics import DEFAULT_METRICS_INTERVAL
from .obs.trace import DEFAULT_TRACE_SAMPLE_RATE
from .runtime.placement import Placement

__all__ = ["ExecutionOptions", "LAYOUTS", "TRANSPORTS"]

#: Valid values of :attr:`ExecutionOptions.transport` for partitioned runs.
#: (Single-partition runs execute inline regardless.)
TRANSPORTS = ("threads", "processes", "sockets")


@dataclass(frozen=True)
class ExecutionOptions:
    """Every execution knob of a continuous/dataflow run, in one place.

    ``transport`` picks where partitioned workers live: ``"threads"``
    shares one interpreter (cheap, GIL-capped), ``"processes"`` runs one
    OS process per partition (true multi-core speedup), ``"sockets"`` puts
    each partition behind a TCP endpoint — locally spawned by default, or
    on the hosts ``placement`` names (start them with ``python -m
    repro.runtime.worker --listen HOST:PORT``).  Process and socket
    transports degrade to threads with a warning when workers cannot
    start.

    ``materialize_probabilities`` computes output probabilities inline
    with the maintainer-owned per-key hash-consed computers instead of
    leaving them for a later ``with_probabilities`` pass.

    ``early_emit`` publishes provisional windows before the watermark
    closes them, retracting/refining on later data (honoured by the
    dataflow executor; the planner routes stream joins through a dataflow
    plan whenever it is set).

    ``layout`` picks the window-maintainer state layout: ``"object"``
    (default) keeps per-tuple Python objects, ``"columnar"`` re-lays the
    hot state as struct-of-arrays numpy columns with vectorized
    probe/evict/finalize sweeps (:mod:`repro.columnar`).  It affects
    nothing else: every transport ships the same frames under both
    layouts.  Settled output is tuple-for-tuple, bitwise-probability
    identical across layouts; when numpy is not installed a columnar
    request degrades to ``"object"`` with a :class:`RuntimeWarning`.

    ``metrics`` / ``metrics_interval`` instrument the run with per-worker
    registries (:mod:`repro.obs`); ``trace`` / ``trace_sample_rate``
    record span-per-element timelines.  Both are off by default — the
    uninstrumented loop is the fast path.

    Fault tolerance (sockets transport only):

    * ``restart_limit`` — how many dead/timed-out seats one run may
      recover by re-dispatching the shard spec to a fresh seat and
      replaying that shard's elements.  ``0`` (default) disables
      recovery: a dead seat fails the run, as before.
    * ``checkpoint_interval`` — seconds between worker state snapshots
      (open windows, hash-cons probability caches) shipped to the driver
      as checkpoint frames; recovery then replays only the
      post-checkpoint suffix instead of the shard's whole history.
      ``0.0`` checkpoints at every micro-batch boundary (deterministic,
      for tests); ``None`` (default) disables checkpointing, making any
      recovery a replay-from-zero.
    * ``seat_timeout`` — seconds the driver waits for a socket seat's
      result frame before declaring it dead (``None``: wait forever,
      trusting the OS to surface connection loss).
    """

    transport: str = "threads"
    partitions: int = 1
    micro_batch_size: int = 64
    buffer_capacity: int = 1024
    materialize_probabilities: bool = False
    early_emit: bool = False
    placement: Optional[Placement] = None
    metrics: bool = False
    metrics_interval: float = DEFAULT_METRICS_INTERVAL
    trace: bool = False
    trace_sample_rate: float = DEFAULT_TRACE_SAMPLE_RATE
    checkpoint_interval: Optional[float] = None
    restart_limit: int = 0
    seat_timeout: Optional[float] = None
    layout: str = "object"

    def __post_init__(self) -> None:
        if self.partitions <= 0:
            raise ValueError("partitions must be positive")
        if self.micro_batch_size <= 0:
            raise ValueError("micro_batch_size must be positive")
        if self.buffer_capacity <= 0:
            raise ValueError("buffer_capacity must be positive")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got {self.transport!r}"
            )
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}, got {self.layout!r}")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be in [0, 1], got {self.trace_sample_rate}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval < 0:
            raise ValueError(
                f"checkpoint_interval must be >= 0 seconds or None, "
                f"got {self.checkpoint_interval}"
            )
        if self.restart_limit < 0:
            raise ValueError(f"restart_limit must be >= 0, got {self.restart_limit}")
        if self.seat_timeout is not None and self.seat_timeout <= 0:
            raise ValueError(
                f"seat_timeout must be positive seconds or None, "
                f"got {self.seat_timeout}"
            )

    @property
    def workers(self) -> str:
        """Legacy read alias: ``StreamQueryConfig`` called the transport
        knob ``workers``; old call sites keep reading it here."""
        return self.transport

    @property
    def recovery_enabled(self) -> bool:
        """Whether a run under these options recovers dead seats at all."""
        return self.restart_limit > 0 and self.transport == "sockets"


def deprecated_config_call(old: str, hint: str, stacklevel: int = 3) -> None:
    """Emit the one shared migration warning for a legacy config surface.

    The default ``stacklevel=3`` points at the *caller of the shim*, not
    the shim itself — the line the user should edit.  Shims one frame
    deeper (dataclass ``__post_init__``) pass 4.
    """
    warnings.warn(
        f"{old} is deprecated; {hint}",
        DeprecationWarning,
        stacklevel=stacklevel,
    )
