"""Pluggable execution runtime for the ICPE stage list.

The runtime package separates *what* a job computes (a list of
:class:`~repro.streaming.dataflow.KeyedStage` descriptions, built into
:class:`~repro.streaming.dataflow.StageRuntime` instances) from *how*
its subtasks execute (an
:class:`~repro.streaming.runtime.base.ExecutionBackend`):

* :mod:`repro.streaming.runtime.base` — the backend contract (run,
  finish, one ``query`` for control traffic), the picklable
  :class:`~repro.streaming.runtime.base.GraphSpec`, the unit/finish
  drivers and :func:`resolve_backend`;
* :mod:`repro.streaming.runtime.serial` — sequential reference
  execution (default);
* :mod:`repro.streaming.runtime.process` — shared-nothing worker
  *processes* rebuilding operator state from a
  :class:`~repro.streaming.runtime.base.GraphSpec`, with columnar
  envelopes shipped through pooled ``multiprocessing.shared_memory``
  segments (:mod:`repro.streaming.runtime.shm`).

Both backends drive stages through the same partition/run-subtask
operations and concatenate outputs in subtask-index order, so the emitted
element sequence — and therefore every detected pattern — is identical
across backends.
"""

from repro.streaming.hashing import canonical_encode, stable_hash
from repro.streaming.runtime.base import (
    BACKENDS,
    ExecutionBackend,
    GraphSpec,
    execute_finish,
    execute_unit,
    resolve_backend,
)
from repro.streaming.runtime.process import (
    ProcessBackend,
    available_cpu_count,
    default_worker_count,
)
from repro.streaming.runtime.serial import SerialBackend
from repro.streaming.runtime.shm import SegmentPool

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "GraphSpec",
    "ProcessBackend",
    "SegmentPool",
    "SerialBackend",
    "available_cpu_count",
    "canonical_encode",
    "default_worker_count",
    "execute_finish",
    "execute_unit",
    "resolve_backend",
    "stable_hash",
]
