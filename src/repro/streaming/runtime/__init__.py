"""The execution runtime for the ICPE stage list.

The runtime package separates *what* a job computes (a list of
:class:`~repro.streaming.dataflow.KeyedStage` descriptions, built into
:class:`~repro.streaming.dataflow.StageRuntime` instances) from *where*
its subtasks execute — one executor,
:class:`~repro.streaming.runtime.process.ProcessBackend`:

* :mod:`repro.streaming.runtime.base` — the backend names
  (:data:`~repro.streaming.runtime.base.BACKENDS`), the picklable
  :class:`~repro.streaming.runtime.base.GraphSpec` and the unit/finish
  drivers;
* :mod:`repro.streaming.runtime.process` — the executor: every stage in
  the master when it has no worker pool (``serial``), multi-subtask
  stages in shared-nothing worker *processes* rebuilding operator state
  from the :class:`~repro.streaming.runtime.base.GraphSpec` when it has
  one (``process``), with every element pickled through the worker's
  command pipe.

Both pool sizes drive stages through the same partition/run-subtask
operations and concatenate outputs in subtask-index order, so the emitted
element sequence — and therefore every detected pattern — is identical
across backends.
"""

from repro.streaming.hashing import canonical_encode, stable_hash
from repro.streaming.runtime.base import (
    BACKENDS,
    GraphSpec,
    execute_finish,
    execute_unit,
)
from repro.streaming.runtime.process import (
    ProcessBackend,
    available_cpu_count,
    default_worker_count,
)

__all__ = [
    "BACKENDS",
    "GraphSpec",
    "ProcessBackend",
    "available_cpu_count",
    "canonical_encode",
    "default_worker_count",
    "execute_finish",
    "execute_unit",
    "stable_hash",
]
