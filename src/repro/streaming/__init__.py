"""A Flink-like streaming substrate (Section 4 + the evaluation's cluster).

The paper runs ICPE on Apache Flink across 11 nodes.  This package
reproduces the pieces of that substrate the algorithms rely on, layered
bottom-up:

* :mod:`repro.streaming.sync` — the "last time" synchronisation operator:
  restores per-trajectory time order under out-of-order delivery and emits
  complete snapshots in ascending time order;
* :mod:`repro.streaming.dataflow` — the dataflow primitives: operators,
  keyed stages, and :class:`~repro.streaming.dataflow.StageRuntime`
  (instantiated subtasks plus stable keyed routing and per-subtask
  busy-time accounting);
* :mod:`repro.streaming.hashing` — the salt-free CRC32 key hash that
  makes keyed routing reproducible across interpreter runs and identical
  between execution backends;
* :mod:`repro.streaming.runtime` — the execution runtime: the stage
  drivers and the one executor,
  :class:`~repro.streaming.runtime.process.ProcessBackend` — with no
  worker pool it is the ``serial`` backend (every stage in the caller,
  deterministic, default), with one the ``process`` backend
  (shared-nothing worker processes fed through pickling pipes);
* :mod:`repro.streaming.cluster` — the N-node cost model turning busy
  times into the latency/throughput metrics of Section 7 (Figs. 10-15);
* :mod:`repro.streaming.shuffle` — bounded out-of-order delivery
  simulation used by tests and examples.
"""

from repro.streaming.cluster import ClusterModel, StageCost
from repro.streaming.dataflow import KeyedStage, Operator, StageRuntime
from repro.streaming.hashing import canonical_encode, stable_hash
from repro.streaming.metrics import LatencyThroughputMeter, SnapshotTiming
from repro.streaming.runtime import ProcessBackend
from repro.streaming.shuffle import bounded_shuffle
from repro.streaming.sync import TimeSyncOperator

__all__ = [
    "ClusterModel",
    "KeyedStage",
    "LatencyThroughputMeter",
    "Operator",
    "ProcessBackend",
    "SnapshotTiming",
    "StageCost",
    "StageRuntime",
    "TimeSyncOperator",
    "bounded_shuffle",
    "canonical_encode",
    "stable_hash",
]
