"""Pattern enumeration phase (Section 6 of the paper).

The cluster-snapshot stream is split by *id-based partitioning*: a subtask
exists per trajectory ``o`` and receives, at every time ``t``, the set
``P_t(o)`` of larger-id trajectories sharing ``o``'s cluster (Lemma 3 drops
clusters below the significance threshold).  Three enumerators then find
the CP(M, K, L, G) patterns anchored at ``o``:

* **BA** (Algorithm 3) — materialises every subset of ``P_t(o)`` and
  verifies each over the eta-snapshot window; exponential storage.
* **FBA** (Algorithm 4) — fixed-length bit compression (Definition 13) and
  candidate-based apriori enumeration; linear storage per window.
* **VBA** (Algorithm 5) — variable-length bit strings over all times
  (Definition 14), maximal pattern time sequences (Definition 15,
  Lemma 7), and Lemma 8 pruning; each snapshot verified once, trading
  latency for throughput.

:data:`ENUMERATORS` names the three (``baseline`` / ``fba`` / ``vba``)
for ``ICPEConfig(enumerator=...)`` and the CLI's ``--enumerator``.
``repro.enumeration.oracle`` is an exhaustive enumerator over cluster
snapshots (``core/live.py`` builds its offline maximal convoys on it);
the test-suite judges all three against ``tests/cp_oracle.py``, which
works from raw rows and shares no code with the detector.

``repro.enumeration.kernels`` makes the *implementation strategy* of a
whole enumerate subtask selectable: the reference per-anchor state
machines (``python``) or batched membership bitmaps on NumPy arrays
(``numpy``), both emitting identical pattern streams.
"""

from repro.enumeration.base import AnchorEnumerator, PatternCollector
from repro.enumeration.baseline import BAEnumerator
from repro.enumeration.bitstring import (
    FixedBitString,
    VariableBitString,
    valid_sequences_of_bits,
)
from repro.enumeration.fba import FBAEnumerator
from repro.enumeration.oracle import enumerate_all_patterns
from repro.enumeration.partition import PartitionRouter, id_partitions
from repro.enumeration.vba import VBAEnumerator
from repro.model.constraints import PatternConstraints


def _baseline(
    anchor: int,
    constraints: PatternConstraints,
    *,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
) -> BAEnumerator:
    return BAEnumerator(
        anchor, constraints, max_partition_size=ba_max_partition_size
    )


def _fba(
    anchor: int,
    constraints: PatternConstraints,
    *,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
) -> FBAEnumerator:
    return FBAEnumerator(anchor, constraints)


def _vba(
    anchor: int,
    constraints: PatternConstraints,
    *,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
) -> VBAEnumerator:
    return VBAEnumerator(
        anchor, constraints, candidate_retention=vba_candidate_retention
    )


#: The enumerator axis: name -> per-anchor factory ``factory(anchor,
#: constraints, *, ba_max_partition_size, vba_candidate_retention)``;
#: each enumerator reads the one knob that applies to it.
ENUMERATORS = {"baseline": _baseline, "fba": _fba, "vba": _vba}

__all__ = [
    "ENUMERATORS",
    "AnchorEnumerator",
    "BAEnumerator",
    "FBAEnumerator",
    "FixedBitString",
    "PartitionRouter",
    "PatternCollector",
    "VBAEnumerator",
    "VariableBitString",
    "enumerate_all_patterns",
    "id_partitions",
    "valid_sequences_of_bits",
]
