"""Load shedding: drop cheap records under overload, keep forming patterns.

At production ingest rates the pipeline cannot assume compute keeps up
(ROADMAP north star: millions of users).  This package gives the
:class:`~repro.session.Session` a principled way to fall behind
gracefully:

* :class:`~repro.shedding.policy.ShedPolicy` — the per-batch drop
  contract, with three policies named in :data:`SHED_POLICIES`:
  ``none`` (default, zero overhead),
  ``random`` (uniform Bernoulli drops, the classical baseline) and
  ``pattern_aware`` (consults live enumeration state and only drops
  *cold* records — objects appearing in no open FBA window or unclosed
  VBA bit string — so forming patterns keep their evidence).
* :class:`~repro.shedding.controller.SLOController` — a feedback loop
  that samples end-to-end snapshot latency and per-stage busy time and
  adapts the shed rate toward a target p99 with hysteresis.

Both pieces implement the OperatorState contract (``snapshot_state`` /
``restore_state`` / ``state_metrics``) so shedding state rides through
``Session.checkpoint()`` / restore unchanged.
"""

from repro.shedding.controller import SLOController
from repro.shedding.policy import (
    NoShedPolicy,
    PatternAwareShedPolicy,
    RandomShedPolicy,
    ShedPolicy,
)

#: The shed-policy axis: name -> ``factory(seed)``; the seed drives the
#: policy's drop RNG (the stateless ``none`` policy ignores it).
SHED_POLICIES = {
    "none": lambda seed: NoShedPolicy(),
    "random": RandomShedPolicy,
    "pattern_aware": PatternAwareShedPolicy,
}

__all__ = [
    "SHED_POLICIES",
    "NoShedPolicy",
    "PatternAwareShedPolicy",
    "RandomShedPolicy",
    "SLOController",
    "ShedPolicy",
]
