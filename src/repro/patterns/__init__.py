"""Pattern families: relaxed and predictive views over the cluster stream.

The paper's detector confirms strict CP(M, K, L, G) patterns — fixed
membership over K of L consecutive snapshots.  This package generalises
*what counts as a pattern* behind the ``pattern_family`` axis
(:data:`PATTERN_FAMILIES`) while leaving the strict pipeline untouched:

* :mod:`repro.patterns.base` — the :class:`PatternFamily` contract (a
  master-side session component consuming cluster snapshots and, for
  predictive families, forming-candidate descriptors) and the no-op
  ``strict`` default;
* :mod:`repro.patterns.evolving` — θ-continuous evolving groups whose
  membership may drift between consecutive snapshots
  (:class:`EvolvingGroupTracker`, emitting ``GroupEvolved``);
* :mod:`repro.patterns.prediction` — the online per-object persistence
  model and confirmation-probability scorer
  (:class:`PredictiveFamily`, emitting ``PatternForming``).

Families are selected through ``ICPEConfig.pattern_family`` (also an
``open_session`` keyword) or the CLI ``--pattern-family`` flag and run
identically on both execution backends: they consume only
master-side state (the last cluster snapshot and the forming
descriptors the process backend ships through its reply protocol).
See ``docs/PATTERNS.md`` for semantics and event schemas.
"""

from repro.patterns.base import PatternFamily, StrictFamily
from repro.patterns.evolving import EvolvingGroup, EvolvingGroupTracker
from repro.patterns.prediction import PersistenceModel, PredictiveFamily

#: The pattern-family axis: name -> ``factory(constraints, *, theta,
#: min_probability)``; ``theta`` is the evolving family's Jaccard
#: continuity threshold, ``min_probability`` the predictive family's
#: emission threshold, and each family ignores the knob it does not use.
PATTERN_FAMILIES = {
    "strict": lambda constraints, *, theta, min_probability: StrictFamily(),
    "evolving": lambda constraints, *, theta, min_probability: (
        EvolvingGroupTracker(constraints, theta=theta)
    ),
    "predictive": lambda constraints, *, theta, min_probability: (
        PredictiveFamily(constraints, min_probability=min_probability)
    ),
}

__all__ = [
    "PATTERN_FAMILIES",
    "EvolvingGroup",
    "EvolvingGroupTracker",
    "PatternFamily",
    "PersistenceModel",
    "PredictiveFamily",
    "StrictFamily",
]
