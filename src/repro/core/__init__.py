"""The ICPE framework (Fig. 3): the paper's primary contribution assembled.

``ICPEPipeline`` wires discretized snapshots through indexed clustering
(GridAllocate -> GridQuery -> GridSync/DBSCAN) into id-partitioned pattern
enumeration (BA / FBA / VBA) on the streaming substrate, with per-stage
cost accounting.  The user-facing front end is the streaming Session API
(:mod:`repro.session`).
"""

from repro.core.config import ICPEConfig
from repro.core.icpe import ICPEPipeline
from repro.core.live import ConvoyTracker
from repro.core.presets import convoy, flock, group_pattern, platoon, swarm
from repro.core.store import PatternStore

__all__ = [
    "ConvoyTracker",
    "ICPEConfig",
    "ICPEPipeline",
    "PatternStore",
    "convoy",
    "flock",
    "group_pattern",
    "platoon",
    "swarm",
]
