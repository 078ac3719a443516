"""The backend names, the picklable stage-list recipe, and the drivers.

Where a stage's subtasks execute is one class,
:class:`~repro.streaming.runtime.process.ProcessBackend`: a stage runs
in the calling process when it has one subtask or the executor has no
worker pool, and in a pool of shared-nothing worker processes
otherwise.  The two backend names in :data:`BACKENDS` are two pool
sizes of that class — ``serial`` has no pool, ``process`` has one.
Workers cannot receive operator state from the caller, so they rebuild
it from a :class:`GraphSpec`, the picklable recipe of the stage list.

The drivers :func:`execute_unit` and :func:`execute_finish` chain stages
together; the ICPE pipeline and the bench harness both run through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.streaming.dataflow import (
    KeyedStage,
    StageRuntime,
    StageWork,
    count_elements,
)

if TYPE_CHECKING:
    from repro.streaming.runtime.process import ProcessBackend

#: The execution backends ``ICPEConfig.backend`` and the CLI accept.
BACKENDS = ("serial", "process")


@dataclass(frozen=True, eq=False, slots=True)
class GraphSpec:
    """A picklable recipe for rebuilding a stage list in another process.

    Operator factories are closures, so a list of
    :class:`~repro.streaming.dataflow.KeyedStage` cannot cross a process
    boundary.  What *can* cross is the way the stages were described: a
    module-level builder callable plus plain-data arguments.  Each worker
    of a process backend calls ``builder(*args, **kwargs)`` after spawn
    and instantiates its own operator state from the result — the
    shared-nothing contract.

    ``builder`` must be importable by qualified name (a module-level
    function or a staticmethod on an importable class — not a lambda or
    a local closure), must return a list of ``KeyedStage`` descriptions,
    and ``args`` / ``kwargs`` must pickle.  A spec that never reaches a
    worker (an executor with no pool) only needs to build.
    """

    builder: Callable[..., list[KeyedStage]]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def build(self) -> list[KeyedStage]:
        """Run the builder: stage descriptions, no operator instances."""
        return self.builder(*self.args, **self.kwargs)


def execute_unit(
    runtimes: Sequence[StageRuntime],
    elements: Sequence[Any],
    ctx: Any,
    backend: ProcessBackend,
) -> tuple[list[Any], list[StageWork]]:
    """Push one unit of work through every stage under a backend."""
    works: list[StageWork] = []
    current: Sequence[Any] = elements
    for runtime in runtimes:
        current, work = backend.run_stage(runtime, current, ctx)
        works.append(work)
    return list(current), works


def execute_finish(
    runtimes: Sequence[StageRuntime], backend: ProcessBackend
) -> tuple[list[Any], list[StageWork]]:
    """Flush stage state at end of stream, cascading outputs downstream."""
    works: list[StageWork] = []
    carried: list[Any] = []
    for runtime in runtimes:
        if carried:
            carried, work_run = backend.run_stage(runtime, carried, None)
            flushed, work_fin = backend.finish_stage(runtime)
            carried = list(carried) + flushed
            busy = [
                a + b
                for a, b in zip(work_run.busy_seconds, work_fin.busy_seconds)
            ]
            works.append(
                StageWork(
                    name=runtime.stage.name,
                    busy_seconds=busy,
                    elements_in=work_run.elements_in,
                    elements_out=count_elements(carried),
                    wall_seconds=work_run.wall_seconds + work_fin.wall_seconds,
                )
            )
        else:
            carried, work = backend.finish_stage(runtime)
            works.append(work)
    return carried, works
