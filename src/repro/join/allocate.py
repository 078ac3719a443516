"""GridAllocate (Algorithm 1): route locations to grid cells.

Every location becomes one *data* object for its home cell plus *query*
objects for the other cells its (half) range region intersects.  With
Lemma 1 enabled only the upper half ``[x - eps, x + eps] x [y, y + eps]`` is
replicated; disabling it replicates the full region (the SRJ baseline and
the ablation benchmark use this).
"""

from __future__ import annotations

from math import floor
from typing import Iterable

from repro.geometry.rect import pruning_epsilon
from repro.index.gridobject import GridObject


def allocate_location(
    oid: int,
    x: float,
    y: float,
    cell_width: float,
    epsilon: float,
    lemma1: bool = True,
) -> list[GridObject]:
    """Grid objects for one location (lines 2-6 of Algorithm 1).

    The data object comes first, then the query objects in row-major
    cell order.  The cell keys are computed with the float expressions
    of :func:`~repro.index.grid.cell_key` and
    :func:`~repro.index.grid.cells_overlapping` over
    :func:`~repro.geometry.rect.upper_range_region` (Lemma 1) or
    :func:`~repro.geometry.rect.range_region`, so they agree with those
    helpers on every boundary.
    """
    if cell_width <= 0:
        raise ValueError(f"grid cell width must be positive, got {cell_width}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    home_x = floor(x / cell_width)
    home_y = floor(y / cell_width)
    # GridObject(key, is_query, oid, x, y), positional: this is the
    # per-location hot path.
    objects = [GridObject((home_x, home_y), False, oid, x, y)]
    # Replication regions prune candidate *cells*; the margin keeps a
    # partner a few ulps past the exact-epsilon boundary reachable (the
    # probe verifies with the exact metric).
    padded = pruning_epsilon(epsilon)
    x_lo = floor((x - padded) / cell_width)
    x_hi = floor((x + padded) / cell_width)
    # The Lemma-1 half region starts at y itself: its lowest row is home's.
    y_lo = home_y if lemma1 else floor((y - padded) / cell_width)
    y_hi = floor((y + padded) / cell_width)
    for gx in range(x_lo, x_hi + 1):
        for gy in range(y_lo, y_hi + 1):
            if gx != home_x or gy != home_y:
                objects.append(GridObject((gx, gy), True, oid, x, y))
    return objects


def allocate_snapshot(
    points: Iterable[tuple[int, float, float]],
    cell_width: float,
    epsilon: float,
    lemma1: bool = True,
) -> dict:
    """Partition a snapshot into per-cell GridObject lists.

    Returns a mapping ``cell key -> [GridObject, ...]`` preserving arrival
    order (data and query objects interleaved exactly as allocated), which
    is what each GridQuery subtask receives in the dataflow.
    """
    partitions: dict = {}
    for oid, x, y in points:
        for grid_object in allocate_location(
            oid, x, y, cell_width, epsilon, lemma1=lemma1
        ):
            partitions.setdefault(grid_object.key, []).append(grid_object)
    return partitions


def replication_factor(
    points: list[tuple[int, float, float]],
    cell_width: float,
    epsilon: float,
    lemma1: bool = True,
) -> float:
    """Average number of grid objects emitted per location.

    Diagnostic for the Lemma 1 ablation: the factor roughly halves when the
    upper-half optimisation is on.
    """
    if not points:
        return 0.0
    total = sum(
        len(allocate_location(oid, x, y, cell_width, epsilon, lemma1=lemma1))
        for oid, x, y in points
    )
    return total / len(points)
