"""CP(M, K, L, G) straight from the definitions, on raw location rows.

An independent oracle for the whole pipeline: it shares no code with
``repro.enumeration``, ``repro.kernels`` or ``repro.model.timeseq``, so a
bug in the growth engines, the bit-string state machines, the sequence
decomposition or the clustering kernels cannot hide in it.  Everything is
brute force and only fit for streams of a few dozen objects.

* **Clustering** (Definitions 8-9): per time, every pair of rows within
  L1 distance ``epsilon`` are neighbours; a row with at least ``min_pts``
  rows in its neighbourhood (itself included) is a core point; clusters
  are the connected components of core points, and a non-core row with a
  core neighbour joins the cluster of its smallest-id core neighbour (the
  repository's canonical border rule; textbook DBSCAN leaves it to scan
  order).
* **Patterns** (Definitions 2-4, 15): an object set ``O`` with at least
  M objects is a pattern when the times at which all of ``O`` share one
  cluster contain a time sequence ``T`` with ``|T| >= K`` whose maximal
  runs of consecutive times are each at least L long and whose
  neighbouring times differ by at most G.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

#: ``(oid, x, y, time)``.
Row = tuple[int, float, float, int]
#: time -> clusters, each a sorted tuple of oids.
Clusters = dict[int, list[tuple[int, ...]]]


def dbscan_clusters(rows: Iterable[Row], epsilon: float, min_pts: int) -> Clusters:
    """Brute-force epsilon-neighbour DBSCAN of every time's rows."""
    by_time: dict[int, dict[int, tuple[float, float]]] = {}
    for oid, x, y, time in rows:
        by_time.setdefault(time, {})[oid] = (x, y)
    out: Clusters = {}
    for time, where in sorted(by_time.items()):
        oids = sorted(where)
        near = {
            a: [
                b
                for b in oids
                if b != a
                and abs(where[a][0] - where[b][0]) + abs(where[a][1] - where[b][1])
                <= epsilon
            ]
            for a in oids
        }
        core = {a for a in oids if len(near[a]) + 1 >= min_pts}
        label: dict[int, int] = {}
        for seed in oids:
            if seed not in core or seed in label:
                continue
            label[seed] = seed
            stack = [seed]
            while stack:
                for b in near[stack.pop()]:
                    if b in core and b not in label:
                        label[b] = seed
                        stack.append(b)
        for a in oids:
            if a not in core:
                cores = [b for b in near[a] if b in core]
                if cores:
                    label[a] = label[min(cores)]
        groups: dict[int, list[int]] = {}
        for a, root in label.items():
            groups.setdefault(root, []).append(a)
        out[time] = sorted(tuple(sorted(g)) for g in groups.values())
    return out


def is_valid(times: Iterable[int], k: int, l: int, g: int) -> bool:
    """Definitions 2-4: |T| >= K, every run >= L, every gap <= G."""
    ordered = sorted(times)
    if len(ordered) < k:
        return False
    run = 1
    for earlier, later in zip(ordered, ordered[1:]):
        if later - earlier > g:
            return False
        if later == earlier + 1:
            run += 1
        elif run < l:
            return False
        else:
            run = 1
    return run >= l


def holds_valid_sequence(times: Iterable[int], k: int, l: int, g: int) -> bool:
    """Whether some sub-sequence of ``times`` is (K, L, G)-valid.

    Runs shorter than L can be in no valid sequence, so they are dropped;
    a valid ``T`` then lies inside the rest cut to ``[min T, max T]``,
    which only adds whole runs inside ``T``'s gaps and is valid too.  So
    it suffices to try every such cut.
    """
    present = set(times)
    kept = []
    for t in sorted(present):
        low = high = t
        while low - 1 in present:
            low -= 1
        while high + 1 in present:
            high += 1
        if high - low + 1 >= l:
            kept.append(t)
    return any(
        is_valid([t for t in kept if a <= t <= b], k, l, g)
        for i, a in enumerate(kept)
        for b in kept[i:]
    )


def pattern_object_sets(
    clusters: Clusters, m: int, k: int, l: int, g: int
) -> set[tuple[int, ...]]:
    """Every object set of the stream that is a CP(M, K, L, G) pattern."""
    together: dict[tuple[int, ...], set[int]] = {}
    for time, groups in clusters.items():
        for members in groups:
            for size in range(m, len(members) + 1):
                for subset in combinations(members, size):
                    together.setdefault(subset, set()).add(time)
    return {
        objects
        for objects, times in together.items()
        if holds_valid_sequence(times, k, l, g)
    }


def witness_holds(
    objects: tuple[int, ...],
    times: Iterable[int],
    clusters: Clusters,
    m: int,
    k: int,
    l: int,
    g: int,
) -> bool:
    """A reported pattern's own witness: M objects, a valid ``times``, and
    one cluster holding every object at every one of those times."""
    times = list(times)
    needed = set(objects)
    return (
        len(needed) >= m
        and is_valid(times, k, l, g)
        and all(
            any(needed <= set(members) for members in clusters.get(t, ()))
            for t in times
        )
    )
