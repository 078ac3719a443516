"""Synthetic road network for the Brinkhoff-style generator.

Brinkhoff's generator moves objects over a real road graph; we build a
perturbed grid network (nodes on a jittered lattice, orthogonal edges plus
random diagonals, a few edges removed) with `networkx`, which yields the
same qualitative structure: bounded degree, metric edge lengths and
non-trivial shortest paths.

`networkx` is imported inside the functions that build or walk a
network, so ``import repro`` does not load it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx


@dataclass(slots=True)
class RoadNetwork:
    """A spatial graph: node -> (x, y), edges weighted by length."""

    graph: nx.Graph

    def position(self, node) -> tuple[float, float]:
        """Coordinates ``(x, y)`` of a graph node."""
        data = self.graph.nodes[node]
        return (data["x"], data["y"])

    def random_node(self, rng: random.Random):
        """A uniformly random node (deterministic under ``rng``)."""
        nodes = sorted(self.graph.nodes)
        return nodes[rng.randrange(len(nodes))]

    def shortest_path(self, source, target) -> list:
        """Length-weighted shortest path between two nodes."""
        import networkx as nx

        return nx.shortest_path(self.graph, source, target, weight="length")

    def path_points(self, path: list) -> list[tuple[float, float]]:
        """The coordinate polyline of a node path."""
        return [self.position(node) for node in path]

    @property
    def extent(self) -> float:
        """Larger side of the network's bounding box."""
        xs = [data["x"] for _, data in self.graph.nodes(data=True)]
        ys = [data["y"] for _, data in self.graph.nodes(data=True)]
        return max(max(xs) - min(xs), max(ys) - min(ys))


def build_road_network(
    side: int = 12,
    spacing: float = 800.0,
    jitter: float = 120.0,
    diagonal_fraction: float = 0.15,
    removal_fraction: float = 0.05,
    seed: int = 7,
) -> RoadNetwork:
    """Perturbed-lattice road network.

    Args:
        side: lattice dimension (side x side intersections).
        spacing: nominal intersection spacing (map units).
        jitter: positional noise applied to intersections.
        diagonal_fraction: fraction of cells receiving a diagonal road.
        removal_fraction: fraction of lattice edges removed (while keeping
            the network connected).
        seed: randomness seed.
    """
    import networkx as nx

    if side < 2:
        raise ValueError(f"side must be >= 2, got {side}")
    rng = random.Random(seed)
    graph = nx.Graph()
    for row in range(side):
        for col in range(side):
            graph.add_node(
                (row, col),
                x=col * spacing + rng.uniform(-jitter, jitter),
                y=row * spacing + rng.uniform(-jitter, jitter),
            )
    def add_edge(a, b):
        ax, ay = graph.nodes[a]["x"], graph.nodes[a]["y"]
        bx, by = graph.nodes[b]["x"], graph.nodes[b]["y"]
        graph.add_edge(a, b, length=abs(ax - bx) + abs(ay - by))

    for row in range(side):
        for col in range(side):
            if col + 1 < side:
                add_edge((row, col), (row, col + 1))
            if row + 1 < side:
                add_edge((row, col), (row + 1, col))
    for row in range(side - 1):
        for col in range(side - 1):
            if rng.random() < diagonal_fraction:
                if rng.random() < 0.5:
                    add_edge((row, col), (row + 1, col + 1))
                else:
                    add_edge((row, col + 1), (row + 1, col))

    removable = [e for e in graph.edges]
    rng.shuffle(removable)
    to_remove = int(len(removable) * removal_fraction)
    for edge in removable[:to_remove]:
        graph.remove_edge(*edge)
        if not nx.is_connected(graph):
            graph.add_edge(*edge, length=_edge_length(graph, edge))
    return RoadNetwork(graph=graph)


def _edge_length(graph: nx.Graph, edge) -> float:
    a, b = edge
    return abs(graph.nodes[a]["x"] - graph.nodes[b]["x"]) + abs(
        graph.nodes[a]["y"] - graph.nodes[b]["y"]
    )


class RouteWalker:
    """Constant-speed interpolation along a polyline, one step per tick."""

    def __init__(
        self,
        points: list[tuple[float, float]],
        speed: float,
        start_offset: float = 0.0,
    ):
        if len(points) < 1:
            raise ValueError("route needs at least one point")
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.points = points
        self.speed = speed
        self.distance = start_offset
        self._cumulative = [0.0]
        for (x1, y1), (x2, y2) in zip(points, points[1:]):
            self._cumulative.append(
                self._cumulative[-1] + abs(x2 - x1) + abs(y2 - y1)
            )

    @property
    def total_length(self) -> float:
        """Total polyline length in map units."""
        return self._cumulative[-1]

    @property
    def finished(self) -> bool:
        """True once the walker has reached the final point."""
        return self.distance >= self.total_length

    def step(self) -> tuple[float, float]:
        """Advance one tick and return the new position."""
        self.distance = min(self.distance + self.speed, self.total_length)
        return self.position_at(self.distance)

    def position_at(self, distance: float) -> tuple[float, float]:
        """Interpolated position at a distance along the route."""
        if distance <= 0 or len(self.points) == 1:
            return self.points[0]
        if distance >= self.total_length:
            return self.points[-1]
        # Find the segment containing `distance` (linear scan is fine for
        # the short routes the generators produce).
        for index in range(1, len(self._cumulative)):
            if distance <= self._cumulative[index]:
                seg_start = self._cumulative[index - 1]
                seg_len = self._cumulative[index] - seg_start
                fraction = (distance - seg_start) / seg_len if seg_len else 0.0
                x1, y1 = self.points[index - 1]
                x2, y2 = self.points[index]
                return (x1 + fraction * (x2 - x1), y1 + fraction * (y2 - y1))
        return self.points[-1]
