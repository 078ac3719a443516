"""The GR-index join against its earlier code, kept verbatim.

``tests/join/reference_gridjoin.py`` holds the allocation, cell join and
R-tree insertion/search as they were before trivial cells were skipped,
allocation went inline and the root-leaf fast path was added.  The
production code is held to them exactly:

1. **allocation** — the same ``GridObject`` list, in order, per location,
   under and without Lemma 1: points on cell boundaries, ε past them,
   partners exactly ε apart, negative coordinates, ``-0.0`` and
   ε ≥ cell width.
2. **cell pairs** — the same pair list, in order, per cell, for every
   ``lemma1`` × ``lemma2`` × ``local_index`` and R-tree fanouts 4 and
   16, on cells of 0 to 34 grid objects (data and query mixed).
3. **snapshot join** — ``GRRangeJoin`` returns the same pairs and the
   same ``last_stats``; the dataflow's ``AllocateOperator.process_batch``
   and ``QueryOperator`` produce the reference's objects and pairs in the
   reference's order.
4. **rtree structure** — after every insert of a random sequence that
   crosses the root-leaf → split boundary (fanouts 4 and 16, forced
   reinsertion on and off), both trees hold the same nodes with the same
   children in the same order and bit-identical MBR floats, and
   ``search`` returns the same payloads in the same order.
5. **mutants** — seeded defects must each fail a named property.

``GRIDJOIN_DIFF_EXAMPLES`` sets the example count (CI runs 1000).
"""

import os
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.core.operators import AllocateOperator, QueryOperator
from repro.geometry.distance import get_metric
from repro.geometry.rect import Rect
from repro.index import rtree
from repro.index.gridobject import GridObject
from repro.join import allocate, query, range_join
from repro.model.batch import SnapshotBatch
from tests.join import reference_gridjoin as ref

EXAMPLES = int(os.environ.get("GRIDJOIN_DIFF_EXAMPLES", "25"))
CELL_WIDTHS = (1.0, 0.25, 3.0, 0.1, 7.5)
#: epsilon / cell width; from 1.0 on a range region spans whole cells.
EPS_RATIOS = (0.0, 0.05, 0.3, 0.5, 1.0, 1.5, 2.0, 3.5)
SETTINGS = [
    (lemma1, lemma2, local_index)
    for lemma1 in (True, False)
    for lemma2 in (True, False)
    for local_index in ("rtree", "quadtree", "linear")
]


# ------------------------------------------------------------------ strategies


@st.composite
def grids(draw):
    """``(cell_width, epsilon)``, mostly on the awkward ratios."""
    cell_width = draw(
        st.sampled_from(CELL_WIDTHS) | st.floats(0.05, 10.0, allow_nan=False)
    )
    ratio = draw(st.sampled_from(EPS_RATIOS) | st.floats(0.0, 4.0))
    return cell_width, cell_width * ratio


def coordinates(cell_width, epsilon, span=12):
    """Cell boundaries, ε either side of them, an ε lattice, -0.0, noise."""
    k = st.integers(-span, span)
    return st.one_of(
        k.map(lambda i: i * cell_width),
        k.map(lambda i: i * cell_width + epsilon),
        k.map(lambda i: i * cell_width - epsilon),
        k.map(lambda i: i * epsilon),
        st.just(-0.0),
        st.floats(-span * cell_width, span * cell_width, allow_nan=False),
    )


@st.composite
def location_cases(draw):
    cell_width, epsilon = draw(grids())
    coordinate = coordinates(cell_width, epsilon)
    return cell_width, epsilon, draw(coordinate), draw(coordinate)


@st.composite
def cell_cases(draw):
    """One cell's grid objects: a few lattice clumps at ε / 2 spacing, so
    pairs exactly ε apart, just inside and just outside are common."""
    _, epsilon = draw(grids())
    epsilon = epsilon or 1.0
    size = draw(st.sampled_from((0, 1, 2, 2, 3, 5, 8, 13, 21, 34)))
    spread = draw(st.sampled_from((1, 2, 4, 8)))
    step = st.integers(-spread, spread).map(lambda i: i * epsilon / 2)
    base_x = draw(st.floats(-50.0, 50.0, allow_nan=False))
    base_y = draw(st.floats(-50.0, 50.0, allow_nan=False))
    objects = []
    for oid in draw(
        st.lists(st.integers(0, 3 * size + 1), min_size=size, max_size=size)
    ):
        x = base_x + draw(step | st.floats(-spread * epsilon, spread * epsilon))
        y = base_y + draw(step)
        objects.append(GridObject((0, 0), draw(st.booleans()), oid, x, y))
    metric = draw(st.sampled_from(("l1", "l2", "linf")))
    fanout = draw(st.sampled_from((4, 16)))
    return epsilon, metric, fanout, objects


@st.composite
def snapshot_cases(draw):
    cell_width, epsilon = draw(grids())
    coordinate = coordinates(cell_width, epsilon, span=4)
    size = draw(st.integers(0, 40))
    oids = draw(st.lists(st.integers(0, 10_000), min_size=size, max_size=size, unique=True))
    points = [(oid, draw(coordinate), draw(coordinate)) for oid in oids]
    setting = draw(st.sampled_from(SETTINGS))
    fanout = draw(st.sampled_from((4, 16)))
    return cell_width, epsilon, points, setting, fanout


@st.composite
def insert_cases(draw):
    fanout = draw(st.sampled_from((4, 16)))
    coordinate = coordinates(1.0, 0.5, span=6)
    count = draw(st.integers(0, 3 * fanout + 4))
    points = [(draw(coordinate), draw(coordinate)) for _ in range(count)]
    regions = []
    for _ in range(4):
        x1, x2 = sorted((draw(coordinate), draw(coordinate)))
        y1, y2 = sorted((draw(coordinate), draw(coordinate)))
        regions.append(Rect(x1, y1, x2, y2))
    return fanout, draw(st.booleans()), points, regions


# ------------------------------------------------------------------ properties


def check_allocation(cell_width, epsilon, x, y):
    for lemma1 in (True, False):
        expected = list(ref.allocate_location(7, x, y, cell_width, epsilon, lemma1))
        actual = allocate.allocate_location(7, x, y, cell_width, epsilon, lemma1)
        assert actual == expected, lemma1
        assert [type(k) for go in actual for k in go.key] == [int] * 2 * len(actual)


def check_cell_pairs(epsilon, metric, fanout, objects):
    for lemma1, lemma2, local_index in SETTINGS:
        options = dict(
            epsilon=epsilon,
            metric=get_metric(metric),
            lemma1=lemma1,
            lemma2=lemma2,
            local_index=local_index,
            rtree_fanout=fanout,
        )
        expected = list(ref.CellJoiner(**options).join(objects))
        actual = query.CellJoiner(**options).join(objects)
        assert actual == expected, (lemma1, lemma2, local_index)


def check_snapshot_join(cell_width, epsilon, points, setting, fanout):
    lemma1, lemma2, local_index = setting
    config = range_join.RangeJoinConfig(
        cell_width=cell_width,
        epsilon=epsilon,
        lemma1=lemma1,
        lemma2=lemma2,
        local_index=local_index,
        rtree_fanout=fanout,
    )
    reference = ref.GRRangeJoin(config)
    production = range_join.GRRangeJoin(config)
    assert production.join(points) == reference.join(points)
    assert production.last_stats == reference.last_stats

    # The dataflow stages run the same allocation and cell join.
    objects = AllocateOperator(cell_width, epsilon, lemma1).process_batch(
        SnapshotBatch.from_rows(
            1, [p[0] for p in points], [p[1] for p in points], [p[2] for p in points]
        )
    )
    expected_objects = [
        go
        for oid, x, y in points
        for go in ref.allocate_location(oid, x, y, cell_width, epsilon, lemma1)
    ]
    assert objects == expected_objects
    operator = QueryOperator(
        query.CellJoiner(
            epsilon, lemma1=lemma1, lemma2=lemma2, local_index=local_index,
            rtree_fanout=fanout,
        )
    )
    for go in objects:
        operator.process(go)
    joiner = ref.CellJoiner(
        epsilon, lemma1=lemma1, lemma2=lemma2, local_index=local_index,
        rtree_fanout=fanout,
    )
    cells = ref.allocate_snapshot(points, cell_width, epsilon, lemma1)
    expected_pairs = [pair for key in sorted(cells) for pair in joiner.join(cells[key])]
    assert list(operator.end_batch(1)) == expected_pairs


def floats_of(rect):
    return None if rect is None else tuple(
        float.hex(v) for v in (rect.min_x, rect.min_y, rect.max_x, rect.max_y)
    )


def structure(node):
    """Nested ``(leaf, MBR floats, children)``, children in stored order."""
    if node.leaf:
        children = [(float.hex(e.x), float.hex(e.y), e.payload) for e in node.children]
    else:
        children = [structure(child) for child in node.children]
    return node.leaf, floats_of(node.mbr), children


def check_rtree_structure(fanout, forced_reinsert, points, regions):
    expected = ref.RTree(max_entries=fanout, forced_reinsert=forced_reinsert)
    actual = rtree.RTree(max_entries=fanout, forced_reinsert=forced_reinsert)
    for payload, (x, y) in enumerate(points):
        expected.insert(x, y, payload)
        actual.insert(x, y, payload)
        assert structure(actual._root) == structure(expected._root), payload
        assert (len(actual), actual.height) == (len(expected), expected.height)
        for region in regions:
            assert actual.search(region) == expected.search(region)
    assert floats_of(actual.bounds) == floats_of(expected.bounds)
    actual.check_invariants()


#: name -> (strategy, check)
PROPERTIES = {
    "allocation": (location_cases, check_allocation),
    "cell pairs": (cell_cases, check_cell_pairs),
    "snapshot join": (snapshot_cases, check_snapshot_join),
    "rtree structure": (insert_cases, check_rtree_structure),
}


def run_property(name, examples=EXAMPLES, **extra):
    strategy, check = PROPERTIES[name]

    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=list(HealthCheck),
        **extra,
    )
    @given(strategy())
    def prop(case):
        check(*case)

    prop()


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_differential_property(name):
    run_property(name)


def test_root_leaf_split_boundary_is_crossed():
    """The structure property's sequences reach past one root leaf."""
    for fanout in (4, 16):
        tree = rtree.RTree(max_entries=fanout)
        for i in range(fanout):
            tree.insert(float(i), -float(i), i)
        assert tree.height == 1
        tree.insert(0.5, 0.5, fanout)
        assert tree.height == 2
        tree.check_invariants()


def test_skipped_cells_build_no_index():
    joiner = query.CellJoiner(epsilon=1.0)
    lone = [GridObject((0, 0), False, 1, 0.0, 0.0)]
    queries_only = [GridObject((0, 0), True, oid, 0.0, 0.0) for oid in (1, 2)]
    with mock.patch.object(joiner, "_new_index") as new_index:
        assert joiner.join([]) == []
        assert joiner.join(lone) == []
        assert joiner.join(queries_only) == []
    new_index.assert_not_called()


# ------------------------------------------------------------------- mutants

#: Seeded defects: the module, its ``(line, broken line)`` replacements,
#: and the properties that must each catch it.
MUTANTS = {
    "skip cells with fewer than three objects": (
        query,
        "CellJoiner",
        [("if len(objects) < 2:", "if len(objects) < 3:")],
        ("cell pairs",),
    ),
    "home row dropped from the Lemma-1 region": (
        allocate,
        "allocate_location",
        [("y_lo = home_y if lemma1", "y_lo = home_y + 1 if lemma1")],
        ("allocation",),
    ),
    "root-leaf MBR never extended": (
        rtree,
        "RTree",
        [("elif not root.mbr.contains_point(x, y):", "elif False:")],
        ("rtree structure",),
    ),
}


def mutant_module(module, replacements):
    source = Path(module.__file__).read_text()
    for old, new in replacements:
        assert old in source, f"mutant anchor moved: {old!r}"
        source = source.replace(old, new)
    mutant = types.ModuleType(f"{module.__name__}_mutant")
    exec(compile(source, mutant.__name__, "exec"), mutant.__dict__)
    return mutant


@pytest.mark.parametrize("defect", sorted(MUTANTS))
def test_seeded_defect_is_caught(defect):
    module, name, replacements, catchers = MUTANTS[defect]
    broken = getattr(mutant_module(module, replacements), name)
    for catcher in catchers:
        with mock.patch.object(module, name, broken), pytest.raises(AssertionError):
            run_property(
                catcher,
                examples=300,
                derandomize=True,
                database=None,
                phases=[Phase.generate],
                report_multiple_bugs=False,
            )
