"""Sessions against the CP(M, K, L, G) definition, on raw location rows.

``tests/cp_oracle.py`` clusters and enumerates by brute force from the
definitions and imports nothing of the detector, so these checks hold
both enumeration kernels (each with its own VBA growth engine), both
clustering kernels and both bit-compression enumerators to the paper's
definition rather than to each other.

``ORACLE_EXAMPLES`` raises the hypothesis example count.
"""

import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ICPEConfig, PatternConstraints, open_session
from repro.enumeration.kernels import numpy_kernel
from repro.model.records import StreamRecord
from tests.cp_oracle import dbscan_clusters, pattern_object_sets, witness_holds

EXAMPLES = int(os.environ.get("ORACLE_EXAMPLES", "40"))
EPSILON = 2.0
#: Kernel pair x enumerator: every path to a pattern.
PATHS = [
    (kernel, enumerator)
    for kernel in ("python", "numpy")
    for enumerator in ("fba", "vba")
]


def records_of(rows):
    """Time-ordered stream records, each carrying its object's last time."""
    last = {}
    records = []
    for oid, x, y, time in sorted(rows, key=lambda row: (row[3], row[0])):
        records.append(StreamRecord(oid, x, y, time, last.get(oid)))
        last[oid] = time
    return records


def check_against_definition(rows, min_pts, constraints, kernel, enumerator):
    """The session's pattern object sets are exactly the definition's, and
    every reported witness holds."""
    config = ICPEConfig(
        epsilon=EPSILON,
        cell_width=3 * EPSILON,
        min_pts=min_pts,
        constraints=constraints,
        enumerator=enumerator,
        clustering_kernel=kernel,
        enumeration_kernel=kernel,
    )
    with open_session(config) as session:
        session.feed_many(records_of(rows))
    clusters = dbscan_clusters(rows, EPSILON, min_pts)
    c = constraints
    assert {p.objects for p in session.patterns} == pattern_object_sets(
        clusters, c.m, c.k, c.l, c.g
    )
    for pattern in session.patterns:
        assert witness_holds(
            pattern.objects, pattern.times, clusters, c.m, c.k, c.l, c.g
        ), pattern


@st.composite
def streams(draw):
    """A few objects, each mostly at its home spot, among three spots
    100 apart.

    Positions sit on a 0.5 grid (exact in binary, so no distance lands
    an ulp off ``epsilon``) and spread up to 1.5 per axis inside a spot:
    some pairs at one spot are neighbours and some are not, which makes
    border points and noise as well as cores.
    """
    n_objects = draw(st.integers(3, 7))
    horizon = draw(st.integers(4, 14))
    homes = draw(st.lists(st.integers(0, 1), min_size=n_objects, max_size=n_objects))
    rows = []
    for time in range(1, horizon + 1):
        for oid in range(n_objects):
            spot = draw(st.sampled_from([None, "home", "home", "home", 0, 1, 2]))
            if spot is None:
                continue
            if spot == "home":
                spot = homes[oid]
            dx, dy = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
            rows.append((oid, 100.0 * spot + 0.5 * dx, 0.5 * dy, time))
    m = draw(st.integers(2, 4))
    k = draw(st.integers(2, 5))
    constraints = PatternConstraints(
        m=m, k=k, l=min(draw(st.integers(1, 3)), k), g=draw(st.integers(1, 3))
    )
    return rows, draw(st.integers(2, 3)), constraints


@pytest.mark.parametrize("kernel,enumerator", PATHS)
def test_sessions_match_the_definition(kernel, enumerator):
    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(streams())
    def prop(case):
        rows, min_pts, constraints = case
        check_against_definition(rows, min_pts, constraints, kernel, enumerator)

    prop()


def closing_convoy():
    """Twelve objects travel together for 15 snapshots (object 7 drops
    out twice), then scatter; two loners wander elsewhere throughout."""
    rows = []
    for time in range(1, 23):
        for oid in range(12):
            if time <= 15:
                if oid == 7 and time in (5, 11):
                    continue
                rows.append((oid, 10.0 * time + 0.5 * (oid % 3), 0.5 * (oid % 2), time))
            else:
                rows.append((oid, 1000.0 * oid, 500.0 + time, time))
        for loner in (12, 13):
            rows.append((loner, 5000.0 * loner, 40.0 * time, time))
    return rows


@pytest.mark.parametrize("kernel,enumerator", PATHS)
def test_closing_convoy_matches_the_definition(kernel, enumerator):
    """A 12-object convoy closes in one burst; on the numpy VBA path that
    burst is large enough to run the vectorised growth pass."""
    constraints = PatternConstraints(m=3, k=6, l=2, g=2)
    with mock.patch.object(
        numpy_kernel, "grow_round", wraps=numpy_kernel.grow_round
    ) as spy:
        check_against_definition(closing_convoy(), 3, constraints, kernel, enumerator)
    assert spy.called == (kernel == "numpy" and enumerator == "vba")
