"""Full-system integration: records -> sync -> ICPE -> patterns == the
definition oracle (``tests/cp_oracle.py``), computed from the raw rows."""

import random

import pytest

from repro.core.config import ICPEConfig
from repro.data.brinkhoff import BrinkhoffConfig, generate_brinkhoff
from repro.model.constraints import PatternConstraints
from repro.model.records import StreamRecord
from repro.session import open_session
from repro.streaming.shuffle import bounded_shuffle
from tests.cp_oracle import dbscan_clusters, pattern_object_sets, witness_holds

CONSTRAINTS = PatternConstraints(m=3, k=4, l=2, g=2)


def implanted_stream(seed=0, n_groups=3, group_size=4, horizon=12):
    """Co-moving groups with dropouts; returns time-ordered records."""
    rng = random.Random(seed)
    records, last = [], {}
    for t in range(1, horizon + 1):
        for g in range(n_groups):
            cx, cy = 100.0 * g + 3.0 * t, 50.0 * g
            for i in range(group_size):
                oid = g * group_size + i
                if rng.random() < 0.12:
                    continue
                records.append(
                    StreamRecord(
                        oid,
                        cx + rng.uniform(-0.4, 0.4),
                        cy + rng.uniform(-0.4, 0.4),
                        t,
                        last.get(oid),
                    )
                )
                last[oid] = t
    return records


@pytest.mark.parametrize("enumerator", ["baseline", "fba", "vba"])
def test_pipeline_matches_oracle(enumerator):
    records = implanted_stream()
    config = ICPEConfig(
        epsilon=2.0,
        cell_width=6.0,
        min_pts=3,
        constraints=CONSTRAINTS,
        enumerator=enumerator,
    )
    with open_session(config) as session:
        session.feed_many(records)
    clusters = dbscan_clusters(
        [(r.oid, r.x, r.y, r.time) for r in records], config.epsilon, config.min_pts
    )
    c = CONSTRAINTS
    assert {p.objects for p in session.patterns} == pattern_object_sets(
        clusters, c.m, c.k, c.l, c.g
    )
    for pattern in session.patterns:
        assert witness_holds(
            pattern.objects, pattern.times, clusters, c.m, c.k, c.l, c.g
        )


def test_out_of_order_delivery_equivalent():
    """Bounded reordering must not change the detected pattern set."""
    records = implanted_stream(seed=7)
    config = ICPEConfig(
        epsilon=2.0,
        cell_width=6.0,
        min_pts=3,
        constraints=CONSTRAINTS,
        max_delay=3,
    )
    with open_session(config) as in_order:
        in_order.feed_many(records)

    with open_session(config) as shuffled:
        shuffled.feed_many(
            bounded_shuffle(records, max_delay=3, rng=random.Random(42))
        )
    assert {p.objects for p in shuffled.patterns} == {
        p.objects for p in in_order.patterns
    }


def test_generated_dataset_end_to_end():
    """The Brinkhoff generator + full pipeline finds implanted groups."""
    dataset = generate_brinkhoff(
        BrinkhoffConfig(n_objects=60, horizon=24, seed=9, group_fraction=0.6)
    )
    epsilon = max(dataset.resolve_percentage(0.08), 12.0)
    config = ICPEConfig(
        epsilon=epsilon,
        cell_width=4 * epsilon,
        min_pts=3,
        constraints=PatternConstraints(m=3, k=6, l=2, g=2),
    )
    with open_session(config) as session:
        session.feed_many(dataset.records)
    assert len(session.patterns) > 0
    # Detected groups must be id-contiguous blocks (how groups were planted,
    # modulo background objects which rarely join).
    sizes = {p.size for p in session.patterns}
    assert max(sizes) >= 3


def test_enumerator_choice_does_not_change_results_on_dataset():
    dataset = generate_brinkhoff(
        BrinkhoffConfig(n_objects=40, horizon=18, seed=13)
    )
    epsilon = max(dataset.resolve_percentage(0.08), 12.0)
    results = {}
    for enumerator in ("baseline", "fba", "vba"):
        config = ICPEConfig(
            epsilon=epsilon,
            cell_width=4 * epsilon,
            min_pts=3,
            constraints=PatternConstraints(m=3, k=5, l=2, g=2),
            enumerator=enumerator,
        )
        with open_session(config) as session:
            session.feed_many(dataset.records)
        results[enumerator] = {p.objects for p in session.patterns}
    assert results["baseline"] == results["fba"] == results["vba"]
