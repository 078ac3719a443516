"""Checkpoints restore into any fan-out.

Enumerate-stage checkpoint payloads are captured per physical subtask,
and by default the number of subtasks follows the backend (one on
``serial``, one per worker on ``process``).  A restore re-partitions the
payloads by anchor onto the live subtasks, so a checkpoint written at
one fan-out continues at any other.  Held to:

1. **Fixtures** — checkpoints written by the last release with the
   fixed 8/16/16 topology (``fixtures/make_fanout_fixtures.py``;
   numpy FBA, numpy VBA, python FBA) restore into ``serial`` (fan-out
   1) and ``process`` (fan-out 2): every later ``feed`` call returns the
   same events as that release's uninterrupted run (as a set — the
   order within a snapshot is canonical now) and exactly the ordered
   events of an uninterrupted run today.
2. **Session restart** (hypothesis) — at a random cut, checkpoint under
   fan-out A and restore under fan-out B, for 16→1, 1→2, 2→3,
   process→serial and serial→process; FBA with live cover sets and VBA
   with ``vba_candidate_retention``, on both enumeration kernels.  The
   restarted event stream equals an uninterrupted run at B; right after
   the restore, ``state_metrics()`` and every enumerate subtask's state
   equal that run's at the cut (work counters aside); and
3. **Counters conserved** — the enumerate stage's summed work counters
   are those of the checkpoint.
4. **Records survive** (hypothesis) — a ``BatchedEnumerateOperator``
   (numpy or python kernel) checkpointed mid-snapshot, with partition
   records buffered ahead of the trigger, re-partitions onto B subtasks
   and emits per snapshot what an uninterrupted B-subtask stage emits.
   The same holds for a ``PartitionBatch`` envelope buffered ahead of a
   ctx-less trigger (1→2 and 2→3): its payload holds the same records.
5. **Mutants** — routing with the writer's fan-out, dropping buffered
   records and not summing counters each fail a named property.

``FANOUT_RESTORE_EXAMPLES`` sets the example count of the serial
properties (process pairs run ``FANOUT_RESTORE_PROCESS_EXAMPLES``).
"""

from __future__ import annotations

import json
import os
import random
import types
from contextlib import contextmanager
from copy import copy
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro import open_session
from repro.core import icpe, operators
from repro.core.operators import BatchedEnumerateOperator
from repro.enumeration.kernels import (
    make_enumeration_kernel,
    numpy_kernel,
)
from repro.enumeration.partition import PartitionRouter
from repro.model.batch import PartitionBatch
from repro.model.constraints import PatternConstraints
from repro.model.snapshot import ClusterSnapshot
from repro.session import event_to_dict
from repro.state import Checkpoint, decode_payload, encode_payload
from repro.streaming.dataflow import KeyedStage, StageRuntime

from tests.state.conftest import BASE_KNOBS, cluster_stream
from tests.state.fixtures import make_fanout_fixtures as fixtures

pytestmark = pytest.mark.checkpoint

EXAMPLES = int(os.environ.get("FANOUT_RESTORE_EXAMPLES", "25"))
PROCESS_EXAMPLES = int(os.environ.get("FANOUT_RESTORE_PROCESS_EXAMPLES", "2"))

#: Fan-outs as complete execution-surface knobs (a restore starts from
#: the checkpoint's config, so each side names all of them): ``None``
#: stage parallelisms follow the backend, explicit ones pin the topology.
def fan_out(
    backend="serial", workers=None, allocate=None, query=None, enumerate_=None
):
    return dict(
        backend=backend,
        parallel_workers=workers,
        allocate_parallelism=allocate,
        query_parallelism=query,
        enumerate_parallelism=enumerate_,
    )


FAN_OUTS = {
    "16": fan_out(allocate=8, query=16, enumerate_=16),
    "1": fan_out(),
    "2": fan_out(allocate=2, query=2, enumerate_=2),
    "3": fan_out(allocate=3, query=3, enumerate_=3),
    "process": fan_out(backend="process", workers=2),
    "serial": fan_out(),
}
SERIAL_PAIRS = [("16", "1"), ("1", "2"), ("2", "3")]
PROCESS_PAIRS = [("process", "serial"), ("serial", "process")]

#: Enumeration setups: FBA keeps cover sets live across windows; VBA
#: evicts candidates past the retention horizon.
SETUPS = {
    "numpy fba": dict(enumeration_kernel="numpy", enumerator="fba"),
    "python fba": dict(enumeration_kernel="python", enumerator="fba"),
    "numpy vba": dict(
        enumeration_kernel="numpy", enumerator="vba", vba_candidate_retention=1
    ),
    "python vba": dict(
        enumeration_kernel="python", enumerator="vba", vba_candidate_retention=1
    ),
}

#: Kernel-level work counters (per-anchor machines carry their own).
COUNTERS = ("rows_built", "and_evaluations", "candidates_created")


def calls_as_dicts(calls) -> list[list[dict]]:
    return [[event_to_dict(event) for event in events] for events in calls]


# -------------------------------------------------------------------- fixtures


TARGETS = pytest.mark.parametrize(
    "target", [FAN_OUTS["serial"], FAN_OUTS["process"]], ids=["serial", "process"]
)


@TARGETS
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_fixed_fan_out_fixture_restores(name, target):
    checkpoint = Checkpoint.load(fixtures.FIXTURE_DIR / f"{name}.ckpt")
    stages = [stage for stage, _ in checkpoint.operator_states]
    assert checkpoint.config.enumerate_parallelism == 16
    assert stages.count("enumerate") == 16
    assert_fixture_resumes(name, checkpoint, target)


@TARGETS
def test_fixture_from_the_retired_thread_backend_restores(target):
    """A checkpoint written on the removed ``parallel`` backend names it
    in its config; the restore swaps the execution surface, so it still
    resumes on either remaining backend.

    ``ICPEConfig`` no longer accepts the name, but unpickling builds no
    config through ``__init__``: the field is set the way loading an old
    checkpoint file sets it, and the checkpoint goes through bytes.
    """
    name = "numpy_vba"
    checkpoint = Checkpoint.load(fixtures.FIXTURE_DIR / f"{name}.ckpt")
    config = copy(checkpoint.config)
    object.__setattr__(config, "backend", "parallel")
    checkpoint = Checkpoint.from_bytes(
        replace(checkpoint, config=config).to_bytes()
    )
    assert checkpoint.config.backend == "parallel"
    assert_fixture_resumes(name, checkpoint, target)


def assert_fixture_resumes(name, checkpoint, target):
    """``checkpoint`` resumes under ``target`` with the fixture's events."""
    records = cluster_stream(**fixtures.STREAM)
    assert checkpoint.records_ingested == fixtures.CUT

    knobs = {**BASE_KNOBS, **fixtures.FIXTURES[name]}
    with open_session(**knobs) as uninterrupted:
        expected = [uninterrupted.feed(record) for record in records]
        expected.append(uninterrupted.finish())
    resumed = open_session(restore=checkpoint, **target)
    with resumed:
        got = [resumed.feed(record) for record in records[fixtures.CUT:]]
        got.append(resumed.finish())
    got = calls_as_dicts(got)
    assert got == calls_as_dicts(expected)[fixtures.CUT:]
    old = json.loads(
        (fixtures.FIXTURE_DIR / f"{name}.events.json").read_text()
    )[fixtures.CUT:]
    canonical = lambda calls: [
        sorted(json.dumps(event, sort_keys=True) for event in call)
        for call in calls
    ]
    assert canonical(got) == canonical(old)
    assert any(e["kind"] == "pattern" for call in got for e in call)


# ------------------------------------------------------------- session restart


def enumerate_state(checkpoint: Checkpoint) -> tuple[dict, dict]:
    """Decoded enumerate payloads (counters zeroed) and counter totals."""
    payloads: dict[int, dict] = {}
    totals = dict.fromkeys(COUNTERS, 0)
    for (stage, index), data in checkpoint.operator_states.items():
        if stage != "enumerate":
            continue
        payload = decode_payload(data)
        state = payload.get("kernel", {}).get("state", {})
        for counter in COUNTERS:
            if counter in state:
                totals[counter] += state[counter]
                state[counter] = 0
        payloads[index] = payload
    return payloads, totals


def restart_case(setup: str, pair: tuple[str, str], seed: int, cut: float):
    """Run A to the cut, restore under B, and an uninterrupted B run."""
    before, after = pair
    knobs = {**BASE_KNOBS, **SETUPS[setup]}
    records = cluster_stream(seed, n_times=12, n_objects=10)
    cut_at = max(1, int(cut * len(records)))

    first = open_session(**knobs, **FAN_OUTS[before])
    calls = [first.feed(record) for record in records[:cut_at]]
    written = Checkpoint.from_bytes(first.checkpoint().to_bytes())
    first.close()
    restored = open_session(restore=written, **knobs, **FAN_OUTS[after])
    with restored:
        restored_metrics = restored.pipeline.state_metrics()
        restored_checkpoint = restored.checkpoint()
        calls += [restored.feed(record) for record in records[cut_at:]]
        calls.append(restored.finish())

    with open_session(**knobs, **FAN_OUTS[after]) as straight:
        expected = [straight.feed(record) for record in records[:cut_at]]
        straight_metrics = straight.pipeline.state_metrics()
        straight_checkpoint = straight.checkpoint()
        expected += [straight.feed(record) for record in records[cut_at:]]
        expected.append(straight.finish())
    return types.SimpleNamespace(
        events=calls_as_dicts(calls),
        expected=calls_as_dicts(expected),
        metrics=(restored_metrics, straight_metrics),
        states=(
            enumerate_state(restored_checkpoint),
            enumerate_state(straight_checkpoint),
            enumerate_state(written),
        ),
    )


def check_session_restart(case) -> None:
    assert case.events == case.expected
    restored_metrics, straight_metrics = case.metrics
    assert restored_metrics == straight_metrics
    (restored, _), (straight, _), _ = case.states
    assert restored == straight


def check_counters_conserved(case) -> None:
    (_, restored), (_, straight), (_, written) = case.states
    assert restored == written == straight


SESSION_PROPERTIES = {
    "session restart": check_session_restart,
    "counters conserved": check_counters_conserved,
}


def run_property(name, pairs=SERIAL_PAIRS, examples=EXAMPLES, **extra):
    check = SESSION_PROPERTIES[name]

    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=list(HealthCheck),
        **extra,
    )
    @given(
        setup=st.sampled_from(sorted(SETUPS)),
        pair=st.sampled_from(pairs),
        seed=st.integers(0, 10_000),
        cut=st.floats(0.05, 0.95),
    )
    def prop(setup, pair, seed, cut):
        check(restart_case(setup, pair, seed, cut))

    prop()


@pytest.mark.parametrize("name", sorted(SESSION_PROPERTIES))
def test_restart_property(name):
    run_property(name)


@pytest.mark.parametrize("pair", PROCESS_PAIRS, ids="->".join)
def test_restart_across_backends(pair):
    run_property("session restart", pairs=[pair], examples=PROCESS_EXAMPLES)


# -------------------------------------------------------------- records survive


def enumerate_stage(parallelism, kernel, enumerator, constraints) -> StageRuntime:
    """The enumerate stage as the pipeline keys it (anchor = record[1])."""
    return StageRuntime(
        KeyedStage(
            name="enumerate",
            operator_factory=lambda: BatchedEnumerateOperator(
                make_enumeration_kernel(
                    kernel,
                    enumerator=enumerator,
                    constraints=constraints,
                    vba_candidate_retention=1,
                )
            ),
            parallelism=parallelism,
            key_fn=lambda record: record[1],
        )
    )


def partition_stream(seed: int, n_times: int) -> list[list[tuple]]:
    """Per time, the ``(time, anchor, members)`` records of random groups."""
    rng = random.Random(seed)
    router = PartitionRouter(2)
    stream = []
    for t in range(n_times):
        oids = [oid for oid in range(12) if rng.random() < 0.8]
        groups: list[list[int]] = [[] for _ in range(rng.randint(1, 3))]
        for oid in oids:
            rng.choice(groups).append(oid)
        snapshot = ClusterSnapshot.from_groups(t, [g for g in groups if g])
        stream.append([(t, a, m) for a, m in router.route(snapshot)])
    return stream


def by_anchor(patterns) -> list[tuple]:
    return sorted((p.key() for p in patterns), key=lambda key: key[0][0])


def check_records_survive(
    kernel, enumerator, before, after, seed, cut, envelope=False
):
    """With ``envelope``, the buffered snapshot arrives as one
    ``PartitionBatch`` split by the exchange, followed by a ctx-less
    trigger (the end-of-stream cascade's), as the kernel clustering
    stage's output would."""
    constraints = PatternConstraints(m=2, k=3, l=2, g=2)
    stream = partition_stream(seed, n_times=10)
    expected_stage = enumerate_stage(after, kernel, enumerator, constraints)
    expected = [
        by_anchor(expected_stage.run(records, t)[0])
        for t, records in enumerate(stream)
    ]
    expected.append(by_anchor(expected_stage.finish()[0]))

    first = enumerate_stage(before, kernel, enumerator, constraints)
    got = [
        by_anchor(first.run(records, t)[0])
        for t, records in enumerate(stream[:cut])
    ]
    # Buffered, the snapshot trigger not yet run.
    if envelope:
        batch = PartitionBatch.from_pairs(
            cut, [(anchor, members) for _t, anchor, members in stream[cut]]
        )
        for subtask, bucket in zip(first.subtasks, first.partition([batch])):
            for share in bucket:
                subtask.process_batch(share)
            assert list(subtask.end_batch(None)) == []
    else:
        for record in stream[cut]:
            first.subtasks[first.route(record)].process(record)
    payloads = [
        (index, encode_payload(subtask.snapshot_state())[1])
        for index, subtask in enumerate(first.subtasks)
    ]
    # Either way the payloads buffer the snapshot's records.
    assert sorted(
        record for _i, data in payloads for record in decode_payload(data)["records"]
    ) == sorted(stream[cut])
    second = enumerate_stage(after, kernel, enumerator, constraints)
    for index, data in icpe._repartition_by_anchor(second, payloads):
        second.subtasks[index].restore_state(decode_payload(data))
    got.append(by_anchor(second.run([], cut)[0]))
    got += [
        by_anchor(second.run(records, t)[0])
        for t, records in enumerate(stream[cut + 1:], start=cut + 1)
    ]
    got.append(by_anchor(second.finish()[0]))
    assert got == expected


def run_records_property(
    examples=EXAMPLES,
    fan_outs=((16, 1), (1, 2), (2, 3), (3, 2)),
    envelope=False,
    **extra,
):
    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=list(HealthCheck),
        **extra,
    )
    @given(
        kernel=st.sampled_from(["numpy", "python"]),
        enumerator=st.sampled_from(["fba", "vba"]),
        pair=st.sampled_from(fan_outs),
        seed=st.integers(0, 10_000),
        cut=st.integers(1, 8),
    )
    def prop(kernel, enumerator, pair, seed, cut):
        check_records_survive(kernel, enumerator, *pair, seed, cut, envelope)

    prop()


def test_records_survive_property():
    run_records_property()


def test_envelope_survives_property():
    run_records_property(fan_outs=((1, 2), (2, 3)), envelope=True)


# --------------------------------------------------------------------- mutants

#: Seeded defects: the module, its ``(line, broken line)`` replacements,
#: the function to swap in, and the properties that must each catch it.
MUTANTS = {
    "routing with the writer's fan-out": (
        icpe,
        [(
            "routed[stable_hash(anchor) % parallelism][anchor] = piece",
            "routed[stable_hash(anchor) % len(payloads) % parallelism]"
            "[anchor] = piece",
        )],
        "_repartition_by_anchor",
        ("session restart",),
    ),
    "buffered records dropped": (
        operators,
        [(
            'for record in payload["records"]:',
            'for record in payload["records"][:0]:',
        )],
        "BatchedEnumerateOperator.split_state",
        ("records survive",),
    ),
    "counters not summed": (
        numpy_kernel,
        [(
            "return sum(rest[counter] for rest in rests) if primary else 0",
            "return rests[0][counter] if primary else 0",
        )],
        "_summed",
        ("counters conserved",),
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


@contextmanager
def installed(module, mutant, target):
    owner, _, attribute = target.rpartition(".")
    if owner:
        with mock.patch.object(
            getattr(module, owner),
            attribute,
            getattr(getattr(mutant, owner), attribute),
        ):
            yield
    else:
        with mock.patch.object(module, attribute, getattr(mutant, attribute)):
            yield


@pytest.mark.parametrize("defect", sorted(MUTANTS))
def test_seeded_defect_is_caught(defect):
    module, replacements, target, catchers = MUTANTS[defect]
    mutant = mutant_module(module, replacements)
    strict = dict(
        examples=100,
        derandomize=True,
        database=None,
        phases=[Phase.generate],
        report_multiple_bugs=False,
    )
    for name in catchers:
        with installed(module, mutant, target), pytest.raises(AssertionError):
            if name in SESSION_PROPERTIES:
                run_property(name, **strict)
            else:
                run_records_property(**strict)
