"""The FBA window cover: skipping a window changes no collected pattern.

:class:`~repro.enumeration.growth.WindowCover` lets an FBA anchor skip a
window whose candidate set lies inside one it already enumerated
completely.  The rule is output-preserving only because the collector
keeps the first emission per object set, so it is held to:

1. **Differential** — the same partition streams with the rule active
   and with it patched off (``covers`` always false): the collector's
   ``detections`` are identical *in order*; per call and anchor the raw
   emissions with the rule are a subsequence of those without it, and
   ``and_evaluations`` is no larger.  Paths: ``FBAEnumerator`` machines
   driven directly, both enumeration kernels, and a whole ``Session``
   (python / numpy kernels x serial / process backends).
2. **Kernel agreement** — the python and numpy kernels emit the same
   per-anchor lists and hold the same cover after every snapshot (the
   eviction point is part of the contract).
3. **Checkpoint** — a checkpoint taken at a random cut and restored into
   a fresh kernel continues exactly like the uninterrupted run; a payload
   in the earlier format (no ``cover`` key) restores with an empty cover
   and still collects the same detections.
4. **Mutants** — seeded defects must each fail a named property.

Streams are scripted group histories: convoys that hold, shrink, gain
late joiners, split, merge, vanish for more than eta snapshots and come
back, and members that drop out for G - 1, G or G + 1 snapshots between
runs of L - 1 or L; one case in eight uses eta > 64 (two bitmap words).
Several anchors share each kernel, and the final ``finish()`` flushes
the windows the stream left incomplete.  ``FBA_COVER_EXAMPLES`` sets the
example count (CI runs 1000).
"""

import os
import types
from contextlib import ExitStack, contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro import ICPEConfig, PatternConfirmed, open_session
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.enumeration import fba as fba_module
from repro.enumeration import growth
from repro.enumeration.base import PatternCollector
from repro.enumeration.kernels import (
    make_enumeration_kernel,
    numpy_kernel,
)
from repro.enumeration.partition import PartitionRouter
from repro.model.constraints import PatternConstraints
from repro.model.snapshot import ClusterSnapshot
from repro.state import decode_payload, encode_payload

EXAMPLES = int(os.environ.get("FBA_COVER_EXAMPLES", "40"))
KERNELS = ("python", "numpy")
PATHS = ("enumerator",) + KERNELS
WIDE = PatternConstraints(m=3, k=44, l=4, g=3)  # eta 67: two bitmap words
REAL_COVER = growth.WindowCover
REAL_FBA_WINDOWS = numpy_kernel._FBAWindows


class NoCover(REAL_COVER):
    """The rule patched off: no window is ever covered."""

    def covers(self, anchor, oids):
        return False


@contextmanager
def installed(cover=REAL_COVER, fba_windows=REAL_FBA_WINDOWS):
    """Put a cover class (and numpy FBA state class) behind both FBA paths."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(fba_module, "WindowCover", cover))
        stack.enter_context(mock.patch.object(numpy_kernel, "WindowCover", cover))
        stack.enter_context(
            mock.patch.object(numpy_kernel, "_FBAWindows", fba_windows)
        )
        yield


def rule_off():
    return installed(NoCover)


# ------------------------------------------------------------------ strategies


@st.composite
def constraints_cases(draw):
    if draw(st.integers(0, 7)) == 0:
        assert WIDE.eta > 64
        return WIDE
    l = draw(st.integers(1, 3))
    return PatternConstraints(
        m=draw(st.integers(2, 4)),
        k=draw(st.integers(l, 6)),
        l=l,
        g=draw(st.integers(1, 3)),
    )


OPS = ("hold", "shrink", "join", "split", "merge", "vanish", "dropout")


@st.composite
def stream_cases(draw):
    """A scripted group history as cluster snapshots ``1..horizon``."""
    c = draw(constraints_cases())
    eta = c.eta
    n = draw(st.integers(3, 8))
    everyone = list(range(1, n + 1))
    first = draw(st.lists(st.sampled_from(everyone), min_size=2, unique=True))
    groups = [set(first)]
    if draw(st.booleans()):
        rest = [oid for oid in everyone if oid not in first]
        if len(rest) >= 2:
            groups.append(set(rest))
    lengths = sorted(
        {1, c.l - 1, c.l, c.g, c.g + 1, c.k, eta - 1, eta, eta + 1} - {0}
    )
    cap = 3 * eta + 20
    history: list[list[set[int]]] = []

    def emit(count, shape):
        history.extend([[set(g) for g in shape] for _ in range(count)])

    while len(history) < cap:
        op = draw(st.sampled_from(OPS + ("stop",)))
        if op == "stop" and history:
            break
        duration = draw(st.sampled_from(lengths))
        if op == "shrink" and groups:
            group = draw(st.sampled_from(groups))
            if group:
                group.discard(draw(st.sampled_from(sorted(group))))
        elif op == "join" and groups:
            idle = [o for o in everyone if not any(o in g for g in groups)]
            if idle:
                draw(st.sampled_from(groups)).add(draw(st.sampled_from(idle)))
        elif op == "split":
            big = [g for g in groups if len(g) >= 2]
            if big:
                group = draw(st.sampled_from(big))
                part = set(draw(st.lists(st.sampled_from(sorted(group)), unique=True)))
                if part and part != group:
                    groups.remove(group)
                    groups += [part, group - part]
        elif op == "merge" and len(groups) >= 2:
            a, b = groups[0], groups[1]
            groups = [a | b] + groups[2:]
        elif op == "vanish":
            emit(draw(st.integers(eta + 1, 2 * eta + 1)), [])
        elif op == "dropout" and groups:
            group = draw(st.sampled_from(groups))
            if group:
                who = draw(st.sampled_from(sorted(group)))
                gap = draw(st.sampled_from(sorted({c.g - 1, c.g, c.g + 1} - {0})))
                run = draw(st.sampled_from(sorted({c.l - 1, c.l} - {0})))
                without = [g - {who} for g in groups]
                emit(gap, without)
                emit(run, groups)
                emit(gap, without)
        emit(duration, groups)
    snapshots = [
        ClusterSnapshot.from_groups(t, [sorted(g) for g in shape if len(g) >= 1])
        for t, shape in enumerate(history[:cap], start=1)
    ]
    cut = draw(st.integers(0, len(snapshots)))
    return c, snapshots, cut, draw(st.booleans())


# --------------------------------------------------------------------- drivers


def keys(patterns):
    return [pattern.key() for pattern in patterns]


def by_anchor(patterns):
    out: dict[int, list] = {}
    for pattern in patterns:
        out.setdefault(pattern.objects[0], []).append(pattern.key())
    return out


class EnumeratorHost:
    """``FBAEnumerator`` machines driven directly, one per anchor."""

    def __init__(self, constraints):
        self.constraints = constraints
        self.machines: dict[int, fba_module.FBAEnumerator] = {}

    def on_snapshot(self, time, parts):
        out = []
        for anchor, members in parts:
            machine = self.machines.get(anchor)
            if machine is None:
                machine = self.machines[anchor] = fba_module.FBAEnumerator(
                    anchor, self.constraints
                )
            out.extend(machine.on_partition(time, members))
        return out

    def finish(self):
        return [p for a in sorted(self.machines) for p in self.machines[a].finish()]

    def snapshot_state(self):
        return {a: m.snapshot_state() for a, m in sorted(self.machines.items())}

    def restore_state(self, payload):
        self.machines = {}
        for anchor, state in payload.items():
            machine = fba_module.FBAEnumerator(anchor, self.constraints)
            machine.restore_state(state)
            self.machines[anchor] = machine


def build(path, constraints):
    if path == "enumerator":
        return EnumeratorHost(constraints)
    return make_enumeration_kernel(path, enumerator="fba", constraints=constraints)


def machine_states(path, payload):
    """The per-anchor machine payloads inside a host's state payload."""
    if path == "enumerator":
        return list(payload.values())
    if path == "python":
        return list(payload["anchors"].values())
    return [payload["state"]]


def and_evaluations(path, host):
    return sum(s["and_evaluations"] for s in machine_states(path, host.snapshot_state()))


def cover_of(path, host):
    """``{anchor: recorded sets}`` of every anchor with a non-empty cover."""
    cover = {}
    for state in machine_states(path, host.snapshot_state()):
        cover.update({a: sorted(sets) for a, sets in state["cover"].items() if sets})
    return cover


def drive(path, constraints, snapshots, cut=None, strip_cover=False, track=False):
    """One run: raw emissions per call and anchor, the collector's
    detections, ``and_evaluations``, and (``track``) the cover after
    every call."""
    host = build(path, constraints)
    router = PartitionRouter(constraints.m)
    collector = PatternCollector()
    raw, covers = [], []
    for index, snapshot in enumerate(snapshots + [None]):
        if index == cut:
            payload = host.snapshot_state()
            if strip_cover:
                for state in machine_states(path, payload):
                    del state["cover"]
            host = build(path, constraints)
            host.restore_state(decode_payload(encode_payload(payload)[1]))
        if snapshot is None:
            time, emitted = snapshots[-1].time if snapshots else 0, host.finish()
        else:
            time = snapshot.time
            emitted = host.on_snapshot(time, list(router.route(snapshot)))
        raw.append(by_anchor(emitted))
        collector.offer(time, emitted)
        if track:
            covers.append(cover_of(path, host))
    detections = [(t, p.key()) for t, p in collector.detections]
    return raw, detections, and_evaluations(path, host), covers


def is_subsequence(short, long):
    remaining = iter(long)
    return all(any(item == other for other in remaining) for item in short)


def assert_raw_within(raw_on, raw_off):
    assert len(raw_on) == len(raw_off)
    for on, off in zip(raw_on, raw_off):
        assert set(on) <= set(off)
        for anchor, emitted in on.items():
            assert is_subsequence(emitted, off[anchor])


# ------------------------------------------------------------------ properties


def check_differential(constraints, snapshots, _cut=None, _strip=None):
    for path in PATHS:
        raw_on, detections_on, ands_on, _ = drive(path, constraints, snapshots)
        with rule_off():
            raw_off, detections_off, ands_off, _ = drive(path, constraints, snapshots)
        assert detections_on == detections_off, path
        assert_raw_within(raw_on, raw_off)
        assert ands_on <= ands_off, path


def check_kernels_agree(constraints, snapshots, _cut=None, _strip=None):
    python = drive("python", constraints, snapshots, track=True)
    numpy = drive("numpy", constraints, snapshots, track=True)
    assert python[0] == numpy[0]  # raw per-anchor emissions, every call
    assert python[3] == numpy[3]  # cover contents, every call
    assert python[2] == numpy[2]


def check_checkpoint(constraints, snapshots, cut, strip):
    for path in PATHS:
        whole = drive(path, constraints, snapshots)
        resumed = drive(path, constraints, snapshots, cut=cut, strip_cover=strip)
        assert resumed[1] == whole[1], path
        if strip:
            # An empty cover after the cut only grows more windows.
            with rule_off():
                off = drive(path, constraints, snapshots)
            assert_raw_within(whole[0], resumed[0])
            assert_raw_within(resumed[0], off[0])
        else:
            assert resumed[0] == whole[0], path
            assert resumed[2] == whole[2], path


def partial_window_stream():
    """Anchor 1's first window holds candidates {2, 3} that are each valid
    but never valid together; a later window makes {1, 2, 3} a pattern.

    CP(2, 2, 1, 2), eta 3.  Window 1: 2 at {1, 3}, 3 at {1, 2} — both
    candidates, AND = {1}.  From time 4 on all three travel together.
    """
    constraints = PatternConstraints(m=2, k=2, l=1, g=2)
    assert constraints.eta == 3
    shapes = [[[1, 2, 3]], [[1, 3]], [[1, 2]]] + [[[1, 2, 3]]] * 4
    snapshots = [
        ClusterSnapshot.from_groups(t, groups) for t, groups in enumerate(shapes, 1)
    ]
    return constraints, snapshots


def check_partial_window():
    constraints, snapshots = partial_window_stream()
    check_differential(constraints, snapshots)
    _, detections, _, _ = drive("enumerator", constraints, snapshots)
    assert (1, 2, 3) in {objects for _, (objects, _times) in detections}


#: name -> check; the hand-built "partial window" stream runs once.
PROPERTIES = {
    "differential": check_differential,
    "kernels agree": check_kernels_agree,
    "checkpoint": check_checkpoint,
    "partial window": check_partial_window,
}


def run_property(name, examples=EXAMPLES, **extra):
    check = PROPERTIES[name]
    if name == "partial window":
        check()
        return

    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=list(HealthCheck),
        **extra,
    )
    @given(stream_cases())
    def prop(case):
        check(*case)

    prop()


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_cover_property(name):
    run_property(name)


def test_partial_window_is_not_recorded():
    """Growth emitted {1, 2} and {1, 3} but not {1, 2, 3}: nothing is
    recorded, and the later window that finds {1, 2, 3} is grown."""
    constraints, snapshots = partial_window_stream()
    machine = fba_module.FBAEnumerator(1, constraints)
    router = PartitionRouter(constraints.m)
    emitted = []
    for snapshot in snapshots:
        for anchor, members in router.route(snapshot):
            if anchor == 1:
                emitted.append(keys(machine.on_partition(snapshot.time, members)))
                if snapshot.time == 3:  # window 1 ran and was not recorded
                    assert machine.snapshot_state()["cover"] == {}
    assert ((1, 2, 3), (4, 5, 6)) in [k for ks in emitted for k in ks]


def test_rule_fires_on_a_lasting_convoy():
    """A convoy outliving many windows: most windows are skipped."""
    constraints = PatternConstraints(m=3, k=4, l=2, g=2)
    snapshots = [
        ClusterSnapshot.from_groups(t, [[1, 2, 3, 4, 5, 6], [7, 8]])
        for t in range(1, 61)
    ]
    for path in PATHS:
        raw_on, detections_on, ands_on, _ = drive(path, constraints, snapshots)
        with rule_off():
            raw_off, detections_off, ands_off, _ = drive(path, constraints, snapshots)
        assert detections_on == detections_off
        emitted_on = sum(len(v) for call in raw_on for v in call.values())
        emitted_off = sum(len(v) for call in raw_off for v in call.values())
        assert emitted_on * 10 < emitted_off, path
        assert ands_on * 10 < ands_off, path


@pytest.mark.parametrize("path", PATHS)
def test_cover_is_dropped_with_the_last_pending_window(path):
    constraints = PatternConstraints(m=2, k=3, l=1, g=1)
    host = build(path, constraints)
    router = PartitionRouter(constraints.m)
    shapes = [[[1, 2, 3]]] * 6 + [[]] * (constraints.eta + 1)
    for t, groups in enumerate(shapes, 1):
        host.on_snapshot(t, list(router.route(ClusterSnapshot.from_groups(t, groups))))
        if t == 6:
            assert cover_of(path, host) == {1: [(2, 3)], 2: [(3,)]}
    assert cover_of(path, host) == {}
    states = machine_states(path, host.snapshot_state())
    assert all(not state["cover"] for state in states)


def test_cover_counts_in_state_metrics():
    constraints = PatternConstraints(m=2, k=3, l=1, g=1)
    for path in KERNELS:
        host = build(path, constraints)
        router = PartitionRouter(constraints.m)
        for t in range(1, 7):
            snapshot = ClusterSnapshot.from_groups(t, [[1, 2, 3]])
            host.on_snapshot(t, list(router.route(snapshot)))
        assert host.state_metrics()["cover_sets"] == 2
        host.finish()
        assert host.state_metrics()["cover_sets"] == 0


# --------------------------------------------------------------------- session


def session_events(config, batches):
    with open_session(config) as session:
        calls = [session.feed_batch(batch) for batch in batches]
        calls.append(session.finish())
    return [
        (index, event.pattern.key())
        for index, events in enumerate(calls)
        for event in events
        if isinstance(event, PatternConfirmed)
    ]


@pytest.mark.parametrize("kernel", KERNELS)
def test_session_confirms_the_same_events_in_order(kernel):
    """Rule on (serial and process) vs rule off (serial, patched here;
    process workers run the unpatched code, so they are compared with
    the serial run that has the rule off)."""
    dataset = generate_taxi(TaxiConfig(n_objects=70, horizon=40, seed=5))
    batches = list(dataset.batches(256))
    base = dict(
        epsilon=dataset.resolve_percentage(0.06),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=3,
        constraints=PatternConstraints(m=3, k=5, l=2, g=2),
        enumerator="fba",
        clustering_kernel=kernel,
        enumeration_kernel=kernel,
    )
    with rule_off():
        expected = session_events(ICPEConfig(**base), batches)
    assert expected
    assert session_events(ICPEConfig(**base), batches) == expected
    process = ICPEConfig(**base, backend="process", parallel_workers=2)
    assert session_events(process, batches) == expected


# ------------------------------------------------------------------- mutants

#: Seeded defects: the module, its ``(line, broken line)`` replacements,
#: and the properties that must each catch it.  Recording on any emission
#: only goes wrong when a window's candidates are each valid but not all
#: together, which the hand-built "partial window" stream pins.
MUTANTS = {
    "record on any emission": (
        "growth",
        [(
            "if not emitted or len(emitted[-1].objects) != len(candidates) + 1:",
            "if not emitted:",
        )],
        ("partial window",),
    ),
    "subset test reversed": (
        "growth",
        [("covered.issuperset(oids)", "covered.issubset(oids)")],
        ("differential",),
    ),
    "one cover per subtask": (
        "growth",
        [
            ("self._sets.get(anchor, ())", "self._sets.get(-1, ())"),
            ("self._sets[anchor] = kept", "self._sets[-1] = kept"),
        ],
        ("differential", "kernels agree"),
    ),
    "kernels evict differently": (
        "numpy_kernel",
        [("            self._cover.discard(anchor)\n", "            pass\n")],
        ("kernels agree",),
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
    target, replacements, catchers = MUTANTS[defect]
    if target == "growth":
        mutant = mutant_module(growth, replacements)
        classes = {"cover": mutant.WindowCover}
    else:
        mutant = mutant_module(numpy_kernel, replacements)
        classes = {"fba_windows": mutant._FBAWindows}
    for name in catchers:
        with installed(**classes), pytest.raises(AssertionError):
            run_property(
                name,
                examples=300,
                derandomize=True,
                database=None,
                phases=[Phase.generate],
                report_multiple_bugs=False,
            )
