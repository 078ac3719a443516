"""The reply codec: pattern runs cross the pipe as columns.

A process worker replaces each maximal run of exact
``CoMovementPattern`` outputs by one ``PatternColumns`` token
(``encode_pattern_runs``); the master rebuilds the patterns
(``decode_pattern_runs``).  Held to, over hypothesis-generated output
lists mixing patterns, a pattern subclass, partition records, partition
envelopes and other picklable elements — empty lists and lists of only
patterns included — sent through the same pickler a pipe uses:

1. **Round trip** — the decoded list has the same length, the same
   exact element types, equal elements and the same pattern ``key()``s.
2. **Shared sequences** — two patterns of one reply share a decoded
   ``TimeSequence`` object exactly when they shared one before.
3. **Mutants** — a codec that folds subclass instances into runs and
   one that reverses a run each fail the round trip.

``REPLY_CODEC_EXAMPLES`` sets the example count (default 25).
"""

from __future__ import annotations

import os
import pickle
import sys
import types
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.model.batch import PartitionBatch
from repro.model.pattern import CoMovementPattern
from repro.model.timeseq import TimeSequence
from repro.streaming import dataflow
from repro.streaming.dataflow import (
    PatternColumns,
    decode_pattern_runs,
    encode_pattern_runs,
)

EXAMPLES = int(os.environ.get("REPLY_CODEC_EXAMPLES", "25"))


@dataclass(frozen=True, slots=True)
class TaggedPattern(CoMovementPattern):
    """A pattern subclass carrying extra state the codec must not drop."""

    tag: str = ""

    def __reduce__(self):
        return (TaggedPattern, (self.objects, self.times, self.tag))


CODEC = (encode_pattern_runs, decode_pattern_runs)


def through_pipe(codec, outputs: list) -> list:
    """Encode, pickle as a worker reply, unpickle and decode."""
    encode, decode = codec
    reply = ("ok", [(0, encode(list(outputs)), 0.0, [])], [])
    received = pickle.loads(ForkingPickler.dumps(reply))
    return decode(received[1][0][1])


def comparable(element):
    if type(element) is PartitionBatch:
        return (element.time, element.anchors.tolist(), element.keys.tolist())
    return element


def shared_sequences(elements: list) -> list[int]:
    """For each pattern, the index of the first pattern sharing its
    ``TimeSequence`` object."""
    patterns = [e for e in elements if isinstance(e, CoMovementPattern)]
    return [
        next(j for j, other in enumerate(patterns) if other.times is p.times)
        for p in patterns
    ]


def check_round_trip(outputs: list, codec=CODEC) -> None:
    decoded = through_pipe(codec, outputs)
    assert len(decoded) == len(outputs)
    assert list(map(type, decoded)) == list(map(type, outputs))
    assert list(map(comparable, decoded)) == list(map(comparable, outputs))
    assert [
        e.key() for e in decoded if isinstance(e, CoMovementPattern)
    ] == [e.key() for e in outputs if isinstance(e, CoMovementPattern)]
    assert shared_sequences(decoded) == shared_sequences(outputs)


# ---------------------------------------------------------------- strategies

ids = st.integers(min_value=0, max_value=40)
object_sets = st.frozensets(ids, min_size=1, max_size=5).map(
    lambda s: tuple(sorted(s))
)
sequences = st.lists(
    st.integers(min_value=0, max_value=30), min_size=1, max_size=6, unique=True
).map(lambda times: TimeSequence(sorted(times)))


@st.composite
def outputs(draw, only_patterns: bool = False) -> list:
    """One subtask's output list; patterns draw from a small pool of
    ``TimeSequence`` objects so some share one."""
    pool = draw(st.lists(sequences, min_size=1, max_size=4))
    times = st.sampled_from(pool)
    pattern = st.builds(CoMovementPattern._from_sorted, object_sets, times)
    kinds = [pattern]
    if not only_patterns:
        kinds += [
            st.builds(TaggedPattern, object_sets, times, st.text(max_size=3)),
            st.tuples(ids, ids, st.frozensets(ids, max_size=4)),
            st.one_of(st.none(), st.integers(), st.text(max_size=4)),
            st.builds(
                lambda time, pairs: PartitionBatch.from_pairs(
                    time, sorted(pairs.items())
                ),
                ids,
                st.dictionaries(ids, st.lists(ids, max_size=3), max_size=3),
            ),
        ]
    return draw(st.lists(st.one_of(*kinds), max_size=24))


reply_outputs = st.one_of(outputs(), outputs(only_patterns=True))


def run_property(examples: int = EXAMPLES, codec=CODEC, **extra) -> None:
    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        **extra,
    )
    @given(reply_outputs)
    def prop(elements):
        check_round_trip(elements, codec)

    prop()


def test_round_trip_property():
    run_property()


def test_empty_and_pattern_free_lists_pass_through_unchanged():
    assert encode_pattern_runs([]) == [] and decode_pattern_runs([]) == []
    plain = [(1, 2, frozenset({3})), "x", None]
    assert encode_pattern_runs(plain) is plain
    assert decode_pattern_runs(plain) is plain


def test_runs_become_one_token_each():
    times = TimeSequence([1, 2, 3])
    a = CoMovementPattern._from_sorted((1, 2), times)
    b = CoMovementPattern._from_sorted((1, 3), times)
    tagged = TaggedPattern((2, 3), times, "t")
    encoded = encode_pattern_runs([a, b, "x", a, tagged, b])
    assert [type(e) for e in encoded] == [
        PatternColumns, str, PatternColumns, TaggedPattern, PatternColumns
    ]
    assert encoded[0].objects == [(1, 2), (1, 3)]
    assert encoded[0].times[0] is encoded[0].times[1] is times
    only = encode_pattern_runs([a, b])
    assert len(only) == 1 and type(only[0]) is PatternColumns
    check_round_trip([a, b, "x", a, tagged, b])


# ------------------------------------------------------------------- mutants

MUTANTS = {
    "subclass check dropped": (
        "kinds = list(map(type, elements))",
        "kinds = [\n"
        "        CoMovementPattern if isinstance(e, CoMovementPattern)\n"
        "        else type(e) for e in elements\n"
        "    ]",
    ),
    "run reversed": (
        "map(_from_sorted, element.objects, element.times)",
        "reversed(list(map(_from_sorted, element.objects, element.times)))",
    ),
}


def mutant_codec(monkeypatch, old: str, new: str):
    """``dataflow`` rebuilt from its source with one replacement,
    registered as a module so its tokens pickle by name."""
    source = Path(dataflow.__file__).read_text()
    assert old in source, f"mutant anchor moved: {old!r}"
    mutant = types.ModuleType(f"{dataflow.__name__}_mutant")
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(old, new), mutant.__name__, "exec"), mutant.__dict__)
    return mutant


@pytest.mark.parametrize("defect", sorted(MUTANTS))
def test_seeded_defect_is_caught(defect, monkeypatch):
    mutant = mutant_codec(monkeypatch, *MUTANTS[defect])
    with pytest.raises(AssertionError):
        run_property(
            examples=200,
            codec=(mutant.encode_pattern_runs, mutant.decode_pattern_runs),
            derandomize=True,
            database=None,
            phases=[Phase.generate],
            report_multiple_bugs=False,
        )
