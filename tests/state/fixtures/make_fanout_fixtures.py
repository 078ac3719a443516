"""Write the fixed-fan-out checkpoint fixtures that the restore suite loads.

Each fixture is a checkpoint of one small stream, cut mid-stream, taken
by a session whose stages ran the old fixed topology (8/16/16 subtasks —
every ``ICPEConfig`` default before stage parallelism followed the
backend), plus the events that version emitted over the uninterrupted
stream.  ``tests/state/test_fanout_restore.py`` restores each one into
fan-out 1 and fan-out 2 and checks the continuation.

The committed files were written by the last release with the fixed
default topology, so this script only reproduces them when run against
that version's source::

    PYTHONPATH=<checkout of that version>/src:. \\
        python tests/state/fixtures/make_fanout_fixtures.py

It only uses API both versions share.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import open_session
from repro.session import event_to_dict

from tests.state.conftest import BASE_KNOBS, cluster_stream

FIXTURE_DIR = Path(__file__).resolve().parent

#: The stream every fixture checkpoints: seed, snapshots, objects.
STREAM = dict(seed=5, n_times=14, n_objects=12)

#: Records fed before the checkpoint (a watermark boundary at which the
#: FBA windows hold cover sets and the VBA kernel holds open strings and
#: candidate shells).
CUT = 73

#: Fixture name -> the session knobs it ran with, on top of BASE_KNOBS.
FIXTURES = {
    "numpy_fba": dict(enumeration_kernel="numpy", enumerator="fba"),
    "numpy_vba": dict(enumeration_kernel="numpy", enumerator="vba"),
    "python_fba": dict(enumeration_kernel="python", enumerator="fba"),
}


def events_per_call(knobs: dict) -> list[list[dict]]:
    """Every ``feed`` call's events, then ``finish``'s, over the stream."""
    session = open_session(**BASE_KNOBS, **knobs)
    calls = [
        [event_to_dict(e) for e in session.feed(record)]
        for record in cluster_stream(**STREAM)
    ]
    calls.append([event_to_dict(e) for e in session.finish()])
    session.close()
    return calls


def write(name: str, knobs: dict) -> None:
    session = open_session(**BASE_KNOBS, **knobs)
    for record in cluster_stream(**STREAM)[:CUT]:
        session.feed(record)
    session.checkpoint().save(FIXTURE_DIR / f"{name}.ckpt")
    session.close()
    (FIXTURE_DIR / f"{name}.events.json").write_text(
        json.dumps(events_per_call(knobs), sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    for fixture, fixture_knobs in FIXTURES.items():
        write(fixture, fixture_knobs)
