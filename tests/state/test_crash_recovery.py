"""Crash injection: kill a worker mid-stream, recover from checkpoint.

A subprocess drives a process-backend session, saves a checkpoint to
disk, then SIGKILLs one ``repro-worker-N`` process and keeps feeding —
the backend must surface the death as a RuntimeError rather than hang.
The parent then restores the on-disk checkpoint and drives the rest of
the stream; the continued events must match the uninterrupted oracle's
tail exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro import open_session
from repro.session import event_to_dict
from repro.state import Checkpoint

from tests.state.conftest import BASE_KNOBS, cluster_stream

pytestmark = pytest.mark.checkpoint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

CRASH_SCRIPT = textwrap.dedent(
    """
    import sys

    from repro import PatternConstraints, open_session

    sys.path.insert(0, "{tests_root}")
    from tests.state.conftest import BASE_KNOBS, cluster_stream

    def main():
        records = cluster_stream(seed={seed}, n_times=7, n_objects=6)
        session = open_session(
            backend="process", parallel_workers=2, **BASE_KNOBS
        )
        for record in records[:{cut}]:
            session.feed(record)
        session.checkpoint().save(r"{checkpoint_path}")
        print("CHECKPOINT_SAVED", flush=True)

        victim = session.pipeline.backend._processes[0]
        assert victim.name.startswith("repro-worker-"), victim.name
        victim.kill()
        victim.join()

        try:
            for record in records[{cut}:]:
                session.feed(record)
        except RuntimeError as error:
            assert "died unexpectedly" in str(error), error
            print("CRASH_SURFACED", flush=True)
        else:
            print("NO_CRASH", flush=True)

    if __name__ == "__main__":
        main()
    """
)


class TestCrashRecovery:
    def test_restore_after_worker_kill_matches_oracle(self, tmp_path):
        seed, cut = 13, 24
        checkpoint_path = tmp_path / "crash.ckpt"
        script = tmp_path / "crash_session.py"
        script.write_text(
            CRASH_SCRIPT.format(
                seed=seed,
                cut=cut,
                checkpoint_path=checkpoint_path,
                tests_root=REPO_ROOT,
            )
        )
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert "CHECKPOINT_SAVED" in result.stdout
        assert "CRASH_SURFACED" in result.stdout, result.stdout

        # Recovery: restore the saved checkpoint, continue, compare to
        # an uninterrupted oracle split at the same ingestion point.
        records = cluster_stream(seed=seed, n_times=7, n_objects=6)
        checkpoint = Checkpoint.load(checkpoint_path)
        assert checkpoint.records_ingested == cut

        restored = open_session(restore=checkpoint)
        continued = []
        for record in records[cut:]:
            continued.extend(restored.feed(record))
        continued.extend(restored.finish())
        restored.close()
        continued = [event_to_dict(event) for event in continued]

        oracle = open_session(**BASE_KNOBS)
        for record in records[:cut]:
            oracle.feed(record)
        tail = []
        for record in records[cut:]:
            tail.extend(oracle.feed(record))
        tail.extend(oracle.finish())
        oracle.close()
        tail = [event_to_dict(event) for event in tail]

        assert continued == tail
