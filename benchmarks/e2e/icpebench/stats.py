"""Percentiles, spreads and digests shared by the runner and its tests."""

from __future__ import annotations

import hashlib
import math
import statistics
from pathlib import Path
from typing import Iterable, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` %
    of the samples at or below it (no interpolation, always a measured
    value).

    Raises:
        ValueError: for an empty sample or ``q`` outside ``(0, 100]``.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(samples)
    return ordered[math.ceil(q / 100 * len(ordered)) - 1]


def summarize(values: Sequence[float], better: str) -> dict[str, float]:
    """A run's value for one metric, from the values of its passes.

    ``value`` is the better quartile of the passes (nearest rank): with
    eight passes the second best, with three the best.  The sandbox host
    slows by 10-70 % for seconds to minutes at a time and never speeds up,
    so the median of a handful of passes flips between a quiet and a
    disturbed level from run to run, while the better quartile stays on
    the quiet one unless three quarters of the passes were disturbed.
    ``spread`` is the distance between the quartiles as a share of the
    median (with three passes: best to worst).
    """
    sign = -1 if better == "higher" else 1
    signed = [sign * v for v in values]
    q25, q75 = sign * percentile(signed, 25), sign * percentile(signed, 75)
    median = statistics.median(values)
    return {
        "value": q25,
        "median": median,
        "min": min(values),
        "max": max(values),
        "spread": abs(q75 - q25) / median if median else 0.0,
    }


def pattern_digest(keys: Iterable[tuple]) -> str:
    """SHA-256 over the sorted set of ``CoMovementPattern.key()`` values.

    Pins the CP(M, K, L, G) result set, not when each pattern was emitted.
    """
    digest = hashlib.sha256()
    for key in sorted(set(keys)):
        digest.update(repr(key).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
