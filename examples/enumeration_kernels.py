"""The enumeration-kernel strategy axis, demonstrated on one stream.

Runs the same synthetic workload through every enumerator x kernel
combination of the PED phase — the reference per-anchor state machines
(``enumeration_kernel="python"``) against the batched NumPy membership
bitmaps (``"numpy"``) for FBA and VBA — verifies the detected pattern
sets are identical, and prints the measured wall-clock times.

Run:  python examples/enumeration_kernels.py
"""

from __future__ import annotations

import time

from repro import open_session
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.model.constraints import PatternConstraints


def detect(dataset, enumerator: str, enumeration_kernel: str):
    """One full detection run; returns (pattern signature, seconds).

    The session (pipeline compilation, first NumPy import) is built
    outside the timed region so the timings compare kernel work only.
    """
    session = open_session(
        epsilon=dataset.resolve_percentage(0.06),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=3,
        constraints=PatternConstraints(m=3, k=6, l=2, g=2),
        enumerator=enumerator,
        enumeration_kernel=enumeration_kernel,
    )
    started = time.perf_counter()
    with session:
        session.feed_many(dataset.records)
    seconds = time.perf_counter() - started
    signature = frozenset(
        (pattern.objects, tuple(pattern.times.times))
        for pattern in session.patterns
    )
    return signature, seconds


def main() -> None:
    dataset = generate_taxi(
        TaxiConfig(
            n_objects=120,
            horizon=30,
            seed=17,
            group_fraction=0.5,
            group_size=(6, 12),
        )
    )
    print(f"Dataset: {dataset.statistics().as_row()}")

    print(f"{'enumerator':>10}  {'kernel':>7}  {'seconds':>8}  {'patterns':>8}  equal")
    for enumerator in ("fba", "vba"):
        reference = None
        for kernel in ("python", "numpy"):
            signature, seconds = detect(dataset, enumerator, kernel)
            if reference is None:
                reference = signature
                equal = "-"
            else:
                equal = "yes" if signature == reference else "NO"
                assert signature == reference, (
                    "enumeration kernels must emit identical pattern sets"
                )
            print(
                f"{enumerator:>10}  {kernel:>7}  {seconds:>8.3f}  "
                f"{len(signature):>8}  {equal:>5}"
            )

    print(
        "\nSame patterns, same witnesses - the kernel choice is purely a"
        "\nperformance strategy (see docs/ENUMERATION.md)."
    )


if __name__ == "__main__":
    main()
