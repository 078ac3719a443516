"""The end-to-end ICPE benchmark (see ``../README.md``).

* :mod:`icpebench.workloads` — the five pinned workloads and their inputs;
* :mod:`icpebench.child` — the measured child process (untraced pass,
  layer replay, reference digest);
* :mod:`icpebench.spans` — in-memory spans for the layer replay;
* :mod:`icpebench.stats` — percentiles, spreads and digests;
* :mod:`icpebench.runner` — the parent: datasets, children, results;
* :mod:`icpebench.compare` — verdicts over two results files.

Only ``workloads`` (dataset generation) and ``child`` import ``repro``.
"""
