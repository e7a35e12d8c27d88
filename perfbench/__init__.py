"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N``;
see ``perfbench/README.md`` for the workloads and metrics.
"""
