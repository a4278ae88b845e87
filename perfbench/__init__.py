"""End-to-end and per-layer benchmark of the LBA reproduction.

``python3 perfbench/run.py --workload <name>`` runs one workload; see
``perfbench/METRICS.md`` for the workloads, metrics and findings.
"""
