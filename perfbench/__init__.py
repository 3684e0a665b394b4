"""The repository benchmark: named workloads, end-to-end and per-layer metrics.

Entry point: ``python perfbench/run.py``; see ``perfbench/README.md``.
"""
