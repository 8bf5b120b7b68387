"""The repository's benchmark: three workloads, end to end and per layer.

See README.md in this directory; ``python3 bxbench/run.py --help``.
"""
