"""The repository's benchmark: three workloads, one command.

See ``run.py`` for the command line and ``BENCHMARK.json`` at the repo
root for the metrics, their units and their regression bounds.
"""
