"""Benchmark of the MinSigTree top-k system; the entry point is ``run.py``."""
