"""Benchmark of the qsurvival command line; run ``python3 perfbench/run.py --help``."""
