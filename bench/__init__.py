"""The repo benchmark: four workloads, end-to-end metrics, a traced ledger.

Run ``python -m bench run --workload <name>`` from the repository root (see
``bench/README.md``). Importing this package has no side effects; the
``repro`` sources are put on ``sys.path`` by :func:`bench.paths.add_src`.
"""
