"""The repository's benchmark: three workloads measured from outside ``src/``.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line; see
``perfbench/README.md`` for the workloads, metrics and reference figures.
"""
