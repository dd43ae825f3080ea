"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics, the last line
being one JSON object; ``--all`` runs every workload.  See ``run.py``.
"""
