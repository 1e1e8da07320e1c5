"""The repository benchmark: seeded workloads, answer checks and span tracing.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics as the last line
of standard output; see ``perfbench/README.md``.
"""
