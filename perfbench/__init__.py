"""Served-deployment benchmark: three workloads against a ``repro serve`` child.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; ``perfbench/README.md``
describes the workloads, the metrics and the layer each metric belongs to.
"""
