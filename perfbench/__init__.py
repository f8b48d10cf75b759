"""The repository benchmark: simulated-time daemon workloads, timed end to end.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload (see :mod:`perfbench.workloads`) and prints one JSON
result line; ``perfbench/DESIGN.md`` records why each workload and metric
exists and the first baseline numbers.
"""
