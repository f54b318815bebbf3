"""The repository benchmark: three workloads, output checks and a traced per-layer budget.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
``perfbench/README.md`` for why each workload exists and which
end-to-end metric each per-layer metric should move.
"""
