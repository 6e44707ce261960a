"""Layer-attributed benchmark of the HTTP/2 attack testbed.

``python3 layerbench/run.py --workload W --seed N --seconds S --trace 0|1``
prints the end-to-end metrics (``--trace 0``) or the per-layer
breakdown (``--trace 1``) of one workload; see ``layerbench/README.md``.
"""

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("attack-tcp", "attack-quic", "campaign-sealed", "infer-frontier")
