"""End-to-end benchmark: five workloads, one per-layer latency budget.

``BENCHMARK.json`` at the repository root names this package as the
repo's yardstick; ``README.md`` here is the contract (workloads,
metrics, interaction rules, first findings).  The package imports only
``repro`` public entry points and the standard library.
"""
