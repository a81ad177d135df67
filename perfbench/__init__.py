"""Benchmark of the plan-bouquet system; see README.md."""
