"""Workloads: testbed construction, generators, update injectors, scenarios."""
