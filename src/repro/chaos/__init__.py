"""Chaos engine: fault plans, a seeded fuzzer, a shrinker, a classifier.

The paper's claim is that 2PV/2PVC keep policy and data consistent on an
*unreliable* cloud.  This package turns the conformance checker
(:mod:`repro.verify`, the trace sanitizer) from a regression gate into a
violation hunter:

* :mod:`repro.chaos.plan` — declarative, serializable fault schedules
  (message drops, extra delays/reorders, link partitions, targeted node
  crashes, mid-transaction policy churn), replayable from ``(seed, plan)``;
* :mod:`repro.chaos.nemesis` — applies a plan to a live testbed cluster
  through the network's chaos hook and scheduled kernel callbacks;
* :mod:`repro.chaos.fuzz` — the seeded fuzzer sweeping random fault
  schedules across the approach × consistency grid, verifying every trace;
* :mod:`repro.chaos.shrink` — delta-debugging minimization of violating
  schedules to human-readable counterexamples;
* :mod:`repro.chaos.classify` — maps violation codes + serialization-graph
  evidence to named anomalies (lost update, write skew, fractured read,
  stale-policy commit, ...);
* :mod:`repro.chaos.contrast` — the ACGreGate-style weak access-control
  baseline whose unsafe commits quantify what the paper's approaches avoid.

CLI: ``python -m repro.chaos`` (see docs/robustness.md).
"""
