"""Static verification tooling: trace sanitizer + determinism linter.

Two independent, offline analyses that keep the simulator honest:

* :mod:`repro.verify.conformance` — checks a *recorded run* against the
  paper's definitional guarantees (2PVC state machines, proof freshness
  per approach, φ/ψ consistency, lock discipline, WAL ordering,
  serializability).  Entry points: :func:`verify_cluster`,
  ``Cluster.verify()``, and ``python -m repro.verify``.
* :mod:`repro.verify.lint` — an AST pass over the *source tree* enforcing
  the repo's determinism rules (no wall clocks, no unseeded randomness,
  no order-sensitive set iteration, frozen message records).  Entry
  point: ``python -m repro.verify.lint``.

See docs/correctness.md for every invariant and rule.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.verify.conformance import check_run
from repro.verify.events import collect_run
from repro.verify.report import VerificationReport


def dump_incident(cluster: Any, report: VerificationReport, reason: str) -> None:
    """Violations ⇒ incident bundle, when the world carries a flight recorder.

    The bundle (recent event window, metrics snapshot, waterfalls of the
    implicated transactions — see :mod:`repro.obs.flight`) is retained on
    ``cluster.metrics.flight.bundles``.
    """
    flight = cluster.metrics.flight
    if report.violations and flight is not None:
        flight.dump(reason, cluster.env.now, violations=report, metrics=cluster.metrics)


def verify_cluster(
    cluster: Any,
    outcomes: Optional[Sequence[Any]] = None,
    checks: Optional[Sequence[str]] = None,
) -> VerificationReport:
    """Collect a finished cluster's evidence and run the conformance checks.

    Violations dump an incident bundle (:func:`dump_incident`).
    """
    run = collect_run(cluster, outcomes=outcomes)
    report = check_run(run, checks=checks)
    dump_incident(cluster, report, f"conformance: {', '.join(sorted(report.codes()))}")
    return report
