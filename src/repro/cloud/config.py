"""Configuration knobs for the simulated cloud.

One :class:`CloudConfig` instance parameterizes an entire simulation:
network latency, local service times, how the master version is consulted
under global consistency, the commit-logging variant, and policy-replication
delays.  All times are in abstract simulation units; benches typically treat
one unit as ~1 ms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.sim.network import LatencyModel, UniformLatency
from repro.transactions.presumed import CommitVariant, PRESUMED_NOTHING

if TYPE_CHECKING:
    from repro.sim.topology import RegionTopology


class MasterFetchMode(enum.Enum):
    """When the TM consults the master version service during validation.

    Section V-A: "This master version may be retrieved only once or each
    time Step 3 is invoked."  ``ONCE`` bounds the collection phase to two
    rounds (like view consistency); ``PER_ROUND`` re-fetches every round and
    may iterate while updates keep landing — the behaviour Table I's
    ``2n + 2nr + r`` (r unbounded) formula assumes.
    """

    ONCE = "once"
    PER_ROUND = "per_round"


@dataclass
class CloudConfig:
    """All tunables of the simulated infrastructure."""

    #: One-way network delay distribution.  Ignored when ``topology`` is
    #: set — the testbed then builds a region-aware
    #: :class:`repro.sim.topology.RegionalLatency` instead.
    latency: LatencyModel = field(default_factory=lambda: UniformLatency(0.5, 1.5))
    #: Multi-datacenter layout (:class:`repro.sim.topology.RegionTopology`):
    #: regions, the pairwise latency/jitter/bandwidth matrix, and node
    #: placement.  ``None`` keeps the single-datacenter behaviour.
    topology: Optional["RegionTopology"] = None
    #: Region the master version service (and the policy administrators'
    #: replicator) is pinned to when a topology is set; ``None`` uses the
    #: topology's default region.  Coordinators in other regions pay WAN
    #: round trips for every master-version fetch — the placement choice
    #: the Table-I-at-scale bench measures.
    master_region: Optional[str] = None
    #: Local time a server spends executing one query (locks held).
    query_execution_time: float = 1.0
    #: Local time to evaluate one proof of authorization.
    proof_evaluation_time: float = 0.5
    #: Local time to check integrity constraints at prepare.
    constraint_check_time: float = 0.2
    #: Local time for one forced log write.
    log_force_time: float = 0.1
    #: Whether servers check revocation through the OCSP responder node
    #: (network round trip) instead of the zero-latency local oracle.
    use_online_ocsp: bool = False
    #: Name of the OCSP responder node (when online checking is on).
    ocsp_responder: str = "ocsp"
    #: Whether servers issue capability credentials ("access credentials")
    #: after granting a proof during query execution (Section III-A; Fig. 1).
    issue_capabilities: bool = False
    #: Policy-replication delay bounds (uniform per server per update).
    replication_delay: Tuple[float, float] = (5.0, 50.0)
    #: Master-version retrieval mode for commit-time validation.
    master_fetch_mode: MasterFetchMode = MasterFetchMode.PER_ROUND
    #: Name of the master version-service node.
    master_name: str = "master"
    #: Commit-protocol logging/ack variant.
    commit_variant: CommitVariant = PRESUMED_NOTHING
    #: Per-request timeout for protocol RPCs (None = wait forever).
    request_timeout: Optional[float] = 200.0
    #: Coordinator RPC retries after a request timeout (0 = the historical
    #: fail-fast behaviour: first timeout aborts the transaction).  With
    #: retries on, participants deduplicate re-sent EXECUTE / PREPARE /
    #: DECISION messages so a retry never re-applies effects or re-forces
    #: log records.  See docs/robustness.md.
    rpc_max_retries: int = 0
    #: Concurrent compute slots per server (None = unbounded).  Bounding
    #: this makes server saturation visible in load experiments: query
    #: execution, proof evaluation, and constraint checking each hold one
    #: slot while they run.
    server_concurrency: Optional[int] = None
    #: Memoize proof evaluations per server (version-aware, invalidated on
    #: policy installs and credential revocations).  Transparent to
    #: simulated time and Table I counters — a hit still spends
    #: ``proof_evaluation_time`` and counts as an evaluation — so outcomes
    #: are bit-identical with the cache on or off; it only saves host CPU.
    #: See docs/performance.md.
    enable_proof_cache: bool = True
    #: Run the trace sanitizer (:mod:`repro.verify.conformance`) over the
    #: recorded trace at the end of every workload run.  Requires the
    #: cluster to be built with tracing enabled; violations raise
    #: :class:`repro.errors.VerificationError`.  Off by default — it is a
    #: correctness harness, not part of the simulated system.
    verify_traces: bool = False
    #: Record causal spans (:mod:`repro.obs`) for critical-path latency
    #: attribution.  Default-on: spans are host-side observability only —
    #: they never consume simulated time or touch Table I counters — and
    #: the measured wall-clock overhead is small (see BENCH_obs.json and
    #: docs/observability.md).
    obs_spans: bool = True
    #: Fraction of transactions whose spans are recorded.  Sampling is
    #: deterministic per transaction id (crc32 hash), so the same
    #: transactions are sampled on every run; 1.0 records everything.
    obs_sample_rate: float = 1.0
    #: Streaming (constant-memory) metrics: aggregate transaction outcomes
    #: online instead of retaining per-transaction records.  Report and
    #: export columns are unchanged; only memory behaviour differs.  Large
    #: scale runs (bench_scale) switch this on.
    streaming_metrics: bool = False
    #: Live telemetry (:mod:`repro.obs.live`): labeled mergeable quantile
    #: sketches (latency, commit phase, lock-wait, proof-eval cost) plus a
    #: windowed time-series ring.  O(label cardinality + window ring)
    #: memory — the observability layer for streaming runs where sample
    #: lists are discarded.  Host-side only; never consumes simulated time.
    live_telemetry: bool = False
    #: Width of one live-telemetry time-series window (simulation units).
    telemetry_window: float = 250.0
    #: Number of time-series windows retained (ring capacity).
    telemetry_windows: int = 64
    #: Relative-error bound α of the live-telemetry quantile sketches:
    #: any reported quantile is within ``α·x`` of the exact nearest-rank
    #: sample ``x``.  Smaller α costs O(log range / α) bucket memory.
    sketch_accuracy: float = 0.01
    #: Flight recorder (:mod:`repro.obs.flight`): bounded per-node rings of
    #: recent events, dumped as a self-contained incident bundle when the
    #: conformance checker finds violations (or on explicit trigger).
    flight_recorder: bool = False

    def scaled(self, factor: float) -> "CloudConfig":
        """A copy with every local service time scaled by ``factor``."""
        return replace(
            self,
            query_execution_time=self.query_execution_time * factor,
            proof_evaluation_time=self.proof_evaluation_time * factor,
            constraint_check_time=self.constraint_check_time * factor,
            log_force_time=self.log_force_time * factor,
        )
