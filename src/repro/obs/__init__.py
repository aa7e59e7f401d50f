"""Causal span tracing and latency attribution for the simulator.

``repro.obs`` records the *causal structure* of every simulated
transaction as a tree of spans — the txn root, its protocol phases
(execute / 2PV validate / 2PVC commit), and the RPC, server-handler,
lock-wait, proof-evaluation, CPU, and log-force work nested beneath them.
Span context rides across :class:`repro.sim.network.Network` messages, so
trees connect coordinator and participants exactly as the protocol did.

On top of the raw spans sit:

* :mod:`repro.obs.critical` — critical-path extraction and exclusive-time
  latency attribution (network vs lock vs proof vs compute …), exact to
  the root span's duration;
* :mod:`repro.obs.render` — ASCII waterfalls and flamegraphs;
* :mod:`repro.obs.export` — JSONL span round-trips;
* :mod:`repro.obs.openmetrics` — OpenMetrics text exposition of counters
  and span histograms;
* :mod:`repro.obs.crosscheck` — agreement checks between span trees and
  the flat :class:`~repro.sim.tracing.Tracer` evidence;
* :mod:`repro.obs.sketch` / :mod:`repro.obs.live` /
  :mod:`repro.obs.flight` — the streaming counterpart: mergeable quantile
  sketches, windowed time-series (``python -m repro.obs.live``), and a
  violation-triggered flight recorder for runs too large to retain spans.

``python -m repro.obs`` drives all of it from the command line; see
docs/observability.md for the model and the overhead budget.
"""
