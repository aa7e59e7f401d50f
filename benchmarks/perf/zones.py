"""Host-time zones: where a traced run's wall seconds went, per module.

The simulator is single-threaded and synchronous on the host, so a stack of
open spans is enough to give every zone its *self* time: a span's duration
minus the part of it covered by the spans it caused.  :func:`install` wraps
public callables of ``repro`` at class/module level — from the outside, no
source file changes — and hands every process generator to the kernel inside
a proxy that charges each resume to the module that defines the generator.
The zones telescope by construction: the self times sum to the duration of
the root span, and what the root span spent outside every zone is reported
as ``unattributed``.

The wrapper's own bookkeeping runs outside the wrapped call's clock reads,
so it lands in the *parent's* self time; ``sim.kernel`` (the parent of every
resume) carries most of it.  ``trace.overhead_ratio`` says how much that is.
Only the traced child installs zones; end-to-end metrics come from children
that never import this module.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: Raw spans kept for the trace file: the first ones started, so every kept
#: span's parent is kept too.
SAMPLE_CAP = 20_000

#: The root span's zone: time inside the timed call but outside every zone.
UNATTRIBUTED = "unattributed"

#: Zone of a generator, by the ``repro`` module that defines it (first
#: matching prefix wins).
_GENERATOR_ZONES: Tuple[Tuple[str, str], ...] = (
    # submitter, storm, update and chaos-driver processes
    ("workloads.", "workloads"),
    ("analysis.sweep", "workloads"),
    ("chaos.fuzz", "workloads"),
    # the 2PV/2PVC coroutine bodies run inside the TM's process
    ("core.", "transactions.manager"),
    ("transactions.", "transactions.manager"),
    ("cloud.server", "cloud.server"),
)

#: ``(module, class or None, callable, zone)`` — every wrapped entry point.
_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.kernel", "Environment", "run", "sim.kernel"),
    ("repro.sim.network", "Network", "send", "sim.network"),
    ("repro.sim.network", "Network", "request", "sim.network"),
    ("repro.sim.network", "FixedLatency", "sample_message", "sim.network"),
    ("repro.sim.network", "UniformLatency", "sample_message", "sim.network"),
    ("repro.sim.network", "LatencyModel", "sample_message", "sim.network"),
    ("repro.sim.topology", "RegionalLatency", "sample_message", "sim.topology"),
    ("repro.sim.topology", None, "estimate_message_size", "sim.topology"),
    ("repro.db.locks", "LockManager", "acquire", "db.locks"),
    ("repro.db.locks", "LockManager", "release_all", "db.locks"),
    ("repro.db.locks", "LockManager", "on_crash", "db.locks"),
    ("repro.db.wal", "WriteAheadLog", "force", "db.wal"),
    ("repro.db.wal", "WriteAheadLog", "append", "db.wal"),
    ("repro.db.recovery", None, "analyze", "db.wal"),
    ("repro.db.storage", "StorageEngine", "read", "db.storage"),
    ("repro.db.storage", "StorageEngine", "write", "db.storage"),
    ("repro.db.storage", "StorageEngine", "apply", "db.storage"),
    ("repro.db.storage", "StorageEngine", "discard", "db.storage"),
    ("repro.policy.proofcache", "ProofCache", "evaluate", "policy.proofcache"),
    ("repro.policy.proofcache", "ProofCache", "invalidate_policy", "policy.proofcache"),
    ("repro.policy.proofs", None, "evaluate_proof", "policy.proofs"),
    ("repro.policy.rules", "RuleSet", "prove", "policy.rules"),
    ("repro.policy.analyze", None, "diff_impact", "policy.analyze"),
    ("repro.policy.analyze", None, "changed_predicates", "policy.analyze"),
    ("repro.policy.analyze", None, "dependency_closure", "policy.analyze"),
    ("repro.cloud.server", "CloudServer", "handle_message", "cloud.server"),
    ("repro.cloud.server", "CloudServer", "on_crash", "cloud.server"),
    ("repro.cloud.server", "CloudServer", "on_recover", "cloud.server"),
    ("repro.cloud.master", "MasterVersionService", "handle_message", "cloud.master"),
    ("repro.cloud.replication", "PolicyReplicator", "distribute", "cloud.replication"),
    ("repro.cloud.replication", "PolicyReplicator", "handle_message", "cloud.replication"),
    ("repro.transactions.manager", "TransactionManager", "handle_message", "transactions.manager"),
    ("repro.transactions.manager", "TransactionManager", "submit", "transactions.manager"),
    ("repro.metrics.counters", "Metrics", "on_message", "metrics"),
    ("repro.metrics.stats", "StreamingOutcomeAggregator", "add", "metrics"),
    ("repro.metrics.stats", None, "aggregate", "metrics"),
    ("repro.obs.live", "LiveTelemetry", "observe_outcome", "obs.live"),
    ("repro.obs.live", "LiveTelemetry", "record_lock_wait", "obs.live"),
    ("repro.obs.live", "LiveTelemetry", "record_proof_eval", "obs.live"),
    ("repro.obs.live", "LiveTelemetry", "record_stale", "obs.live"),
    ("repro.obs.live", "LiveTelemetry", "record_policy_publication", "obs.live"),
    ("repro.obs.flight", "FlightRecorder", "record", "obs.flight"),
    ("repro.obs.flight", "FlightRecorder", "on_message", "obs.flight"),
    ("repro.obs.flight", "FlightRecorder", "dump", "obs.flight"),
    ("repro.sim.tracing", "Tracer", "record", "sim.tracing"),
    ("repro.obs.spans", "SpanRecorder", "start", "obs.spans"),
    ("repro.obs.spans", "SpanRecorder", "finish", "obs.spans"),
    ("repro.verify.events", None, "collect_run", "verify.collect"),
    ("repro.verify.conformance", None, "check_run", "verify.check"),
    # run_case's own glue: recovery pass, trace digest, verdict assembly
    ("repro.chaos.fuzz", None, "run_case", "chaos"),
    ("repro.chaos.classify", None, "classify_report", "chaos"),
    ("repro.chaos.nemesis", "ChaosHook", "on_send", "chaos"),
    ("repro.chaos.nemesis", "Nemesis", "install", "chaos"),
    ("repro.chaos.nemesis", "Nemesis", "recover_all", "chaos"),
    ("repro.workloads.testbed", None, "build_cluster", "workloads.testbed"),
    ("repro.workloads.testbed", None, "build_multiregion_cluster", "workloads.testbed"),
    ("repro.workloads.generator", None, "uniform_transactions", "workloads"),
    ("repro.analysis.scale", "StaleCommitTracker", "observe", "analysis"),
)

#: Every zone a traced run reports, called or not (a bypassed layer reads 0).
ZONE_NAMES: Tuple[str, ...] = tuple(
    sorted({target[3] for target in _TARGETS} | {zone for _, zone in _GENERATOR_ZONES})
)


def _txn_id_of(args: Tuple[Any, ...], kwargs: Mapping[str, Any]) -> Optional[str]:
    """The transaction a call belongs to, when its arguments say so."""
    found = kwargs.get("txn_id")
    if found is not None:
        return str(found)
    for value in args[1:5]:
        if isinstance(value, Mapping):
            found = value.get("txn_id")
        else:
            found = getattr(value, "txn_id", None)
        if found is not None:
            return str(found)
    return None


class Zones:
    """Per-zone self time and call counts, from a stack of open spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Calls per wrapped callable, keyed ``zone:callable``.
        self.calls: Dict[str, int] = defaultdict(int)
        #: ``(id, zone, start, end, parent id, txn_id)`` of the first spans.
        self.samples: List[Tuple[int, str, float, float, Optional[int], Optional[str]]] = []
        #: One ``[time covered by children, span id]`` frame per open span.
        self._stack: List[List[Any]] = []
        self._next_id = 0

    def call(
        self, zone: str, label: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Any:
        """Run ``fn`` as one span of ``zone``, counted under ``label``."""
        span_id = self._next_id
        self._next_id = span_id + 1
        stack = self._stack
        parent = stack[-1] if stack else None
        frame: List[Any] = [0.0, span_id]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_s[zone] += duration - frame[0]
            self.calls[label] += 1
            if parent is not None:
                parent[0] += duration
            if span_id < SAMPLE_CAP:
                self.samples.append(
                    (
                        span_id,
                        zone,
                        start,
                        end,
                        parent[1] if parent is not None else None,
                        _txn_id_of(args, kwargs),
                    )
                )

    def wrap(
        self,
        fn: Callable[..., Any],
        zone: str,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` run as a span of ``zone``; ``after(result, *args)`` observes
        each return value (for counts only the call's result can give)."""
        call = self.call
        label = f"{zone}:{fn.__name__}"
        if after is None:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return call(zone, label, fn, *args, **kwargs)

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = call(zone, label, fn, *args, **kwargs)
                after(result, *args)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def total_s(self) -> float:
        return sum(self.self_s.values())

    def snapshot(self) -> "Zones":
        """A copy that later calls (output checks after the timed phase) do
        not touch."""
        copy = Zones()
        copy.self_s.update(self.self_s)
        copy.calls.update(self.calls)
        copy.samples = list(self.samples)
        return copy

    def write_samples(self, path: str) -> None:
        """The bounded raw-span sample as JSON lines, start order."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, zone, start, end, parent, txn_id in sorted(self.samples):
                record = {"id": span_id, "name": zone, "start": start, "end": end, "parent": parent}
                if txn_id is not None:
                    record["txn_id"] = txn_id
                out.write(json.dumps(record) + "\n")


class _ResumeProxy:
    """A generator as the kernel sees it, each resume charged to one zone."""

    __slots__ = ("_zones", "_generator", "_zone", "__name__")

    def __init__(self, zones: Zones, generator: Any, zone: str) -> None:
        self._zones = zones
        self._generator = generator
        self._zone = zone
        self.__name__ = getattr(generator, "__name__", "process")

    def send(self, value: Any) -> Any:
        return self._zones.call(self._zone, "resume", self._generator.send, value)

    def throw(self, *exc: Any) -> Any:
        return self._zones.call(self._zone, "resume", self._generator.throw, *exc)

    def close(self) -> None:
        self._generator.close()


def _generator_zone(code: Any, cache: Dict[Any, str]) -> str:
    zone = cache.get(code)
    if zone is None:
        path = code.co_filename.replace("\\", "/")
        module = path.rsplit("/repro/", 1)[-1].rsplit(".py", 1)[0].replace("/", ".")
        # A generator from a module no zone covers stays unattributed, so
        # the telescoping check notices if that ever becomes material.
        zone = UNATTRIBUTED
        for prefix, name in _GENERATOR_ZONES:
            if module.startswith(prefix):
                zone = name
                break
        cache[code] = zone
    return zone


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every ``repro`` module global that is ``original``.

    ``from x import f`` copies the binding, so patching ``x.f`` alone would
    miss the importers; the modules are all loaded before this runs.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(
    zones: Zones, after: Optional[Mapping[Tuple[str, str], Callable[..., None]]] = None
) -> None:
    """Wrap every target in place.  Call once, before the cluster is built.

    ``after`` maps ``(class or module tail, callable)`` to an observer of the
    call's result, e.g. ``("LockManager", "acquire")``.
    """
    after = after or {}
    # Load every module first so from-imports of wrapped functions are found.
    modules = {name: importlib.import_module(name) for name in {t[0] for t in _TARGETS}}
    importlib.import_module("repro.chaos.fuzz")
    importlib.import_module("repro.analysis.sweep")
    for module_name, class_name, attr, zone in _TARGETS:
        module = modules[module_name]
        if class_name is None:
            original = getattr(module, attr)
            observer = after.get((module_name.rsplit(".", 1)[-1], attr))
            _replace_everywhere(original, zones.wrap(original, zone, observer))
        else:
            cls = getattr(module, class_name)
            original = vars(cls)[attr]
            observer = after.get((class_name, attr))
            setattr(cls, attr, zones.wrap(original, zone, observer))

    kernel = modules["repro.sim.kernel"]
    spawn = kernel.Environment.process
    cache: Dict[Any, str] = {}

    def process(self: Any, generator: Any, name: Optional[str] = None) -> Any:
        code = getattr(generator, "gi_code", None)
        if code is None:  # not a generator: let the kernel reject it
            return spawn(self, generator, name)
        return spawn(self, _ResumeProxy(zones, generator, _generator_zone(code, cache)), name)

    kernel.Environment.process = process
