"""The simulator creates no cyclic garbage, and the kernel relies on it.

Four gates (see "The collector" in docs/performance.md):

(a) ``Environment._dispatch`` suspends the cyclic collector and leaves it
    exactly as found, so no pass happens inside a run;
(b) a run leaves nothing for the collector — everything the protocol code
    drops dies by reference count (this is what makes (a) free of charge,
    and the guard for whatever later changes add to the hot path);
(c) a finished world dies by reference count too: after ``run_case`` /
    ``run_point`` / ``Cluster.close()`` the collector finds next to nothing;
(d) a closed cluster still answers every question about the run it held.

The bounds are far from both sides: a knot costs thousands of objects (a
finished chaos cluster is 12 000–15 000), the floor is the proof cache's
own lineage <-> key links (~100 per cluster).
"""

from __future__ import annotations

import gc
import importlib
import random
import sys

import pytest

from repro.analysis.sweep import SweepPoint, run_point
from repro.chaos import fuzz
from repro.chaos.fuzz import CONSISTENCY_LEVELS, PAPER_APPROACHES, FuzzCase, run_case
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.cloud import messages as msg
from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.errors import SimulationError
from repro.sim.kernel import Environment
from repro.verify import collect_run
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.scale import (
    ScaleWorkloadSpec,
    generate_scale_workload,
    mint_user_credentials,
)
from repro.workloads.testbed import build_cluster, build_multiregion_cluster

#: Objects a *run* may leave for the collector (cluster still referenced).
RUN_GARBAGE_BOUND = 50
#: Objects a *dropped world* may leave for the collector.
WORLD_GARBAGE_BOUND = 200


@pytest.fixture(autouse=True)
def collector_as_found():
    """Every test starts from a collected heap and restores the switch."""
    was_enabled = gc.isenabled()
    fuzz._finished_worlds.clear()  # or an earlier test's world dies inside this one
    gc.collect()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


# -- the three runs the gates are held against -------------------------------------


def wan_cell(n_users: int = 300, proof_cache: bool = True):
    """The benchmark's WAN cell (3 regions x 2 shards, deferred/view), small."""
    config = CloudConfig(
        request_timeout=3000.0,
        obs_spans=False,
        streaming_metrics=True,
        live_telemetry=True,
        flight_recorder=True,
        enable_proof_cache=proof_cache,
    )
    cluster = build_multiregion_cluster(
        shards_per_region=2, items_per_shard=16, seed=5, config=config, trace=False
    )
    spec = ScaleWorkloadSpec(
        n_users=n_users, arrival_rate=0.8, txn_length=2, read_fraction=0.85, locality=0.9
    )
    credentials = mint_user_credentials(cluster, spec.n_users)
    schedule = generate_scale_workload(spec, cluster.shards, random.Random(6), credentials)
    runner = OpenLoopRunner(cluster, "deferred", ConsistencyLevel.VIEW)
    return cluster, lambda: runner.run_scheduled(schedule)


def churn_point(n_transactions: int = 40, proof_cache: bool = True) -> SweepPoint:
    """The benchmark's policy-churn point (continuous/global), small."""
    return SweepPoint(
        approach="continuous",
        consistency=ConsistencyLevel.GLOBAL,
        n_servers=6,
        txn_length=6,
        n_transactions=n_transactions,
        update_interval=25.0,
        update_mode="benign",
        seed=5,
        config_overrides={"obs_spans": False, "enable_proof_cache": proof_cache},
    )


def chaos_case(seed: int = 83, approach: str = "deferred", consistency: str = "view") -> FuzzCase:
    """One case of the benchmark's fault grid: drops plus both crashes."""
    n_transactions = 24
    horizon = n_transactions * FuzzCase.arrival_gap
    down = round(0.1 * horizon, 1)
    plan = FaultPlan(
        (
            FaultSpec("drop_rate", at=0.0, duration=horizon, rate=0.01),
            FaultSpec("crash", at=round(0.2 * horizon, 1), node="s2", down_for=down),
            FaultSpec(
                "crash",
                at=round(0.6 * horizon, 1),
                node="s1",
                on_kind=msg.VOTE_REPLY,
                down_for=down,
            ),
        ),
        label="perf-chaos-grid",
    )
    return FuzzCase(
        seed=seed,
        plan=plan,
        approach=approach,
        consistency=consistency,
        n_transactions=n_transactions,
    )


@pytest.fixture
def kept_clusters(monkeypatch):
    """Every cluster ``run_case`` / ``run_point`` builds, kept referenced."""
    kept = []

    def keeping(build):
        def build_and_keep(*args, **kwargs):
            kept.append(build(*args, **kwargs))
            return kept[-1]

        return build_and_keep

    # ``repro.analysis`` exports a function named ``sweep`` that hides the module.
    sweep_module = importlib.import_module("repro.analysis.sweep")
    monkeypatch.setattr(fuzz, "build_cluster", keeping(fuzz.build_cluster))
    monkeypatch.setattr(sweep_module, "build_cluster", keeping(sweep_module.build_cluster))
    return kept


def found_by_collector(body) -> int:
    """Objects only the collector can free after ``body()`` ran without it."""
    gc.collect()
    gc.disable()
    try:
        body()
        return gc.collect()
    finally:
        gc.enable()


# -- (a) dispatch is collector-free and restores what it found ---------------------


class TestDispatchRestoresTheCollector:
    def seen_inside(self, env: Environment, at: float = 1.0) -> list:
        seen: list = []
        env.defer(at, lambda _event: seen.append(gc.isenabled()))
        return seen

    def test_run_to_drain(self, env):
        seen = self.seen_inside(env)
        env.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_run_until_time(self, env):
        seen = self.seen_inside(env)
        env.timeout(10.0)
        env.run(until=5.0)
        assert seen == [False]
        assert gc.isenabled()

    def test_run_until_event(self, env):
        seen = self.seen_inside(env)
        env.timeout(10.0)  # still queued when the target stops the run
        assert env.run(until=env.timeout(5.0, value="done")) == "done"
        assert seen == [False]
        assert gc.isenabled()

    def test_run_until_event_on_the_calendar_queue(self):
        env = Environment(promote_at=0)
        seen = self.seen_inside(env)
        env.run(until=env.timeout(5.0))
        assert seen == [False]
        assert gc.isenabled()

    def test_failed_undefused_event_raises_out_of_the_run(self, env):
        seen = self.seen_inside(env)
        env.defer(2.0, lambda _event: env.event().fail(ValueError("boom")))
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert seen == [False]
        assert gc.isenabled()

    def test_nested_run_from_a_callback_is_a_no_op(self, env):
        seen: list = []

        def nested(_event):
            env.run(until=env.now + 1.0)
            seen.append(("after nested run", gc.isenabled()))

        env.defer(1.0, nested)
        env.defer(1.5, lambda _event: seen.append(("inside nested run", gc.isenabled())))
        env.run()
        assert seen == [("inside nested run", False), ("after nested run", False)]
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, env):
        gc.disable()
        seen = self.seen_inside(env)
        env.run()
        assert seen == [False]
        assert not gc.isenabled()
        with pytest.raises(SimulationError):
            env.run(until=-1.0)  # refused before dispatch: nothing to restore
        assert not gc.isenabled()

    def test_step_leaves_the_collector_alone(self, env):
        seen = self.seen_inside(env)
        env.step()
        assert seen == [True]
        assert gc.isenabled()


@pytest.fixture
def passes_inside_runs():
    """Generations of the collector passes that start under the dispatch loop."""
    dispatch = Environment._dispatch.__code__
    passes = []

    def on_gc(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)  # whoever allocated the object that tripped it
        while frame is not None:
            if frame.f_code is dispatch:
                passes.append(info["generation"])
                return
            frame = frame.f_back

    gc.callbacks.append(on_gc)
    yield passes
    gc.callbacks.remove(on_gc)


class TestNoPassInsideARun:
    """At the parent commit each of these runs is interrupted by dozens of
    passes (the retained state grows, the thresholds trip)."""

    def test_wan_cell(self, passes_inside_runs):
        cluster, run = wan_cell()
        run()
        assert cluster.env.now > 0
        assert passes_inside_runs == []

    def test_policy_churn_point(self, passes_inside_runs):
        assert len(run_point(churn_point()).outcomes) == 40
        assert passes_inside_runs == []

    def test_chaos_case(self, passes_inside_runs):
        run_case(chaos_case())
        assert passes_inside_runs == []


# -- (b) no cyclic garbage while running ------------------------------------------


class TestRunsLeaveNothingForTheCollector:
    def test_wan_cell(self):
        cluster, run = wan_cell()
        assert found_by_collector(run) <= RUN_GARBAGE_BOUND
        assert cluster.env.now > 0

    def test_policy_churn_point(self, kept_clusters):
        assert found_by_collector(lambda: run_point(churn_point())) <= RUN_GARBAGE_BOUND
        assert len(kept_clusters) == 1

    @pytest.mark.parametrize("seed", (83, 84))
    def test_chaos_case(self, kept_clusters, seed):
        """Crashed handler processes and exhausted RPC retries included
        (84 / deferred / view times a PREPARE out three times in a row)."""
        assert found_by_collector(lambda: run_case(chaos_case(seed))) <= RUN_GARBAGE_BOUND
        assert len(kept_clusters) == 1


# -- (c) worlds die by reference count ---------------------------------------------


class TestWorldsDieByReferenceCount:
    """One knot is left in place, and it sets the floor: the proof cache's
    ``_Lineage.keys`` <-> cache-key links, about four objects per cached
    proof (~100 for a chaos case).  The chaos cases run with the cache on
    and must stay near that floor; the larger runs switch the cache off and
    must leave next to nothing."""

    @pytest.mark.parametrize("consistency", CONSISTENCY_LEVELS)
    @pytest.mark.parametrize("approach", PAPER_APPROACHES)
    @pytest.mark.parametrize("seed", (83, 84))
    def test_run_case(self, seed, approach, consistency):
        case = chaos_case(seed, approach, consistency)

        def body():
            run_case(case)
            fuzz._finished_worlds.clear()  # the fuzzer's own reference: the last one

        assert found_by_collector(body) <= WORLD_GARBAGE_BOUND

    def test_run_case_tears_a_finished_world_down_itself(self, kept_clusters):
        """A grid runner that captures each cluster holds it until the next
        case has returned; the teardown must still happen inside ``run_case``
        (the call after next), not in the runner's frame — the benchmark's
        traced run allows 2 % of the wall outside every zone.  Goes with
        ``fuzz._finished_worlds`` once the benchmark attributes that itself."""
        import weakref

        gc.disable()
        worlds = []
        for seed in (83, 84, 85):
            alive_at_start = [world() is not None for world in worlds]
            run_case(chaos_case(seed))
            if len(worlds) == 2:
                # The runner dropped case 83's cluster one call ago; this call freed it.
                assert alive_at_start == [True, True]
                assert [world() is not None for world in worlds] == [False, True]
            worlds.append(weakref.ref(kept_clusters.pop()))
        assert len(fuzz._finished_worlds) <= 2

    def test_run_point(self):
        """The update process and its replication timers are still pending
        when the driver finishes: ``close()`` unhooks them."""
        point = churn_point(proof_cache=False)
        assert found_by_collector(lambda: run_point(point)) <= RUN_GARBAGE_BOUND

    def test_multiregion_cluster_closed_by_hand(self):
        def body():
            cluster, run = wan_cell(proof_cache=False)
            run()
            cluster.close()

        assert found_by_collector(body) <= RUN_GARBAGE_BOUND

    def test_an_unclosed_world_is_what_close_is_for(self):
        """The counter-example: without ``close()`` the same world is one
        blob only the collector can free (so the bounds above mean something)."""

        def body():
            cluster, run = wan_cell(proof_cache=False)
            run()

        assert found_by_collector(body) > 10 * WORLD_GARBAGE_BOUND


# -- (d) a closed cluster keeps its results ----------------------------------------


def public_counters(cluster) -> dict:
    """Everything ``benchmarks/perf/workloads.py::SimStats.add_cluster`` reads."""
    m = cluster.metrics
    nodes = list(cluster.servers.values()) + list(cluster.tms)
    cache, engine, faults = m.proof_cache, m.engine, m.faults
    return {
        "sends": m.messages.total(),
        "protocol_msgs": m.messages.protocol_total(),
        "by_category": sorted(m.messages.by_category.items()),
        "cross_region": m.regions.cross_region,
        "cross_region_bytes": m.regions.cross_region_bytes(),
        "drops": faults.messages_dropped,
        "wal_forced": sum(node.wal.forced_writes for node in nodes),
        "wal_appends": sum(node.wal.unforced_writes for node in nodes),
        "engine": (engine.proofs, engine.facts_scanned, engine.rules_tried),
        "proofs": m.proofs.total,
        "cache": (cache.lookups, cache.hits, cache.invalidations, cache.retentions),
        "faults": (
            faults.timeouts,
            faults.retries,
            faults.crashes,
            faults.recoveries,
            faults.in_doubt_resolved,
            faults.in_doubt_unresolved,
        ),
        "trace_records": len(cluster.tracer),
        "spans": len(cluster.obs),
        "verification": (m.verification.events_checked, m.verification.violations),
        "outcomes": [
            (o.txn_id, o.committed, o.finished_at) for tm in cluster.tms for o in tm.outcomes
        ],
        "version_log": {admin: list(log) for admin, log in cluster.master.version_log.items()},
    }


def run_record_key(cluster) -> tuple:
    run = collect_run(cluster)
    events = run.events
    return (len(events), sorted(run.transactions), repr(events[:50]), repr(events[-50:]))


class TestClosedClusterStaysReadable:
    def finished_cluster(self):
        cluster = build_cluster(n_servers=3, seed=11, config=CloudConfig(obs_spans=True))
        credential = cluster.issue_role_credential("alice")
        from tests.conftest import simple_txn

        for index in range(4):
            txn = simple_txn(f"t{index}", credentials=(credential,))
            assert cluster.run_transaction(txn, "punctual").committed
        return cluster, simple_txn("late", credentials=(credential,))

    def test_results_read_the_same_after_close(self):
        cluster, _ = self.finished_cluster()
        report = cluster.verify()
        before = (public_counters(cluster), run_record_key(cluster))
        assert before[0]["trace_records"] and before[0]["spans"] and before[0]["version_log"]
        cluster.close()
        assert (public_counters(cluster), run_record_key(cluster)) == before
        again = cluster.verify()
        assert again.events_checked == report.events_checked > 0
        assert again.codes() == report.codes() == []

    def test_close_is_idempotent(self):
        cluster, _ = self.finished_cluster()
        cluster.close()
        before = public_counters(cluster)
        cluster.close()
        assert cluster.closed
        assert public_counters(cluster) == before

    def test_a_closed_cluster_does_not_simulate(self):
        cluster, late = self.finished_cluster()
        cluster.close()
        with pytest.raises(SimulationError, match="closed"):
            cluster.run()
        with pytest.raises(SimulationError, match="closed"):
            cluster.submit(late, "punctual")
        with pytest.raises(SimulationError, match="closed"):
            cluster.run_transaction(late, "punctual")

    def test_a_closed_environment_does_not_simulate(self, env):
        """The kernel's own guard, for a world closed without a ``Cluster``."""
        waited_on = env.timeout(5.0)
        process = env.process(event for event in [waited_on])
        env.run(until=1.0)
        env.close()
        env.close()  # idempotent
        assert env.peek() == float("inf")
        # Stranded, not fired: neither looks processed.
        assert not waited_on.processed and not process.triggered
        with pytest.raises(SimulationError, match="closed"):
            env.run()
        with pytest.raises(SimulationError, match="closed"):
            env.run(until=10.0)
        with pytest.raises(SimulationError, match="closed"):
            env.timeout(1.0)
        with pytest.raises(SimulationError, match="closed"):
            env.event().succeed()
        with pytest.raises(SimulationError, match="closed"):
            env.process(event for event in ())

    def test_close_cuts_the_structural_links(self):
        cluster, run = wan_cell(n_users=20)
        run()
        cluster.close()
        assert cluster.network.nodes == {} and cluster.network.chaos is None
        assert cluster.env.peek() == float("inf")
        assert len(cluster.servers) == 12 and len(cluster.tms) == 6

    def test_results_of_closing_helpers_are_verifiable(self, kept_clusters):
        """What ``run.py --smoke`` does: ``Cluster.verify()`` on the clusters
        ``run_case`` and ``run_point`` built, after those returned."""
        result = run_case(chaos_case())
        run_point(churn_point(10))
        chaos_cluster, churn_cluster = kept_clusters
        assert chaos_cluster.closed and churn_cluster.closed
        assert tuple(chaos_cluster.verify().codes()) == result.violation_codes
        assert len(churn_cluster.tm.outcomes) == 10


# -- structure: where the discipline lives -----------------------------------------


class TestStructure:
    def test_the_collector_is_touched_in_one_place(self):
        import pathlib
        import re

        import repro

        touching = re.compile(r"\bgc\.(disable|enable|collect|freeze)")
        root = pathlib.Path(repro.__file__).parent
        files = sorted(
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if touching.search(path.read_text(encoding="utf-8"))
        )
        assert files == ["sim/kernel.py"]
        assert {"disable", "enable"} <= set(Environment._dispatch.__code__.co_names)
        assert "gc" not in Environment.step.__code__.co_names

    def test_no_listener_made_in_server_init_holds_the_server(self):
        """The registry is shared and outlives nothing, but it holds every
        server's authority: a listener over ``self`` closes the loop."""
        import types

        from repro.cloud.server import CloudServer

        nested = [
            const
            for const in CloudServer.__init__.__code__.co_consts
            if isinstance(const, types.CodeType)
        ]
        assert [code.co_name for code in nested if "self" in code.co_freevars] == []
