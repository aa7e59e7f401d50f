"""A waiting transaction holds only what it waits with.

An open-loop overload cell is stopped at its in-flight peak (a deferred
callback takes the census while every waiter is still waiting) and the
objects a waiter could keep alive for nothing are counted, not weighed:

* no process waits through a bound method, and the open-loop runner adds
  no bound method per transaction (a process is its own callback);
* a coordinator waiting on an EXECUTE reply is one generator frame
  (``_run`` yields the RPC event itself), and it no longer holds the
  previous query's reply;
* a participant's EXECUTE handler keeps no closure cells across its waits;
* a coordinator context owns a container only once it wrote to it;
* the flight recorder keeps one send detail per ``(kind, dst)``.
"""

import dataclasses
import gc
import random
import types

from repro.cloud.config import CloudConfig
from repro.cloud.server import CloudServer
from repro.core.consistency import ConsistencyLevel
from repro.core.context import TxnContext
from repro.sim.process import Process
from repro.sim.tracing import NET_SEND
from repro.transactions.manager import TransactionManager
from repro.transactions.transaction import Query, Transaction
from repro.workloads.runner import OpenLoopRunner
from repro.workloads.scale import (
    ScaleWorkloadSpec,
    generate_scale_workload,
    mint_user_credentials,
)
from repro.workloads.testbed import build_multiregion_cluster

SEED = 83
#: Users offered at 0.8 per unit (``wan-overload``'s rate, a fifth of its
#: users): the arrivals end near t = 1 000, where about 140 transactions are
#: in flight, over 100 of them waiting on an EXECUTE reply.
N_USERS = 800
STOP_AT = 1000.0

CONTAINERS = (
    "queries_by_server",
    "view",
    "latest_proofs",
    "versions_seen",
    "policies_known",
    "master_versions",
    "extra_credentials",
    "values",
)


def waiting_process(event):
    """What waits on ``event``: its one callback, or the owner of its method."""
    (callback,) = event.callbacks
    return getattr(callback, "__self__", callback)


def delegation_chain(generator):
    """Code names from a generator down its ``yield from`` chain."""
    names = []
    while generator is not None:
        names.append(generator.gi_code.co_name)
        generator = generator.gi_yieldfrom
    return names


def census(cluster):
    """What the in-flight world holds, counted while it waits."""
    gc.collect()
    objects = gc.get_objects()
    bound = [
        obj.__func__.__qualname__
        for obj in objects
        if type(obj) is types.MethodType
        and obj.__func__.__qualname__ in ("Process._resume", "OpenLoopRunner._collect")
    ]
    chains, replies_held = [], 0
    for waiter in list(cluster.network._pending.values()):
        process = waiting_process(waiter) if waiter.callbacks else None
        if not isinstance(process, Process):
            continue  # no waiter yet, or a condition over several replies
        generator = process._generator
        if generator.gi_code is not TransactionManager._run.__code__:
            continue
        ctx = generator.gi_frame.f_locals["ctx"]
        if ctx.ready_at is None:  # still executing: deferred waits only on EXECUTE
            chains.append(delegation_chain(generator))
            replies_held += "reply" in generator.gi_frame.f_locals
    contexts = [ctx for tm in cluster.tms for ctx in tm.active.values()]
    empty_owned = sum(
        1
        for ctx in contexts
        for name in CONTAINERS
        if isinstance(getattr(ctx, name), (dict, list)) and not getattr(ctx, name)
    )
    flight = cluster.metrics.flight
    sends = [row for ring in flight._rings.values() for row in ring if row[3] == NET_SEND]
    return {
        "bound": bound,
        "chains": chains,
        "replies_held": replies_held,
        "contexts": len(contexts),
        "empty_owned": empty_owned,
        "send_rows": len(sends),
        "send_details": len({id(row[5]) for row in sends}),
        "send_keys": len({row[5] for row in sends}),
    }


def overload_census():
    config = CloudConfig(
        request_timeout=3000.0,
        obs_spans=False,
        streaming_metrics=True,
        live_telemetry=True,
        flight_recorder=True,
    )
    cluster = build_multiregion_cluster(
        shards_per_region=2, items_per_shard=64, seed=SEED, config=config, trace=False
    )
    spec = ScaleWorkloadSpec(
        n_users=N_USERS,
        arrival_rate=0.8,
        txn_length=2,
        read_fraction=0.85,
        zipf_skew=0.8,
        locality=0.9,
    )
    credentials = mint_user_credentials(cluster, spec.n_users)
    schedule = generate_scale_workload(
        spec, cluster.shards, random.Random(SEED + 1), credentials
    )
    runner = OpenLoopRunner(cluster, "deferred", ConsistencyLevel.VIEW)
    seen = {}
    cluster.env.defer(STOP_AT, lambda _event: seen.update(census(cluster)))
    runner.run_scheduled(schedule)
    assert runner.stream.count == N_USERS  # the stop only looked
    cluster.close()
    return seen


def test_a_waiting_transaction_holds_only_what_it_waits_with():
    seen = overload_census()
    assert seen["contexts"] > 100 and len(seen["chains"]) > 50  # a real peak
    assert seen["bound"] == []
    assert all(chain == ["_run"] for chain in seen["chains"]), seen["chains"][:3]
    assert seen["replies_held"] == 0
    assert seen["empty_owned"] == 0
    assert seen["send_rows"] > seen["send_keys"]
    assert seen["send_details"] == seen["send_keys"]


def test_the_execute_handler_keeps_no_cells_across_its_waits():
    assert CloudServer._handle_execute.__code__.co_cellvars == ()


def test_a_fresh_context_owns_no_container():
    txn = Transaction("t1", "alice", (Query.read("q1", ["x"]),))
    ctx = TxnContext(txn, ConsistencyLevel.VIEW, "deferred", "tm1")
    owned = [
        field.name
        for field in dataclasses.fields(ctx)
        if isinstance(getattr(ctx, field.name), (dict, list))
    ]
    assert owned == []
    assert ctx.active_participants() == [] and ctx.final_proofs() == []
    assert ctx.all_credentials() == () and ctx.values.get("q1") is None
