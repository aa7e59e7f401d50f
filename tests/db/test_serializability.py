"""Unit tests for the conflict-serializability checker."""

import pytest

from repro.db.serializability import (
    ConflictEdge,
    build_conflict_graph,
    check_conflict_serializable,
    find_cycle,
    serial_order,
)
from repro.db.storage import StorageEngine


def engine_with_history(accesses):
    """accesses: list of (txn, key, op) with op in {'r','w'}."""
    engine = StorageEngine("s")
    keys = {key for _txn, key, _op in accesses}
    engine.install_many({key: 0 for key in keys})
    for txn, key, op in accesses:
        if op == "r":
            engine.read(txn, key)
        else:
            engine.write(txn, key, 1)
    return engine


class TestConflictGraph:
    def test_no_conflicts_no_edges(self):
        engine = engine_with_history([("t1", "a", "r"), ("t2", "b", "r")])
        assert build_conflict_graph([engine], {"t1", "t2"}) == []

    def test_read_read_is_not_a_conflict(self):
        engine = engine_with_history([("t1", "a", "r"), ("t2", "a", "r")])
        assert build_conflict_graph([engine], {"t1", "t2"}) == []

    def test_write_write_conflict(self):
        engine = engine_with_history([("t1", "a", "w"), ("t2", "a", "w")])
        edges = build_conflict_graph([engine], {"t1", "t2"})
        assert edges == [ConflictEdge("t1", "t2", "a", "ww")]

    def test_read_write_and_write_read(self):
        engine = engine_with_history(
            [("t1", "a", "r"), ("t2", "a", "w"), ("t3", "a", "r")]
        )
        edges = build_conflict_graph([engine], {"t1", "t2", "t3"})
        kinds = {(edge.earlier, edge.later): edge.kind for edge in edges}
        assert kinds[("t1", "t2")] == "rw"
        assert kinds[("t2", "t3")] == "wr"

    def test_uncommitted_transactions_excluded(self):
        engine = engine_with_history([("t1", "a", "w"), ("t2", "a", "w")])
        assert build_conflict_graph([engine], {"t1"}) == []

    def test_same_transaction_never_conflicts_with_itself(self):
        engine = engine_with_history([("t1", "a", "w"), ("t1", "a", "r")])
        assert build_conflict_graph([engine], {"t1"}) == []


def recursive_find_cycle(edges):
    """``find_cycle`` as it was before it became iterative (the oracle)."""
    adjacency = {}
    for edge in edges:
        adjacency.setdefault(edge.earlier, set()).add(edge.later)
        adjacency.setdefault(edge.later, set())

    WHITE, GREY, BLACK = 0, 1, 2
    colour = {node: WHITE for node in adjacency}
    path = []

    def dfs(node):
        colour[node] = GREY
        path.append(node)
        for neighbour in sorted(adjacency[node]):
            if colour[neighbour] is GREY:
                return path[path.index(neighbour) :] + [neighbour]
            if colour[neighbour] is WHITE:
                found = dfs(neighbour)
                if found is not None:
                    return found
        path.pop()
        colour[node] = BLACK
        return None

    for node in adjacency:
        if colour[node] is WHITE:
            found = dfs(node)
            if found is not None:
                return found
    return None


def chain(length, close=False):
    names = [f"t{index:05d}" for index in range(length)]
    edges = [ConflictEdge(a, b, "x", "ww") for a, b in zip(names, names[1:])]
    if close:
        edges.append(ConflictEdge(names[-1], names[0], "x", "rw"))
    return names, edges


class TestCycleDetectionAtTraceScale:
    """A precedence chain is as long as the trace; the search must not be
    bounded by the interpreter's recursion limit."""

    def test_long_chain_is_a_dag(self):
        _, edges = chain(5000)
        assert find_cycle(edges) is None
        assert find_cycle(list(reversed(edges))) is None  # deepest node first

    def test_long_ring_reports_the_whole_ring(self):
        names, edges = chain(5000, close=True)
        assert find_cycle(edges) == names + [names[0]]

    def test_ring_matches_the_recursive_search(self):
        _, edges = chain(500, close=True)
        assert find_cycle(edges) == recursive_find_cycle(edges)
        rotated = edges[137:] + edges[:137]  # start the search mid-ring
        assert find_cycle(rotated) == recursive_find_cycle(rotated)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs_match_the_recursive_search(self, seed):
        import random

        rng = random.Random(seed)
        nodes = [f"t{index}" for index in range(rng.randint(2, 30))]
        edges = []
        for _ in range(rng.randint(1, 3 * len(nodes))):
            a, b = rng.sample(nodes, 2)
            if rng.random() < 0.6:
                a, b = sorted((a, b))  # mostly forward edges: some graphs stay acyclic
            edges.append(ConflictEdge(a, b, "x", "ww"))
        assert find_cycle(edges) == recursive_find_cycle(edges)

    def test_no_nested_function(self):
        import types

        nested = [c for c in find_cycle.__code__.co_consts if isinstance(c, types.CodeType)]
        # Comprehensions are code objects before 3.12; a ``def`` or ``lambda`` is the point.
        assert [c.co_name for c in nested if not c.co_name.endswith(("comp>", "<genexpr>"))] == []


class TestCycleDetection:
    def test_dag_has_no_cycle(self):
        edges = [ConflictEdge("a", "b", "x", "ww"), ConflictEdge("b", "c", "x", "ww")]
        assert find_cycle(edges) is None

    def test_two_cycle_found(self):
        edges = [ConflictEdge("a", "b", "x", "ww"), ConflictEdge("b", "a", "y", "rw")]
        cycle = find_cycle(edges)
        assert cycle is not None
        assert cycle[0] == cycle[-1]

    def test_serial_order_topological(self):
        edges = [ConflictEdge("a", "b", "x", "ww"), ConflictEdge("b", "c", "x", "ww")]
        assert serial_order(edges) == ["a", "b", "c"]

    def test_serial_order_rejects_cycle(self):
        edges = [ConflictEdge("a", "b", "x", "ww"), ConflictEdge("b", "a", "y", "ww")]
        with pytest.raises(ValueError):
            serial_order(edges)


class TestNonSerializableHistory:
    def test_cross_item_anomaly_detected(self):
        """r1(a) w2(a) r2(b) w1(b): t1 -> rw -> t2 and t2 -> rw -> t1."""
        engine = engine_with_history(
            [("t1", "a", "r"), ("t2", "a", "w"), ("t2", "b", "r"), ("t1", "b", "w")]
        )
        ok, cycle, _edges = check_conflict_serializable([engine], {"t1", "t2"})
        assert not ok
        assert cycle is not None

    def test_same_anomaly_across_engines(self):
        """The lost-update pattern split across two servers."""
        engine_a = engine_with_history([("t1", "a", "r"), ("t2", "a", "w")])
        engine_b = engine_with_history([("t2", "b", "r"), ("t1", "b", "w")])
        ok, cycle, _edges = check_conflict_serializable(
            [engine_a, engine_b], {"t1", "t2"}
        )
        assert not ok


class TestEndToEndIsolation:
    def _run_concurrent_workload(self, seed):
        from repro.cloud.config import CloudConfig
        from repro.core.consistency import ConsistencyLevel
        from repro.sim.network import UniformLatency
        from repro.transactions.transaction import Query, Transaction
        from repro.workloads.testbed import build_cluster

        cluster = build_cluster(
            n_servers=2, seed=seed, config=CloudConfig(latency=UniformLatency(0.5, 2.0))
        )
        credential = cluster.issue_role_credential("alice")
        transactions = []
        for index in range(6):
            src = f"s{index % 2 + 1}/x1"
            dst = f"s{(index + 1) % 2 + 1}/x2"
            transactions.append(
                Transaction(
                    f"iso{index}",
                    "alice",
                    (
                        Query.read(f"iso{index}-r", [src]),
                        Query.write(f"iso{index}-w", deltas={dst: 1}),
                    ),
                    (credential,),
                )
            )
        processes = [
            cluster.submit(txn, "punctual", ConsistencyLevel.VIEW)
            for txn in transactions
        ]
        cluster.env.run(until=cluster.env.all_of(processes))
        cluster.run()
        committed = {o.txn_id for o in cluster.tm.outcomes if o.committed}
        engines = [cluster.server(name).storage for name in cluster.server_names()]
        return engines, committed

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_strict_2pl_schedules_are_serializable(self, seed):
        engines, committed = self._run_concurrent_workload(seed)
        ok, cycle, edges = check_conflict_serializable(engines, committed)
        assert ok, f"cycle {cycle} in conflict graph {edges}"
        if edges:
            # And an equivalent serial order exists.
            serial_order(edges)
