"""Synthetic transaction workloads.

Generators produce the transaction mixes the benches sweep over: uniform
random read/write transactions over the cluster's items, and the worst-case
"one query per fresh server" shape that Table I's formulas assume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.db.items import ItemCatalog
from repro.errors import SimulationError
from repro.policy.credentials import Credential
from repro.transactions.transaction import Query, Transaction


@dataclass
class WorkloadSpec:
    """Parameters of a uniform random workload."""

    #: Queries per transaction (the paper's ``u``).
    txn_length: int = 4
    #: Fraction of queries that are reads (writes apply small deltas).
    read_fraction: float = 0.6
    #: Magnitude bound for write deltas (uniform in [-bound, +bound]).
    write_delta_bound: float = 5.0
    #: Number of transactions to generate.
    count: int = 100
    #: User submitting the transactions.
    user: str = "alice"

    def __post_init__(self) -> None:
        if self.txn_length < 1:
            raise SimulationError("txn_length must be >= 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise SimulationError("read_fraction must be in [0, 1]")


def uniform_transactions(
    spec: WorkloadSpec,
    catalog: ItemCatalog,
    rng: random.Random,
    credentials: Sequence[Credential],
    id_prefix: str = "w",
) -> List[Transaction]:
    """Random single-item queries over uniformly chosen items.

    Items are drawn without replacement within a transaction, so the
    transaction never deadlocks with itself and lock orders differ across
    transactions (allowing genuine conflicts between concurrent ones).
    """
    all_items = sorted(
        key for server in catalog.servers() for key in catalog.items_on(server)
    )
    if spec.txn_length > len(all_items):
        raise SimulationError(
            f"txn_length {spec.txn_length} exceeds item count {len(all_items)}"
        )
    transactions: List[Transaction] = []
    for index in range(spec.count):
        chosen = rng.sample(all_items, spec.txn_length)
        queries: List[Query] = []
        for position, item in enumerate(chosen):
            query_id = f"{id_prefix}{index}-q{position + 1}"
            if rng.random() < spec.read_fraction:
                queries.append(Query.read(query_id, [item]))
            else:
                delta = rng.uniform(-spec.write_delta_bound, spec.write_delta_bound)
                queries.append(Query.write(query_id, deltas={item: delta}))
        transactions.append(
            Transaction(
                f"{id_prefix}{index}",
                spec.user,
                tuple(queries),
                tuple(credentials),
            )
        )
    return transactions


def one_query_per_server(
    catalog: ItemCatalog,
    user: str,
    credentials: Sequence[Credential],
    servers: Optional[Sequence[str]] = None,
    txn_id: str = "worst-case",
    write_last: bool = False,
) -> Transaction:
    """The Table I worst-case shape: query *i* touches a fresh server.

    With ``u = n`` (one query per server) the Continuous approach's
    ``Σ 2i = u(u+1)`` message count and every other formula of Table I
    apply exactly.  ``write_last=True`` makes the final query a small write
    so commits have a visible effect.
    """
    servers = list(servers if servers is not None else catalog.servers())
    queries: List[Query] = []
    for position, server in enumerate(servers):
        items = catalog.items_on(server)
        if not items:
            raise SimulationError(f"server {server!r} hosts no items")
        item = items[0]
        query_id = f"{txn_id}-q{position + 1}"
        if write_last and position == len(servers) - 1:
            queries.append(Query.write(query_id, deltas={item: -1}))
        else:
            queries.append(Query.read(query_id, [item]))
    return Transaction(txn_id, user, tuple(queries), tuple(credentials))


def poisson_arrivals(
    rng: random.Random, rate: float, count: int, start: float = 0.0
) -> List[float]:
    """Submission times for an open Poisson arrival process."""
    if rate <= 0:
        raise SimulationError("arrival rate must be positive")
    times: List[float] = []
    now = start
    for _ in range(count):
        now += rng.expovariate(rate)
        times.append(now)
    return times
