"""Parallel execution of sweep grids over worker processes.

Sweep points are *embarrassingly parallel*: every :func:`repro.analysis.
sweep.run_point` builds its own cluster from its own seed, so points share
no state and their results are independent of execution order.  This
module fans a grid out over :class:`concurrent.futures.ProcessPoolExecutor`
while keeping the three guarantees the benches rely on:

* **determinism** — each point carries its own seed, so parallel and
  serial runs of the same grid produce equal results;
* **ordered collection** — results come back in grid order regardless of
  which worker finishes first;
* **graceful degradation** — a dead worker (OOM-killed, segfaulted,
  ``os._exit``), a pool that cannot start, or an unpicklable payload all
  fall back to in-process serial execution instead of failing the run.

Worker processes are not free: each one pays interpreter start-up and a
full ``repro`` import before it simulates anything, a few hundred
milliseconds that dwarf a small grid.  Two mitigations:

* :func:`run_sweep` gates on a deterministic cost estimate
  (:func:`estimate_point_cost`) and runs grids below
  :data:`MIN_PARALLEL_COST` in-process — see ``docs/performance.md`` for
  the calibration;
* grids that do fan out reuse one **persistent pool** (:func:`get_pool`)
  across calls, so a bench sweeping several grids pays worker start-up
  once, and items are submitted in **contiguous chunks**
  (``CHUNKS_PER_WORKER`` per worker) instead of one future per point,
  amortizing pickling/IPC while still load-balancing stragglers.  The
  pool is torn down at interpreter exit (or explicitly via
  :func:`shutdown_pool`).

``REPRO_SWEEP_WORKERS`` (environment) overrides the default worker count;
``REPRO_SWEEP_SERIAL=1`` forces serial execution everywhere, which CI can
use on constrained runners.  Both describe the machine; the cost gate
describes the workload, so it is a constant.
"""

from __future__ import annotations

import atexit
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.analysis.sweep import SweepPoint, SweepResult, run_point

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Chunks submitted per worker: >1 so an unlucky worker holding the
#: slowest points can be back-filled, small enough that per-chunk
#: pickling/IPC stays negligible next to per-point submission.
CHUNKS_PER_WORKER = 4

#: Environment knob: cap/override the worker-process count.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"
#: Environment knob: force serial execution (``1``/``true``/``yes``).
SERIAL_ENV = "REPRO_SWEEP_SERIAL"
#: Grid cost below which :func:`run_sweep` stays serial.
#: Calibrated against worker start-up: a fresh process pays ~0.3-0.5 s of
#: interpreter + ``repro`` import before its first point, and an 8-point
#: grid of cost ~7.7k units (~0.8 s serial) measurably *loses* wall-clock
#: when fanned out (0.897x).  25k units ≈ 2.5 s of serial work, past which
#: two workers reliably amortize their spawn cost.
MIN_PARALLEL_COST = 25_000


def _serial_forced() -> bool:
    return os.environ.get(SERIAL_ENV, "").strip().lower() in ("1", "true", "yes")


def estimate_point_cost(point: SweepPoint) -> int:
    """Deterministic work estimate for one point, in abstract units.

    Simulation wall-clock scales with scheduled events, which scale with
    transactions × queries-per-transaction × cluster size — the knobs a
    :class:`SweepPoint` carries.  The estimate only has to rank grids
    against :data:`MIN_PARALLEL_COST`; it is not a time prediction.
    """
    return (
        max(1, point.n_transactions)
        * max(1, point.txn_length)
        * max(1, point.n_servers)
    )


def should_parallelize(
    points: Sequence[SweepPoint], max_workers: Optional[int] = None
) -> bool:
    """Would :func:`run_sweep` actually use worker processes for this grid?

    False when serial is forced, fewer than two points or workers are
    available, or the grid's total :func:`estimate_point_cost` falls below
    :data:`MIN_PARALLEL_COST` — small grids finish faster in-process than
    any worker finishes importing.  Exposed so benches can report which
    execution plan a measurement exercised.
    """
    if _serial_forced() or len(points) <= 1:
        return False
    workers = max_workers if max_workers is not None else default_workers(len(points))
    if workers <= 1:
        return False
    return sum(estimate_point_cost(point) for point in points) >= MIN_PARALLEL_COST


def default_workers(n_items: int) -> int:
    """Worker count: ``REPRO_SWEEP_WORKERS`` or ``min(n_items, cpus)``.

    A ``REPRO_SWEEP_WORKERS`` that is not an integer raises ``ValueError``
    rather than quietly changing the execution plan.
    """
    override = os.environ.get(WORKERS_ENV, "").strip()
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer, got {override!r}"
            ) from None
    return max(1, min(n_items, os.cpu_count() or 1))


# -- persistent pool -----------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared worker pool, (re)built so it has at least ``workers``.

    Reused across :func:`parallel_map` / :func:`run_sweep` calls so a bench
    running several grids pays interpreter start-up + ``repro`` import once
    per worker, not once per grid.  A request for more workers than the
    current pool holds rebuilds it (worker counts only ever grow within a
    process, and are capped by :func:`default_workers` at the CPU count).
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers >= workers:
        return _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
    _pool = ProcessPoolExecutor(max_workers=workers)
    _pool_workers = workers
    return _pool


def shutdown_pool(wait: bool = True) -> None:
    """Tear down the persistent pool (idempotent; re-created on next use)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=wait, cancel_futures=True)
        _pool = None
        _pool_workers = 0


atexit.register(shutdown_pool)


def _chunked(items: Sequence[ItemT], n_chunks: int) -> List[Sequence[ItemT]]:
    """Split into up to ``n_chunks`` contiguous, order-preserving slices."""
    n_chunks = max(1, min(n_chunks, len(items)))
    size, extra = divmod(len(items), n_chunks)
    chunks: List[Sequence[ItemT]] = []
    start = 0
    for index in range(n_chunks):
        end = start + size + (1 if index < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


def _apply_chunk(payload: bytes) -> List:
    """Worker-side: unpickle one contiguous chunk and apply its function.

    Payloads are pickled *by the caller* (see :func:`parallel_map`) so the
    executor's call queue only ever carries ``bytes``.  Feeding an
    unpicklable object to the queue kills its feeder thread mid-flight,
    after which workers never receive their shutdown sentinels and
    interpreter exit blocks forever on the management-thread join —
    pre-pickling turns that hang into an ordinary, catchable exception in
    the submitting process.
    """
    fn, chunk = pickle.loads(payload)
    return [fn(item) for item in chunk]


def parallel_map(
    fn: Callable[[ItemT], ResultT],
    items: Sequence[ItemT],
    max_workers: Optional[int] = None,
) -> List[ResultT]:
    """Apply ``fn`` to every item across worker processes, results in order.

    ``fn`` and the items must be picklable (module-level function, plain
    data).  Work is submitted to the persistent pool (:func:`get_pool`) in
    contiguous chunks — ``CHUNKS_PER_WORKER`` per worker — so per-item IPC
    overhead amortizes while stragglers still rebalance.  Exceptions
    *raised by* ``fn`` propagate exactly as they would serially.  Failures
    *of the machinery* — a worker process dying, the pool failing to
    start, pickling errors — discard the pool and trigger a serial
    in-process re-run of the whole sequence, so callers always get a
    complete, ordered result list.
    """
    if not items:
        return []
    workers = max_workers if max_workers is not None else default_workers(len(items))
    if workers <= 1 or len(items) == 1 or _serial_forced():
        return [fn(item) for item in items]
    chunks = _chunked(items, workers * CHUNKS_PER_WORKER)
    try:
        # Pickle in the caller, before anything touches the pool: an
        # unpicklable payload handed to the executor's call queue kills
        # the queue's feeder thread and the pool can then never deliver
        # worker shutdown sentinels — the interpreter hangs at exit.
        # Pre-pickled bytes always survive the queue.
        payloads = [pickle.dumps((fn, chunk)) for chunk in chunks]
    except Exception:
        return [fn(item) for item in items]
    try:
        pool = get_pool(workers)
        futures = [pool.submit(_apply_chunk, payload) for payload in payloads]
        out: List[ResultT] = []
        for future in futures:
            out.extend(future.result())
        return out
    except (BrokenProcessPool, OSError, pickle.PicklingError, AttributeError, ImportError):
        # A worker died or the pool could not be used at all (Attribute/
        # ImportError cover payloads workers cannot unpickle, e.g. functions
        # from script-style modules under the spawn start method).  The pool
        # may be poisoned — drop it so the next call starts clean.
        shutdown_pool(wait=False)
        # The work itself is assumed sound, so redo everything in-process.
        return [fn(item) for item in items]


def run_sweep(
    points: Sequence[SweepPoint],
    parallel: bool = True,
    max_workers: Optional[int] = None,
) -> List[SweepResult]:
    """Run a sweep grid, in parallel by default; results in grid order.

    Equivalent to ``[run_point(p) for p in points]`` — literally so when
    ``parallel`` is false or the grid is too small to amortize worker
    start-up (see :func:`should_parallelize`), and observably so
    otherwise, because every point's simulation is fully determined by its
    own seed.  Worker crashes degrade to the serial path (see
    :func:`parallel_map`).
    """
    if not parallel or not should_parallelize(points, max_workers):
        return [run_point(point) for point in points]
    return parallel_map(run_point, points, max_workers=max_workers)
