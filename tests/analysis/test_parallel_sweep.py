"""Tests for the parallel sweep engine (repro.analysis.parallel)."""

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.analysis.parallel import (
    SERIAL_ENV,
    WORKERS_ENV,
    default_workers,
    parallel_map,
    run_sweep,
)
from repro.analysis.sweep import SweepPoint, sweep
from repro.core.consistency import ConsistencyLevel


def small_grid():
    return [
        SweepPoint(
            approach=approach,
            consistency=level,
            n_servers=3,
            txn_length=3,
            n_transactions=4,
            update_interval=interval,
            seed=17,
        )
        for approach in ("deferred", "continuous")
        for level in (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL)
        for interval in (None, 20.0)
    ]


def square(x):
    return x * x


def die_in_worker(x):
    # Kills the hosting process only when it's a pool worker; under the
    # serial fallback (main process) it computes normally, so the test can
    # observe a worker crash followed by a successful serial re-run.
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return x + 100


class TestParallelMap:
    def test_ordered_results(self):
        items = list(range(12))
        assert parallel_map(square, items, max_workers=3) == [x * x for x in items]

    def test_single_worker_runs_serial(self):
        assert parallel_map(square, [1, 2, 3], max_workers=1) == [1, 4, 9]

    def test_serial_env_forces_serial(self, monkeypatch):
        monkeypatch.setenv(SERIAL_ENV, "1")
        assert parallel_map(square, [2, 3], max_workers=4) == [4, 9]

    def test_workers_env_overrides(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "1")
        assert default_workers(8) == 1

    def test_malformed_workers_env_raises(self, monkeypatch):
        # A typo in the setting must not quietly fall back to the CPU count.
        monkeypatch.setenv(WORKERS_ENV, "two")
        with pytest.raises(ValueError, match=r"REPRO_SWEEP_WORKERS.*'two'"):
            default_workers(8)

    def test_worker_death_falls_back_to_serial(self):
        # The pool dies (every worker exits), then the serial fallback
        # computes the real answers in the parent process.
        result = parallel_map(die_in_worker, [1, 2, 3], max_workers=2)
        assert result == [101, 102, 103]

    def test_unpicklable_fn_falls_back_to_serial(self):
        def local_fn(x):  # closures can't be sent to workers
            return x * 10

        assert parallel_map(local_fn, [1, 2], max_workers=2) == [10, 20]

    def test_unpicklable_payload_does_not_hang_interpreter_exit(self):
        # Regression: feeding an unpicklable payload to the executor's call
        # queue kills the queue feeder thread; workers then never receive
        # shutdown sentinels and interpreter exit blocks forever on the
        # management-thread join.  parallel_map pre-pickles payloads so the
        # queue only ever carries bytes — the interpreter must exit cleanly.
        script = (
            "from repro.analysis.parallel import parallel_map\n"
            "def main():\n"
            "    local = lambda x: x * 10\n"
            "    print(parallel_map(local, [1, 2], max_workers=2))\n"
            "main()\n"
            "print('CLEAN-EXIT')\n"
        )
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "src",
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=90,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN-EXIT" in proc.stdout


class TestRunSweep:
    def test_parallel_equals_serial(self):
        points = small_grid()
        serial = sweep(points)
        parallel = run_sweep(points, max_workers=2)
        assert len(serial) == len(parallel)
        for s, p in zip(serial, parallel):
            assert s.point == p.point
            assert s.outcomes == p.outcomes

    def test_serial_flag_matches_parallel(self):
        points = small_grid()[:2]
        assert [r.outcomes for r in run_sweep(points, parallel=False)] == [
            r.outcomes for r in run_sweep(points, max_workers=2)
        ]

    def test_repeated_runs_are_deterministic(self):
        points = small_grid()[:2]
        first = run_sweep(points, max_workers=2)
        second = run_sweep(points, max_workers=2)
        assert [r.outcomes for r in first] == [r.outcomes for r in second]


class TestLazyImport:
    """The sweep engine loads on first use, not with ``repro.analysis``."""

    def test_importing_the_sweep_starts_no_process_pool_machinery(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        script = (
            "import sys, repro, repro.analysis.sweep\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=90,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
