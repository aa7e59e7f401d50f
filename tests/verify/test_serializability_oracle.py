"""``check_serializability`` reports exactly what its scan-based oracle does.

The checker takes each server's access history from the storage accesses
``_build_views`` already grouped per transaction, merged back into event
order; ``serializability_oracle`` scans every event of the run instead.  They
must agree — violations, evidence event ids and evidence order — on every
case of the benchmark's fault grid at seed 83, on the grid cases of the three
seeds whose verdict includes a cycle (86, 92 and 107), and on every record the
mutation suite builds, clean baselines included.
"""

from __future__ import annotations

import inspect

import pytest

from repro.chaos import fuzz
from repro.chaos.fuzz import FuzzCase, run_case
from repro.core.approaches import CONSISTENCY_LEVELS, PAPER_APPROACHES
from repro.verify import conformance
from repro.verify import report as rep
from tests.obs.test_recorder_parity import N_TRANSACTIONS, PERF_PLAN
from tests.verify import test_mutations as mutations
from tests.verify.serializability_oracle import reference_check_serializability


def grid_case(seed: int, approach: str, consistency: str) -> FuzzCase:
    """One case of the benchmark's fault grid: drops plus both crashes."""
    return FuzzCase(seed, PERF_PLAN, approach, consistency, n_transactions=N_TRANSACTIONS)


def agree(run) -> list:
    """The checker's serializability violations, once they equal the oracle's."""
    views = conformance._build_views(run)
    found = conformance.check_serializability(run, views)
    assert found == reference_check_serializability(run, views)
    return found


@pytest.fixture
def audited(monkeypatch):
    """The serializability verdict of every record ``run_case`` checks."""
    verdicts = []
    check_run = fuzz.check_run

    def comparing(run, *args, **kwargs):
        verdicts.append(agree(run))
        return check_run(run, *args, **kwargs)

    monkeypatch.setattr(fuzz, "check_run", comparing)
    return verdicts


@pytest.mark.parametrize("consistency", CONSISTENCY_LEVELS)
@pytest.mark.parametrize("approach", PAPER_APPROACHES)
def test_every_seed_83_grid_case(audited, approach, consistency):
    run_case(grid_case(83, approach, consistency))
    assert len(audited) == 1


@pytest.mark.parametrize("seed", (86, 92, 107))
def test_the_known_cycle_cases(audited, seed):
    results = [
        run_case(grid_case(seed, approach, consistency))
        for approach in PAPER_APPROACHES
        for consistency in CONSISTENCY_LEVELS
    ]
    cycles = [bool(verdict) for verdict in audited]
    assert cycles == [rep.SERIALIZABILITY_CYCLE in r.violation_codes for r in results]
    assert any(cycles)
    assert all(v.event_ids for verdict in audited for v in verdict)


MUTATION_TESTS = sorted(
    name
    for name, test in vars(mutations).items()
    if name.startswith("test_") and "run_factory" in inspect.signature(test).parameters
)


@pytest.mark.parametrize("name", MUTATION_TESTS)
def test_every_record_the_mutation_suite_builds(run_factory, monkeypatch, name):
    checked = []
    check_run = mutations.check_run

    def comparing(run, checks=None):
        checked.append(agree(run))
        return check_run(run, checks)

    def factory(*args, **kwargs):
        run = run_factory(*args, **kwargs)
        agree(run)
        return run

    monkeypatch.setattr(mutations, "check_run", comparing)
    getattr(mutations, name)(factory)
    assert checked


def test_the_mutation_suite_is_covered():
    assert len(MUTATION_TESTS) >= 20
    assert "test_injected_conflict_cycle_is_detected" in MUTATION_TESTS
