"""Recorder parity: what every recorder *contains*, pinned at PR 17's parent.

``benchmarks/perf`` pins the trace digests of the chaos grid and the
*number* of spans; nothing else pins what flight rings, live windows,
sketches, spans and counters hold.  The digests below were generated from
the parent commit's sources (``dfea670``), before the observation handle was
re-plumbed, and every recorded fact must still project onto every recorder
exactly as the table in docs/architecture.md ("Effects and the observation
handle") says — same records, same fields, same order.

Worlds: the 8 cells (4 approaches x 2 levels) of the perf harness's chaos
plan at seed 83 with the flight recorder on, the known violating cell at
seed 84 (so an incident bundle is pinned too), and one 60-user multi-region
open-loop run with streaming metrics, live telemetry and the flight
recorder, untraced, under policy storms with a stale-commit tracker.

Regenerate — only when a recorded fact is changed on purpose::

    PYTHONPATH=src python tests/obs/test_recorder_parity.py

prints the ``EXPECTED`` literal.  It was produced with
``PYTHONPATH=<parent checkout>/src`` and this same file — except the streaming
WAN world's spans, live, OpenMetrics and counter digests, re-recorded when
the proof cache began to serve one user's query from another's template
(its lookups record a hit now); ``WAN_WITHOUT_CACHE_FACTS`` pins everything
else those recorders hold at the sources before that change.  The same
world's OpenMetrics and counter digests were re-recorded again when bytes
became counted for cross-region messages only (an intra-region pair has no
``region_bytes`` sample since); ``WAN_WITHOUT_INTRA_REGION_BYTES`` pins the
rest at the sources before that change.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from typing import Any, Dict

import pytest

from repro.chaos import fuzz
from repro.chaos.fuzz import FuzzCase
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.cloud import messages as msg
from repro.cloud.config import CloudConfig
from repro.core.approaches import CONSISTENCY_LEVELS, PAPER_APPROACHES
from repro.core.consistency import ConsistencyLevel
from repro.metrics.counters import counter_samples
from repro.obs.openmetrics import render_openmetrics

N_TRANSACTIONS = 24
HORIZON = N_TRANSACTIONS * FuzzCase.arrival_gap
DOWN_FOR = round(0.1 * HORIZON, 1)
#: The plan of ``benchmarks/perf`` (``ChaosGrid.prepare``): 1 % drops, a
#: timed crash of s2 at 28.8, a crash of s1 on its first vote after 86.4.
PERF_PLAN = FaultPlan(
    (
        FaultSpec("drop_rate", at=0.0, duration=HORIZON, rate=0.01),
        FaultSpec("crash", at=round(0.2 * HORIZON, 1), node="s2", down_for=DOWN_FOR),
        FaultSpec(
            "crash",
            at=round(0.6 * HORIZON, 1),
            node="s1",
            on_kind=msg.VOTE_REPLY,
            down_for=DOWN_FOR,
        ),
    ),
    label="perf-chaos-grid",
)

CHAOS_CELLS = [(83, approach, level) for approach in PAPER_APPROACHES for level in CONSISTENCY_LEVELS]
CHAOS_CELLS.append((84, "deferred", "global"))  # violating: dumps an incident bundle


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _dump(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=repr)


def _without_sums(exposition: str) -> str:
    """An OpenMetrics text minus its ``_sum`` samples: a float ``sum()`` differs in
    the last digit between CPython 3.11 and 3.12 (compensated summation), and
    the digests must hold on every interpreter CI runs.  Counts and buckets stay."""
    return "\n".join(
        line for line in exposition.split("\n") if "_sum{" not in line and "_sum " not in line
    )


def recorder_digests(cluster: Any) -> Dict[str, str]:
    """One SHA-256 per recorder of a finished world."""
    metrics = cluster.metrics
    digests = {
        "trace": fuzz._trace_digest(cluster.tracer),
        "spans": _sha(_dump([span.to_dict() for span in cluster.obs])),
        "openmetrics": _sha(_without_sums(render_openmetrics(metrics, cluster.obs))),
        "counters": _sha(repr(counter_samples(metrics))),
    }
    if metrics.flight is not None:
        digests["flight"] = _sha(_dump([event.to_dict() for event in metrics.flight.events()]))
        digests["bundles"] = _sha(
            _dump(
                [
                    [bundle.to_dict(), _without_sums(bundle.openmetrics)]
                    for bundle in metrics.flight.bundles
                ]
            )
        )
    if metrics.live is not None:
        digests["live"] = _sha(json.dumps(metrics.live.snapshot(), sort_keys=True))
    return digests


#: An exposition line of an intra-region pair's ``region_bytes`` sample.
INTRA_REGION_BYTES = re.compile(
    r'^repro_region_bytes_total\{dst_region="([^"]*)",src_region="\1"\}'
)


def _intra_region_bytes(sample: Any) -> bool:
    labels = dict(sample.labels)
    return sample.family == "region_bytes" and labels["src_region"] == labels["dst_region"]


def without_intra_region_bytes(cluster: Any) -> Dict[str, str]:
    """Digests of OpenMetrics and counters minus intra-region ``region_bytes``."""
    exposition = _without_sums(render_openmetrics(cluster.metrics, cluster.obs)).split("\n")
    samples = counter_samples(cluster.metrics)
    return {
        "openmetrics": _sha(
            "\n".join(line for line in exposition if not INTRA_REGION_BYTES.match(line))
        ),
        "counters": _sha(repr([sample for sample in samples if not _intra_region_bytes(sample)])),
    }


def without_cache_facts(cluster: Any) -> Dict[str, str]:
    """Digests of spans, live windows and OpenMetrics minus the cache facts
    (and minus intra-region ``region_bytes``, which are gone since)."""
    spans = [span.to_dict() for span in cluster.obs]
    for span in spans:
        span["attrs"].pop("cache", None)
    live = cluster.metrics.live.snapshot()
    for window in live["windows"]:
        for key in ("cache_hits", "cache_misses", "cache_hit_rate"):
            del window[key]
    exposition = _without_sums(render_openmetrics(cluster.metrics, cluster.obs)).split("\n")
    return {
        "spans": _sha(_dump(spans)),
        "live": _sha(json.dumps(live, sort_keys=True)),
        "openmetrics": _sha(
            "\n".join(
                line
                for line in exposition
                if not INTRA_REGION_BYTES.match(line)
                and not any(fact in line for fact in ("proof_cache", "engine_work"))
            )
        ),
    }


def chaos_world(seed: int, approach: str, level: str) -> Any:
    """The finished (closed) cluster of one chaos cell, flight recorder on."""
    kept = []
    build = fuzz.build_cluster

    def build_cluster(*args: Any, **kwargs: Any) -> Any:
        kept.append(build(*args, **kwargs))
        return kept[-1]

    case = FuzzCase(
        seed=seed,
        plan=PERF_PLAN,
        approach=approach,
        consistency=level,
        n_transactions=N_TRANSACTIONS,
    )
    fuzz.build_cluster = build_cluster
    try:
        fuzz.run_case(case, flight=True)
    finally:
        fuzz.build_cluster = build
    (cluster,) = kept
    return cluster


def wan_world() -> Any:
    """60 users, open loop, 3 regions: streaming + live + flight, untraced."""
    from repro.analysis.scale import StaleCommitTracker
    from repro.workloads.runner import OpenLoopRunner
    from repro.workloads.scale import (
        PolicyStormProcess,
        ScaleWorkloadSpec,
        iter_scale_workload,
        mint_user_credentials,
        storm_schedule,
    )
    from repro.workloads.testbed import build_multiregion_cluster

    config = CloudConfig(
        request_timeout=3000.0,
        streaming_metrics=True,
        live_telemetry=True,
        flight_recorder=True,
    )
    cluster = build_multiregion_cluster(
        shards_per_region=1, items_per_shard=8, seed=7, config=config, trace=False
    )
    spec = ScaleWorkloadSpec(n_users=60, arrival_rate=0.3)
    credentials = mint_user_credentials(cluster, spec.n_users)
    schedule = iter_scale_workload(spec, cluster.shards, random.Random(8), credentials)
    horizon = spec.n_users * spec.txns_per_user / spec.arrival_rate
    storms = storm_schedule(
        list(cluster.shards.regions),
        random.Random(9),
        horizon=horizon,
        mean_interval=horizon / 3,
        updates_per_storm=3,
        spacing=2.0,
        mode="benign",
    )
    PolicyStormProcess(cluster, storms).start()
    runner = OpenLoopRunner(cluster, "deferred", ConsistencyLevel.VIEW)
    tracker = StaleCommitTracker(cluster)
    runner.on_outcome = tracker.observe
    runner.run_scheduled(schedule)
    assert tracker.commits > 0
    return cluster


#: Generated from the parent's sources; see the module docstring.
EXPECTED: Dict[str, Dict[str, str]] = {
    "chaos/83/deferred/view": {
        "trace": "4145ad4f8f6c7d433a5609abe94539ccffbaedaca04e93203835b409cde66c43",
        "spans": "5bb3a025c65bd1cfe482fcdd904b569dbe0de178c7e54209f81c5b6523ea2e45",
        "openmetrics": "229e89bd485409fb290663b1992dc6aec17dbcc530813e802b89360ec6f45089",
        "counters": "31215099d338efa4018132bdcc304661c8dda34eb8165dd810c159ef5815c2e8",
        "flight": "ce3f97014a7db3d1df675d82b3399a3b6ced1a367df57f88774d0559e20279ed",
        "bundles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    },
    "chaos/83/deferred/global": {
        "trace": "ab807d60d4990845aba080b39f1167f522d9efacfa5b247e21f13e41892daf4a",
        "spans": "6d00b9c40242f402f2eafc1bcced48fb4b841be37ce075b411ebcedf20bbb7ba",
        "openmetrics": "4ce2c397125875fcf0a3f740b09879f6ef4e2ed17bb5680fcf52e668821e370c",
        "counters": "b844c198e8c7d8ac52e8981d0b0eba869974180ce94cb09ae22aed4bee3d1e11",
        "flight": "8d43dfda763082f237fe63eba0b6f1af090586a5cfa8bacbbeddfcffe791bdc9",
        "bundles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    },
    "chaos/83/punctual/view": {
        "trace": "248ecbebaddf1768dfa2745c0d207ef1f9127ff30945f3285438eae114f2a27c",
        "spans": "f5686552f508b6767350614950d68ebdd8100445c3b537163f70df454b24f4b6",
        "openmetrics": "1d3cb1966edcd366c9a01b201d7a74256126926c5ba85ed7891dcfa87785719e",
        "counters": "749156a51cfdffdd48df8aff0b90b2963cd334c27ee613b95a1632cb26208144",
        "flight": "8992edfafe9cd8f6bbb28844e03a74fa3ae42725587399f30b41e65b7c48517c",
        "bundles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    },
    "chaos/83/punctual/global": {
        "trace": "665c46220b7072bb579dbb9641087879aff54aee42953df58e67bed348004baf",
        "spans": "accf1183c724def3dc97db5deb981d1301784f9812683474151615ea892cf5a3",
        "openmetrics": "a7609eabfc16872c4cda1f2b3ca3d187a24a036beab0c2da8121fbdeaf65d97d",
        "counters": "3c662fa462bb8e6355e5d0ec102cee25f91a6f3cdfd0fd9f2df875fbff5b81e5",
        "flight": "7b2b77968807e52ca387f326a0c7a4c7a51eb4c2f69e0c957803f64d9eb5ff23",
        "bundles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    },
    "chaos/83/incremental/view": {
        "trace": "53f33d5e17a32fa9132ec8a0cf0c5613451767fad069447e0b3bf777e44464ac",
        "spans": "806a4d54f4eb6fc1f6c1df9d4f261987e508ced4eade3fa945e6edbe6396ecfd",
        "openmetrics": "ce00779373f19544e6837135e24209bebe4a64410e0c1305fe7c8ce8a440e950",
        "counters": "42c4361b7ea2d57731a10cea7b32ceb0648caad87303d9b9524c878ffbc2faac",
        "flight": "246d3c2d632a6d3e1ac4246d6d0de2bff8fc2f6481e451108a8c72f5a8533e45",
        "bundles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    },
    "chaos/83/incremental/global": {
        "trace": "8a814490113283c22f7158c29809ed7dde9945fe681bf0cae29dcc1d60efd73b",
        "spans": "84c901695e8fab403f1cb0af3aa9377839e064cad327bb8313460f27e8578223",
        "openmetrics": "95ab839d575e5e08721bc136d0a86be8ca9b0c7e01b8271f6e466502ae4f0ef5",
        "counters": "b16a40657e80db6be3edfb8348f87917b77649adcc7dbd01f54025d453e933c2",
        "flight": "0194c9ef47da0f3e250c7bac31f607cedd699729634bec7120eed6272567fc2f",
        "bundles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    },
    "chaos/83/continuous/view": {
        "trace": "8cb406c9c7753275260b7d7017ce32c0e31158e5715e624ac08948db6c2f9758",
        "spans": "48b162e2629f1072b4ddbe3bbf8f63595ef25bbc9e23ed8d60363f969f0615b4",
        "openmetrics": "ea5ae22859d656609cf5e355a20d706f3361b0611e4f9393cb64abae4e5b38e4",
        "counters": "6beec519c0d169ee98f7d74b2351f048b5dc5618005a84164a9e1baea7b286ee",
        "flight": "f4edcf0fd7b8d3ba8dc9c604950822a3cf77aa6b3b7ab1b90eab8bab57eb2143",
        "bundles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    },
    "chaos/83/continuous/global": {
        "trace": "99c3f228e8a7a00ae59e7a38b9a01c2bb47cf60c4ee769d1fa0d2d956d67ac09",
        "spans": "196f89bd56108da349fbe279e0911a88f33b549403306bf348bf5841fdafed16",
        "openmetrics": "5a3779830f87415da30ab6ef6c6bb6cdc588f1fb33331376604c2206e3e80f08",
        "counters": "6dab58e9f873179530b3946618608d18a839cb7f00130ef44c6cbaed2cabc648",
        "flight": "35baea8311390470b887ef9d60c08b53093fa33266d663cde048fac49c1e09ef",
        "bundles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
    },
    "chaos/84/deferred/global": {
        "trace": "45a5ebedcc27633b18f28e62c9075b041b879ff33d18361cff45e695919a9f9f",
        "spans": "9b0fc6f5e8d31e80eeb1d722ba1d2311743cdd91a4a7fa2f3c531b120a9db0d8",
        "openmetrics": "59bd8b0cd7ecbaa4484858859a00672fa40dd497206a8626c3dbde23f076710c",
        "counters": "1e4369df65764576656d647785a8148fba6da8d8c503a03026ecce241cf6df80",
        "flight": "ed353c00fb0fb0bef6920eadf27d039097877c04a10d013dc145f87720473f68",
        "bundles": "fabff6efad2fbe4f7c5f411bc83ea756699f9ae7307fe824310923d4531e5a62"
    },
    "wan/60": {
        "trace": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "spans": "45e757901267c9c5387fe67a15c4153c94cf2646b848929b49d375450ac4f0df",
        # Re-recorded: intra-region pairs have no region_bytes sample since
        # bytes are counted cross-region only (WAN_WITHOUT_INTRA_REGION_BYTES).
        "openmetrics": "53be1dbe8dc8c9020360cb8dc967bf537edee9221eea895e1501af532d490db6",
        "counters": "af5000659ef2d77667f4e3f50fc1d56bca604f01513d402de1ec956fcd541254",
        "flight": "b28cd8899486061716dc893915597d2a25432d6bb097ebfc9e0e86a37b4fe821",
        "bundles": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "live": "84376eb39c09106d49d0418ab8f196ce61643504bb7d4db757a324826e0cc81f"
    }
}

#: The streaming WAN world's recorders minus the facts a proof-cache lookup
#: records — its hit or miss (the ``cache`` attribute of ``proof.eval`` spans,
#: the ``cache_*`` fields of live windows, the ``proof_cache_*`` samples) and
#: the inference engine's work (``engine_work``).  Generated from the sources
#: of ``e9f7712``, whose cache keyed on the user and never hit in this world;
#: 85 of its 120 lookups hit a subject-generic template since, which moved
#: those facts and nothing else.  The OpenMetrics digest was regenerated from
#: the same sources when the projection began to drop intra-region
#: ``region_bytes`` lines too (``afba00e4…`` without that filter).
WAN_WITHOUT_CACHE_FACTS = {
    "spans": "1ffd7450f994ff8090c5f8f30d80129f1af2d9611dddef047d2eeeb99ebc6fcf",
    "live": "2423b8710e08b6a3a7858eb22808a498bc46f89518a9bed731f734adf08a0362",
    "openmetrics": "e78a3cdd24a48129da243037dba1a23f2cbcf45ef05f3dc1f79953f848cd8669",
}

#: The streaming WAN world's OpenMetrics and counter samples minus the
#: intra-region ``region_bytes`` samples, generated from the sources of
#: ``c0a9792``, which sized every message and counted its bytes per region
#: pair.  Since then an intra-region message is not sized (no link in the
#: repo's topologies charges its bytes), and these projections equal the
#: full digests of ``EXPECTED["wan/60"]``: no other sample moved.
WAN_WITHOUT_INTRA_REGION_BYTES = {
    "openmetrics": "53be1dbe8dc8c9020360cb8dc967bf537edee9221eea895e1501af532d490db6",
    "counters": "af5000659ef2d77667f4e3f50fc1d56bca604f01513d402de1ec956fcd541254",
}


@pytest.mark.parametrize("seed,approach,level", CHAOS_CELLS)
def test_chaos_cell_recorders_match_the_parent(seed, approach, level):
    assert recorder_digests(chaos_world(seed, approach, level)) == EXPECTED[
        f"chaos/{seed}/{approach}/{level}"
    ]


def test_violating_cell_dumped_a_bundle():
    """The bundle digest above is only worth something if a bundle exists."""
    cluster = chaos_world(84, "deferred", "global")
    (bundle,) = cluster.metrics.flight.bundles
    assert bundle.violations and bundle.events and bundle.openmetrics and bundle.waterfalls


def test_streaming_wan_recorders_match_the_parent():
    cluster = wan_world()
    live = cluster.metrics.live.snapshot()
    # Every live feed fired, or the digest pins an empty window.
    totals = {
        key: sum(window[key] for window in live["windows"])
        for key in ("txns", "stale", "policy_publications", "lock_waits", "proof_evals")
    }
    assert all(totals.values()), totals
    assert len(cluster.tracer) == 0
    assert recorder_digests(cluster) == EXPECTED["wan/60"]
    # What moved since the parent is the cache facts, and only those.
    assert without_cache_facts(cluster) == WAN_WITHOUT_CACHE_FACTS
    # ... and the intra-region byte samples, and only those.
    assert without_intra_region_bytes(cluster) == WAN_WITHOUT_INTRA_REGION_BYTES


if __name__ == "__main__":
    expected = {
        f"chaos/{seed}/{approach}/{level}": recorder_digests(chaos_world(seed, approach, level))
        for seed, approach, level in CHAOS_CELLS
    }
    expected["wan/60"] = recorder_digests(wan_world())
    print("EXPECTED: Dict[str, Dict[str, str]] = " + json.dumps(expected, indent=4))
