"""Experiment E-fuzz: generative differential fuzz campaign throughput.

One seeded campaign (seed 0, 200 programs — the acceptance campaign)
through the full generate → detect → explore → triage pipeline. The
numbers that matter for the perf trajectory land in ``BENCH_fuzz.json``
at the repo root: programs/sec (generator+oracle throughput), oracle
agreement rate, and the unexplained-disagreement count, which this
suite requires to be zero for the checked-in seed.
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import record_report
from repro.fuzz import run_campaign
from repro.obs import Collector, render_stats

BENCH_SEED = 0
BENCH_COUNT = 200

ARTIFACT = os.path.join(os.path.dirname(__file__), "..", "BENCH_fuzz.json")


def test_fuzz_campaign_throughput(benchmark):
    collector = Collector("fuzz-bench")
    report = benchmark.pedantic(
        run_campaign,
        args=(BENCH_SEED, BENCH_COUNT),
        kwargs={"collector": collector},
        rounds=1,
        iterations=1,
    )

    record_report(
        f"Fuzz campaign seed={BENCH_SEED} count={BENCH_COUNT}",
        report.render(),
    )
    record_report("Fuzz campaign per-stage cost (repro.obs)", render_stats(collector))

    assert len(report.triages) == BENCH_COUNT
    assert report.crashes() == []
    assert report.unexplained() == []  # seed-0 findings are checked in already

    programs_per_sec = BENCH_COUNT / report.elapsed_seconds
    artifact = {
        "bench": "fuzz-campaign",
        "seed": BENCH_SEED,
        "count": BENCH_COUNT,
        "elapsed_seconds": round(report.elapsed_seconds, 3),
        "programs_per_sec": round(programs_per_sec, 1),
        "agreement_rate": round(report.agreement_rate, 4),
        "buckets": report.buckets(),
        "unexplained": len(report.unexplained()),
        "crashes": len(report.crashes()),
        "cpus": os.cpu_count(),
    }
    with open(ARTIFACT, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert programs_per_sec > 1  # the generator must not dominate the oracles
