"""Experiment E-fleet: corpus-sweep scaling and resume overhead.

Sweeps a 49-unit corpus on process pools of 1, 2 and 3 workers (one
worker runs inline, the reference every width must match byte for byte)
and measures throughput at each width. Pool start-up is inside the
timed sweep: it is part of what a sweep costs.

The public 49-program bug set makes a poor *scaling* corpus: each case
detects in ~6 ms, so a sweep is dispatch-overhead bound and adding
workers buys nothing. The benchmark corpus instead composes 12
real-template BMOC instances per unit (~35-50 ms of detector work each),
so the analysis dominates and the width sweep measures what it claims
to. Parity of the *bug-set* corpus is covered by
tests/test_fleet_resume.py; parity of this corpus is asserted here at
every width.

Then the 3-worker sweep re-runs against its own manifest to measure
resume overhead (every unit skips — the cost is fingerprinting +
replay).

Asserted floors (generous — CI containers are noisy):

* every width is byte-identical to the one-worker sweep;
* 3 workers beat 1 worker on wall clock — asserted only with >= 3 real
  cores behind the pool (same gate as E-engine: a 1-core container
  cannot parallelise CPU-bound workers, it can only time-slice them);
  everywhere, width 3 must stay within 1.5x of width 1, so pool
  overhead regressions still fail the bench;
* a full-skip resume costs < 50% of the 1-worker sweep.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from benchmarks.conftest import record_report
from repro.corpus import templates
from repro.fleet import canonical_bytes, plan_corpus, run_sweep
from repro.report.table import render_simple

ARTIFACT = os.path.join(os.path.dirname(__file__), "..", "BENCH_fleet.json")

WIDTHS = (1, 2, 3)
UNITS = 49
#: template-instance multiplier per unit (6 factories x 2 = 12 instances,
#: ~35-50 ms of detect work — heavy enough that the analysis, not the
#: pool, is the bottleneck)
MULT = 2


def materialize_heavy_corpus(root: str) -> None:
    factories = [
        factory
        for group in templates.REAL_BMOCC_BY_STRATEGY.values()
        for factory in group
    ]
    for i in range(UNITS):
        body = "\n".join(
            factory(f"U{i:02d}x{j}").code
            for j, factory in enumerate(factories * MULT)
        )
        unit_dir = os.path.join(root, f"unit{i:02d}")
        os.makedirs(unit_dir, exist_ok=True)
        with open(os.path.join(unit_dir, "main.go"), "w") as handle:
            handle.write("package main\n" + body + "\n")


def test_fleet_scaling_and_resume_overhead():
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        corpus = os.path.join(tmp, "corpus")
        materialize_heavy_corpus(corpus)
        plan = plan_corpus(corpus)
        assert len(plan.units) == UNITS

        by_width = {}
        reference = None
        for width in WIDTHS:
            result = run_sweep(
                plan,
                workers=width,
                manifest_path=os.path.join(tmp, f"m{width}.jsonl"),
            )
            assert result.complete() and not result.failed
            report_bytes = canonical_bytes(result.report())
            if reference is None:
                reference = report_bytes
            assert report_bytes == reference
            tel = result.telemetry()
            by_width[width] = {
                "sweep_seconds": round(tel["elapsed_seconds"], 4),
                "units_per_second": round(tel["units_per_second"], 2),
                "unit_p50_seconds": tel["unit_p50_seconds"],
                "unit_p95_seconds": tel["unit_p95_seconds"],
            }

        # resume against the 3-worker manifest: every unit skips, so no
        # pool is ever started
        resume_started = time.perf_counter()
        resumed = run_sweep(
            plan, workers=3, manifest_path=os.path.join(tmp, "m3.jsonl")
        )
        resume_seconds = time.perf_counter() - resume_started
        assert resumed.complete()
        assert resumed.telemetry()["skipped"] == UNITS
        assert canonical_bytes(resumed.report()) == reference

    # speedup needs real cores behind the workers (same gate as E-engine);
    # the overhead ceiling holds everywhere — a pool must never cost more
    # than 1.5x the inline sweep just for being a pool
    if (os.cpu_count() or 1) >= 3:
        assert by_width[3]["sweep_seconds"] < by_width[1]["sweep_seconds"]
    assert by_width[3]["sweep_seconds"] < 1.5 * by_width[1]["sweep_seconds"]
    assert resume_seconds < 0.5 * by_width[1]["sweep_seconds"]

    rows = [
        [
            f"{width} worker(s)" + (" (inline)" if width == 1 else ""),
            f"{by_width[width]['sweep_seconds']:.2f}",
            f"{by_width[width]['units_per_second']:.1f}",
            "yes",
        ]
        for width in WIDTHS
    ] + [
        [f"resume (all {UNITS} skip)", f"{resume_seconds:.2f}", "-", "yes"],
    ]
    body = render_simple(
        ["configuration", "sweep s", "units/s", "byte-parity"],
        rows,
        title=f"{UNITS}-unit composed corpus sweep ({os.cpu_count()} CPUs, process pool)",
    )
    record_report("E-fleet: sweep scaling and resume overhead", body)

    with open(ARTIFACT, "w") as handle:
        json.dump(
            {
                "experiment": "fleet-sweep-scaling",
                "mode": "process-pool",
                "cpus": os.cpu_count(),
                "units": UNITS,
                "instances_per_unit": 6 * MULT,
                "by_workers": {str(w): by_width[w] for w in WIDTHS},
                "resume_seconds": round(resume_seconds, 4),
                "resume_overhead_vs_one_worker": round(
                    resume_seconds / by_width[1]["sweep_seconds"], 4
                ),
                "byte_parity": True,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
