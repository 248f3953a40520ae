"""Experiment E-engine: cold vs warm detection through the result cache.

The engine turns per-primitive BMOC analysis into independent shards keyed
by a content-addressed fingerprint, so a warm re-run on an unchanged
program should skip (nearly) all solver work while the report set stays
byte-identical to the cold run. The skip rate is asserted; the timings are
recorded in ``BENCH_detect.json``.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import record_report
from repro.corpus import templates
from repro.detector.gcatch import run_gcatch
from repro.engine import ResultCache
from repro.obs import Collector
from repro.report.table import render_simple
from repro.ssa.builder import build_program

CHANNEL_FACTORIES = [
    factory
    for group in templates.REAL_BMOCC_BY_STRATEGY.values()
    for factory in group
] + list(templates.BENIGN_TEMPLATES)

ARTIFACT = os.path.join(os.path.dirname(__file__), "..", "BENCH_detect.json")


def build_wide_program():
    """A program with many shards: ~2x each channel template."""
    parts = ["package main"]
    uid = 0
    for _ in range(2):
        for factory in CHANNEL_FACTORIES:
            parts.append(factory(f"W{uid}").code.rstrip())
            uid += 1
    return build_program("\n\n".join(parts) + "\n", "bench_engine.go")


def renders(result):
    return [r.render() for r in result.all_reports()]


def test_engine_warm_cache(benchmark):
    program = build_wide_program()
    run_gcatch(program)  # one-time import and setup costs stay out of the timings
    cache = ResultCache()
    cold_obs, warm_obs = Collector("cold"), Collector("warm")

    def measure():
        start = time.perf_counter()
        cold = run_gcatch(program, cache=cache, collector=cold_obs)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_gcatch(program, cache=cache, collector=warm_obs)
        return cold, cold_seconds, warm, time.perf_counter() - start

    cold, cold_seconds, warm, warm_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    # a re-run on an unchanged program skips >= 90% of solver calls
    cold_calls = cold_obs.counters["solver.calls"]
    warm_calls = warm_obs.counters.get("solver.calls", 0)
    skip_rate = 1.0 - warm_calls / cold_calls
    assert skip_rate >= 0.9
    assert renders(warm) == renders(cold)
    session_reuse = cold_obs.counters.get("solver.session.reuse", 0)
    intern_hits = cold_obs.counters.get("solver.intern.hit", 0)
    assert session_reuse > 0 and intern_hits > 0  # the session engaged

    record_report(
        f"Detection engine cache ({os.cpu_count()} CPUs; "
        f"warm-cache solver skip rate {skip_rate:.0%}; "
        f"session reuse {session_reuse}, intern hits {intern_hits})",
        render_simple(
            ["configuration", "seconds"],
            [["cache cold", f"{cold_seconds:.3f}"], ["cache warm", f"{warm_seconds:.3f}"]],
        ),
    )

    # the detect-side perf trajectory artifact: cold vs warm latency and
    # the warm-cache solver skip rate
    artifact = {
        "bench": "detect",
        "cpus": os.cpu_count(),
        "cache_cold_seconds": round(cold_seconds, 3),
        "cache_warm_seconds": round(warm_seconds, 3),
        "solver_skip_rate": round(skip_rate, 4),
        "solver_calls_cold": cold_calls,
        "solver_calls_warm": warm_calls,
        "session_reuse": session_reuse,
        "session_intern_hits": intern_hits,
    }
    with open(ARTIFACT, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
