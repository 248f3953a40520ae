"""Experiment E-cover: coverage on the public 49-bug set (§5.2).

Paper: GCatch detects 33 of the 49 BMOC bugs in the released bug set (67%),
missing the rest for four stated reasons. The harness times the detector
on each bug and prints the per-reason tally; ``tests/test_paper_numbers.py``
asserts it.
"""

from __future__ import annotations

from collections import Counter

import pytest

from benchmarks.conftest import record_report
from repro.corpus.bugset import build_bug_set
from repro.detector.bmoc import detect_bmoc
from repro.report.table import render_simple
from repro.ssa.builder import build_program


@pytest.fixture(scope="module")
def bug_set():
    return build_bug_set()


def test_coverage_study(benchmark, bug_set):
    programs = [(case, build_program(case.source, case.case_id + ".go")) for case in bug_set]

    def run_all():
        return [(case, bool(detect_bmoc(program).reports)) for case, program in programs]

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)

    detected = sum(1 for _, got in outcomes if got)
    missed_reasons = Counter(
        case.miss_reason for case, got in outcomes if not got and case.miss_reason
    )
    rows = [
        ["detected", str(detected), "33 (67%)"],
        ["missed: critical section above LCA", str(missed_reasons.get("critical-section-above-lca", 0)), "2"],
        ["missed: needs dynamic value", str(missed_reasons.get("needs-dynamic-value", 0)), "3"],
        ["missed: unmodeled primitive", str(missed_reasons.get("unmodeled-primitive", 0)), "9"],
        ["missed: nil-channel data flow", str(missed_reasons.get("nil-channel-dataflow", 0)), "2"],
    ]
    record_report(
        "Coverage on the 49-bug public set (§5.2)",
        render_simple(["outcome", "measured", "paper"], rows),
    )
