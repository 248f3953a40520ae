"""Experiment T1: reproduce Table 1 — GCatch detections and GFix fixes over
the 21-application corpus.

Paper: 149 BMOC bugs (147 channel-only + 2 channel+mutex) with 51 FPs,
119 traditional bugs with 67 FPs, and GFix patching 124 bugs (99/4/21 per
strategy). The harness times the full pipeline and prints every cell;
``tests/test_paper_numbers.py`` asserts them.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_report
from repro.report.experiments import evaluate_corpus


@pytest.fixture(scope="module")
def corpus_evaluation():
    return evaluate_corpus()


def test_table1_full_reproduction(benchmark, corpus_evaluation):
    # benchmark the per-app pipeline on a representative mid-size app
    from repro.corpus.apps import corpus_app
    from repro.report.experiments import evaluate_app

    app = corpus_app("Prometheus")
    benchmark.pedantic(lambda: evaluate_app(app), rounds=3, iterations=1)

    record_report(
        "Table 1 (GCatch + GFix over the 21-app corpus)", corpus_evaluation.render()
    )
