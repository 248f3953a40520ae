"""Experiment E-fp: BMOC false-positive cause breakdown (§5.2).

Paper: the BMOC detector reports 51 false positives — 20 from infeasible
paths (9 unsatisfiable conditions + 11 loop-unroll miscounts), 17 from
alias-analysis limits (15 channels-through-channels + 2 slice-stored),
14 from call-graph limits. The corpus seeds FP inducers with exactly those
causes; this harness prints how many the detector falls into, and
``tests/test_paper_numbers.py`` asserts the counts.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_report
from repro.report.experiments import evaluate_corpus
from repro.report.table import render_simple


@pytest.fixture(scope="module")
def corpus_evaluation():
    return evaluate_corpus()


def test_fp_breakdown(benchmark, corpus_evaluation):
    from repro.corpus.apps import corpus_app
    from repro.report.experiments import evaluate_app

    app = corpus_app("Go-Ethereum")  # the FP-heaviest application
    benchmark.pedantic(lambda: evaluate_app(app), rounds=1, iterations=1)

    causes = corpus_evaluation.fp_causes()
    per_template = {}
    for evaluation in corpus_evaluation.evaluations:
        for verdict in evaluation.bmoc_verdicts:
            if verdict.is_real or verdict.instance is None:
                continue
            per_template[verdict.instance.template] = (
                per_template.get(verdict.instance.template, 0) + 1
            )

    rows = [
        ["infeasible path", str(causes.get("infeasible-path", 0)), "20"],
        ["  - unsatisfiable conditions", str(per_template.get("fp_nonreadonly", 0) + per_template.get("fp_bmocm", 0)), "9"],
        ["  - loop unrolling miscounts", str(per_template.get("fp_loop_unroll", 0)), "11"],
        ["alias analysis", str(causes.get("alias-analysis", 0)), "17"],
        ["  - channel through channel", str(per_template.get("fp_chan_through_chan", 0)), "15"],
        ["  - channel stored in slice", str(per_template.get("fp_slice_store", 0)), "2"],
        ["call-graph analysis", str(causes.get("call-graph", 0)), "14"],
        ["total BMOC false positives", str(sum(causes.values())), "51"],
    ]
    record_report(
        "BMOC false positives by cause (§5.2)",
        render_simple(["cause", "measured", "paper"], rows),
    )
