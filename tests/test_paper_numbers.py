"""The paper's headline numbers, asserted end to end on the default path.

* Table 1: every detection and fix cell over the 21 apps, and the totals
  (149 BMOC bugs with 51 FPs, 119 traditional bugs with 67 FPs, 124 fixes
  split 99/4/21 across GFix's three strategies);
* §5.2 coverage: 33 of the 49 public bugs, the rest missed for the four
  stated reasons;
* §5.2 FP breakdown: 20 infeasible-path, 17 alias-analysis, 14 call-graph.

``benchmarks/`` times the same pipelines and prints the tables.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.corpus.bugset import build_bug_set
from repro.corpus.specs import TABLE1
from repro.detector.bmoc import detect_bmoc
from repro.report.experiments import evaluate_corpus
from repro.ssa.builder import build_program


@pytest.fixture(scope="module")
def corpus_evaluation():
    return evaluate_corpus()


def test_table1_rows_match_their_specs(corpus_evaluation):
    for app_eval, spec in zip(corpus_evaluation.evaluations, TABLE1, strict=True):
        assert app_eval.app.name == spec.name
        assert app_eval.bmoc_counts("bmoc-chan") == (spec.bmoc_c.real, spec.bmoc_c.fp), spec.name
        assert app_eval.bmoc_counts("bmoc-mutex") == (spec.bmoc_m.real, spec.bmoc_m.fp), spec.name
        fixes = app_eval.fix_counts()
        assert fixes["buffer"] == spec.fix_s1, spec.name
        assert fixes["defer"] == spec.fix_s2, spec.name
        assert fixes["stop"] == spec.fix_s3, spec.name


def test_table1_totals(corpus_evaluation):
    grand = corpus_evaluation.totals()
    assert grand["bmoc_c"] == (147, 46)
    assert grand["bmoc_m"] == (2, 5)
    assert grand["forget_unlock"] == (32, 15)
    assert grand["double_lock"] == (19, 16)
    assert grand["conflict_lock"] == (9, 5)
    assert grand["struct_field"] == (33, 31)
    assert grand["fatal"] == (26, 0)
    fixes = corpus_evaluation.fix_totals()
    assert fixes == {"buffer": 99, "defer": 4, "stop": 21}
    assert sum(fixes.values()) == 124


def test_fp_breakdown(corpus_evaluation):
    causes = corpus_evaluation.fp_causes()
    assert causes == {"infeasible-path": 20, "alias-analysis": 17, "call-graph": 14}
    assert sum(causes.values()) == 51


def test_coverage_33_of_49():
    outcomes = [
        (case, bool(detect_bmoc(build_program(case.source, case.case_id + ".go")).reports))
        for case in build_bug_set()
    ]
    assert sum(1 for _, got in outcomes if got) == 33
    for case, got in outcomes:
        assert got == case.detectable, case.case_id
    missed_reasons = Counter(
        case.miss_reason for case, got in outcomes if not got and case.miss_reason
    )
    assert missed_reasons == Counter(
        {
            "unmodeled-primitive": 9,
            "needs-dynamic-value": 3,
            "critical-section-above-lca": 2,
            "nil-channel-dataflow": 2,
        }
    )
