"""Solver parity: the SolverSession must reproduce from-scratch solving.

Detection decides every (combination, suspicious group) pair through one
:class:`repro.constraints.session.SolverSession` per primitive — interned
structures, a verdict memo, push/pop group scopes. The memo is a
shortcut, so it is checked differentially against the *classic*
reference, which encodes and solves every group from scratch
(``tests.conftest.solve_from_scratch``). Over the whole evaluation bug
set the two must agree per group, and per run down to the rendered
report text, the solver outcomes, the cost table and the detection
statistics.
"""

from __future__ import annotations

import pytest

from repro.corpus.bugset import build_bug_set
from repro.detector.gcatch import run_gcatch
from repro.obs import Collector
from repro.report.table import render_bug_costs
from repro.ssa.builder import build_program
from tests.conftest import solve_from_scratch
from tests.test_constraints_session import outcome_fingerprint, recorded_sessions

BUG_SET = build_bug_set()


def detect_fingerprint(program):
    """Everything the solve path could plausibly perturb."""
    result = run_gcatch(program)
    reports = sorted(result.all_reports(), key=lambda r: r.render())
    stats = result.bmoc.stats
    return {
        "renders": [r.render() for r in reports],
        "outcomes": [r.solver_outcome for r in reports],
        "costs": render_bug_costs(reports),
        "stats": (
            stats.channels_analyzed,
            stats.combinations,
            stats.groups_checked,
            stats.solver_calls,
            stats.sat_results,
            stats.solver_timeouts,
        ),
    }


@pytest.mark.parametrize("case", BUG_SET, ids=[c.case_id for c in BUG_SET])
def test_batched_matches_classic_serial(case, monkeypatch):
    """Per group: every session verdict equals a from-scratch solve."""
    for session in recorded_sessions(monkeypatch, case.source, case.case_id):
        for combo, group, max_nodes, outcome in session.calls:
            classic = solve_from_scratch(combo, group, max_nodes)
            assert outcome_fingerprint(outcome) == outcome_fingerprint(classic)


@pytest.mark.parametrize("case", BUG_SET, ids=[c.case_id for c in BUG_SET])
def test_batched_matches_classic_sharded(case, request):
    """Per run: the engine's shards (one session each) give the same
    bytes as a run whose every group is solved from scratch."""
    program = build_program(case.source, case.case_id)
    batched = detect_fingerprint(program)
    request.getfixturevalue("classic_solving")
    classic = detect_fingerprint(program)
    assert batched == classic


def test_session_actually_engages():
    """Detection must exercise the session machinery, not bypass it:
    across the bug set the interner and the verdict memo both fire, and
    the batched-solve histogram records wall time."""
    collector = Collector("solver-parity")
    for case in BUG_SET:
        program = build_program(case.source, case.case_id)
        run_gcatch(program, collector=collector)
    assert collector.counters.get("solver.intern.hit", 0) > 0
    assert collector.counters.get("solver.session.reuse", 0) > 0
    assert "solver.batched.seconds" in collector.dists
