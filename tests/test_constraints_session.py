"""SolverSession property tests (repro.constraints.session).

Two properties, checked over 200 seeded fuzz-generator programs:

* **interning is invisible** — every group decided through a session
  produces exactly the outcome a fresh classic ``encode`` +
  ``solve_detailed`` produces on the same (combination, group): same
  verdict, same node and clause counts, and a byte-identical witness
  rendering. The interned attempt estimates the session writes into a
  group's StopPoints match what classic encoding re-derives.
* **push/pop leaks nothing** — every scope opened by ``solve_group`` is
  closed on return (depth ends at 0, even across memo hits), and a
  group's verdict is independent of the order groups were solved in: a
  fresh session fed the same groups in reverse produces the same
  outcomes, so nothing one group asserts survives into a sibling's
  scope.
"""

from __future__ import annotations

import pytest

from repro.constraints.encoding import encode
from repro.constraints.session import SolverSession
from repro.constraints.solver import solve_detailed
from repro.detector import bmoc as bmoc_module
from repro.detector.bmoc import detect_bmoc
from repro.fuzz import generate_program
from repro.ssa.builder import build_program

#: campaign seed reserved for this suite; (seed, index) replays any program
CAMPAIGN_SEED = 11
PROGRAM_COUNT = 200


class RecordingSession(SolverSession):
    """A SolverSession that journals every group solve it performs."""

    live = []

    def __init__(self, collector=None):
        super().__init__(collector)
        self.calls = []
        RecordingSession.live.append(self)

    def solve_group(self, combo, group, max_nodes=None):
        outcome = super().solve_group(combo, group, max_nodes=max_nodes)
        self.calls.append((combo, list(group), max_nodes, outcome))
        return outcome


def outcome_fingerprint(outcome):
    return (
        outcome.outcome,
        outcome.nodes,
        outcome.clauses,
        outcome.solution.render() if outcome.solution else None,
        sorted(outcome.solution.order_assignment().items())
        if outcome.solution
        else None,
    )


def recorded_sessions(monkeypatch, source, name):
    """Run one BMOC detect with journaling sessions; return them."""
    RecordingSession.live = []
    monkeypatch.setattr(bmoc_module, "SolverSession", RecordingSession)
    program = build_program(source, name)
    detect_bmoc(program)
    return [s for s in RecordingSession.live if s.calls]


def fuzz_indices():
    # spread across the campaign so template/mutation coverage is wide
    return range(PROGRAM_COUNT)


@pytest.mark.parametrize("chunk", range(10))
def test_session_outcomes_match_classic_encode_solve(chunk, monkeypatch):
    """Interned vs not: identical formulas, identical verdicts."""
    groups_checked = 0
    for index in fuzz_indices():
        if index % 10 != chunk:
            continue
        generated = generate_program(CAMPAIGN_SEED, index)
        sessions = recorded_sessions(monkeypatch, generated.source, generated.name)
        for session in sessions:
            assert session.depth == 0  # every push was popped
            for combo, group, max_nodes, outcome in session.calls:
                groups_checked += 1
                interned_attempts = [stop.attempts for stop in group]
                system = encode(combo, group, None)
                classic = solve_detailed(system, None, max_nodes=max_nodes)
                assert outcome_fingerprint(outcome) == outcome_fingerprint(classic)
                # classic encoding re-derived every attempts estimate the
                # session had interned; both must agree on the formula
                assert [stop.attempts for stop in group] == interned_attempts
    assert groups_checked > 0  # the campaign slice exercised the solver


@pytest.mark.parametrize("chunk", range(4))
def test_no_leakage_across_group_scopes(chunk, monkeypatch):
    """Order independence: re-solving the journal in reverse through a
    fresh session reproduces every verdict — no group's constraints leak
    into a sibling's scope, memo hits included."""
    replayed = 0
    for index in fuzz_indices():
        if index % 4 != chunk or index % 3 != 0:  # a 1-in-3 sample per chunk
            continue
        generated = generate_program(CAMPAIGN_SEED, index)
        sessions = recorded_sessions(monkeypatch, generated.source, generated.name)
        for session in sessions:
            fresh = SolverSession()
            for combo, group, max_nodes, outcome in reversed(session.calls):
                redo = fresh.solve_group(combo, group, max_nodes=max_nodes)
                assert outcome_fingerprint(redo) == outcome_fingerprint(outcome)
                assert fresh.depth == 0
                replayed += 1
    assert replayed > 0


def test_group_key_is_stable_and_memo_reuses(monkeypatch):
    """The structural key is deterministic, and re-solving the same group
    in the same session is a memo hit that returns the same object."""
    seen_reuse = False
    for index in (0, 3, 7, 12, 25):
        generated = generate_program(CAMPAIGN_SEED, index)
        sessions = recorded_sessions(monkeypatch, generated.source, generated.name)
        for session in sessions:
            # copy: the re-solve below appends to the journal being walked
            for combo, group, max_nodes, outcome in list(session.calls):
                key1 = session.group_key(combo, group, max_nodes)
                key2 = session.group_key(combo, group, max_nodes)
                assert key1 == key2
                before = session.reuse
                again = session.solve_group(combo, group, max_nodes=max_nodes)
                assert session.reuse == before + 1
                assert again is session._memo[key1]
                assert outcome_fingerprint(again) == outcome_fingerprint(outcome)
                seen_reuse = True
    assert seen_reuse
