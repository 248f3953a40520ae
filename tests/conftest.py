"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.ssa.builder import build_program


def build(source: str, filename: str = "test.go"):
    """Parse + lower a MiniGo snippet (adds the package clause)."""
    if not source.lstrip().startswith("package"):
        source = "package main\n" + source
    return build_program(source, filename)


@pytest.fixture
def figure1_source() -> str:
    from repro.corpus.snippets import FIGURE1

    return FIGURE1.source


@pytest.fixture
def figure3_source() -> str:
    from repro.corpus.snippets import FIGURE3

    return FIGURE3.source


@pytest.fixture
def figure4_source() -> str:
    from repro.corpus.snippets import FIGURE4

    return FIGURE4.source


def solve_from_scratch(combo, group, max_nodes=None):
    """The reference a SolverSession must reproduce: one group encoded and
    solved with no interning and no verdict memo."""
    from repro.constraints.encoding import encode
    from repro.constraints.solver import solve_detailed

    return solve_detailed(encode(combo, group, None), None, max_nodes=max_nodes)


@pytest.fixture
def classic_solving(monkeypatch):
    """Detect with every group solved from scratch instead of through the
    session (the differential reference for the session's shortcuts)."""
    from repro.constraints.session import SolverSession

    monkeypatch.setattr(
        SolverSession,
        "solve_group",
        lambda self, combo, group, max_nodes=None: solve_from_scratch(
            combo, group, max_nodes
        ),
    )
