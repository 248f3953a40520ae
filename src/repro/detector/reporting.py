"""Bug report structures shared by the BMOC detector and the traditional
checkers, carrying everything §5.2 says a GCatch report contains: the buggy
primitive, the blocking operations, the path combination, related call
chains, the analysis scope, and the solver's witness schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from repro.analysis.primitives import Primitive
from repro.constraints.solver import Solution
from repro.detector.paths import PathCombination


@dataclass
class BlockedOp:
    """One operation the detector proved can block forever."""

    kind: str
    line: int
    function: str
    prim_label: str

    def __str__(self) -> str:
        return f"{self.kind} on {self.prim_label} at {self.function}:{self.line}"


@dataclass
class BugReport:
    """A detected bug (BMOC or traditional)."""

    category: str  # 'bmoc-chan' | 'bmoc-mutex' | 'forget-unlock' | 'double-lock'
    #               | 'conflict-lock' | 'struct-race' | 'fatal-goroutine'
    primitive: Optional[Primitive]
    blocked_ops: List[BlockedOp] = field(default_factory=list)
    description: str = ""
    combination: Optional[PathCombination] = None
    stops: List[object] = field(default_factory=list)  # constraint StopPoints
    witness: Optional[Solution] = None
    scope_functions: FrozenSet[str] = frozenset()
    extra_lines: List[int] = field(default_factory=list)
    # solver effort behind this report (paper Table 6 analogue); zero for
    # the traditional checkers, which never touch the decision procedure
    clause_count: int = 0
    solver_nodes: int = 0
    solver_outcome: str = ""

    @property
    def lines(self) -> List[int]:
        lines = [op.line for op in self.blocked_ops]
        lines.extend(self.extra_lines)
        return sorted(set(lines))

    def identity(self) -> Tuple:
        """Dedup key: category + the (kind, label, function, line) of
        blocked ops. The function keeps same-line ops in different files
        of one package apart."""
        ops = tuple(
            sorted(
                (op.kind, op.prim_label, op.function, op.line)
                for op in self.blocked_ops
            )
        )
        return (self.category, ops, tuple(self.extra_lines))

    def render(self) -> str:
        parts = [f"[{self.category}] {self.description}"]
        for op in self.blocked_ops:
            parts.append(f"  blocks forever: {op}")
        if self.witness is not None:
            parts.append(f"  witness: {self.witness.render()}")
        if self.scope_functions:
            parts.append(f"  scope: {', '.join(sorted(self.scope_functions))}")
        if self.clause_count:
            parts.append(
                f"  solver effort: {self.clause_count} clause(s), "
                f"{self.solver_nodes} node(s), {self.solver_outcome or '?'}"
            )
        return "\n".join(parts)


def report_to_json(report: BugReport) -> dict:
    """The wire/checkpoint form of a report: what the daemon's ``detect``
    and fleet sweeps carry."""
    return {
        "category": report.category,
        "description": report.description,
        "lines": list(report.lines),
        "render": report.render(),
    }


def dedup_reports(reports: List[BugReport]) -> List[BugReport]:
    seen = set()
    out: List[BugReport] = []
    for report in reports:
        key = report.identity()
        if key in seen:
            continue
        seen.add(key)
        out.append(report)
    return out
