"""Batched, incremental constraint solving for one primitive.

The BMOC detector decides Φ_R ∧ Φ_B once per (path combination,
suspicious group) pair, and every such decision goes through a
:class:`SolverSession` — the detector's one solve path. For one channel
that is typically dozens of small systems whose goroutine paths share
long identical prefixes (truncation at a stop point erases exactly the
part of a path that differed). The session exploits that redundancy
three ways:

* **shared difference-closure** — the per-combination structure every
  group's encoding re-derives (schedulable-event positions, spawn linkage,
  primitive identities, repeat-attempt estimates) is computed once per
  combination and shared by all of its groups;
* **interning** — path/constraint structures are hash-consed into
  descriptor tuples: an event descriptor is built once per event object, a
  truncated path slice once per (path, stop) pair (``solver.intern.hit``
  counts slice reuse), so identical subformulas are keyed without
  re-walking their events;
* **batched incremental solving** — all of one primitive's group solves
  run inside one session with push/pop group scopes; a group whose
  *structural key* (the interned formula plus its node budget) was already
  decided reuses the verdict (``solver.session.reuse``) instead of
  re-encoding and re-searching.

Equivalence argument (DESIGN.md §14): the decision procedure is a
deterministic function of the constraint-system *structure* — per-goroutine
descriptor sequences in combination order, spawn linkage, stop descriptors
with their attempt estimates, buffer sizes, and the per-solve node budget.
Two groups with equal structural keys therefore produce identical
``SolveOutcome``s (same verdict, same node count, same clause count, and a
witness whose rendering — occ ids, match pairs, final states keyed by
primitive label — is identical). Primitive identity is interned per
session *by object*, so distinct primitives that merely share a label can
never collide. The memo is only ever a cache of ``encode`` +
``solve_detailed`` on the same inputs; a miss runs exactly those two
calls, and the solver-parity tests compare every session verdict with a
from-scratch ``encode`` + ``solve_detailed``.

The session lives for one primitive's analysis (one engine shard), so no
state crosses shards; budgets stay per group because
the caller still charges ``outcome.nodes`` for hits and misses alike —
the memoized node count equals what a fresh search would have spent.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.constraints.encoding import StopPoint, encode, repeat_attempts
from repro.constraints.solver import SolveOutcome, _wg_delta, solve_detailed
from repro.detector.paths import (
    OpEvent,
    Path,
    PathCombination,
    SelectChoice,
    SpawnEvent,
)
from repro.obs import NULL, STAGE_ENCODE, STAGE_SOLVE

class SolverSession:
    """One primitive's incremental solver: interned structures + verdict memo."""

    def __init__(self, collector=None):
        self.collector = collector or NULL
        # hash-consing tables (all keyed by object identity; event, path and
        # primitive objects are stable for the lifetime of one analysis)
        self._prim_index: Dict[int, int] = {}
        self._prims: List[object] = []  # keeps interned prims alive
        self._event_desc: Dict[int, tuple] = {}
        self._sched: Dict[int, Tuple[Tuple[int, tuple], ...]] = {}
        self._pos: Dict[int, Dict[int, int]] = {}
        self._slices: Dict[Tuple[int, int], tuple] = {}
        self._attempts: Dict[Tuple[int, int], Optional[int]] = {}
        self._combo_spawns: Dict[int, tuple] = {}
        self._combo_gid_pos: Dict[int, Dict[int, int]] = {}
        # the verdict memo and the push/pop scope stack
        self._memo: Dict[tuple, SolveOutcome] = {}
        self._scopes: List[tuple] = []
        self.reuse = 0
        self.intern_hits = 0
        self.solves = 0

    # -- hash-consing ------------------------------------------------------

    def _prim_key(self, prim) -> int:
        key = self._prim_index.get(id(prim))
        if key is None:
            key = len(self._prims)
            self._prim_index[id(prim)] = key
            self._prims.append(prim)
        return key

    def _describe(self, event) -> tuple:
        desc = self._event_desc.get(id(event))
        if desc is not None:
            return desc
        if isinstance(event, OpEvent):
            delta = _wg_delta(event) if event.kind == "add" else 0
            desc = ("op", event.kind, self._prim_key(event.prim), delta)
        elif isinstance(event, SelectChoice):
            chosen = event.chosen
            if isinstance(chosen, OpEvent):
                chosen = self._describe(chosen)
            desc = (
                "sel",
                chosen,
                tuple(self._describe(case) for case in event.pset_cases),
                event.has_other_cases,
                event.has_default,
            )
        elif isinstance(event, SpawnEvent):
            desc = ("go",)
        else:  # branch/loop events are not schedulable; never keyed
            desc = ("?",)
        self._event_desc[id(event)] = desc
        return desc

    def _sched_events(self, path: Path) -> Tuple[Tuple[int, tuple], ...]:
        """(full-event index, descriptor) for each schedulable event."""
        cached = self._sched.get(id(path))
        if cached is None:
            cached = tuple(
                (i, self._describe(e))
                for i, e in enumerate(path.events)
                if isinstance(e, (OpEvent, SelectChoice, SpawnEvent))
            )
            self._sched[id(path)] = cached
            self._pos[id(path)] = {
                id(e): i for i, e in enumerate(path.events)
            }
        return cached

    def _event_position(self, path: Path, event) -> int:
        self._sched_events(path)
        return self._pos[id(path)][id(event)]

    def _slice_key(self, path: Path, limit: int) -> tuple:
        """Interned descriptor tuple of ``path``'s schedulable prefix."""
        key = (id(path), limit)
        got = self._slices.get(key)
        if got is not None:
            self.intern_hits += 1
            if self.collector:
                self.collector.count("solver.intern.hit")
            return got
        sched = self._sched_events(path)
        got = tuple(desc for index, desc in sched if index < limit)
        self._slices[key] = got
        return got

    def _stop_attempts(self, path: Path, stop: StopPoint) -> Optional[int]:
        key = (id(path), id(stop.event))
        if key not in self._attempts:
            self._attempts[key] = repeat_attempts(
                path, stop.event, self._event_position(path, stop.event)
            )
        return self._attempts[key]

    # -- the shared per-combination closure --------------------------------

    def _combo_closure(self, combo: PathCombination) -> Tuple[tuple, Dict[int, int]]:
        """Spawn-linkage tuple + gid→position map, derived once per combo."""
        spawns = self._combo_spawns.get(id(combo))
        if spawns is None:
            gid_pos = {g.gid: i for i, g in enumerate(combo.goroutines)}
            spawns = tuple(
                (
                    gid_pos[g.parent_gid] if g.parent_gid is not None else -1,
                    g.spawn_index if g.spawn_index is not None else -1,
                )
                for g in combo.goroutines
            )
            self._combo_spawns[id(combo)] = spawns
            self._combo_gid_pos[id(combo)] = gid_pos
        return spawns, self._combo_gid_pos[id(combo)]

    # -- keys, scopes, solving ---------------------------------------------

    def group_key(
        self,
        combo: PathCombination,
        group: List[StopPoint],
        max_nodes: Optional[int] = None,
    ) -> tuple:
        """Structural key of one (combination, group, budget) solve.

        Building the key also fixes every stop's ``attempts`` estimate (the
        same value :func:`repro.constraints.encoding.encode` would derive),
        so memo hits leave the group's StopPoints identical to a miss.
        """
        spawns, gid_pos = self._combo_closure(combo)
        stop_by_gid = {stop.gid: stop for stop in group}
        paths: List[tuple] = []
        for g in combo.goroutines:
            stop = stop_by_gid.get(g.gid)
            limit = (
                self._event_position(g.path, stop.event)
                if stop is not None
                else len(g.path.events)
            )
            paths.append(self._slice_key(g.path, limit))
        stops = []
        for stop in group:
            g = combo.goroutines[gid_pos[stop.gid]]
            stop.attempts = self._stop_attempts(g.path, stop)
            stops.append((gid_pos[stop.gid], self._describe(stop.event), stop.attempts))
        return (tuple(paths), spawns, tuple(stops), max_nodes)

    @property
    def depth(self) -> int:
        """Current push/pop nesting (0 when no group scope is open)."""
        return len(self._scopes)

    def push_group(self, key: tuple) -> None:
        self._scopes.append(key)

    def pop_group(self) -> tuple:
        return self._scopes.pop()

    def solve_group(
        self,
        combo: PathCombination,
        group: List[StopPoint],
        max_nodes: Optional[int] = None,
    ) -> SolveOutcome:
        """Decide one group inside this session.

        The group's constraints live in their own push/pop scope: they are
        popped before returning, so nothing a group asserted survives into
        the next group's solve (the no-leakage property the session tests
        assert). ``max_nodes`` is the *per-group* budget and part of the
        memo key — a group re-solved under a smaller budget cannot reuse a
        verdict obtained under a larger one.
        """
        obs = self.collector
        key = self.group_key(combo, group, max_nodes)
        self.push_group(key)
        try:
            hit = self._memo.get(key)
            if hit is not None:
                self.reuse += 1
                if obs:
                    obs.count("solver.session.reuse")
                return hit
            start = time.perf_counter()
            with obs.span(STAGE_ENCODE):
                system = encode(combo, group, obs if obs else None)
            with obs.span(STAGE_SOLVE):
                outcome = solve_detailed(
                    system, obs if obs else None, max_nodes=max_nodes
                )
            self.solves += 1
            if obs:
                obs.observe("solver.batched.seconds", time.perf_counter() - start)
            self._memo[key] = outcome
            return outcome
        finally:
            self.pop_group()
