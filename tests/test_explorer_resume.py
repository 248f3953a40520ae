"""Resuming a run from a snapshot must be indistinguishable from replaying it.

The explorer starts each child run from an interpreter snapshot taken at
its parent's branch point instead of re-executing the prefix from ``main``.
These tests hold that shortcut to the answer of the long way round:

* golden counts — runs, pruned runs, backtracks, total steps, completeness
  and outcomes over the 49-case bug set (original and patched programs)
  and the first 40 seed-0 fuzz programs equal those the prefix-replaying
  explorer recorded (``tests/data/explorer_golden.json``);
* replay — every outcome's choice trace, replayed from scratch, gives an
  equal ``ExecutionResult``;
* branch points — a resumed work item and the same item run from scratch
  with its whole prefix forced agree on the result, on every branch point
  and on the state each branch point's snapshot holds;
* clones — a snapshot copies every attribute of every runtime class,
  keeps aliasing, shares only immutable IR, and restored states never
  write into the snapshot or into each other.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from pathlib import Path

import pytest

from repro.api import Project
from repro.corpus.bugset import build_bug_set
from repro.fuzz.campaign import CampaignConfig
from repro.fuzz.generator import generate_program
from repro.runtime import values
from repro.runtime.choices import RandomPolicy
from repro.runtime.explorer import (
    ReplayScheduler,
    _Bounds,
    _children,
    _DirectedPolicy,
    _PrunedRun,
    _run_item,
    _WorkItem,
    explore,
    outcome_signature,
)
from repro.runtime.interp import Frame, Goroutine, Interpreter, Offer
from repro.runtime.scheduler import drive, run_program, start_run
from repro.runtime.snapshot import _CLONERS
from repro.ssa import ir
from repro.ssa.builder import build_program
from tests.conftest import build

GOLDEN = json.loads((Path(__file__).parent / "data" / "explorer_golden.json").read_text())

# validation's explorer bounds (validate_patch) and the bounded matrix's
BUG_BOUNDS = {"max_runs": 512, "max_steps": 50_000}
BOUND_BOUNDS = {"max_runs": 64, "max_steps": 5_000}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _summary(exploration) -> dict:
    return {
        "runs": exploration.runs,
        "pruned_runs": exploration.pruned_runs,
        "backtracks": exploration.backtracks,
        "total_steps": exploration.total_steps,
        "complete": exploration.complete,
        "signatures": _digest([outcome_signature(o) for o in exploration.outcomes]),
        "outcomes": _digest(
            [
                (
                    o.seed,
                    o.steps,
                    sorted(o.goroutine_steps.items()),
                    [(c.kind, c.options, c.index) for c in o.choice_trace],
                )
                for o in exploration.outcomes
            ]
        ),
    }


@pytest.fixture(scope="module")
def inputs():
    """key -> (program, entry, explore kwargs), in golden-file key order."""
    table = {}
    for case in build_bug_set():
        entry = case.driver or "main"
        original = build_program(case.source, case.case_id + ".go")
        table[f"bug:{case.case_id}:original"] = (original, entry, BUG_BOUNDS)
        project = Project.from_source(case.source, case.case_id + ".go")
        bugs = project.detect().bmoc.bmoc_channel_bugs()
        fix = project.fix(bugs[0]) if bugs else None
        if fix is not None and fix.fixed:
            patched = build_program(fix.patch.apply(), "patched.go")
            table[f"bug:{case.case_id}:patched"] = (patched, entry, BUG_BOUNDS)
        for bound in (0, 1, 2):
            for prune in (True, False):
                key = f"bound:{case.case_id}:{bound}:{'prune' if prune else 'noprune'}"
                kwargs = dict(BOUND_BOUNDS, preemption_bound=bound, prune=prune)
                table[key] = (original, entry, kwargs)
    config = CampaignConfig()
    for index in range(40):
        program = generate_program(0, index)
        ir_program = build_program(program.source, program.name + ".go")
        kwargs = {
            "max_runs": config.max_runs,
            "max_steps": config.max_steps,
            "max_total_steps": config.max_total_steps,
        }
        table[f"fuzz:{index}"] = (ir_program, program.entry, kwargs)
    return table


@pytest.fixture(scope="module")
def explorations(inputs):
    return {
        key: explore(program, entry=entry, **kwargs)
        for key, (program, entry, kwargs) in inputs.items()
    }


# ---------------------------------------------------------------------------
# golden counts and replay


@pytest.mark.parametrize("group", ["bug", "fuzz", "bound"])
def test_explorations_match_the_golden_counts(explorations, group):
    golden = {k: v for k, v in GOLDEN["explorations"].items() if k.startswith(group + ":")}
    got = {k: _summary(e) for k, e in explorations.items() if k.startswith(group + ":")}
    assert sorted(got) == sorted(golden)
    mismatched = {k: (got[k], golden[k]) for k in golden if got[k] != golden[k]}
    assert not mismatched


def test_every_outcome_replays_to_an_equal_result(inputs, explorations):
    checked = 0
    for key, exploration in explorations.items():
        program, entry, kwargs = inputs[key]
        for outcome in exploration.outcomes:
            replayed = ReplayScheduler(
                program,
                outcome.choice_trace,
                entry=entry,
                seed=outcome.seed,
                max_steps=kwargs["max_steps"],
            ).run()
            assert replayed == outcome, (key, outcome.seed)
            checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# branch points: resumed vs from scratch

_ATOMS = (int, float, bool, str, type(None))
# a snapshot is detached: resume() attaches the policy and the collector
_DETACHED = frozenset({"policy", "collector"})


def _attrs(obj) -> dict:
    if hasattr(obj, "__dict__"):
        return dict(vars(obj))
    return {name: getattr(obj, name) for name in type(obj).__slots__ if hasattr(obj, name)}


def _dump(obj, ids=None, types=None):
    """Canonical structure of a runtime state; identity becomes numbering.

    Two states dump equal iff they hold equal values with the same aliasing
    and share the same IR objects. ``types`` collects every class reached.
    """
    ids = {} if ids is None else ids
    if isinstance(obj, _ATOMS):
        return obj
    if type(obj).__module__ == ir.__name__:
        return ("ir", id(obj))
    if isinstance(obj, tuple):
        return ("tuple", [_dump(x, ids, types) for x in obj])
    if id(obj) in ids:
        return ("ref", ids[id(obj)])
    ids[id(obj)] = len(ids)
    if types is not None:
        types.add(type(obj))
    if isinstance(obj, (list, deque)):
        return (type(obj).__name__, [_dump(x, ids, types) for x in obj])
    if isinstance(obj, dict):
        return ("dict", [(k, _dump(v, ids, types)) for k, v in obj.items()])
    fields = sorted(_attrs(obj).items())
    return (
        type(obj).__name__,
        [(name, _dump(v, ids, types)) for name, v in fields if name not in _DETACHED],
    )


def _mutables(obj, acc=None) -> dict:
    """id -> object for every mutable object reachable from ``obj``."""
    acc = {} if acc is None else acc
    if isinstance(obj, _ATOMS) or type(obj).__module__ == ir.__name__:
        return acc
    if isinstance(obj, tuple):
        for x in obj:
            _mutables(x, acc)
        return acc
    if id(obj) in acc:
        return acc
    acc[id(obj)] = obj
    if isinstance(obj, (list, deque)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = list(obj.values())
    else:
        # Frame.dsts is the call's IR destination list, shared on purpose
        children = [v for k, v in _attrs(obj).items() if k not in _DETACHED and k != "dsts"]
    for child in children:
        _mutables(child, acc)
    return acc


def _state_of(resume) -> tuple:
    snap = resume.snapshot
    return (
        _dump(snap.interp),
        snap.ids,
        snap.main_gid,
        snap.steps,
        snap.drain_steps,
        snap.phase,
        resume.base,
        resume.preemptions,
        resume.last_gid,
        resume.trace[: resume.base],
    )


def _from_scratch(program, entry, item, bounds, seed, max_steps):
    prefix = [] if item.resume is None else item.resume.trace[: item.resume.base]
    policy = _DirectedPolicy(prefix + item.choices, item.sleep, bounds)
    try:
        result = run_program(program, entry=entry, seed=seed, max_steps=max_steps, policy=policy)
    except _PrunedRun:
        result = None
    return policy, result


BRANCH_CHECK_RUNS = 12


def _branch_check_inputs(inputs):
    """The golden inputs, plus the fuzz programs under a preemption bound."""
    for key, value in inputs.items():
        if not key.startswith("bound:") or key.endswith(":2:noprune"):
            yield key, value
    for key, (program, entry, kwargs) in inputs.items():
        if key.startswith("fuzz:"):
            bounded = dict(kwargs, preemption_bound=1, prune=False)
            yield key + ":1:noprune", (program, entry, bounded)


def test_resumed_items_match_items_run_from_scratch(inputs):
    checked_branch_points = 0
    kinds = set()
    for key, (program, entry, kwargs) in _branch_check_inputs(inputs):
        bounds = _Bounds(
            max_branch=96,
            preemption_bound=kwargs.get("preemption_bound"),
            prune=kwargs.get("prune", True),
        )
        # the check is about equivalence, so the never-ending cases need
        # not run to the validation bound
        max_steps = min(kwargs["max_steps"], BOUND_BOUNDS["max_steps"])
        stack = [_WorkItem(resume=None, choices=[], sleep={})]
        for seed in range(BRANCH_CHECK_RUNS):
            if not stack:
                break
            item = stack.pop()
            scratch_policy, scratch = _from_scratch(program, entry, item, bounds, seed, max_steps)
            policy, result, inherited = _run_item(
                program, entry, item, bounds, seed, max_steps, None, None
            )
            assert result == scratch, (key, seed)
            assert inherited == (0 if item.resume is None else item.resume.snapshot.steps)
            assert policy.truncated == scratch_policy.truncated, (key, seed)
            assert policy.branch_points == scratch_policy.branch_points, (key, seed)
            for bp, scratch_bp in zip(policy.branch_points, scratch_policy.branch_points):
                assert _state_of(bp.resume) == _state_of(scratch_bp.resume), (key, seed, bp.pos)
                kinds.add(bp.kind)
                checked_branch_points += 1
            stack.extend(_children(policy))
    assert kinds == {"sched", "select"}
    assert checked_branch_points > 1000


# ---------------------------------------------------------------------------
# clones

RICH = """package main

type box struct {
	c chan int
	n int
}

func TestRich(t *testing.T) {
	ctx, cancel := context.WithCancel()
	var mu sync.Mutex
	var wg sync.WaitGroup
	var c sync.Cond
	ch := make(chan int, 2)
	s := make([]chan int, 2)
	s[0] = ch
	b := box{c: ch, n: 1}
	ch <- 7
	wg.Add(2)
	go func() {
		defer wg.Done()
		mu.Lock()
		b.n = b.n + 1
		mu.Unlock()
		c.Wait()
	}()
	go func() {
		defer wg.Done()
		x := s[0]
		select {
		case <-ctx.Done():
			println("cancelled")
		case v := <-x:
			println(v)
		}
	}()
	unb := make(chan int)
	go func() {
		defer func() {
			println("deferred")
		}()
		unb <- b.n
	}()
	mu.Lock()
	defer mu.Unlock()
	println(b.n)
	cancel()
	c.Signal()
	println(<-unb)
	wg.Wait()
	t.Fatal("done")
}
"""

RUNTIME_CLASSES = {
    cls
    for cls in vars(values).values()
    if isinstance(cls, type)
    and cls.__module__ == values.__name__
    and not issubclass(cls, BaseException)
    and cls is not values._RuntimeIds
} | {Interpreter, Goroutine, Frame, Offer}


class _SnapshotEveryStep(RandomPolicy):
    """Snapshot the run at every sched decision and check the copy on the spot."""

    def __init__(self, seed: int):
        super().__init__(random.Random(seed))
        self.types: set = set()
        self.checked = 0

    def bind(self, run) -> None:
        self.run = run

    def _decide(self, kind, options, interp):
        if kind == "sched":
            copy = self.run.snapshot().interp
            assert _dump(interp, types=self.types) == _dump(copy)
            assert not set(_mutables(interp)) & set(_mutables(copy))
            self.checked += 1
        return super()._decide(kind, options, interp)


def _rich_run(policy, seed=0):
    state = start_run(build(RICH), "TestRich", seed, arg_kinds={"t": "testing"}, policy=policy)
    return drive(state, max_steps=2_000, seed=seed)


def test_every_runtime_class_has_a_cloner():
    assert RUNTIME_CLASSES <= set(_CLONERS)


@pytest.mark.parametrize("seed", range(6))
def test_snapshot_copies_every_attribute_and_keeps_aliasing(seed):
    policy = _SnapshotEveryStep(seed)
    result = _rich_run(policy, seed)
    assert result.test_failed or result.blocked_forever or result.panicked
    assert policy.checked > 20
    if seed == 0:
        # one schedule reaches a live instance of every runtime class
        assert RUNTIME_CLASSES <= policy.types


def test_restored_states_never_touch_the_snapshot_or_each_other():
    class Pause(RandomPolicy):
        def bind(self, run):
            self.run = run

        def _decide(self, kind, options, interp):
            if kind == "sched" and len(self.trace) == 25:
                self.paused = self.run.snapshot()
            return super()._decide(kind, options, interp)

    pause = Pause(random.Random(3))
    _rich_run(pause, 3)
    snap = pause.paused
    before = _dump(snap.interp)

    first = snap.resume(RandomPolicy(random.Random(9)))
    first_result = drive(first, max_steps=2_000, seed=9)
    assert first_result.steps > snap.steps
    assert _dump(snap.interp) == before

    second = snap.resume(RandomPolicy(random.Random(9)), take=True)
    assert snap.interp is None  # handed over: no second restore
    assert _dump(second.interp) == before
    assert drive(second, max_steps=2_000, seed=9) == first_result


def test_unknown_value_types_are_not_shared():
    class Pause(RandomPolicy):
        def bind(self, run):
            self.run = run

    policy = Pause(random.Random(0))
    state = start_run(build(RICH), "TestRich", 0, arg_kinds={"t": "testing"}, policy=policy)
    state.main.frame.env.vars["alien"] = object()
    with pytest.raises(TypeError, match="cannot snapshot"):
        state.snapshot()
