"""Scheduling loop and execution results for the MiniGo runtime.

``run_program`` is the dynamic oracle used throughout the reproduction: it
plays the role of the paper's unit-test-plus-random-sleep validation
(§5.1's patch-correctness methodology). A seeded RNG picks which runnable
goroutine steps next, so distinct seeds explore distinct interleavings and
repeated seeds replay identical executions.

There is one scheduling loop, :func:`drive`, over a small :class:`RunState`
(interpreter, main goroutine, step counts, phase). ``run_program`` starts a
state and drives it; trace replay does the same under a replay policy, and
the explorer also drives states resumed from a :class:`RunSnapshot`.

Outcomes of interest:

* ``leaked`` — goroutines still blocked when the program finishes: the
  dynamic symptom of a BMOC bug (a child goroutine parked forever);
* ``global_deadlock`` — every live goroutine blocked (Go's fatal
  "all goroutines are asleep" error);
* ``panicked`` / ``output`` / per-goroutine step counts for patch-overhead
  measurement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.runtime.choices import Choice, ChoicePolicy, RandomPolicy, ReplayPolicy
from repro.runtime.interp import BLOCKED, RUNNABLE, Goroutine, Interpreter
from repro.runtime.snapshot import copy_interpreter
from repro.runtime.values import (
    Channel,
    ContextVal,
    Env,
    SliceVal,
    StructVal,
    TestingT,
    reset_runtime_ids,
    restore_runtime_ids,
    runtime_ids,
)
from repro.ssa import ir


@dataclass
class LeakedGoroutine:
    gid: int
    function: str
    blocked_line: int
    blocked_kind: str


@dataclass
class ExecutionResult:
    """Everything observable about one seeded execution."""

    seed: int
    steps: int = 0
    output: List[str] = field(default_factory=list)
    leaked: List[LeakedGoroutine] = field(default_factory=list)
    global_deadlock: bool = False
    deadlock_lines: List[int] = field(default_factory=list)
    panicked: bool = False
    panic_message: Optional[str] = None
    test_failed: bool = False
    hit_step_limit: bool = False
    goroutine_steps: Dict[int, int] = field(default_factory=dict)
    # every scheduling/select decision this execution made, in order;
    # feeding it back through a ReplayPolicy reproduces the run exactly
    choice_trace: List[Choice] = field(default_factory=list)

    @property
    def blocked_forever(self) -> bool:
        """True when some goroutine ended up permanently stuck."""
        return self.global_deadlock or bool(self.leaked)

    def blocked_lines(self) -> List[int]:
        lines = list(self.deadlock_lines)
        lines.extend(leak.blocked_line for leak in self.leaked)
        return sorted(set(lines))


def _synthesize_arg(kind: str) -> Any:
    """Default argument values when running an entry function directly."""
    if kind == "testing":
        return TestingT()
    if kind == "context":
        return ContextVal(Channel(0, "unit"))
    if kind == "chan":
        return Channel(0, "any")
    if kind == "int":
        return 0
    if kind == "bool":
        return False
    if kind == "string":
        return ""
    if kind.startswith("slice"):
        return SliceVal([])
    if kind.startswith("struct:"):
        return StructVal(kind.split(":", 1)[1])
    return None


#: run phases: main is still running; main is done and the rest drain
MAIN = "main"
DRAIN = "drain"


@dataclass
class RunState:
    """One execution in progress: everything the run loop needs to go on.

    ``steps`` counts steps taken while ``main`` ran (the logical step count
    of :class:`ExecutionResult`); ``drain_steps`` those taken after it
    exited, which only spend the same ``max_steps`` budget.
    """

    interp: Interpreter
    main: Goroutine
    steps: int = 0
    drain_steps: int = 0
    phase: str = MAIN

    def snapshot(self, mid_step: Optional[int] = None) -> "RunSnapshot":
        """Copy this state; ``mid_step`` as in :func:`copy_interpreter`."""
        return RunSnapshot(
            interp=copy_interpreter(self.interp, mid_step),
            ids=runtime_ids(),
            main_gid=self.main.gid,
            steps=self.steps,
            drain_steps=self.drain_steps,
            phase=self.phase,
        )


@dataclass
class RunSnapshot:
    """A paused run: resume it any number of times, or hand it over once."""

    interp: Optional[Interpreter]  # detached copy, never stepped; None once taken
    ids: Dict[str, int]  # this thread's runtime-id counters
    main_gid: int
    steps: int
    drain_steps: int
    phase: str

    def resume(self, policy: ChoicePolicy, collector=None, take: bool = False) -> RunState:
        """A live run in this state, driven by ``policy``.

        ``take`` hands over the snapshot's own copy instead of copying it
        again; the snapshot cannot be resumed after that.
        """
        if take:
            interp, self.interp = self.interp, None
        else:
            interp = copy_interpreter(self.interp)
        interp.policy = policy
        interp.collector = collector
        restore_runtime_ids(self.ids)
        if collector is not None:
            # the goroutines this run inherits count as if it spawned them
            collector.count("run.goroutines", len(interp.goroutines))
        return RunState(
            interp=interp,
            main=interp.goroutines[self.main_gid],
            steps=self.steps,
            drain_steps=self.drain_steps,
            phase=self.phase,
        )


def start_run(
    program: ir.Program,
    entry: str = "main",
    seed: int = 0,
    arg_kinds: Optional[Dict[str, str]] = None,
    args: Optional[List[Any]] = None,
    policy: Optional[ChoicePolicy] = None,
    collector=None,
) -> RunState:
    """A fresh run of ``entry``, paused before its first step."""
    reset_runtime_ids()
    rng = random.Random(seed)
    if policy is None:
        policy = RandomPolicy(rng)
    interp = Interpreter(program, rng, policy=policy, collector=collector)
    entry_func = program.functions.get(entry)
    if entry_func is None:
        raise KeyError(f"no entry function {entry!r}")
    env = Env()
    if args is not None:
        for name, value in zip(entry_func.params, args):
            env.vars[name] = value
    else:
        kinds = arg_kinds or {}
        for name in entry_func.params:
            env.vars[name] = _synthesize_arg(kinds.get(name, "any"))
    return RunState(interp=interp, main=interp.spawn(entry_func, env))


def drive(state: RunState, max_steps: int, seed: int = 0, collector=None) -> ExecutionResult:
    """Run ``state`` to its end: the one scheduling loop of the runtime.

    While ``main`` runs, every runnable goroutine may step; once it exits,
    the rest run until quiescent, and whatever is still blocked then is
    blocked *forever* — the leaked goroutines a BMOC bug produces. Both
    phases spend one ``max_steps`` budget. ``seed`` only labels the result.
    """
    interp = state.interp
    main = state.main
    policy = interp.policy
    policy.bind(state)
    result = ExecutionResult(seed=seed)
    while True:
        if state.phase == MAIN:
            if state.steps >= max_steps:
                result.hit_step_limit = True
                break
            if interp.panicked:
                break
            if main.done:
                state.phase = DRAIN
                continue
            runnable = _runnable(interp)
        else:
            if state.steps + state.drain_steps >= max_steps:
                result.hit_step_limit = True
                break
            if interp.panicked:
                break
            runnable = [g for g in _runnable(interp) if g is not main]
        if not runnable:
            if _only_sleepers(interp):
                interp.clock += 1  # let time pass
                continue
            result.global_deadlock = state.phase == MAIN
            break
        interp.step(runnable[policy.pick("sched", runnable, interp)])
        if state.phase == MAIN:
            state.steps += 1
        else:
            state.drain_steps += 1

    _collect(interp, main, result, state.steps)
    result.choice_trace = list(policy.trace)
    if collector:
        collector.count("run.programs")
        collector.count("run.steps", result.steps)
        if result.blocked_forever:
            collector.count("run.blocked")
        if result.panicked:
            collector.count("run.panics")
    return result


def run_program(
    program: ir.Program,
    entry: str = "main",
    seed: int = 0,
    max_steps: int = 100_000,
    arg_kinds: Optional[Dict[str, str]] = None,
    args: Optional[List[Any]] = None,
    policy: Optional[ChoicePolicy] = None,
    collector=None,
) -> ExecutionResult:
    """Execute ``entry`` under one schedule.

    Without an explicit ``policy`` the schedule is drawn from a seeded RNG
    (the paper's random-sleep-style sampling); passing a policy lets the
    replayer and the systematic explorer drive the very same loop.
    ``collector`` (a :class:`repro.obs.Collector`) receives run counters;
    when ``None`` the scheduling loop pays no instrumentation cost.
    """
    state = start_run(program, entry, seed, arg_kinds, args, policy, collector)
    return drive(state, max_steps, seed, collector)


def _runnable(interp: Interpreter) -> List[Goroutine]:
    return [
        g
        for g in interp.goroutines.values()
        if g.status == RUNNABLE and g.sleep_until <= interp.clock
    ]


def _only_sleepers(interp: Interpreter) -> bool:
    has_sleeper = False
    for goroutine in interp.goroutines.values():
        if goroutine.status == RUNNABLE:
            if goroutine.sleep_until > interp.clock:
                has_sleeper = True
            else:
                return False
    return has_sleeper


def _collect(interp: Interpreter, main: Goroutine, result: ExecutionResult, steps: int) -> None:
    result.steps = steps
    result.output = list(interp.output)
    result.panicked = interp.panicked
    result.panic_message = interp.panic_message
    result.test_failed = interp.test_failed
    result.goroutine_steps = {gid: g.steps for gid, g in interp.goroutines.items()}
    for gid, goroutine in interp.goroutines.items():
        if goroutine.status == BLOCKED:
            func_name = goroutine.frames[-1].func.name if goroutine.frames else "?"
            leak = LeakedGoroutine(
                gid=gid,
                function=func_name,
                blocked_line=goroutine.blocked_line,
                blocked_kind=goroutine.blocked_kind,
            )
            if result.global_deadlock:
                result.deadlock_lines.append(goroutine.blocked_line)
            if gid != main.gid or not result.global_deadlock:
                result.leaked.append(leak)


def explore_schedules(
    program: ir.Program,
    entry: str = "main",
    seeds: int = 20,
    max_steps: int = 100_000,
    args: Optional[List[Any]] = None,
    collector=None,
) -> List[ExecutionResult]:
    """Run many seeds, mimicking the paper's random-sleep stress validation."""
    return [
        run_program(
            program, entry=entry, seed=seed, max_steps=max_steps, args=args, collector=collector
        )
        for seed in range(seeds)
    ]


def any_blocks(results: List[ExecutionResult]) -> bool:
    return any(r.blocked_forever for r in results)


def replay_trace(
    program: ir.Program,
    trace: List[Choice],
    entry: str = "main",
    seed: int = 0,
    max_steps: int = 100_000,
    args: Optional[List[Any]] = None,
    collector=None,
) -> ExecutionResult:
    """Re-execute a recorded choice trace; the result is bit-identical.

    ``seed`` only labels the result (the RNG is never consulted during a
    replay); pass the original run's seed to make the dataclasses compare
    equal field-for-field.
    """
    result = run_program(
        program,
        entry=entry,
        seed=seed,
        max_steps=max_steps,
        args=args,
        policy=ReplayPolicy(trace),
        collector=collector,
    )
    if collector:
        collector.count("replay.runs")
        collector.count("replay.steps", result.steps)
    return result
