"""The four workloads: each builds its inputs from the seed, runs passes
through the program's public API, and checks every output.

A workload is driven as ``setup()`` (repeated, for a set-up median), then
``run_pass(k, tracer)`` in a closed loop of ``passes(seconds)`` passes,
then ``finish(passes)`` for the checks that are too slow for the timed
region. Every operation ends up as an :class:`Op` whose ``failed`` flag is
set by a check; nothing is retried or dropped.

Every timed region is measured twice: wall seconds, and CPU seconds of
the whole process (every thread, so the analysis service's worker counts
while the client waits on it). The end-to-end metrics use CPU seconds:
on a shared host, time spent waiting for a processor moves wall time
and leaves CPU time alone.
"""

from __future__ import annotations

import math
import os
import random
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import truth
from perfbench.tracer import NullTracer

NULL_TRACER = NullTracer()


class Stopwatch:
    """Wall and process CPU seconds of one ``with`` block."""

    wall = cpu = 0.0

    def __enter__(self) -> "Stopwatch":
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._wall
        self.cpu = time.process_time() - self._cpu


@dataclass
class Op:
    kind: str
    latency: float  # the timed part of the operation, wall seconds
    label: str = ""  # which input: app, case, request kind
    failed: bool = False
    note: str = ""  # the first check that failed
    cpu: float = 0.0  # the timed part of the operation, CPU seconds

    def fail(self, note: str) -> None:
        self.failed = True
        self.note = self.note or note


@dataclass
class Pass:
    index: int
    wall: float = 0.0  # wall seconds of timed work in this pass
    cpu: float = 0.0  # CPU seconds of timed work in this pass
    ops: List[Op] = field(default_factory=list)
    #: canonical outputs: equal across passes of equal content, traced or not
    summary: object = None
    #: report totals and other counts the pass itself observed
    counts: Dict[str, int] = field(default_factory=dict)
    #: traced runs: the tracer's counts recorded during this pass
    trace_counts: Dict[str, float] = field(default_factory=dict)


#: tail = the highest of these percentiles with >= 10 samples above it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def tail(values, cap: float = 100.0):
    """(percentile, value): the highest percentile up to ``cap`` that
    still has at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (p for p in TAIL_PERCENTILES if p <= cap):
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, float("nan")


class Workload:
    """Defaults: ``op_*`` time every operation of kind ``op_kind``, and a
    pass takes the median of the pass CPU times. ``tail_cap`` is the
    highest tail percentile every run of the workload reaches.

    With ``per_input``, every pass repeats the same inputs (apps, cases,
    fuzz programs), and an operation's time is its input's median over
    the run. A percentile of the raw times lands wherever the sorted
    inputs happen to meet (the p90 of 21 apps is the second-highest sample
    of the third-slowest app), so one slow sample moves it; the input's
    median does not.

    A run does a fixed number of passes, ``passes(seconds)``: about
    ``seconds`` of work at ``nominal_pass_s`` CPU seconds a pass (measured
    on a 2-vCPU x86-64 VM, Python 3.11), rounded to a whole multiple of
    ``pass_multiple``. The operations a run attempts, and which of them
    fail, then depend on the seed and the run length alone, not on how
    fast the machine happened to be.
    """

    name = ""
    op_kind = ""
    tail_cap = 100.0
    nominal_pass_s = 1.0
    pass_multiple = 1
    per_input = True

    def passes(self, seconds: float) -> int:
        rounds = max(1, round(seconds / (self.nominal_pass_s * self.pass_multiple)))
        return rounds * self.pass_multiple

    def latencies(self, passes: List[Pass]) -> List[float]:
        return self._times(passes, "cpu")

    def wall_latencies(self, passes: List[Pass]) -> List[float]:
        return self._times(passes, "latency")

    def _times(self, passes: List[Pass], attr: str) -> List[float]:
        ops = [op for p in passes for op in p.ops if op.kind == self.op_kind]
        if not self.per_input:
            return [getattr(op, attr) for op in ops]
        by_input: Dict[str, List[float]] = {}
        for op in ops:
            by_input.setdefault(op.label, []).append(getattr(op, attr))
        medians = {label: statistics.median(v) for label, v in by_input.items()}
        return [medians[op.label] for op in ops]

    def pass_seconds(self, passes: List[Pass]) -> float:
        return median(p.cpu for p in passes)

    def finish(self, passes: List[Pass]) -> Tuple[List[Op], List[str]]:
        return [], []

    def close(self) -> None:
        pass


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


# -- corpus-cold -------------------------------------------------------------------


def classify_app(app, result) -> Tuple[Dict[str, Tuple[int, int]], Dict[str, int], list]:
    """Match every report to the corpus's seeded instances.

    Returns per-category (real, fp) counts, FP causes, and the real
    BMOC-C channels' report lists (the bugs GFix is fed).
    """
    cells = {column: [0, 0] for column in truth.COLUMNS}
    causes: Dict[str, int] = {}
    real_channels = []
    by_channel: Dict[int, list] = {}
    for report in result.bmoc.reports:
        by_channel.setdefault(id(report.primitive), []).append(report)
    for reports in by_channel.values():
        category = (
            "bmoc-mutex" if any(r.category == "bmoc-mutex" for r in reports) else "bmoc-chan"
        )
        instance = app.instance_for_function(reports[0].primitive.site.function)
        if instance is not None and instance.real:
            cells[category][0] += 1
            if category == "bmoc-chan":
                real_channels.append(reports)
        else:
            cells[category][1] += 1
            cause = instance.fp_cause if instance is not None else "unknown"
            causes[cause] = causes.get(cause, 0) + 1
    for report in result.traditional:
        function = report.blocked_ops[0].function if report.blocked_ops else ""
        instance = app.instance_for_function(function)
        real = instance is not None and instance.real and instance.category == report.category
        cells[report.category][0 if real else 1] += 1
    return {k: tuple(v) for k, v in cells.items()}, causes, real_channels


def table1_row(cells: Dict[str, Tuple[int, int]], fixes: Dict[str, int]) -> tuple:
    return tuple(cells[c] for c in truth.COLUMNS) + (
        (fixes.get("buffer", 0), fixes.get("defer", 0), fixes.get("stop", 0)),
    )


def check_corpus_pass(rows: Dict[str, tuple], causes: Dict[str, int], ops: Dict[str, Op]) -> None:
    """Every Table 1 cell per app; the §5.2 FP breakdown over the pass."""
    for name, row in rows.items():
        if row != truth.TABLE1[name]:
            ops[name].fail(f"{name}: Table 1 row {row} != {truth.TABLE1[name]}")
    if set(rows) != set(truth.TABLE1) or causes != truth.FP_CAUSES:
        for op in ops.values():
            op.fail(f"pass: FP causes {causes} != {truth.FP_CAUSES}")


class CorpusCold(Workload):
    """Table 1: build → detect (no cache) → GFix on the real BMOC-C bugs."""

    name = "corpus-cold"
    op_kind = "app"  # one app's build + detect: the verdict
    tail_cap = 90.0
    nominal_pass_s = 0.95

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        import repro.detector.gcatch  # noqa: F401  (imports belong to set-up)
        import repro.fixer.dispatcher  # noqa: F401
        from repro.corpus.apps import build_corpus

        build_corpus.cache_clear()
        self.apps = build_corpus()
        self.loc = sum(app.loc() for app in self.apps)

    def run_pass(self, k: int, tr=NULL_TRACER) -> Pass:
        from repro.detector.gcatch import run_gcatch
        from repro.fixer.dispatcher import GFix
        from repro.ssa.builder import build_program

        order = list(self.apps)
        _rng(self.seed, "corpus", k).shuffle(order)
        result = Pass(index=k)
        rows: Dict[str, tuple] = {}
        causes: Dict[str, int] = {}
        ops: Dict[str, Op] = {}
        reports = 0
        for app in order:
            with tr.operation("app"):
                with Stopwatch() as verdict:
                    with tr.span("pipeline.build", layer=False):
                        program = build_program(app.source, f"{app.name}.go")
                    with tr.span("pipeline.detect", layer=False):
                        gcatch = run_gcatch(program)
                cells, app_causes, real_channels = classify_app(app, gcatch)
                fixes = {"buffer": 0, "defer": 0, "stop": 0}
                with Stopwatch() as fixing:
                    if real_channels:
                        gfix = GFix(program, app.source)
                        for channel_reports in real_channels:
                            fixed = None
                            for report in channel_reports:
                                fixed = gfix.fix(report)
                                if fixed.fixed:
                                    break
                            if fixed is not None and fixed.strategy in fixes:
                                fixes[fixed.strategy] += 1
            result.wall += verdict.wall + fixing.wall
            result.cpu += verdict.cpu + fixing.cpu
            ops[app.name] = Op("app", verdict.wall, app.name, cpu=verdict.cpu)
            rows[app.name] = table1_row(cells, fixes)
            for cause, n in app_causes.items():
                causes[cause] = causes.get(cause, 0) + n
            reports += len(gcatch.all_reports())
        check_corpus_pass(rows, causes, ops)
        result.ops = [ops[app.name] for app in order]
        result.summary = sorted(rows.items())
        result.counts = {"reports": reports, "fixes": sum(sum(r[7]) for r in rows.values())}
        return result

    def named(self, passes: List[Pass]) -> dict:
        verdicts = self.latencies(passes)
        tail_p, tail_s = tail(verdicts, self.tail_cap)
        return {
            "corpus_kloc_per_s": (self.loc / 1000.0) / self.pass_seconds(passes),
            "verdict_p50_s": median(verdicts),
            "verdict_tail_s": tail_s,
            "verdict_tail_percentile": tail_p,
            "verdict_samples": len(verdicts),
            "corpus_lines": self.loc,
        }


# -- bugset-fix --------------------------------------------------------------------


def check_bug_case(case_id: str, detected: bool, fixed: Optional[bool], validation) -> str:
    """Empty string when the case's outputs match the ground truth."""
    detectable, patched = truth.bugset_expectation(case_id)
    if detected != detectable:
        return f"{case_id}: reported={detected}, detectable={detectable}"
    if bool(fixed) != patched:
        return f"{case_id}: patched={bool(fixed)}, expected {patched}"
    if validation is not None:
        if validation.incident is not None:
            return f"{case_id}: validation incident {validation.incident.exception}"
        if not validation.static_clean:
            return f"{case_id}: patched program still reported"
        if validation.patched_leaks or validation.patched_panics:
            return f"{case_id}: {validation.patched_leaks} leaks after the patch"
        if validation.semantics_mismatches:
            return f"{case_id}: {len(validation.semantics_mismatches)} semantics mismatches"
    return ""


class BugsetFix(Workload):
    """The 49-case set: detect → fix the first BMOC-C report → validate.

    Validating one of the five Strategy-III loop patches takes ~12 s (two
    512-run explorations, then 25-seed sampling), so a pass validates every
    other patch and *one* loop patch, rotating with the seed and pass
    index; the five are instances of one template and cost the same
    explorer steps.
    """

    name = "bugset-fix"
    op_kind = "validate"  # one patch validation
    tail_cap = 75.0
    nominal_pass_s = 6.3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        import repro.api  # noqa: F401  (imports belong to set-up)
        import repro.fixer.validate  # noqa: F401
        from repro.corpus.bugset import build_bug_set

        self.cases = build_bug_set()

    def run_pass(self, k: int, tr=NULL_TRACER) -> Pass:
        from repro.api import Project
        from repro.fixer.validate import validate_patch

        order = list(self.cases)
        _rng(self.seed, "bugset", k).shuffle(order)
        loop_case = truth.LOOP_CASES[(self.seed + k) % len(truth.LOOP_CASES)]
        result = Pass(index=k)
        summary = []
        reports = 0
        for case in order:
            with tr.operation("case"), Stopwatch() as whole:
                with tr.span("pipeline.build", layer=False):
                    project = Project.from_source(case.source, f"{case.case_id}.go")
                with tr.span("pipeline.detect", layer=False):
                    gcatch = project.detect()
                bugs = gcatch.bmoc.bmoc_channel_bugs()
                fix = project.fix(bugs[0]) if bugs else None
                validation = None
                validating = None
                if fix is not None and fix.fixed and (
                    case.case_id not in truth.LOOP_CASES or case.case_id == loop_case
                ):
                    with Stopwatch() as validating:
                        validation = validate_patch(case.source, fix, case.driver)
            result.wall += whole.wall
            result.cpu += whole.cpu
            detected = bool(gcatch.bmoc.reports)
            if validating is not None:
                op = Op("validate", validating.wall, case.case_id, cpu=validating.cpu)
            else:
                op = Op("case", 0.0, case.case_id)
            problem = check_bug_case(
                case.case_id, detected, fix.fixed if fix is not None else None, validation
            )
            if problem:
                op.fail(problem)
            result.ops.append(op)
            reports += len(gcatch.all_reports())
            summary.append((
                case.case_id,
                detected,
                bool(fix and fix.fixed),
                None if validation is None else (
                    validation.static_clean, validation.patched_leaks,
                    len(validation.semantics_mismatches), validation.fallback,
                    validation.schedules_run,
                ),
            ))
        result.summary = sorted(summary)
        result.counts = {
            "reports": reports,
            "patches": sum(1 for s in summary if s[2]),
            "validated": sum(1 for s in summary if s[3] is not None),
        }
        return result

    def named(self, passes: List[Pass]) -> dict:
        validations = self.latencies(passes)
        return {
            "bugset_pass_s": self.pass_seconds(passes),
            "validate_p50_s": median(validations),
            "validate_samples": len(validations),
        }


# -- fuzz-campaign -----------------------------------------------------------------

#: programs per pass, and the pool the passes rotate through: the
#: ROADMAP's seed-0 campaign, programs 0..239. A run covers the whole pool
#: a whole number of times, so runs of different seeds triage the same
#: programs; per-program latency spans two orders of magnitude, and a
#: pool that changed with the seed would move the median by ~25%.
FUZZ_PROGRAMS = 40
FUZZ_CAMPAIGN_SEED = 0
FUZZ_SLICES = 6
BAD_BUCKETS = ("parse-crash", "analysis-incident", "unexplained-disagreement")


def check_triage(triage) -> str:
    """A bucket must be allowed and consistent with the raw oracle outputs."""
    if triage.bucket in BAD_BUCKETS:
        return f"{triage.name}: bucket {triage.bucket}"
    if triage.bucket == "agree":
        consistent = (triage.static_bug and triage.dynamic == "leak") or (
            not triage.static_bug and triage.dynamic == "clean"
        )
        if not consistent:
            return f"{triage.name}: agree with static={triage.static_bug} dynamic={triage.dynamic}"
    elif triage.bucket == "explained":
        if not triage.explanation:
            return f"{triage.name}: explained without an explanation"
    else:
        return f"{triage.name}: unknown bucket {triage.bucket}"
    return ""


class FuzzCampaign(Workload):
    """``run_campaign(0, 40, start=40j)`` with the default config; pass
    ``k`` takes slice ``j = (seed + k) mod 6`` of the pool."""

    name = "fuzz-campaign"
    op_kind = "program"  # one generated program, generation to triage
    tail_cap = 95.0
    nominal_pass_s = 1.3
    pass_multiple = FUZZ_SLICES

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self._marks: List[Tuple[float, float]] = []
        self._latencies: List[Tuple[float, float]] = []

    def setup(self) -> None:
        import repro.fuzz.campaign as campaign  # imports belong to set-up

        if getattr(campaign.generate_program, "__perfbench_timer__", False):
            return
        # per-program latency: from generation start to triage end; these
        # two thin timers are the client's stopwatch, present in every run
        generate, triage = campaign.generate_program, campaign.triage_program

        def timed_generate(*args, **kwargs):
            self._marks.append((time.perf_counter(), time.process_time()))
            return generate(*args, **kwargs)

        def timed_triage(*args, **kwargs):
            out = triage(*args, **kwargs)
            wall, cpu = self._marks[-1]
            self._latencies.append((time.perf_counter() - wall, time.process_time() - cpu))
            return out

        timed_generate.__perfbench_timer__ = True
        campaign.generate_program = timed_generate
        campaign.triage_program = timed_triage
        self._restore = (campaign, generate, triage)

    def _campaign(self, k: int):
        from repro.fuzz.campaign import run_campaign

        start = self._slice(k) * FUZZ_PROGRAMS
        return run_campaign(FUZZ_CAMPAIGN_SEED, FUZZ_PROGRAMS, start=start)

    def run_pass(self, k: int, tr=NULL_TRACER) -> Pass:
        self._latencies.clear()
        with tr.operation("campaign"), Stopwatch() as whole:
            report = self._campaign(k)
        result = Pass(index=k, wall=whole.wall, cpu=whole.cpu)
        for triage, (wall, cpu) in zip(report.triages, self._latencies):
            op = Op("program", wall, triage.name, cpu=cpu)
            problem = check_triage(triage)
            if problem:
                op.fail(problem)
            result.ops.append(op)
        if len(result.ops) != FUZZ_PROGRAMS:
            for op in result.ops:
                op.fail(f"campaign returned {len(report.triages)} triages")
        result.summary = [t.to_dict() for t in report.triages]
        buckets = report.buckets()
        result.counts = {
            "reports": sum(t.static_reports for t in report.triages),
            "agree": buckets.get("agree", 0),
            "explained": buckets.get("explained", 0),
        }
        return result

    def finish(self, passes: List[Pass]) -> Tuple[List[Op], List[str]]:
        """Triage must repeat: pass 0 is re-run and compared entry by entry."""
        first = next(p for p in passes if p.index == 0)
        again = self._campaign(0)
        for op, before, triage in zip(first.ops, first.summary, again.triages):
            if triage.to_dict() != before:
                op.fail(f"{triage.name}: triage differs on re-run")
        return [], []

    def _slice(self, k: int) -> int:
        return (self.seed + k) % FUZZ_SLICES

    def pass_seconds(self, passes: List[Pass]) -> float:
        """A 40-program campaign, averaged over the pool's slices (each
        slice's median pass)."""
        by_slice: Dict[int, List[float]] = {}
        for p in passes:
            by_slice.setdefault(self._slice(p.index), []).append(p.cpu)
        return statistics.mean(statistics.median(v) for v in by_slice.values())

    def named(self, passes: List[Pass]) -> dict:
        programs = self.latencies(passes)
        tail_p, tail_s = tail(programs, self.tail_cap)
        agree = sum(p.counts["agree"] for p in passes)
        return {
            "fuzz_programs_per_s": FUZZ_PROGRAMS / self.pass_seconds(passes),
            "fuzz_program_p50_s": median(programs),
            "fuzz_program_tail_s": tail_s,
            "fuzz_program_tail_percentile": tail_p,
            "fuzz_program_samples": len(programs),
            "fuzz_agree": agree,
            "fuzz_explained": sum(p.counts["explained"] for p in passes),
        }

    def close(self) -> None:
        restore = getattr(self, "_restore", None)
        if restore is not None:
            campaign, generate, triage = restore
            campaign.generate_program = generate
            campaign.triage_program = triage


# -- edit-warm ---------------------------------------------------------------------

EDIT_APP = "Kubernetes"

#: ROADMAP item 1's alias pattern: ``relinkP`` is never called, and its
#: edit makes field-based alias analysis link ``bx.c`` to ``ch``
PROBE_FILE = "zz_alias_probe.go"
PROBE_FUNCTIONS = ("aliasProbe", "relinkP")
PROBE_BASE = """package main

type holderP struct {
	c chan int
}

type boxP struct {
	c chan int
}

func aliasProbe() {
	ch := make(chan int)
	h := holderP{c: ch}
	go func() {
		h.c <- 1
	}()
	bx := boxP{}
	<-bx.c
}

func relinkP(x holderP) {
	println(x)
}
"""
PROBE_EDITED = PROBE_BASE.replace("\tprintln(x)\n", "\tb := boxP{c: x.c}\n\tprintln(b)\n")

_UNBUFFERED = re.compile(r"make\(chan ([^,()]+)\)")

EDIT_KINDS = ("buffer", "decl", "alias")


def answer_of(reports) -> List[Tuple[str, str]]:
    """The comparable content of a report list (service JSON or objects)."""
    out = []
    for report in reports:
        if isinstance(report, dict):
            out.append((report["category"], report["render"]))
        else:
            out.append((report.category, report.render()))
    return out


def split_app(app) -> Dict[str, str]:
    """One file per seeded template instance, a ``main.go`` calling every
    driver (as the single-file app's ``main`` does), and the alias probe."""
    files = {}
    drivers = []
    for index, instance in enumerate(app.instances):
        files[f"i{index:03d}.go"] = "package main\n\n" + instance.code.strip("\n") + "\n"
        if instance.driver and not instance.driver.startswith("Test"):
            drivers.append(instance.driver)
    files["main.go"] = "package main\n\nfunc main() {\n" + "".join(
        f"\t{driver}()\n" for driver in drivers
    ) + "}\n"
    files[PROBE_FILE] = PROBE_BASE
    return files


def check_edit_answers(requests: List[Tuple[Op, tuple, list]], cold_of) -> None:
    """Each warm answer must equal a cold detect of the same files."""
    for op, state, answer in requests:
        cold = cold_of(state)
        if answer != cold:
            op.fail(f"warm answer ({len(answer)} reports) != cold ({len(cold)} reports)")


class EditWarm(Workload):
    """A closed-loop client of an in-process ``AnalysisService(workers=1)``
    over one corpus app split one template instance per file."""

    name = "edit-warm"
    op_kind = "edit"  # a detect request that follows an edit
    tail_cap = 75.0
    nominal_pass_s = 0.65
    per_input = False  # every session edits other files

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.root = os.path.join(workdir, "project")
        self.services = []
        self._requests: List[Tuple[Op, tuple, list]] = []

    def _write(self, changes: Dict[str, str]) -> None:
        for name, text in {**self.base, **changes}.items():
            path = os.path.join(self.root, name)
            with open(path, "w") as handle:
                handle.write(text)

    def setup(self) -> None:
        import repro.api  # noqa: F401  (imports belong to set-up)
        from repro.corpus.apps import build_corpus
        from repro.service.daemon import AnalysisService

        build_corpus.cache_clear()
        app = next(a for a in build_corpus() if a.name == EDIT_APP)
        self.app = app
        self.base = split_app(app)
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self._write({})
        service = AnalysisService(self.root, workers=1)
        service.start()
        self.services.append(service)
        response = service.call("detect")
        if "result" not in response:
            raise RuntimeError(f"initial detect failed: {response.get('error')}")
        self.edit_targets = sorted(
            name for name, text in self.base.items()
            if name.startswith("i") and _UNBUFFERED.search(text)
        )
        self.decl_targets = sorted(n for n in self.base if n.startswith("i"))

    def session_script(self, k: int) -> List[Tuple[str, Dict[str, str]]]:
        """Session ``k``: (label, file changes) per request, base to base.

        Every session holds one cycle of each edit kind, in seeded order
        on seeded files: apply, noop, revert, noop. Equal mixes keep the
        sessions of different seeds comparable.
        """
        rng = _rng(self.seed, "session", k)
        steps: List[Tuple[str, Dict[str, str]]] = []
        for cycle, kind in enumerate(rng.sample(EDIT_KINDS, len(EDIT_KINDS))):
            if kind == "buffer":
                name = rng.choice(self.edit_targets)
                size = rng.randint(1, 9)
                text = _UNBUFFERED.sub(rf"make(chan \1, {size})", self.base[name], count=1)
            elif kind == "decl":
                name = rng.choice(self.decl_targets)
                text = self.base[name] + f"\nfunc perfbenchPad{k}x{cycle}() {{\n\tprintln({cycle})\n}}\n"
            else:
                name, text = PROBE_FILE, PROBE_EDITED
            steps += [
                (f"edit:{kind}", {name: text}),
                ("noop", {name: text}),
                (f"edit:{kind}", {}),  # the revert
                ("noop", {}),
            ]
        return steps

    def run_session(self, service, k: int, tr=NULL_TRACER) -> Pass:
        result = Pass(index=k)
        reports = executed = 0
        summary = []
        current: Dict[str, str] = {}
        for label, changes in self.session_script(k):
            if changes != current:
                for name in set(changes) | set(current):
                    text = changes.get(name, self.base[name])
                    with open(os.path.join(self.root, name), "w") as handle:
                        handle.write(text)
                current = changes
            with tr.operation(label.split(":")[0]), Stopwatch() as request:
                response = service.call("detect")
            result.wall += request.wall
            result.cpu += request.cpu
            op = Op("edit" if label.startswith("edit") else "noop", request.wall, label,
                    cpu=request.cpu)
            payload = response.get("result")
            if payload is None:
                op.fail(f"request failed: {response.get('error')}")
                answer = []
            else:
                answer = answer_of(payload["reports"])
                executed += payload["shards"]["executed"]
                reports += len(answer)
            result.ops.append(op)
            state = tuple(sorted(changes.items()))
            self._requests.append((op, state, answer))
            summary.append((label, answer))
        result.summary = summary
        result.counts = {"reports": reports, "shards_executed": executed}
        return result

    def run_pass(self, k: int, tr=NULL_TRACER) -> Pass:
        return self.run_session(self.services[-1], k, tr)

    def cold(self, state: tuple) -> List[Tuple[str, str]]:
        from repro.api import Project

        self._write(dict(state))
        try:
            return answer_of(Project.from_path(self.root).detect().all_reports())
        finally:
            self._write({})

    def finish(self, passes: List[Pass]) -> Tuple[List[Op], List[str]]:
        """Cold detects of every state a request saw (memoised by state),
        and the split project's Table 1 row, checked as one more operation."""
        from repro.api import Project

        memo: Dict[tuple, list] = {}

        def cold_of(state):
            if state not in memo:
                memo[state] = self.cold(state)
            return memo[state]

        check_edit_answers(self._requests, cold_of)
        self._write({})
        base = Project.from_path(self.root).detect()
        problems: List[str] = []
        probe = [r for r in base.bmoc.reports if r.primitive.site.function in PROBE_FUNCTIONS]
        base.bmoc.reports = [
            r for r in base.bmoc.reports if r.primitive.site.function not in PROBE_FUNCTIONS
        ]
        cells, _, _ = classify_app(self.app, base)
        row = tuple(cells[c] for c in truth.COLUMNS)
        row_op = Op("table1-row", 0.0, EDIT_APP)
        if row != truth.TABLE1[EDIT_APP][:7]:
            row_op.fail(f"split {EDIT_APP} row {row} != Table 1 {truth.TABLE1[EDIT_APP][:7]}")
        if len(probe) != 1:
            problems.append(f"alias probe: {len(probe)} reports on the base program, expected 1")
        return [row_op], problems

    def named(self, passes: List[Pass]) -> dict:
        edits = self.latencies(passes)
        noops = [op.cpu for p in passes for op in p.ops if op.kind == "noop"]
        tail_p, tail_s = tail(edits, self.tail_cap)
        by_kind: Dict[str, List[int]] = {}
        for p in passes:
            for op in p.ops:
                entry = by_kind.setdefault(op.label, [0, 0])
                entry[0] += 1
                entry[1] += op.failed
        return {
            "edit_p50_s": median(edits),
            "edit_tail_s": tail_s,
            "edit_tail_percentile": tail_p,
            "edit_samples": len(edits),
            "noop_p50_s": median(noops),
            "noop_samples": len(noops),
            "requests_and_failures_by_label": by_kind,
        }

    def close(self) -> None:
        for service in self.services:
            service.stop()
        self.services.clear()


WORKLOADS = {
    cls.name: cls for cls in (CorpusCold, EditWarm, BugsetFix, FuzzCampaign)
}
