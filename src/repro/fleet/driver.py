"""The fleet driver: run work units on a process pool, checkpoint, aggregate.

GCatch analyzes each program on its own, so a sweep parallelizes at unit
granularity and nowhere else. :func:`run_unit` is the whole per-unit
job: a project unit loads its files and runs GCatch, a fuzz unit runs
its campaign shard. :func:`run_sweep` feeds units to it — inline with
one worker, through one :class:`~concurrent.futures.ProcessPoolExecutor`
with more — and keeps everything else in the parent process:

* the resume skip (one manifest read per sweep);
* manifest records, appended in completion order;
* the ``fleet-dispatch`` fault site, fired before a unit is submitted,
  and the ``fleet-checkpoint`` site, fired after its record lands;
* bounded retries: a unit that raises, or whose worker dies, counts one
  attempt and re-enters the queue until ``max_attempts``. A dead worker
  breaks the whole pool, so the pool is rebuilt and every unit that was
  in flight is requeued.

Completed units append to the :class:`~repro.fleet.manifest.SweepManifest`
*before* the checkpoint fault fires, so a sweep killed there has every
finished unit on disk and a resume re-runs only the rest. Outcomes are
the deterministic payload slice (:mod:`repro.fleet.report`), which is
what makes any worker count and a killed-and-resumed sweep
byte-identical to ``workers=1``.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.api import Project
from repro.cli import exit_code_for
from repro.detector.reporting import report_to_json
from repro.fleet.manifest import SweepManifest
from repro.fleet.plan import SweepPlan, WorkUnit
from repro.fleet.report import (
    aggregate,
    merge_telemetry,
    outcome_from_detect,
    outcome_from_fuzz,
)
from repro.fuzz.campaign import run_campaign
from repro.resilience.faultinject import FaultInjected, maybe_fault


class SweepKilled(RuntimeError):
    """The sweep aborted at a checkpoint (chaos or operator kill).
    Completed units are on the manifest; resume picks them up."""


@dataclass
class FleetResult:
    """Everything a sweep produced, deterministic and not."""

    plan: SweepPlan
    outcomes: Dict[str, dict] = field(default_factory=dict)
    metas: Dict[str, dict] = field(default_factory=dict)
    failed: Dict[str, str] = field(default_factory=dict)  # uid -> reason
    incidents: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def report(self) -> dict:
        return aggregate(self.plan, self.outcomes)

    def telemetry(self) -> dict:
        return merge_telemetry(
            self.metas, self.elapsed_seconds, incidents=len(self.incidents)
        )

    def complete(self) -> bool:
        return len(self.outcomes) == len(self.plan.units)


def run_unit(unit: WorkUnit) -> dict:
    """Analyze one unit and return its deterministic outcome."""
    if unit.kind == "project":
        result = Project.from_path(unit.path).detect()
        reports = result.all_reports()
        health = result.health()
        return outcome_from_detect(
            {
                "code": exit_code_for(
                    len(reports), result.has_timeouts(), health, len(result.incidents)
                ),
                "health": health,
                "timed_out": result.has_timeouts(),
                "bmoc": len(result.bmoc.reports),
                "traditional": len(result.traditional),
                "reports": [report_to_json(r) for r in reports],
            }
        )
    report = run_campaign(unit.seed, unit.count, start=unit.start)
    return outcome_from_fuzz(
        {
            "triages": [t.to_dict() for t in report.triages],
            "unexplained": len(report.unexplained()),
            "crashes": len(report.crashes()),
        }
    )


def run_sweep(
    plan: SweepPlan,
    workers: Optional[int] = None,
    manifest_path: Optional[str] = None,
    max_attempts: int = 3,
) -> FleetResult:
    """Run every unit of ``plan`` not already checkpointed in the manifest.

    ``workers`` is the pool width, by default one process per CPU (never
    more than there are units to run); ``workers=1`` runs inline and is
    the reference every other width must match byte for byte.
    """
    if not plan.units:
        raise ValueError("empty sweep plan")
    manifest = SweepManifest(manifest_path) if manifest_path else None
    result = FleetResult(plan=plan)
    started = time.perf_counter()

    # resume: replay checkpointed outcomes whose fingerprints still match
    reusable = (
        manifest.reusable_outcomes({u.uid: u.fingerprint for u in plan.units})
        if manifest
        else {}
    )
    queue: Deque[WorkUnit] = deque()
    for unit in plan.units:
        if unit.uid in reusable:
            result.outcomes[unit.uid] = reusable[unit.uid]
            result.metas[unit.uid] = {"skipped": True}
        else:
            queue.append(unit)
    width = max(1, min(workers or os.cpu_count() or 1, len(queue)))
    attempts: Dict[str, int] = {}

    def retry(unit: WorkUnit, reason: str) -> None:
        result.incidents.append(f"{unit.uid}: {reason}")
        attempts[unit.uid] = attempts.get(unit.uid, 0) + 1
        if attempts[unit.uid] < max_attempts:
            queue.append(unit)
            return
        result.failed[unit.uid] = reason
        if manifest:
            manifest.record_unit(
                unit.uid, unit.fingerprint, ok=False, outcome=None,
                meta={"error": reason},
            )

    def finish(unit: WorkUnit, outcome: dict, elapsed: float) -> None:
        meta = {
            "attempts": attempts.get(unit.uid, 0) + 1,
            "elapsed_seconds": round(elapsed, 6),
        }
        result.outcomes[unit.uid] = outcome
        result.metas[unit.uid] = meta
        if manifest:
            manifest.record_unit(
                unit.uid, unit.fingerprint, ok=True, outcome=outcome, meta=meta
            )
        try:
            maybe_fault("fleet-checkpoint", unit.uid)
        except FaultInjected as exc:
            raise SweepKilled(str(exc)) from exc

    def dispatchable(unit: WorkUnit) -> bool:
        try:
            maybe_fault("fleet-dispatch", unit.uid)
        except FaultInjected as exc:
            retry(unit, f"dispatch failed: {exc}")
            return False
        return True

    pool: Optional[ProcessPoolExecutor] = None

    def submit(unit: WorkUnit) -> Future:
        nonlocal pool
        if width > 1:
            if pool is None:
                # the platform's default start method: on Linux, fork, so
                # workers inherit the imported analysis instead of paying
                # a fresh import each (on a 2-vCPU box, spawn and
                # forkserver ran the benchmark corpus at 20-27 units/s
                # against fork's 34-41 at widths 2-3). The executor forks
                # every worker before it starts its own manager thread.
                pool = ProcessPoolExecutor(max_workers=width)
            return pool.submit(run_unit, unit)
        future: Future = Future()  # inline: already resolved on return
        try:
            future.set_result(run_unit(unit))
        except Exception as exc:  # noqa: BLE001 - any unit crash retries
            future.set_exception(exc)
        return future

    in_flight: Dict[Future, Tuple[WorkUnit, float]] = {}  # -> (unit, started)
    broken = False
    try:
        while queue or in_flight:
            while queue and len(in_flight) < width and not broken:
                unit = queue.popleft()
                if dispatchable(unit):
                    unit_started = time.perf_counter()
                    in_flight[submit(unit)] = (unit, unit_started)
            if not in_flight:
                continue
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                unit, unit_started = in_flight.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    broken = True
                    retry(unit, "worker process died")
                    continue
                except Exception as exc:  # noqa: BLE001 - any unit crash retries
                    retry(unit, f"unit failed: {exc!r}")
                    continue
                finish(unit, outcome, time.perf_counter() - unit_started)
            if broken and not in_flight:
                pool.shutdown(wait=True)
                pool, broken = None, False
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    result.elapsed_seconds = time.perf_counter() - started
    return result


__all__ = ["FleetResult", "SweepKilled", "run_sweep", "run_unit"]
