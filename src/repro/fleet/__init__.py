"""repro.fleet — resumable corpus sweeps on a process pool.

The fleet pipeline, module per stage:

* :mod:`repro.fleet.plan` — walk a corpus (or shard a fuzz campaign)
  into deterministic, content-fingerprinted work units;
* :mod:`repro.fleet.driver` — run each unit on a pool of worker
  processes (inline with one worker), checkpoint, retry;
* :mod:`repro.fleet.manifest` — the torn-line-tolerant JSONL checkpoint
  a killed sweep resumes from;
* :mod:`repro.fleet.report` — deterministic aggregation (the byte-parity
  surface) and the separate telemetry rollup.
"""

from repro.fleet.driver import FleetResult, SweepKilled, run_sweep, run_unit
from repro.fleet.manifest import SweepManifest
from repro.fleet.plan import (
    SweepPlan,
    WorkUnit,
    materialize_bugset,
    plan_corpus,
    plan_fuzz,
    unit_fingerprint,
)
from repro.fleet.report import (
    FLEET_REPORT_KIND,
    aggregate,
    canonical_bytes,
    merge_telemetry,
    outcome_from_detect,
    outcome_from_fuzz,
    render,
)

__all__ = [
    "FLEET_REPORT_KIND",
    "FleetResult",
    "SweepKilled",
    "SweepManifest",
    "SweepPlan",
    "WorkUnit",
    "aggregate",
    "canonical_bytes",
    "materialize_bugset",
    "merge_telemetry",
    "outcome_from_detect",
    "outcome_from_fuzz",
    "plan_corpus",
    "plan_fuzz",
    "render",
    "run_sweep",
    "run_unit",
    "unit_fingerprint",
]
