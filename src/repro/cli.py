"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the paper's tooling:

* ``detect FILE``     — run GCatch (BMOC + traditional checkers);
* ``fix FILE``        — run GCatch, then GFix; print unified diffs;
* ``run FILE``        — execute under the seeded scheduler, report leaks;
* ``explore FILE``    — systematically enumerate schedules, report every
  distinct outcome (the dynamic oracle as a checker);
* ``diffcheck``       — diff GCatch's static verdicts against the
  explorer's dynamic verdicts over the 49-bug corpus;
* ``stats``           — run the full pipeline under the observability
  layer and print the per-stage trace (``--json`` for the machine form);
* ``fleet``           — resumable corpus sweeps on a pool of worker
  processes (``corpus``/``plan``/``sweep``/``fuzz`` subcommands);
* ``nonblocking FILE``— the §6 extension (send-on-closed / double-close);
* ``table1``          — regenerate Table 1 over the synthetic corpus;
* ``coverage``        — the 49-bug coverage study.

``detect``/``fix`` accept ``--trace`` to append the per-stage table, and
``explore``/``diffcheck`` accept ``--json`` for scriptable output in the
``repro.obs`` stats schema.

``detect``/``fix``/``stats`` also take the :mod:`repro.resilience` flags:
``--strict`` (exit 4 on any incident instead of reporting degraded
health), ``--max-retries``, ``--retry-timeouts``, and ``--faults``/
``--fault-seed`` (deterministic fault injection; ``REPRO_FAULTS`` /
``REPRO_FAULT_SEED`` are the ambient equivalents honoured by every
command).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import Project
from repro.detector.nonblocking import detect_nonblocking
from repro.obs import Collector, json_dumps, render_stats

#: dedicated exit code for ``--fail-on-timeout``: the analysis was
#: incomplete (a solver or per-primitive budget ran out), distinct from
#: "bugs found" (1) and "usage error" (2)
EXIT_TIMEOUT = 3

#: dedicated exit code for resilience failures: in ``--strict`` mode any
#: incident (a crashed analysis unit, fix strategy, or validation) exits
#: with this code; in the default mode only a ``failed`` health verdict
#: (every unit lost) does. Takes precedence over EXIT_TIMEOUT and 1.
EXIT_INCIDENT = 4


def _load(path: str, collector: Optional[Collector] = None) -> Project:
    return Project.from_file(path, collector=collector)


def _activate_faults(args) -> bool:
    """Arm the fault-injection plan from ``--faults`` or ``REPRO_FAULTS``.

    Returns True when a plan was activated (the caller must deactivate).
    """
    from repro.resilience import activate, plan_from_env
    from repro.resilience.faultinject import FaultPlan

    spec = getattr(args, "faults", None)
    if spec:
        activate(FaultPlan.parse(spec, seed=getattr(args, "fault_seed", 0) or 0))
        return True
    plan = plan_from_env()
    if plan is not None:
        activate(plan)
        return True
    return False


def exit_code_for(
    reports: int,
    timed_out: bool,
    health: str,
    incidents: int,
    strict: bool = False,
    fail_on_timeout: bool = False,
) -> int:
    """The ``detect`` exit-code policy, shared with the daemon and fleet
    sweeps: 1 for findings, 3 for exhausted budgets (opt-in), 4 for
    resilience failures (always on ``failed`` health, any incident under
    strict)."""
    code = 1 if reports else 0
    if fail_on_timeout and timed_out:
        code = EXIT_TIMEOUT
    if (strict and incidents) or health == "failed":
        code = EXIT_INCIDENT
    return code


def _health_exit(health: str, incidents, strict: bool) -> Optional[int]:
    """The resilience exit-code policy, shared by detect/fix/stats."""
    if strict and incidents:
        return EXIT_INCIDENT
    if health == "failed":
        return EXIT_INCIDENT
    return None


def cmd_detect(args: argparse.Namespace) -> int:
    want_obs = args.trace or args.trace_out
    collector = Collector(args.file) if want_obs else None
    cache = None
    if args.cache_dir:
        from repro.engine import ResultCache

        cache = ResultCache(args.cache_dir)
    project = _load(args.file, collector=collector)
    result = project.detect(
        disentangle=not args.no_disentangle,
        cache=cache,
        budget_wall_seconds=args.budget_seconds,
        budget_solver_nodes=args.budget_nodes,
        max_retries=args.max_retries,
        retry_timeouts=args.retry_timeouts,
        checkers=args.checkers,
    )
    reports = result.all_reports()
    timed_out = result.has_timeouts()
    health = result.health()
    exit_code = exit_code_for(
        len(reports), timed_out, health, len(result.incidents),
        strict=args.strict, fail_on_timeout=args.fail_on_timeout,
    )
    if args.trace_out and collector is not None:
        from repro.obs import write_trace

        write_trace(collector, args.trace_out)
        print(f"wrote trace to {args.trace_out}", file=sys.stderr)
    if not reports:
        print("no bugs detected")
        if timed_out:
            print(_timeout_summary(result))
        if result.incidents or args.trace:
            from repro.report.table import render_health

            print(render_health(health, result.incidents))
        if args.trace and collector is not None:
            print()
            print(render_stats(collector))
        return exit_code
    for report in reports:
        print(report.render())
        print()
    bmoc = len(result.bmoc.reports)
    print(f"{len(reports)} report(s): {bmoc} BMOC, {len(result.traditional)} traditional "
          f"({result.elapsed_seconds:.2f}s)")
    if timed_out:
        print(_timeout_summary(result))
    if result.incidents or args.trace:
        from repro.report.table import render_health

        print(render_health(health, result.incidents))
    if args.trace and collector is not None:
        from repro.report.table import render_bug_costs

        print()
        print(render_bug_costs(reports, timeouts=result.timed_out_shards()))
        print()
        print(render_stats(collector))
    return exit_code


def _timeout_summary(result) -> str:
    stats = result.bmoc.stats
    shards = result.timed_out_shards()
    parts = []
    if shards:
        labels = ", ".join(s.label for s in shards)
        parts.append(f"{len(shards)} primitive(s) hit their analysis budget: {labels}")
    if stats.solver_timeouts:
        parts.append(f"{stats.solver_timeouts} solver call(s) hit the node budget")
    return "TIMEOUT: " + "; ".join(parts) + " — results may be incomplete"


def cmd_fix(args: argparse.Namespace) -> int:
    collector = Collector(args.file) if args.trace else None
    project = _load(args.file, collector=collector)
    result = project.detect(
        max_retries=args.max_retries,
        retry_timeouts=args.retry_timeouts,
    )
    bugs = result.bmoc.bmoc_channel_bugs()
    if not bugs:
        print("no channel-only BMOC bugs to fix")
        if result.incidents:
            from repro.report.table import render_health

            print(render_health(result.health(), result.incidents))
        exit_code = _health_exit(result.health(), result.incidents, args.strict)
        return exit_code if exit_code is not None else 0
    summary = project.fix_all(bugs)
    for fix in summary.results:
        print(f"-- {fix.report.description}")
        if fix.fixed:
            print(f"   strategy: {fix.strategy} ({fix.patch.changed_lines()} line(s))")
            print(fix.patch.unified_diff(args.file))
        else:
            print(f"   not fixed: {fix.reason}")
        print()
    fixed = summary.fixed()
    print(f"fixed {len(fixed)}/{len(summary.results)} bug(s)")
    incidents = list(result.incidents) + summary.incidents()
    if incidents:
        from repro.report.table import render_health

        health = "degraded" if fixed or result.health() != "failed" else "failed"
        print(render_health(health, incidents))
    if collector is not None:
        print()
        print(render_stats(collector))
    if args.write and len(fixed) == 1:
        patched = fixed[0].patch.apply()
        with open(args.file, "w") as handle:
            handle.write(patched)
        print(f"wrote patched source to {args.file}")
    exit_code = _health_exit(result.health(), incidents, args.strict)
    return exit_code if exit_code is not None else 0


def cmd_run(args: argparse.Namespace) -> int:
    project = _load(args.file)
    failures = 0
    for seed in range(args.seeds):
        outcome = project.run(entry=args.entry, seed=seed, max_steps=args.max_steps)
        status = "ok"
        if outcome.panicked:
            status = f"panic: {outcome.panic_message}"
        elif outcome.global_deadlock:
            status = f"DEADLOCK at line(s) {outcome.blocked_lines()}"
        elif outcome.leaked:
            leaks = ", ".join(
                f"g{l.gid}@{l.function}:{l.blocked_line}" for l in outcome.leaked
            )
            status = f"LEAKED {leaks}"
        if status != "ok":
            failures += 1
        print(f"seed {seed:3d}: {status}")
        for line in outcome.output:
            print(f"          {line}")
    print(f"{failures}/{args.seeds} schedule(s) misbehaved")
    return 1 if failures else 0


def cmd_explore(args: argparse.Namespace) -> int:
    collector = Collector(args.file) if args.json else None
    project = _load(args.file, collector=collector)
    exploration = project.explore(
        entry=args.entry,
        max_runs=args.max_runs,
        max_steps=args.max_steps,
        preemption_bound=args.preemption_bound,
    )
    if args.json:
        print(json_dumps(exploration.to_json()))
        return 1 if exploration.any_leak else 0
    print(exploration.render())
    if args.replay and exploration.leaking():
        leak = exploration.leaking()[0]
        replayed = project.replay(leak.choice_trace, entry=args.entry)
        same = replayed.blocked_forever == leak.blocked_forever
        print(f"replayed first leaking trace ({len(leak.choice_trace)} choices): "
              f"{'reproduced' if same else 'DIVERGED'}")
    return 1 if exploration.any_leak else 0


def cmd_diffcheck(args: argparse.Namespace) -> int:
    from repro.corpus.bugset import build_bug_set
    from repro.diffcheck import run_diffcheck

    cases = None
    if args.cases:
        prefixes = tuple(args.cases)
        cases = [c for c in build_bug_set() if c.case_id.startswith(prefixes)]
        if not cases:
            print(f"no corpus cases match prefix(es): {', '.join(args.cases)}",
                  file=sys.stderr)
            return 2
    collector = Collector("diffcheck") if args.json else None
    report = run_diffcheck(
        cases=cases,
        max_runs=args.max_runs,
        max_steps=args.max_steps,
        collector=collector,
    )
    if args.json:
        print(json_dumps(report.to_json()))
    else:
        print(report.render())
    return 1 if report.unexplained() else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Generative differential fuzz campaign over seeded MiniGo programs."""
    import os

    from repro.fuzz import (
        BUCKET_UNEXPLAINED,
        generate_program,
        minimize_program,
        run_campaign,
        triage_program,
    )
    from repro.fuzz.campaign import CampaignConfig
    from repro.resilience.firewall import RetryPolicy

    config = CampaignConfig(
        max_runs=args.budget,
        max_steps=args.max_steps,
        max_total_steps=args.total_steps,
        max_retries=args.max_retries,
    )
    collector = Collector(f"fuzz-s{args.seed}") if args.json else None
    policy = RetryPolicy(max_retries=args.max_retries) if args.max_retries else None
    if args.only is not None:
        # replay one program of the campaign: the minimize/dump workflow
        program = generate_program(args.seed, args.only)
        triage = triage_program(program, config=config, collector=collector)
        if args.minimize and triage.bucket == BUCKET_UNEXPLAINED:
            program = minimize_program(program, triage, config=config)
            triage = triage_program(program, config=config)
        if args.dump_dir:
            os.makedirs(args.dump_dir, exist_ok=True)
            path = os.path.join(args.dump_dir, program.name + ".go")
            with open(path, "w") as handle:
                handle.write(_provenance_header(program) + program.source)
            print(f"wrote {path}", file=sys.stderr)
        if args.json:
            print(json_dumps(triage.to_dict()))
        else:
            print(program.source)
            print(f"{triage.bucket}: {triage.classification or triage.error} "
                  f"{triage.explanation}".rstrip())
        return _fuzz_exit(triage.bucket == BUCKET_UNEXPLAINED,
                          triage.bucket in ("parse-crash", "analysis-incident"))
    report = run_campaign(
        args.seed, args.count, config=config, collector=collector, retry_policy=policy
    )
    if args.dump_dir and report.unexplained():
        os.makedirs(args.dump_dir, exist_ok=True)
        for triage in report.unexplained():
            program = generate_program(args.seed, triage.index)
            if args.minimize:
                program = minimize_program(program, triage, config=config)
            path = os.path.join(args.dump_dir, program.name + ".go")
            with open(path, "w") as handle:
                handle.write(_provenance_header(program) + program.source)
            print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(json_dumps(report.to_json()))
    else:
        print(report.render())
    return _fuzz_exit(bool(report.unexplained()), bool(report.crashes()))


def _provenance_header(program) -> str:
    """Comment block tying a dumped program back to its generator seed."""
    recipe = "; ".join(
        f"{s.template}[{s.uid} {s.placement}"
        + (f" {','.join(s.mutations)}" if s.mutations else "")
        + "]"
        for s in program.motifs
    )
    return (
        f"// {program.name}: generated by `repro fuzz --seed "
        f"{program.campaign_seed} --only {program.index}`\n// recipe: {recipe}\n"
    )


def _fuzz_exit(unexplained: bool, crashed: bool) -> int:
    """Campaign exit policy: crashes trump findings trump clean."""
    if crashed:
        return EXIT_INCIDENT
    return 1 if unexplained else 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Full pipeline (detect → fix → explore) under one Collector."""
    collector = Collector(args.file)
    project = _load(args.file, collector=collector)
    result = project.detect(
        max_retries=args.max_retries,
        retry_timeouts=args.retry_timeouts,
    )
    reports = result.all_reports()
    summary = project.fix_all(result.bmoc.bmoc_channel_bugs())
    exploration = project.explore(
        entry=args.entry, max_runs=args.max_runs, max_steps=args.max_steps
    )
    incidents = list(result.incidents) + summary.incidents()
    health = result.health()
    exit_code = _health_exit(health, incidents, args.strict)
    if exit_code is None:
        exit_code = 0
    if args.trace_out:
        from repro.obs import write_trace

        write_trace(collector, args.trace_out)
        print(f"wrote trace to {args.trace_out}", file=sys.stderr)
    if args.prom:
        from repro.obs import render_prometheus

        # Prometheus text exposition on stdout: the same payload the
        # daemon's metrics_text method serves, for file-based scraping
        sys.stdout.write(render_prometheus(collector))
        return exit_code
    if args.json:
        from repro.obs import snapshot
        from repro.resilience import incidents_to_json

        extra = {
            "file": args.file,
            "reports": len(reports),
            "fixed": len(summary.fixed()),
            "explored_runs": exploration.runs,
            "any_leak": exploration.any_leak,
            "health": health,
        }
        if incidents:
            # optional block: absent on clean runs, so pre-resilience
            # consumers of the repro.obs schema see an unchanged shape
            extra["incidents"] = incidents_to_json(incidents)
        print(json_dumps(snapshot(collector, extra=extra)))
        return exit_code
    from repro.report.table import render_bug_costs, render_health

    print(f"{args.file}: {len(reports)} report(s), "
          f"{len(summary.fixed())}/{len(summary.results)} fixed, "
          f"{exploration.runs} schedule(s) explored"
          f"{' (leak found)' if exploration.any_leak else ''}")
    if incidents or health != "ok":
        print(render_health(health, incidents))
    print()
    if reports:
        print(render_bug_costs(reports))
        print()
    print(render_stats(collector))
    return exit_code


def _service_kwargs(args: argparse.Namespace) -> dict:
    """The engine/resilience knobs shared by serve and watch."""
    return dict(
        cache_dir=args.cache_dir,
        budget_wall_seconds=args.budget_seconds,
        budget_solver_nodes=args.budget_nodes,
        max_retries=args.max_retries,
        retry_timeouts=args.retry_timeouts,
        checkers=args.checkers,
    )


def _journal_path(args: argparse.Namespace) -> Optional[str]:
    """The telemetry journal path: --journal flag, else REPRO_JOURNAL."""
    import os

    path = getattr(args, "journal", None)
    return path if path else os.environ.get("REPRO_JOURNAL") or None


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis daemon over stdio (default) or a TCP socket."""
    from repro.service import AnalysisService, serve_stdio, serve_tcp

    try:
        service = AnalysisService(
            args.path,
            journal_path=_journal_path(args),
            journal_max_bytes=args.journal_max_bytes,
            journal_max_files=args.journal_max_files,
            slow_threshold_seconds=args.slow_threshold,
            workers=args.workers,
            max_queue=args.max_queue,
            tenant_max_queue=args.tenant_max_queue,
            quota=args.quota,
            quota_burst=args.quota_burst,
            **_service_kwargs(args),
        ).start()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot load project {args.path}: {exc}", file=sys.stderr)
        return 2
    if args.port is None:
        # stdout is the protocol channel in stdio mode; banner to stderr
        print(f"repro-serve: project {service.state.path} "
              f"({len(service.state.files)} file(s)) on stdio", file=sys.stderr)
        return serve_stdio(service)
    server = serve_tcp(service, host=args.host, port=args.port)
    host, port = server.address
    # the smoke job and scripts parse this exact line for the bound port
    print(f"repro-serve listening on {host}:{port}", flush=True)
    return server.serve_until_shutdown()


def cmd_watch(args: argparse.Namespace) -> int:
    """Re-analyze on change and print deltas until interrupted."""
    from repro.service.watch import run_watch

    try:
        return run_watch(
            args.path,
            interval=args.interval,
            max_cycles=args.cycles,
            **_service_kwargs(args),
        )
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot load project {args.path}: {exc}", file=sys.stderr)
        return 2


def cmd_client(args: argparse.Namespace) -> int:
    """Send one request to a running daemon; exit like one-shot detect."""
    import json

    from repro.service import ServiceClient, ServiceConnectionError

    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except ValueError as exc:
            print(f"--params is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print("--params must be a JSON object", file=sys.stderr)
            return 2
    if args.deadline is not None:
        params["deadline_seconds"] = args.deadline
    try:
        with ServiceClient(
            host=args.host, port=args.port, connect_timeout=args.connect_timeout
        ) as client:
            response = client.call(
                args.method,
                params,
                tenant=args.tenant or "default",
                priority=args.priority,
            )
    except ServiceConnectionError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    result_payload = response.get("result")
    if (
        args.method == "metrics_text"
        and isinstance(result_payload, dict)
        and isinstance(result_payload.get("text"), str)
    ):
        # scraper convenience: the raw exposition, ready for a Prometheus
        # file-sd or pushgateway pipe, instead of JSON-wrapped text
        sys.stdout.write(result_payload["text"])
        return 0
    print(json_dumps(response))
    if "error" in response:
        # a crashed request carries an incident: the daemon-side analogue
        # of --strict's EXIT_INCIDENT; protocol misuse stays a usage error
        return EXIT_INCIDENT if "incident" in response["error"] else 2
    result = response.get("result") or {}
    code = result.get("code", 0)
    return int(code) if isinstance(code, (int, float)) else 0


def cmd_top(args: argparse.Namespace) -> int:
    """Render throughput/latency/cache/incident aggregates from the
    daemon's telemetry journal (works on a stopped daemon's journal too)."""
    import os

    from repro.obs import TelemetryJournal, filter_records, render_top, summarize

    path = _journal_path(args)
    if not path:
        print("repro top: no journal (pass --journal PATH or set "
              "REPRO_JOURNAL)", file=sys.stderr)
        return 2
    if not any(
        os.path.exists(p)
        for p in (path, *(f"{path}.{i}" for i in range(1, args.journal_max_files)))
    ):
        print(f"repro top: journal {path} does not exist", file=sys.stderr)
        return 2
    journal = TelemetryJournal(path, max_files=args.journal_max_files)
    records = filter_records(journal.read(last=args.last), tenant=args.tenant)
    if args.json:
        summary = summarize(records)
        summary["latency"] = summary["latency"].to_dict()
        summary["queue_wait"] = summary["queue_wait"].to_dict()
        print(json_dumps(summary))
        return 0
    print(render_top(records, title=f"repro top — {path}"))
    return 0


def _fleet_build_plan(args: argparse.Namespace):
    from repro import fleet

    if args.fleet_command == "fuzz":
        return fleet.plan_fuzz(args.seed, args.count, shard_size=args.shard_size)
    return fleet.plan_corpus(args.path)


def cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet sweeps: materialize a corpus, plan it, sweep it on a pool
    of worker processes (``sweep``), or scale out a fuzz campaign
    (``fuzz``).

    Exit codes: 0 — every unit completed; 1 — some units failed after
    retries (the report marks them incomplete); 4 — the sweep was killed
    at a checkpoint; resume by re-running with the same ``--manifest``.
    """
    import os

    from repro import fleet

    if args.fleet_command == "corpus":
        dirs = fleet.materialize_bugset(args.dir)
        print(f"materialized {len(dirs)} case(s) under {os.path.abspath(args.dir)}")
        return 0
    try:
        plan = _fleet_build_plan(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot plan sweep: {exc}", file=sys.stderr)
        return 2
    if args.fleet_command == "plan":
        if args.json:
            print(json_dumps(plan.to_json()))
        else:
            for unit in plan.units:
                what = unit.path or (
                    f"seed={unit.seed} start={unit.start} count={unit.count}"
                )
                print(f"{unit.uid}  {unit.fingerprint[:12]}  {what}")
            print(f"{len(plan.units)} unit(s)")
        return 0
    try:
        result = fleet.run_sweep(
            plan, workers=args.workers, manifest_path=args.manifest
        )
    except fleet.SweepKilled as exc:
        print(f"sweep killed: {exc} — re-run with the same --manifest "
              "to resume", file=sys.stderr)
        return EXIT_INCIDENT
    report = result.report()
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(fleet.canonical_bytes(report))
    if args.json:
        print(json_dumps({
            "report": report,
            "telemetry": result.telemetry(),
            "failed": result.failed,
        }))
    else:
        print(fleet.render(report))
        tel = result.telemetry()
        rate = tel["units_per_second"]
        print(
            f"  {tel['executed']} executed / {tel['skipped']} skipped in "
            f"{tel['elapsed_seconds']:.2f}s"
            + (f" ({rate:.2f} units/s)" if rate else "")
            + f"; redispatches={tel['redispatches']}"
        )
        for uid, reason in sorted(result.failed.items()):
            print(f"  FAILED {uid}: {reason}", file=sys.stderr)
    return 0 if result.complete() else 1


def cmd_nonblocking(args: argparse.Namespace) -> int:
    project = _load(args.file)
    result = detect_nonblocking(project.program)
    if not result.reports:
        print("no non-blocking channel misuses detected")
        return 0
    for report in result.reports:
        print(report.render())
        print()
    return 1


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.report.experiments import evaluate_corpus

    names = args.apps or None
    evaluation = evaluate_corpus(names)
    print(evaluation.render())
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    from repro.corpus.bugset import build_bug_set
    from repro.detector.bmoc import detect_bmoc
    from repro.ssa.builder import build_program

    detected = 0
    cases = build_bug_set()
    for case in cases:
        program = build_program(case.source, case.case_id + ".go")
        hit = bool(detect_bmoc(program).reports)
        detected += hit
        marker = "DETECTED" if hit else f"missed ({case.miss_reason})"
        print(f"{case.case_id}: {marker}")
    print(f"\ncoverage: {detected}/{len(cases)} ({detected / len(cases):.0%}) — paper: 33/49 (67%)")
    return 0


def _add_resilience_args(p: argparse.ArgumentParser) -> None:
    """The resilience flags shared by detect/fix/stats."""
    p.add_argument("--strict", action="store_true",
                   help=f"exit with code {EXIT_INCIDENT} when any analysis "
                        "unit crashed (default: report degraded health and "
                        "keep the surviving results)")
    p.add_argument("--max-retries", type=int, default=None,
                   help="bound transient-failure retries per unit "
                        "(default: REPRO_MAX_RETRIES, else 1)")
    p.add_argument("--retry-timeouts", action="store_true",
                   help="retry a solver-timeout shard once with a quartered "
                        "node budget")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="deterministic fault-injection plan, e.g. "
                        "'solve:raise' or 'cache-read@leakOne:corrupt' "
                        "(default: REPRO_FAULTS)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for probabilistic fault rules (default: "
                        "REPRO_FAULT_SEED for env-supplied plans, else 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GCatch + GFix (ASPLOS 2021) reproduction on MiniGo programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run GCatch on a MiniGo file")
    p.add_argument("file")
    p.add_argument("--no-disentangle", action="store_true", help="whole-program ablation mode")
    p.add_argument("--trace", action="store_true",
                   help="append the per-stage observability table")
    p.add_argument("--cache-dir", default=None,
                   help="persist per-primitive results under this directory; "
                        "warm re-runs skip unchanged primitives")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="per-primitive wall-clock budget (TIMEOUT on exhaustion)")
    p.add_argument("--budget-nodes", type=int, default=None,
                   help="per-primitive solver-node budget (TIMEOUT on exhaustion)")
    p.add_argument("--fail-on-timeout", action="store_true",
                   help=f"exit with code {EXIT_TIMEOUT} when any budget ran out")
    p.add_argument("--checkers", nargs="*", default=None,
                   help="restrict the traditional checkers to this subset "
                        "(default: REPRO_CHECKERS, else all)")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="dump the run's span tree as OTLP-style JSON")
    _add_resilience_args(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("fix", help="run GCatch + GFix; print patches")
    p.add_argument("file")
    p.add_argument("--write", action="store_true", help="apply a single patch in place")
    p.add_argument("--trace", action="store_true",
                   help="append the per-stage observability table")
    _add_resilience_args(p)
    p.set_defaults(func=cmd_fix)

    p = sub.add_parser("run", help="execute under seeded schedules")
    p.add_argument("file")
    p.add_argument("--entry", default="main")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--max-steps", type=int, default=100_000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("explore", help="systematically enumerate schedules")
    p.add_argument("file")
    p.add_argument("--entry", default="main")
    p.add_argument("--max-runs", type=int, default=512)
    p.add_argument("--max-steps", type=int, default=20_000)
    p.add_argument("--preemption-bound", type=int, default=None)
    p.add_argument("--replay", action="store_true",
                   help="re-run the first leaking trace to confirm it reproduces")
    p.add_argument("--json", action="store_true",
                   help="emit the exploration as repro.obs-schema JSON")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("diffcheck", help="static vs dynamic differential over the bug corpus")
    p.add_argument("--max-runs", type=int, default=512)
    p.add_argument("--max-steps", type=int, default=20_000)
    p.add_argument("--cases", nargs="*", default=None,
                   help="restrict to corpus case_ids with these prefixes")
    p.add_argument("--json", action="store_true",
                   help="emit the report as repro.obs-schema JSON")
    p.set_defaults(func=cmd_diffcheck)

    p = sub.add_parser(
        "fuzz",
        help="generative differential fuzz campaign (static vs dynamic oracle)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed; (seed, index) replays any program")
    p.add_argument("--count", type=int, default=100,
                   help="number of generated programs")
    p.add_argument("--budget", type=int, default=128,
                   help="schedule-exploration run budget per program")
    p.add_argument("--max-steps", type=int, default=6000,
                   help="per-run interpreter step bound")
    p.add_argument("--total-steps", type=int, default=120_000,
                   help="deterministic cross-run step budget per program")
    p.add_argument("--max-retries", type=int, default=None,
                   help="transient-failure retries per program")
    p.add_argument("--only", type=int, default=None, metavar="INDEX",
                   help="replay a single program of the campaign by index")
    p.add_argument("--minimize", action="store_true",
                   help="shrink unexplained programs to a minimal recipe "
                        "before dumping")
    p.add_argument("--dump-dir", default=None,
                   help="write unexplained program sources (with seed "
                        "provenance headers) into this directory")
    p.add_argument("--json", action="store_true",
                   help="emit the campaign report as repro.obs-schema JSON")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("stats", help="full pipeline under the observability layer")
    p.add_argument("file")
    p.add_argument("--entry", default="main")
    p.add_argument("--max-runs", type=int, default=512)
    p.add_argument("--max-steps", type=int, default=20_000)
    p.add_argument("--json", action="store_true",
                   help="emit the trace as repro.obs-schema JSON")
    p.add_argument("--prom", action="store_true",
                   help="emit Prometheus text exposition instead of the table")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="dump the run's span tree as OTLP-style JSON")
    _add_resilience_args(p)
    p.set_defaults(func=cmd_stats)

    def _add_service_args(p: argparse.ArgumentParser) -> None:
        """Engine knobs shared by serve and watch (daemon-lifetime)."""
        p.add_argument("--cache-dir", default=None,
                       help="persist the shard cache under this directory "
                            "(default: memory-only, warm for the daemon's life)")
        p.add_argument("--budget-seconds", type=float, default=None,
                       help="per-primitive wall-clock budget")
        p.add_argument("--budget-nodes", type=int, default=None,
                       help="per-primitive solver-node budget")
        p.add_argument("--max-retries", type=int, default=None,
                       help="transient-failure retries (default: REPRO_MAX_RETRIES)")
        p.add_argument("--retry-timeouts", action="store_true",
                       help="retry TIMEOUT shards once with a quartered budget")
        p.add_argument("--checkers", nargs="*", default=None,
                       help="restrict the traditional checkers")

    p = sub.add_parser(
        "serve",
        help="run the analysis daemon (stdio by default, --port for TCP)",
    )
    p.add_argument("path", help="project: one .go file or a directory of them")
    p.add_argument("--port", type=int, default=None,
                   help="serve the line protocol on this TCP port "
                        "(0 = ephemeral; the bound port is printed); "
                        "default: stdio")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="append one telemetry record per request to this "
                        "JSONL file, with size-bounded rotation "
                        "(default: REPRO_JOURNAL)")
    p.add_argument("--journal-max-bytes", type=int, default=4_000_000,
                   help="rotate the journal past this size (default: 4MB)")
    p.add_argument("--journal-max-files", type=int, default=3,
                   help="keep at most N journal files (default: 3)")
    p.add_argument("--slow-threshold", type=float, default=5.0,
                   help="requests slower than this many seconds capture a "
                        "full span-tree exemplar (default: 5.0)")
    p.add_argument("--workers", type=int, default=2,
                   help="analysis worker pool size; tenants run "
                        "concurrently, one tenant's requests never do "
                        "(default: 2)")
    p.add_argument("--max-queue", type=int, default=None,
                   help="global queued-request bound: excess requests are "
                        "shed with OVERLOADED instead of queued "
                        "(default: unbounded)")
    p.add_argument("--tenant-max-queue", type=int, default=None,
                   help="per-tenant queued-request bound (default: unbounded)")
    p.add_argument("--quota", type=float, default=None, metavar="RATE",
                   help="per-tenant token-bucket quota in requests/second; "
                        "excess is shed with QUOTA_EXCEEDED + retry_after "
                        "(default: no quota)")
    p.add_argument("--quota-burst", type=float, default=None,
                   help="token-bucket size (default: max(quota, 1))")
    _add_service_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("watch", help="re-analyze on change, print deltas")
    p.add_argument("path", help="project: one .go file or a directory of them")
    p.add_argument("--interval", type=float, default=0.5,
                   help="poll interval in seconds (content-hash watcher)")
    p.add_argument("--cycles", type=int, default=None,
                   help="stop after N polls (default: run until interrupted)")
    _add_service_args(p)
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("top", help="render telemetry-journal aggregates")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="the daemon's telemetry journal (default: REPRO_JOURNAL)")
    p.add_argument("--journal-max-files", type=int, default=3,
                   help="rotation depth to scan (default: 3)")
    p.add_argument("--last", type=int, default=None, metavar="N",
                   help="only the most recent N records")
    p.add_argument("--tenant", default=None,
                   help="only records for this tenant (records from "
                        "before multi-tenancy count as 'default')")
    p.add_argument("--json", action="store_true",
                   help="emit the aggregates as JSON")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("client", help="send one request to a running daemon")
    p.add_argument("method", help="detect | fix | stats | metrics | "
                                  "metrics_text | health | refresh | ping | "
                                  "register | tenants | fuzz | shutdown")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--params", default=None, metavar="JSON",
                   help="request params as a JSON object")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in seconds (expires in queue)")
    p.add_argument("--tenant", default=None,
                   help="address a registered tenant (default: the "
                        "daemon's own project)")
    p.add_argument("--priority", choices=["high", "normal", "low"],
                   default="normal",
                   help="scheduling class (low is shed first under "
                        "degraded health)")
    p.add_argument("--connect-timeout", type=float, default=5.0,
                   help="seconds to keep retrying the TCP connect with "
                        "deterministic backoff (a daemon still binding "
                        "its port is not an error)")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser(
        "fleet",
        help="resumable corpus sweeps on a pool of worker processes",
    )
    fleet_sub = p.add_subparsers(dest="fleet_command", required=True)

    fp = fleet_sub.add_parser(
        "corpus", help="materialize the 49-program bug set as a corpus tree"
    )
    fp.add_argument("dir", help="target directory (one <case_id>/main.go per case)")
    fp.set_defaults(func=cmd_fleet)

    def _add_fleet_sweep_args(fp):
        fp.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: one per CPU, at most "
                             "one per unit); 1 runs inline")
        fp.add_argument("--manifest", default=None, metavar="PATH",
                        help="resumable JSONL checkpoint; re-running with the "
                             "same manifest skips completed units whose "
                             "fingerprints still match")
        fp.add_argument("--out", default=None, metavar="PATH",
                        help="write the canonical report bytes here")
        fp.add_argument("--json", action="store_true",
                        help="emit report + telemetry as JSON")
        fp.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault plan (sites fleet-dispatch "
                             "/ fleet-checkpoint for chaos drills)")
        fp.add_argument("--fault-seed", type=int, default=0)

    fp = fleet_sub.add_parser(
        "plan", help="print the work units a corpus tree plans into"
    )
    fp.add_argument("path", help="corpus directory (or one .go file)")
    fp.add_argument("--json", action="store_true")
    fp.set_defaults(func=cmd_fleet)

    fp = fleet_sub.add_parser(
        "sweep", help="sweep a corpus tree on a pool of worker processes"
    )
    fp.add_argument("path", help="corpus directory (or one .go file)")
    _add_fleet_sweep_args(fp)
    fp.set_defaults(func=cmd_fleet)

    fp = fleet_sub.add_parser(
        "fuzz", help="scale a fuzz campaign out on a pool of worker processes"
    )
    fp.add_argument("--seed", type=int, default=0, help="campaign seed")
    fp.add_argument("--count", type=int, required=True,
                    help="total programs (split into shards)")
    fp.add_argument("--shard-size", type=int, default=25,
                    help="programs per work unit (default: 25)")
    _add_fleet_sweep_args(fp)
    fp.set_defaults(func=cmd_fleet)

    p = sub.add_parser("nonblocking", help="send-on-closed / double-close detection")
    p.add_argument("file")
    p.set_defaults(func=cmd_nonblocking)

    p = sub.add_parser("table1", help="regenerate Table 1 over the corpus")
    p.add_argument("apps", nargs="*", help="optional app-name subset")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("coverage", help="the 49-bug coverage study")
    p.set_defaults(func=cmd_coverage)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    armed = _activate_faults(args)
    try:
        code = args.func(args)
    finally:
        if armed:
            from repro.resilience import deactivate

            deactivate()
    # every command returns an int, but coerce defensively: a handler that
    # falls off the end (returns None) must exit 0, not crash sys.exit —
    # the daemon/client exit-code contract (0/1/3/4) depends on this
    return int(code) if isinstance(code, (int, bool)) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
