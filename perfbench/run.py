"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 20 --trace 0

Run from the repository root. A run does a fixed number of passes, sized
from ``--seconds`` (see ``Workload.passes``). ``--trace 0`` measures the
end-to-end metrics, in CPU seconds, with nothing wrapped; ``--trace 1`` wraps every layer's entry
points (``perfbench/tracer.py``) and prints the per-layer metrics. The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``perfbench-record``, carries the full record (environment,
workload-specific metrics, fail rate, failures, checks).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-up is repeated this many times per run; its median is ``setup_s``
SETUP_REPEATS = 5


def _import_seconds() -> float:
    """Median CPU time of importing the package in a fresh interpreter."""
    code = (
        "import time; t = time.process_time(); import repro, repro.api, "
        "repro.corpus.apps, repro.corpus.bugset, repro.fuzz.campaign, "
        "repro.fixer.validate, repro.service.daemon; "
        "print(time.process_time() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=str(ROOT),
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loop(workload, count, tracer):
    """Closed loop: ``count`` passes, one after another."""
    return [workload.run_pass(k, tracer) for k in range(count)]


def _end_to_end(workload, passes, setup_s):
    from perfbench.workloads import median, tail

    latencies = workload.latencies(passes)
    tail_p, tail_s = tail(latencies, workload.tail_cap)
    walls = workload.wall_latencies(passes)
    return {
        "setup_s": (setup_s, "s"),
        "pass_cpu_s": (workload.pass_seconds(passes), "s"),
        "op_cpu_p50_s": (median(latencies), "s"),
        "op_cpu_tail_s": (tail_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }, {
        "op_kind": workload.op_kind,
        "op_samples": len(latencies),
        "tail_percentile": tail_p,
        # wall-clock counterparts, for reading only: on a shared host they
        # also time the wait for a processor
        "pass_wall_s": median(p.wall for p in passes),
        "op_wall_p50_s": median(walls),
        "op_wall_tail_s": tail(walls, workload.tail_cap)[1],
    }


def _ratio(num, den):
    return num / den if den else 0.0


def _per_layer(tracer, passes, untraced_pass_s, traced_first_s):
    """Per-layer metrics: ``*_s`` are self seconds per pass over every
    traced pass (``service.*`` are inclusive); counts are per pass, from
    the first traced pass, where they repeat exactly."""
    n = len(passes)
    self_s = tracer.self_seconds()
    incl = tracer.inclusive_seconds()
    c = passes[0].trace_counts
    wall = sum(p.wall for p in passes)

    def s(name):
        return self_s.get(name, 0.0) / n

    total_counts = tracer.counts
    parse_total = self_s.get("golang.parse", 0.0)
    explore_total = self_s.get("runtime.explore", 0.0)
    request = incl.get("op.edit", 0.0) + incl.get("op.noop", 0.0)
    refresh = incl.get("service.refresh", 0.0)
    detect = incl.get("service.detect", 0.0)
    metrics = {
        "golang.parse_s": (s("golang.parse"), "s"),
        "golang.tokens": (c.get("golang.tokens", 0), "count"),
        "golang.tokens_per_s": (_ratio(total_counts["golang.tokens"], parse_total), "1/s"),
        "ssa.build_s": (s("ssa.build"), "s"),
        "ssa.instrs": (c.get("ssa.instrs", 0), "count"),
        "analysis.callgraph_s": (s("analysis.callgraph"), "s"),
        "analysis.alias_s": (s("analysis.alias"), "s"),
        "analysis.primitives_s": (s("analysis.primitives"), "s"),
        "analysis.depgraph_s": (s("analysis.depgraph"), "s"),
        "analysis.scope_s": (s("analysis.scope"), "s"),
        "analysis.pset_s": (s("analysis.pset"), "s"),
        "analysis.primitives": (c.get("analysis.primitives", 0), "count"),
        "analysis.dep_edges": (c.get("analysis.dep_edges", 0), "count"),
        "detector.paths_s": (s("detector.paths"), "s"),
        "detector.combinations": (c.get("detector.combinations", 0), "count"),
        "detector.suspicious_s": (s("detector.suspicious"), "s"),
        "detector.groups": (c.get("detector.groups", 0), "count"),
        "detector.channels": (c.get("detector.channels", 0), "count"),
        "constraints.solve_s": (s("constraints.solve"), "s"),
        "constraints.solver_calls": (c.get("constraints.solver_calls", 0), "count"),
        "constraints.nodes": (c.get("constraints.nodes", 0), "count"),
        "constraints.sat_ratio": (
            _ratio(c.get("constraints.sat", 0), c.get("constraints.solver_calls", 0)), "ratio"),
        "traditional.forget_unlock_s": (s("traditional.forget_unlock"), "s"),
        "traditional.double_lock_s": (s("traditional.double_lock"), "s"),
        "traditional.lock_order_s": (s("traditional.lock_order"), "s"),
        "traditional.struct_race_s": (s("traditional.struct_race"), "s"),
        "traditional.fatal_goroutine_s": (s("traditional.fatal_goroutine"), "s"),
        "engine.fingerprint_s": (s("engine.fingerprint"), "s"),
        "engine.cache_get_s": (s("engine.cache_get"), "s"),
        "engine.cache_put_s": (s("engine.cache_put"), "s"),
        "engine.cache_hit_ratio": (
            _ratio(c.get("engine.cache_hits", 0), c.get("engine.cache_gets", 0)), "ratio"),
        "engine.shards_executed": (c.get("engine.shards_executed", 0), "count"),
        "service.refresh_s": (refresh / n, "s"),
        "service.reparsed_files": (c.get("service.reparsed_files", 0), "count"),
        "service.detect_s": (detect / n, "s"),
        "service.overhead_s": ((request - refresh - detect) / n if request else 0.0, "s"),
        "fixer.preprocess_s": (s("fixer.preprocess"), "s"),
        "fixer.transform_s": (s("fixer.transform"), "s"),
        "fixer.fixed_ratio": (_ratio(c.get("fixer.fixed", 0), c.get("fixer.fixes", 0)), "ratio"),
        "fixer.validate_s": (s("fixer.validate"), "s"),
        "fixer.validate_fallbacks": (c.get("fixer.validate_fallbacks", 0), "count"),
        "runtime.explore_s": (s("runtime.explore"), "s"),
        "runtime.explore_runs": (c.get("runtime.explore_runs", 0), "count"),
        "runtime.explore_steps": (c.get("runtime.explore_steps", 0), "count"),
        "runtime.steps_per_s": (
            _ratio(total_counts["runtime.explore_steps"], explore_total), "1/s"),
        "runtime.explore_complete_ratio": (
            _ratio(c.get("runtime.explore_complete", 0), c.get("runtime.explorations", 0)),
            "ratio"),
        "runtime.sample_s": (s("runtime.sample"), "s"),
        "fuzz.generate_s": (s("fuzz.generate"), "s"),
        "diffcheck.classify_s": (s("diffcheck.classify"), "s"),
        "fuzz.agree_ratio": (_ratio(passes[0].counts.get("agree", 0), len(passes[0].ops)),
                             "ratio"),
        "trace.unattributed_share": (max(0.0, 1.0 - _ratio(tracer.layer_seconds(), wall)),
                                     "ratio"),
        "trace.overhead_s": (traced_first_s - untraced_pass_s, "s"),
    }
    return metrics


#: counts the determinism check compares between two passes of one seed
DETERMINISM_COUNTS = (
    "constraints.solver_calls", "runtime.explore_steps", "engine.shards_executed",
)


def run(args) -> int:
    t_process = time.perf_counter()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # the benchmark defines every knob: defaults
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import logging

    logging.disable(logging.WARNING)  # validation downgrades log per patch
    from perfbench import workloads as W
    from perfbench.tracer import NullTracer, Tracer, install_layers

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = W.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        import_s = _import_seconds()
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.process_time()
            workload.setup()
            setups.append(time.process_time() - start)
        setup_s = import_s + statistics.median(setups)
        if workload.name == "edit-warm":
            # one service per set-up; the trace run needs three fresh
            # ones, the measured loop keeps only the last
            spare = workload.services[:-1]
        else:
            spare = []

        problems = []
        count = workload.passes(args.seconds)
        if not args.trace:
            for service in spare:
                service.stop()
            passes = _loop(workload, count, NullTracer())
            extra_ops, found = workload.finish(passes)
            problems += found
            metrics, extra = _end_to_end(workload, passes, setup_s)
        else:
            # pass 0 untraced, then traced twice (edit-warm: each session
            # on a fresh service), then further traced passes up to ``count``
            if workload.name == "edit-warm":
                reference = workload.run_session(spare[0], 0)
            else:
                reference = workload.run_pass(0)
            tracer = Tracer()
            install_layers(tracer)
            traced = []
            try:
                while len(traced) < max(2, count):
                    k = max(0, len(traced) - 1)
                    before = dict(tracer.counts)
                    if workload.name == "edit-warm" and len(traced) < 2:
                        p = workload.run_session([spare[1], workload.services[-1]][len(traced)],
                                                 0, tracer)
                    else:
                        p = workload.run_pass(k, tracer)
                    p.trace_counts = {
                        key: tracer.counts[key] - before.get(key, 0) for key in tracer.counts
                    }
                    traced.append(p)
            finally:
                tracer.unwrap_all()
            first, second = traced[0], traced[1]
            if first.summary != reference.summary:
                problems.append("traced pass outputs differ from the untraced pass")
            counts_a = {**first.counts, **{k: first.trace_counts.get(k, 0)
                                           for k in DETERMINISM_COUNTS}}
            counts_b = {**second.counts, **{k: second.trace_counts.get(k, 0)
                                            for k in DETERMINISM_COUNTS}}
            if counts_a != counts_b or first.summary != second.summary:
                problems.append(f"determinism: {counts_a} != {counts_b}")
            if reference.counts != first.counts:
                problems.append(f"traced counts {first.counts} != untraced {reference.counts}")
            passes = [reference] + traced
            extra_ops, found = workload.finish(passes)
            problems += found
            metrics = _per_layer(tracer, traced, reference.wall, first.wall)
            extra = {"determinism_counts": counts_a, "traced_passes": len(traced)}
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(str(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"))

        ops = [op for p in passes for op in p.ops] + extra_ops
        failed = [op for op in ops if op.failed]
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": _commit(),
            "source_sha256": _source_digest(),
            "passes": len(passes),
            "attempted": len(ops),
            "failed": len(failed),
            "fail_rate": len(failed) / len(ops),
            "failures": sorted({f"{op.label}: {op.note}" for op in failed})[:20],
            "problems": problems,
            "counts": passes[0].counts,
            "named": workload.named(passes),
            "setup_samples_s": setups,
            "import_s": import_s,
            "run_wall_s": time.perf_counter() - t_process,
            **extra,
        }
        print("perfbench-record " + json.dumps(record, sort_keys=True, default=str))
        print(json.dumps({
            "correct": not problems,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus-cold", "edit-warm", "bugset-fix", "fuzz-campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
