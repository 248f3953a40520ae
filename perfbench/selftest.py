"""Self-test of the correctness gate: a deliberately wrong result in each
workload must be counted as a failed operation, never pass silently.

    python3 perfbench/selftest.py

Each test runs a real (shortened) pass with one program output corrupted
at the public boundary the workload reads, then asserts exactly which
operations the checks marked failed. Takes about half a minute.
"""

from __future__ import annotations

import logging
import os
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
logging.disable(logging.WARNING)

from perfbench import workloads as W  # noqa: E402


class Patched:
    """Temporarily replace ``owner.attr``."""

    def __init__(self, owner, attr, make):
        self.owner, self.attr, self.make = owner, attr, make

    def __enter__(self):
        self.original = getattr(self.owner, self.attr)
        setattr(self.owner, self.attr, self.make(self.original))
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)


def failed(ops):
    return [op for op in ops if op.failed]


class GateTest(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp(dir=str(ROOT / ".perfbench_work")
                                        if (ROOT / ".perfbench_work").is_dir() else None)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_corpus_cell_off_by_one(self):
        import repro.detector.gcatch as gcatch

        workload = W.CorpusCold(0, self.workdir)
        workload.setup()

        def make(original):
            def run_gcatch(program, *args, **kwargs):
                result = original(program, *args, **kwargs)
                if program.filename == "etcd.go":  # one forget-unlock report lost
                    drop = next(r for r in result.traditional if r.category == "forget-unlock")
                    result.traditional = [r for r in result.traditional if r is not drop]
                return result
            return run_gcatch

        with Patched(gcatch, "run_gcatch", make):
            result = workload.run_pass(0)
        self.assertEqual(len(failed(result.ops)), 1)
        self.assertIn("etcd", failed(result.ops)[0].note)

    def test_corpus_fp_breakdown(self):
        ops = {name: W.Op("app", 0.0) for name in W.truth.TABLE1}
        rows = dict(W.truth.TABLE1)
        causes = dict(W.truth.FP_CAUSES, **{"call-graph": 13, "alias-analysis": 18})
        W.check_corpus_pass(rows, causes, ops)
        self.assertEqual(len(failed(ops.values())), len(ops))

    def test_edit_warm_report_dropped(self):
        from repro.service.daemon import AnalysisService

        workload = W.EditWarm(0, self.workdir)
        try:
            workload.setup()
            calls = []

            def make(original):
                def call(self, method, *args, **kwargs):
                    response = original(self, method, *args, **kwargs)
                    calls.append(method)
                    if len(calls) == 2:  # the second request loses one report
                        response["result"]["reports"] = response["result"]["reports"][1:]
                    return response
                return call

            with Patched(AnalysisService, "call", make):
                result = workload.run_pass(0)
            extra, problems = workload.finish([result])
        finally:
            workload.close()
        self.assertEqual(problems, [])
        bad = failed(result.ops)
        self.assertIn(result.ops[1], bad)
        # the rest fail only where the cache serves ROADMAP item 1's stale
        # alias report, and the split row is the multi-file dedup finding
        for op in bad:
            if op is not result.ops[1]:
                self.assertIn(op.label, ("edit:alias", "noop"))
        self.assertEqual(len(extra), 1)

    def test_bugset_forced_fallback_leak(self):
        import repro.fixer.validate as validate

        workload = W.BugsetFix(0, self.workdir)
        workload.setup()
        workload.cases = [c for c in workload.cases if c.case_id in ("Set00", "Set23")]

        def small_explore(original):
            def explore(program, *args, **kwargs):
                kwargs["max_runs"] = 4  # force the sampling fallback
                return original(program, *args, **kwargs)
            return explore

        def leaky_sample(original):
            def run_program(program, *args, **kwargs):
                outcome = original(program, *args, **kwargs)
                if program.filename == "patched.go":
                    outcome.global_deadlock = True
                return outcome
            return run_program

        with Patched(validate, "explore", small_explore), \
                Patched(validate, "run_program", leaky_sample):
            result = workload.run_pass(0)  # seed 0, pass 0 validates Set23
        loop = next(op for op in result.ops if op.label == "Set23")
        self.assertTrue(loop.failed)
        self.assertIn("leaks", loop.note)

    def test_fuzz_unexplained_and_rerun(self):
        import repro.fuzz.campaign as campaign

        workload = W.FuzzCampaign(0, self.workdir)
        workload.setup()
        try:
            def make(original):
                seen = []

                def classify(*args, **kwargs):
                    dynamic, classification, explained, explanation = original(*args, **kwargs)
                    seen.append(1)
                    if len(seen) == 3:  # the third program: an unexplained disagreement
                        return dynamic, "static-only", False, ""
                    return dynamic, classification, explained, explanation
                return classify

            with Patched(campaign, "classify_oracles", make):
                result = workload.run_pass(0)
            self.assertEqual(len(failed(result.ops)), 1)
            self.assertIn("unexplained", failed(result.ops)[0].note)
            # the clean re-run now differs from the recorded pass at index 2
            workload.finish([result])
            self.assertEqual(len(failed(result.ops)), 1)
            self.assertIn("unexplained", failed(result.ops)[0].note)
            result.summary[5] = dict(result.summary[5], runs=-1)
            workload.finish([result])
            self.assertEqual(len(failed(result.ops)), 2)
        finally:
            workload.close()


if __name__ == "__main__":
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    unittest.main()
