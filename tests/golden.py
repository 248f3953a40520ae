"""The detection golden: what ``tests/data/detect_golden.json`` holds.

Two tables, each mapping a program name to the ordered ``render()`` of
every report:

* ``detect`` — ``run_gcatch`` on the 21 corpus apps (keyed by app name)
  and the 49 bug-set cases (keyed by case id);
* ``patched`` — ``detect_bmoc`` on each bug-set program after GFix fixed
  one of its BMOC channel reports (keyed ``<case id>/<report index>``).

Regenerate only when a change is *meant* to alter reports::

    PYTHONPATH=src python -m tests.golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

GOLDEN_PATH = Path(__file__).parent / "data" / "detect_golden.json"


def detect_programs() -> List[Tuple[str, object]]:
    """(name, lowered program) for every corpus app and bug-set case."""
    from repro.corpus.apps import build_corpus
    from repro.corpus.bugset import build_bug_set
    from repro.ssa.builder import build_program

    programs = [(app.name, app.program()) for app in build_corpus()]
    programs += [
        (case.case_id, build_program(case.source, case.case_id + ".go"))
        for case in build_bug_set()
    ]
    return programs


def patched_programs() -> List[Tuple[str, object]]:
    """(name, lowered program) for each GFix-patched bug-set program."""
    from repro.api import Project
    from repro.corpus.bugset import build_bug_set
    from repro.ssa.builder import build_program

    out = []
    for case in build_bug_set():
        project = Project.from_source(case.source, case.case_id + ".go")
        for index, report in enumerate(project.detect().bmoc.bmoc_channel_bugs()):
            fix = project.fix(report)
            if fix.fixed:
                name = f"{case.case_id}/{index}"
                out.append((name, build_program(fix.patch.apply(), "patched.go")))
    return out


def renders(reports) -> List[str]:
    return [report.render() for report in reports]


def record() -> Dict[str, Dict[str, List[str]]]:
    from repro.detector.bmoc import detect_bmoc
    from repro.detector.gcatch import run_gcatch

    return {
        "detect": {
            name: renders(run_gcatch(program).all_reports())
            for name, program in detect_programs()
        },
        "patched": {
            name: renders(detect_bmoc(program).reports)
            for name, program in patched_programs()
        },
    }


def load() -> Dict[str, Dict[str, List[str]]]:
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: python -m tests.golden --write")
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
