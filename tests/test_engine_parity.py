"""Golden-output regression suite for detection.

``tests/data/detect_golden.json`` (see :mod:`tests.golden`) holds the
ordered ``render()`` of every report the serial detector produced on the
21 corpus apps and the 49 bug-set cases, plus ``detect_bmoc`` on every
GFix-patched bug-set program. Every detect must reproduce it byte for
byte: cold, and warm through a result cache that serves every shard.
"""

from __future__ import annotations

import threading

import pytest

from repro.corpus.bugset import build_bug_set
from repro.detector.bmoc import detect_bmoc
from repro.detector.gcatch import run_gcatch
from repro.engine import ResultCache
from tests import golden

GOLDEN = golden.load()
PROGRAMS = dict(golden.detect_programs())
BUG_SET = build_bug_set()


def renders(result):
    return golden.renders(result.all_reports())


def test_golden_covers_apps_and_cases():
    assert len(GOLDEN["detect"]) == 21 + 49
    assert sum(len(r) for r in GOLDEN["detect"].values()) == 448
    assert sorted(GOLDEN["detect"]) == sorted(PROGRAMS)


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_warm_cache_matches_serial(name):
    """Cold, then warm through one in-memory cache: both are the golden."""
    program = PROGRAMS[name]
    cache = ResultCache()
    cold = run_gcatch(program, cache=cache)
    assert renders(cold) == GOLDEN["detect"][name]
    warm = run_gcatch(program, cache=cache)
    assert {s.outcome for s in warm.shards} == {"cached"}
    assert renders(warm) == GOLDEN["detect"][name]


@pytest.mark.parametrize("case", BUG_SET, ids=[c.case_id for c in BUG_SET])
def test_parallel_detection_matches_serial(case):
    """Two detects of one program on two threads at once — what the
    analysis service's worker pool does — both reproduce the golden:
    no state leaks between concurrent runs."""
    program = PROGRAMS[case.case_id]
    results = [None, None]

    def detect(slot):
        results[slot] = renders(run_gcatch(program))

    threads = [threading.Thread(target=detect, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [GOLDEN["detect"][case.case_id]] * 2


def test_patched_programs_match_golden():
    patched = golden.patched_programs()
    assert [name for name, _ in patched] == list(GOLDEN["patched"])
    for name, program in patched:
        assert golden.renders(detect_bmoc(program).reports) == GOLDEN["patched"][name]


def test_whole_bugset_counts_match():
    """Aggregate report count over the bug set is the golden's."""
    total = sum(len(run_gcatch(PROGRAMS[c.case_id]).all_reports()) for c in BUG_SET)
    assert total == sum(len(GOLDEN["detect"][c.case_id]) for c in BUG_SET)
    assert total > 0
