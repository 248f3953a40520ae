"""Corpus-sweep planning: deterministic work units with content fingerprints.

A *plan* turns a sweep's input — a corpus directory tree, or a fuzz
campaign spec — into an ordered list of :class:`WorkUnit`. Units are the
granularity of everything downstream: dispatch, manifest checkpointing,
resume, and aggregation. The contract that makes sweeps resumable and
every worker count byte-identical:

* planning is **deterministic**: the same tree (same bytes) plans the
  same units in the same order with the same fingerprints;
* a unit's ``fingerprint`` covers exactly what its analysis reads — the
  sorted file set with content hashes, plus the engine/encoder/solver
  version preamble — so a manifest entry is reusable iff the fingerprint
  still matches (an edit *or* a detector-semantics bump re-runs it);
* unit ids are stable path-derived slugs.

A *project* unit mirrors :meth:`repro.api.Project.from_path` exactly: a
directory unit covers the ``*.go`` files directly inside it
(non-recursive — nested directories are their own units), a file unit
covers one ``.go`` file.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.constraints import encoding, solver
from repro.engine import fingerprint as engine_fp


def _version_preamble() -> str:
    """Detection-semantics tag folded into every unit fingerprint: a
    version bump must invalidate checkpointed outcomes on resume."""
    return (
        f"engine={engine_fp.ENGINE_VERSION};"
        f"encoder={encoding.ENCODER_VERSION};"
        f"solver={solver.SOLVER_VERSION}"
    )


@dataclass(frozen=True)
class WorkUnit:
    """One dispatchable unit of a sweep."""

    uid: str  # stable path-derived (or shard-derived) id
    kind: str  # 'project' | 'fuzz'
    fingerprint: str
    path: Optional[str] = None  # project units: the .go file or directory
    seed: Optional[int] = None  # fuzz units: campaign seed
    start: Optional[int] = None  # fuzz units: first program index
    count: Optional[int] = None  # fuzz units: programs in this shard

    def to_json(self) -> dict:
        payload = {"uid": self.uid, "kind": self.kind, "fingerprint": self.fingerprint}
        if self.kind == "project":
            payload["path"] = self.path
        else:
            payload["seed"] = self.seed
            payload["start"] = self.start
            payload["count"] = self.count
        return payload


@dataclass
class SweepPlan:
    """The ordered unit list plus enough provenance to re-plan."""

    kind: str  # 'corpus' | 'fuzz'
    root: Optional[str]
    units: List[WorkUnit] = field(default_factory=list)

    def by_uid(self) -> Dict[str, WorkUnit]:
        return {unit.uid: unit for unit in self.units}

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "root": self.root,
            "units": [unit.to_json() for unit in self.units],
        }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def unit_fingerprint(paths: List[str], root: str) -> str:
    """Content fingerprint of one project unit's file set."""
    h = hashlib.sha256()
    h.update((_version_preamble() + "\n").encode())
    for path in sorted(paths):
        rel = os.path.relpath(path, root)
        with open(path, "rb") as handle:
            digest = _sha(handle.read())
        h.update(f"{rel}={digest}\n".encode())
    return h.hexdigest()


def _slug(rel: str) -> str:
    if rel in (".", ""):
        return "root"
    slug = rel.replace(os.sep, "/")
    return slug[:-3] if slug.endswith(".go") else slug


def plan_corpus(root: str) -> SweepPlan:
    """Walk a corpus tree into project units.

    Every directory that directly contains at least one ``.go`` file is
    one unit (covering exactly those files, like ``Project.from_path`` on
    a directory); a root that is itself a single ``.go`` file is one unit.
    Walk order is sorted, so the plan is deterministic.
    """
    root = os.path.abspath(root)
    if not os.path.exists(root):
        raise FileNotFoundError(root)
    plan = SweepPlan(kind="corpus", root=root)
    if os.path.isfile(root):
        if not root.endswith(".go"):
            raise ValueError(f"not a .go file or directory: {root}")
        plan.units.append(
            WorkUnit(
                uid=_slug(os.path.basename(root)),
                kind="project",
                fingerprint=unit_fingerprint([root], os.path.dirname(root)),
                path=root,
            )
        )
        return plan
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        go_files = sorted(
            os.path.join(dirpath, n) for n in filenames if n.endswith(".go")
        )
        if not go_files:
            continue
        plan.units.append(
            WorkUnit(
                uid=_slug(os.path.relpath(dirpath, root)),
                kind="project",
                fingerprint=unit_fingerprint(go_files, root),
                path=dirpath,
            )
        )
    if not plan.units:
        raise FileNotFoundError(f"no .go files under {root}")
    return plan


def plan_fuzz(seed: int, count: int, shard_size: int = 25) -> SweepPlan:
    """Shard one fuzz campaign into ``ceil(count / shard_size)`` units.

    Program generation is a pure function of ``(seed, index)``, so a
    shard's fingerprint is its spec plus the version preamble — there is
    no file content to hash.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    plan = SweepPlan(kind="fuzz", root=None)
    start = 0
    while start < count:
        size = min(shard_size, count - start)
        spec = f"fuzz;{_version_preamble()};seed={seed};start={start};count={size}"
        plan.units.append(
            WorkUnit(
                uid=f"fuzz-s{seed}-{start:05d}",
                kind="fuzz",
                fingerprint=_sha(spec.encode()),
                seed=seed,
                start=start,
                count=size,
            )
        )
        start += size
    return plan


def materialize_bugset(root: str) -> List[str]:
    """Write the 49-program public bug set (§5.2) as a corpus tree:
    one ``<case_id>/main.go`` per case. Idempotent — rewriting the same
    set leaves fingerprints unchanged, so a resume still skips. Returns
    the case directories in plan (sorted) order."""
    from repro.corpus.bugset import build_bug_set

    root = os.path.abspath(root)
    os.makedirs(root, exist_ok=True)
    dirs = []
    for case in build_bug_set():
        case_dir = os.path.join(root, case.case_id)
        os.makedirs(case_dir, exist_ok=True)
        path = os.path.join(case_dir, "main.go")
        data = case.source if case.source.endswith("\n") else case.source + "\n"
        existing = None
        if os.path.exists(path):
            with open(path, "r") as handle:
                existing = handle.read()
        if existing != data:
            with open(path, "w") as handle:
                handle.write(data)
        dirs.append(case_dir)
    return sorted(dirs)


__all__ = [
    "SweepPlan",
    "WorkUnit",
    "materialize_bugset",
    "plan_corpus",
    "plan_fuzz",
    "unit_fingerprint",
]
