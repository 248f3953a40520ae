"""The resumable sweep manifest: a JSONL checkpoint of unit outcomes.

One line per completed (or failed) unit, appended the moment the unit
finishes — never buffered — so a killed sweep loses at most the units in
flight. Reads tolerate torn tails exactly like
:class:`repro.obs.journal.TelemetryJournal`: a line the killed writer
never finished is skipped, not fatal, and the unit it would have
recorded simply re-runs.

Resume contract (the driver's skip rule):

* a unit is **reusable** iff the manifest's latest record for its uid
  has ``ok: true`` and the *same fingerprint* the fresh plan computed —
  an edited unit (or a detector-version bump, which is folded into the
  fingerprint) re-runs even though its uid completed before;
* the latest record per uid wins, so a re-run simply appends over
  history (the file is an append-only log, not a table);
* failed records (``ok: false``) are never reused — a resume retries
  them.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterator, List, Optional


class SweepManifest:
    """Append-only JSONL checkpoint, torn-line tolerant on read."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()

    # -- write ---------------------------------------------------------------

    def append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        with self._lock:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            # a killed writer can leave a torn, newline-less tail; start on
            # a fresh line so only the torn record is lost, not ours too
            if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
                with open(self.path, "rb") as tail:
                    tail.seek(-1, os.SEEK_END)
                    if tail.read(1) != b"\n":
                        line = "\n" + line
            with open(self.path, "a") as handle:
                handle.write(line)
                handle.flush()

    def record_unit(
        self,
        uid: str,
        fingerprint: str,
        ok: bool,
        outcome: Optional[dict],
        meta: Optional[dict] = None,
    ) -> None:
        """The one record shape per finished unit. ``outcome`` is the
        deterministic result payload (what aggregation reads); ``meta``
        is wall-clock/placement telemetry excluded from parity."""
        record = {
            "kind": "unit",
            "uid": uid,
            "fingerprint": fingerprint,
            "ok": bool(ok),
            "outcome": outcome,
        }
        if meta:
            record["meta"] = meta
        self.append(record)

    # -- read ----------------------------------------------------------------

    def iter_records(self) -> Iterator[dict]:
        """All parseable records, file order; torn/corrupt lines skipped."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail from a killed writer
                if isinstance(record, dict):
                    yield record

    def latest_by_uid(self) -> Dict[str, dict]:
        """Last record per unit id (a re-run supersedes history)."""
        latest: Dict[str, dict] = {}
        for record in self.iter_records():
            if record.get("kind") == "unit" and isinstance(record.get("uid"), str):
                latest[record["uid"]] = record
        return latest

    def reusable_outcomes(self, fingerprints: Dict[str, str]) -> Dict[str, dict]:
        """uid -> checkpointed outcome, for every uid in ``fingerprints``
        whose latest record completed ok under exactly that fingerprint.
        Reads the file once, however many units the plan has."""
        latest = self.latest_by_uid()
        reusable = {}
        for uid, fingerprint in fingerprints.items():
            record = latest.get(uid)
            if (
                record is not None
                and record.get("ok") is True
                and record.get("fingerprint") == fingerprint
                and isinstance(record.get("outcome"), dict)
            ):
                reusable[uid] = record["outcome"]
        return reusable

    def reusable_outcome(self, uid: str, fingerprint: str) -> Optional[dict]:
        """The checkpointed outcome for one ``uid`` (see
        :meth:`reusable_outcomes`)."""
        return self.reusable_outcomes({uid: fingerprint}).get(uid)

    def completed_uids(self) -> List[str]:
        return sorted(
            uid for uid, rec in self.latest_by_uid().items() if rec.get("ok") is True
        )


__all__ = ["SweepManifest"]
