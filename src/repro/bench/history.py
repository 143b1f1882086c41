"""The append-only benchmark trajectory store: ``BENCH_history.jsonl``.

One schema-versioned record per line, appended after every benchmark
run and never rewritten — the file *is* the performance trajectory of
the repository, and ``repro bench compare`` gates fresh runs against
it.  Records are grouped by ``(bench, workload_key)``: a workload
parameter change starts a new trajectory for that benchmark instead of
corrupting the old one.

Corrupt or foreign lines are skipped on load (and counted), so one
bad append can never take the trend tooling down.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.bench.record import BenchResult, SchemaError, migrate, validate

logger = logging.getLogger(__name__)

#: Default store location, resolved relative to the working directory.
DEFAULT_HISTORY = "BENCH_history.jsonl"


class History:
    """Append and query the JSONL trajectory store at ``path``."""

    def __init__(self, path: Optional[str] = None):
        self.path = DEFAULT_HISTORY if path is None else path

    # -- writing -------------------------------------------------------- #

    def append(self, record: Union[BenchResult, Dict]) -> Dict:
        """Append one record (validated) and return its dict form."""
        payload = record.to_dict() if isinstance(record, BenchResult) else record
        validate(payload)
        line = json.dumps(payload, sort_keys=True, default=str)
        with open(self.path, "a") as handle:
            handle.write(line + "\n")
        return payload

    # -- reading -------------------------------------------------------- #

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> Tuple[List[Dict], int]:
        """All valid records in append order, plus the skipped-line count."""
        records: List[Dict] = []
        skipped = 0
        if not self.exists():
            return records, skipped
        with open(self.path) as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = migrate(json.loads(line))
                    validate(record)
                except (json.JSONDecodeError, SchemaError) as exc:
                    skipped += 1
                    obs.inc("bench.history.skipped_lines")
                    logger.warning(
                        "skipping corrupt history line %s:%d: %s",
                        self.path,
                        number,
                        exc,
                    )
                    continue
                records.append(record)
        return records, skipped

    def records(self) -> List[Dict]:
        return self.load()[0]

    def benches(self) -> List[str]:
        """Distinct benchmark ids present, sorted."""
        return sorted({record["bench"] for record in self.records()})

    def records_for(
        self,
        bench: str,
        workload_key: Optional[str] = None,
        window: Optional[int] = None,
    ) -> List[Dict]:
        """The trajectory of one benchmark, oldest first.

        ``workload_key`` restricts to one parameterisation; ``window``
        keeps only the most recent N records.
        """
        matching = [
            record
            for record in self.records()
            if record["bench"] == bench
            and (workload_key is None or record["workload_key"] == workload_key)
        ]
        if window is not None and window > 0:
            matching = matching[-window:]
        return matching

    def latest(
        self, bench: str, workload_key: Optional[str] = None
    ) -> Optional[Dict]:
        matching = self.records_for(bench, workload_key)
        return matching[-1] if matching else None

    def trend(
        self,
        bench: str,
        workload_key: Optional[str] = None,
        window: Optional[int] = None,
    ) -> List[Tuple[str, float]]:
        """``(created_at, seconds)`` pairs, oldest first."""
        return [
            (record["created_at"], float(record["wall_clock"]["seconds"]))
            for record in self.records_for(bench, workload_key, window)
        ]

    def grouped(self) -> Dict[Tuple[str, str], List[Dict]]:
        """All records keyed by ``(bench, workload_key)``, append order."""
        groups: Dict[Tuple[str, str], List[Dict]] = {}
        for record in self.records():
            groups.setdefault(
                (record["bench"], record["workload_key"]), []
            ).append(record)
        return groups
