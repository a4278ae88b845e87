"""Output summaries and the sequential reference every op is checked against.

The reference is the repository's one reference semantics: a fresh
``build_pipeline`` plus a scalar ``EventDispatcher.consume`` loop over the
program's record stream, with the op's configuration.  It is computed
outside every timed region.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import SystemConfig
from repro.lba.capture import iter_machine_records
from repro.lifeguards import ALL_LIFEGUARDS
from repro.trace.replay import build_pipeline
from repro.workloads.base import get_workload


@dataclass(frozen=True)
class Outcome:
    """The checked part of one lifeguard pass over one record stream."""

    records: int
    events_handled: int
    accelerator: Tuple[int, ...]
    dispatch: Tuple[int, ...]
    reports: Tuple[Tuple, ...]


def report_rows(reports: Iterable) -> Tuple[Tuple, ...]:
    """``ErrorReport`` objects as the tuples the gateway's report document uses."""
    return tuple(
        (r.kind.value, r.lifeguard, r.pc, r.address, r.thread_id, r.message)
        for r in reports
    )


def outcome_of(result) -> Outcome:
    """Summarise a ``MonitoringResult`` or ``ReplayResult``."""
    return Outcome(
        records=result.dispatch.records_consumed,
        events_handled=result.dispatch.events_handled,
        accelerator=astuple(result.accelerator),
        dispatch=astuple(result.dispatch),
        reports=report_rows(result.reports),
    )


#: Fields each workload compares against the reference.  Live runs charge
#: cache latencies the reference does not model, so their dispatch cycle
#: counts differ by design; gateway sessions are sharded, so their
#: accelerator/dispatch warm-up at shard boundaries differs by design.
CHECKED_FIELDS = {
    "live_monitor": ("records", "events_handled", "accelerator", "reports"),
    "capture_replay": ("records", "events_handled", "accelerator", "dispatch", "reports"),
    "gateway_upload": ("records", "reports"),
}


def mismatches(workload: str, got: Outcome, want: Outcome) -> List[str]:
    """Names of the checked fields where ``got`` differs from the reference."""
    return [
        name for name in CHECKED_FIELDS[workload]
        if getattr(got, name) != getattr(want, name)
    ]


class ReferenceCache:
    """Sequential-reference outcomes, each computed once per run.

    Only the most recent program's record stream is kept in memory, so ask
    for references grouped by program.
    """

    def __init__(self) -> None:
        self._records: Tuple[Tuple[str, float], list] = (("", 0.0), [])
        self._outcomes: Dict[Tuple, Outcome] = {}

    def records(self, program: str, scale: float) -> list:
        key = (program, scale)
        if self._records[0] != key:
            machine = get_workload(program, scale=scale).build_machine()
            self._records = (key, list(iter_machine_records(machine)))
        return self._records[1]

    def outcome(
        self, program: str, scale: float, lifeguard: str,
        config: Optional[SystemConfig] = None, config_key: Tuple = (),
    ) -> Outcome:
        key = (program, scale, lifeguard, config_key)
        if key not in self._outcomes:
            instance = ALL_LIFEGUARDS[lifeguard]()
            accelerator, dispatcher = build_pipeline(instance, config)
            consume = dispatcher.consume
            for record in self.records(program, scale):
                consume(record)
            instance.finalize()
            self._outcomes[key] = Outcome(
                records=dispatcher.stats.records_consumed,
                events_handled=dispatcher.stats.events_handled,
                accelerator=astuple(accelerator.stats),
                dispatch=astuple(dispatcher.stats),
                reports=report_rows(instance.reports),
            )
        return self._outcomes[key]
