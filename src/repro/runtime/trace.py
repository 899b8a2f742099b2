"""Execution tracing and utilisation analysis.

An optional :class:`Tracer` can be attached to a scheduler run to record
per-process activity in virtual time.  From the trace one can compute

* per-process busy intervals (a Gantt-style profile),
* array utilisation: the fraction of the makespan each process spends on
  its own communications,
* the wavefront profile: how many processes completed an event at each
  virtual time -- the asynchronous analogue of "which cells fire at step t"
  in the synchronous systolic array.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runtime.scheduler import SchedulerStats


@dataclass(frozen=True)
class TraceEvent:
    """One completed communication request of one process."""

    process: str
    clock: int  # the process clock right after the request completed
    kind: str  # "send" | "recv" | "par"


@dataclass
class Trace:
    """A flat event log plus derived views."""

    events: list[TraceEvent] = field(default_factory=list)

    def record(self, process: str, clock: int, kind: str) -> None:
        self.events.append(TraceEvent(process, clock, kind))

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> int:
        return max((e.clock for e in self.events), default=0)

    def per_process_events(self) -> dict[str, list[TraceEvent]]:
        out: dict[str, list[TraceEvent]] = defaultdict(list)
        for e in self.events:
            out[e.process].append(e)
        return dict(out)

    def busy_intervals(self) -> dict[str, tuple[int, int]]:
        """(first activity, last activity) per process in virtual time."""
        out: dict[str, tuple[int, int]] = {}
        for name, events in self.per_process_events().items():
            clocks = [e.clock for e in events]
            out[name] = (min(clocks), max(clocks))
        return out

    def utilisation(self) -> dict[str, float]:
        """events / makespan per process -- a rough busy fraction."""
        span = max(1, self.makespan)
        return {
            name: len(events) / span
            for name, events in self.per_process_events().items()
        }

    def wavefront(self) -> dict[int, int]:
        """virtual time -> number of events completing at that time."""
        out: dict[int, int] = defaultdict(int)
        for e in self.events:
            out[e.clock] += 1
        return dict(out)

    def compute_processes(self) -> list[str]:
        return sorted(
            name for name in self.per_process_events() if name.startswith("P(")
        )

    def summary(self) -> str:
        procs = self.per_process_events()
        lines = [
            f"trace: {len(self.events)} events, {len(procs)} processes, "
            f"makespan {self.makespan}"
        ]
        util = self.utilisation()
        compute = self.compute_processes()
        if compute:
            avg = sum(util[p] for p in compute) / len(compute)
            lines.append(f"  mean compute-process utilisation: {avg:.3f}")
        return "\n".join(lines)


def attach_tracer(network) -> Trace:
    """Hook a fresh :class:`Trace` into ``network``'s scheduler.

    Tracing rides the scheduler's resume-path hook: one ``(process, clock,
    kind)`` callback per completed request, and a single pointer test per
    resume when no tracer is attached -- zero-cost when off.  (The previous
    implementation wrapped every process generator, adding a frame per
    process whether or not anyone read the trace.)

    Attaching is *idempotent*: a repeat attach replaces the hook, so each
    request is recorded exactly once and only the newest :class:`Trace`
    receives events.
    """
    trace = Trace()
    network.scheduler._trace = trace.record
    return trace


def trace_run(network, max_rounds: int | None = None) -> tuple[SchedulerStats, Trace]:
    """Run a :class:`ProcessNetwork` with tracing attached.

    A network runs exactly once (see :meth:`Scheduler.run`): a second
    ``trace_run`` on the same network raises
    :class:`~repro.util.errors.RuntimeSimulationError` instead of silently
    returning an empty trace from exhausted generators.  Repeat
    :func:`attach_tracer` *before* the run is still fine -- attaching is
    idempotent.
    """
    trace = attach_tracer(network)
    stats = network.run(max_rounds=max_rounds)
    return stats, trace
