"""The distributed-memory runtime substrate.

The paper ran its hand-translated programs on transputer networks and a
Symult s2010; this package substitutes a deterministic simulator with the
same semantics the paper relies on (Section 4): asynchronously composed
sequential processes, synchronous (blocking) communication over mutually
independent channels.

Processes are Python generators that *yield* communication requests
(:mod:`repro.runtime.ops`); the scheduler (:mod:`repro.runtime.scheduler`)
matches sends with receives, detects deadlock, and tracks Lamport-style
virtual time so that pipeline makespans can be measured.
:mod:`repro.runtime.network` lowers a compiled
:class:`~repro.core.program.SystolicProgram` at a concrete problem size into
a process network, and :func:`repro.runtime.network.execute` runs it against
host-side variable arrays.
"""

from repro.util import lazy_exports

__all__ = [
    "Send",
    "Recv",
    "Par",
    "Channel",
    "Scheduler",
    "SchedulerStats",
    "Host",
    "ProcessNetwork",
    "build_network",
    "execute",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runtime.ops": ("Send", "Recv", "Par"),
    "repro.runtime.channel": ("Channel",),
    "repro.runtime.scheduler": ("Scheduler", "SchedulerStats"),
    "repro.runtime.host": ("Host",),
    "repro.runtime.network": ("ProcessNetwork", "build_network", "execute"),
})
