"""Lightweight opt-in profiling for the symbolic core and the explorer.

Set ``REPRO_PROFILE=1`` and every run prints a per-stage timing / counter
table to stderr at interpreter exit: expression-intern hits, compiled-form
cache hits, guard/piecewise memo hits, cross-design derivation memo hits,
the pygen module-cache stats, and the sweep stage timings.  The hooks are
plain integer increments, cheap enough to stay enabled unconditionally;
only the report itself is gated on the environment variable.

Subsystems *register* a named provider (a zero-argument callable returning
a flat ``{counter: value}`` dict) instead of pushing values here, so the
report always reflects live state and importing this module never drags in
the rest of the package.  Providers register when their module is imported,
so the report lists only the subsystems a run actually loaded.
"""

from __future__ import annotations

import atexit
import os
import sys
from typing import Callable, Mapping

__all__ = [
    "enabled",
    "register",
    "add_stage",
    "reset_stages",
    "snapshot",
    "format_report",
    "skip_report",
]

_providers: dict[str, Callable[[], Mapping[str, object]]] = {}
_stages: dict[str, float] = {}


def enabled() -> bool:
    """True iff ``REPRO_PROFILE`` asks for the exit report."""
    return os.environ.get("REPRO_PROFILE", "") not in ("", "0")


def register(name: str, provider: Callable[[], Mapping[str, object]]) -> None:
    """Register a named counter provider (later registrations replace)."""
    _providers[name] = provider


def add_stage(name: str, seconds: float) -> None:
    """Accumulate wall-clock time into a named stage."""
    _stages[name] = _stages.get(name, 0.0) + seconds


def reset_stages() -> None:
    _stages.clear()


def snapshot() -> dict:
    """All counters and stage timings as one JSON-friendly dict."""
    counters = {name: dict(provider()) for name, provider in sorted(_providers.items())}
    return {
        "counters": counters,
        "stages": {name: round(s, 6) for name, s in sorted(_stages.items())},
    }


def format_report() -> str:
    """A human-readable table of every registered counter and stage."""
    snap = snapshot()
    lines = ["-- REPRO_PROFILE report " + "-" * 40]
    for name, counters in snap["counters"].items():
        parts = "  ".join(f"{k}={v}" for k, v in counters.items())
        lines.append(f"{name:<20} {parts}")
    if snap["stages"]:
        lines.append("stages:")
        for name, seconds in snap["stages"].items():
            lines.append(f"  {name:<25} {seconds:.3f}s")
    return "\n".join(lines)


def skip_report() -> None:
    """Drop the exit report: the process ran nothing worth reporting (the
    CLI calls this after a usage error)."""
    atexit.unregister(_report_at_exit)


def _report_at_exit() -> None:
    if enabled():
        print(format_report(), file=sys.stderr)


atexit.register(_report_at_exit)
