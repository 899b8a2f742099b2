"""Shared plumbing of the benchmark: paths, the service cycle, clean children.

Everything the benchmark runs of the program runs in a child process built
by :func:`child_env`: every ``REPRO_*`` knob is stripped so a stray setting
in the caller's shell cannot make two commits measure different programs.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPECS = BENCH_DIR / "specs"
#: where traced runs and the steadiness command write their JSON
OUT_DIR = ROOT / ".perfbench"

#: design id -> (program, design-spec file); the four paper designs
DESIGNS = {
    "D1": ("polyprod", "d1.json"),
    "D2": ("polyprod", "d2.json"),
    "E1": ("matmul", "e1.json"),
    "E2": ("matmul", "e2.json"),
}

#: longest a child may run before it is killed (its op then counts as failed)
CHILD_TIMEOUT_S = 60.0

#: problem sizes of the service-warm cycle and the folded array shapes
SERVICE_SIZES = {"polyprod": 16, "matmul": 8}
SERVICE_ARRAYS = {"polyprod": [2], "matmul": [2, 2]}
#: the request kinds sent for every design in one service-warm pass
SERVICE_KINDS = (
    ("sim", {"backend": "sim"}),
    ("pygen", {"backend": "pygen"}),
    ("npgen", {"backend": "npgen"}),
    ("npgen-batch8", {"backend": "npgen", "batch": 8}),
    ("npgen-batch8-unchecked", {"backend": "npgen", "batch": 8, "check": False}),
    ("sim-partitioned", {"backend": "sim", "array": True}),
    ("npgen-banded", {"backend": "npgen", "array": True}),
)


def service_cycle(seed: int) -> list[tuple[str, str, dict]]:
    """``(design, kind, /execute body minus the fingerprint)`` of one pass.

    Every request of a pass uses ``seed`` (a batch of eight uses
    ``seed .. seed + 7``); the caller advances it from pass to pass.
    """
    cycle = []
    for design, (program, _) in DESIGNS.items():
        n = SERVICE_SIZES[program]
        for kind, fields in SERVICE_KINDS:
            body = {"sizes": {"n": n}, "seed": seed, **fields}
            if body.get("array"):
                body["array"] = SERVICE_ARRAYS[program]
            cycle.append((design, kind, body))
    return cycle


def pass_seed(seed: int, index: int) -> int:
    """The input seed of pass ``index``; batches of passes never overlap."""
    return 100_000 * seed + 8 * index


class BenchError(Exception):
    """The benchmark cannot run here (program missing, daemon did not start)."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program source not found: {SRC / 'repro'}")


def source_path(program: str) -> Path:
    return SPECS / f"{program}.src"


def design_path(design: str) -> Path:
    return SPECS / DESIGNS[design][1]


def child_env() -> dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, importing
    the program from this checkout's ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    code: int
    output: str  # stdout and stderr, interleaved
    wall_s: float
    peak_rss_mb: float


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run ``python <argv>`` to completion; time it and read its peak RSS.

    The child is reaped with ``os.wait4`` so its own ``ru_maxrss`` is
    reported, not the maximum over every child this process ever had.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # signal by pid: Popen.kill would poll, and a poll that reaps the child
    # loses its resource usage
    watchdog = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, output, wall, usage.ru_maxrss / 1024)


def reap(proc: subprocess.Popen, timeout: float = 10.0) -> float:
    """Terminate ``proc``, wait for it, and return its peak RSS in MB.

    ``proc`` must not have been polled or waited for: until it is reaped
    here its pid stays ours, and ``os.wait4`` reports its own peak.
    """
    os.kill(proc.pid, signal.SIGTERM)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.01)


def tail_ms(latencies_s: list[float]) -> tuple[float, float] | None:
    """``(percentile, value in ms)`` of the highest percentile that still
    has at least ten ops beyond it; None below 40 ops (no tail to speak of)."""
    n = len(latencies_s)
    if n < 40:
        return None
    ordered = sorted(latencies_s)
    index = n - 11  # ten ops lie strictly beyond this one
    return 100.0 * (index + 1) / n, ordered[index] * 1000


def environment_note() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
