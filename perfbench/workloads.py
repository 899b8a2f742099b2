"""The timed workloads: cli-cold and service-warm (``BENCHMARK.json``), and
explore-cold, runnable beside them.

Each workload sets up (untimed warm-up of every op kind included), then
runs whole rounds of ops for the requested seconds, one op in flight at a
time, and checks every output against :mod:`references`.  Set-up is
repeated :data:`SETUPS` times per run and its median reported, so that one
slow interpreter start does not decide the figure.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import references
from common import (
    DESIGNS,
    ROOT,
    SERVICE_SIZES,
    BenchError,
    child_env,
    design_path,
    pass_seed,
    reap,
    run_child,
    service_cycle,
    source_path,
)

SETUPS = 3

#: cli-cold: sizes where interpreter start dominates an op
CLI_SIZES = {"polyprod": 8, "matmul": 4}
#: cli-cold op seeds cycle over this many rounds; set-up checks them all
CLI_SEED_ROUNDS = 32
#: explore-cold: matmul at n=4, every place candidate at bound 1
EXPLORE_N = 4


@dataclass
class Measured:
    """What one run of a workload measured."""

    setup_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    peak_rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _rel(path) -> str:
    return str(path.relative_to(ROOT))


# -- cli-cold -----------------------------------------------------------------
def cli_op_args(design: str, seed: int) -> list[str]:
    program = DESIGNS[design][0]
    return [
        "-m", "repro", "execute",
        _rel(source_path(program)), _rel(design_path(design)),
        "-s", f"n={CLI_SIZES[program]}",
        "--backend", "npgen",
        "--seed", str(seed),
    ]


def cli_seed(seed: int, op_index: int) -> int:
    return 1000 * seed + (op_index // len(DESIGNS)) % CLI_SEED_ROUNDS


def check_oracle_chain(seeds: list[int]) -> list[str]:
    """The program's ``run_sequential`` against numpy at the cli-cold
    seeds and sizes, so the CLI's own oracle check ends outside the program."""
    sizes = ",".join(f"{p}={n}" for p, n in CLI_SIZES.items())
    child = run_child(
        ["perfbench/replay.py", "oracle", sizes, ",".join(map(str, seeds))]
    )
    if child.code != 0:
        return [f"oracle replay exited {child.code}: {child.output[-800:]}"]
    got = json.loads(child.output.strip().splitlines()[-1])
    problems = []
    for program, n in CLI_SIZES.items():
        for seed in seeds:
            want = references.expected_state(program, n, seed)["c"]
            if got[program][str(seed)] != want.tolist():
                problems.append(
                    f"run_sequential {program} n={n} seed {seed} differs "
                    "from the numpy reference"
                )
    return problems


def _op_failed(what: str, detail: str) -> None:
    """A failed op is counted, not checked; say why on stderr."""
    print(f"op failed: {what}: {detail[-800:]}", file=sys.stderr)


class CliCold:
    round_len = len(DESIGNS)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _run(self, design: str, seed: int, out: Measured):
        child = run_child(cli_op_args(design, seed))
        if child.code != 0:
            _op_failed(f"repro execute {design}", f"exit {child.code}: {child.output}")
            return None
        program = DESIGNS[design][0]
        out.problems += references.check_cli_output(
            program, CLI_SIZES[program], child.output
        )
        return child.wall_s, child.peak_rss_mb

    def setup(self, out: Measured) -> None:
        seeds = sorted({cli_seed(self.seed, k)
                        for k in range(self.round_len * CLI_SEED_ROUNDS)})
        out.problems += check_oracle_chain(seeds)
        for k, design in enumerate(DESIGNS):
            if self._run(design, cli_seed(self.seed, k), out) is None:
                raise BenchError("the untimed warm-up op failed")

    def op(self, k: int, out: Measured):
        design = list(DESIGNS)[k % len(DESIGNS)]
        return self._run(design, cli_seed(self.seed, k), out)

    def teardown(self, out: Measured) -> None:
        pass


# -- service-warm -------------------------------------------------------------
class Daemon:
    """``repro serve --port 0 --workers 1`` and one keep-alive connection."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(60.0, os.kill, (self.proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            line = self.proc.stderr.readline()
        finally:
            watchdog.cancel()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            reap(self.proc)
            raise BenchError(f"repro serve did not start: {line!r}")
        # keep draining stderr so the daemon never blocks on a full pipe
        threading.Thread(target=self.proc.stderr.read, daemon=True).start()
        self.conn = http.client.HTTPConnection("127.0.0.1", int(match.group(1)),
                                               timeout=120)
        self.fingerprints: dict[str, str] = {}

    def request(self, method: str, path: str, body: dict | None = None):
        """``(status, payload, round-trip seconds)``."""
        data = None if body is None else json.dumps(body)
        started = time.perf_counter()
        self.conn.request(method, path, data, {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, time.perf_counter() - started

    def compile_designs(self) -> list[str]:
        problems = []
        for design, (program, _) in DESIGNS.items():
            status, payload, _ = self.request("POST", "/compile", {
                "source": source_path(program).read_text(),
                "design": json.loads(design_path(design).read_text()),
            })
            if status != 200:
                problems.append(f"/compile {design}: HTTP {status}: {payload}")
            else:
                self.fingerprints[design] = payload["fingerprint"]
        return problems

    def run_pass(self, seed: int):
        """One pass of the cycle: ``(busy seconds, failed, problems, replies)``.

        Only the round trips are timed; replies are checked after the pass.
        """
        replies = []
        busy = 0.0
        for design, kind, body in service_cycle(seed):
            body = {"fingerprint": self.fingerprints.get(design), **body}
            try:
                status, payload, elapsed = self.request("POST", "/execute", body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                _op_failed(f"/execute {design} {kind}", repr(exc))
                return busy, True, [], replies
            if status != 200:
                _op_failed(f"/execute {design} {kind}", f"HTTP {status}: {payload}")
                return busy, True, [], replies
            busy += elapsed
            replies.append((design, kind, body, status, payload, elapsed))
        problems = []
        for design, _kind, body, status, payload, _ in replies:
            program = DESIGNS[design][0]
            problems += references.check_execute_response(
                program, SERVICE_SIZES[program], body, status, payload
            )
        return busy, False, problems, replies

    def close(self) -> float:
        """Stop the daemon; its peak RSS in MB."""
        self.conn.close()
        return reap(self.proc)


class ServiceWarm:
    round_len = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.daemon: Daemon | None = None

    def setup(self, out: Measured) -> None:
        self.daemon = Daemon()
        out.problems += self.daemon.compile_designs()
        # untimed pass at a seed no timed pass uses
        _, failed, problems, _ = self.daemon.run_pass(pass_seed(self.seed, 10_000))
        out.problems += problems
        if failed:
            raise BenchError("the untimed warm-up pass failed")

    def op(self, k: int, out: Measured):
        busy, failed, problems, _ = self.daemon.run_pass(pass_seed(self.seed, k))
        out.problems += problems
        return None if failed else (busy, None)

    def teardown(self, out: Measured) -> None:
        if self.daemon is not None:
            out.peak_rss_mb.append(self.daemon.close())
            self.daemon = None


# -- explore-cold -------------------------------------------------------------
def explore_args() -> list[str]:
    return [
        "-m", "repro", "explore", _rel(source_path("matmul")),
        "-s", f"n={EXPLORE_N}", "--limit", "1000", "--jobs", "1",
    ]


class ExploreCold:
    round_len = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed  # the design space is fixed; no input depends on it

    def op(self, k: int, out: Measured):
        child = run_child(explore_args())
        if child.code != 0:
            _op_failed("repro explore", f"exit {child.code}: {child.output}")
            return None
        out.problems += references.check_explore_output(EXPLORE_N, child.output)[0]
        return child.wall_s, child.peak_rss_mb

    def setup(self, out: Measured) -> None:
        if self.op(-1, out) is None:
            raise BenchError("the untimed warm-up op failed")

    def teardown(self, out: Measured) -> None:
        pass


WORKLOADS = {
    "cli-cold": CliCold,
    "service-warm": ServiceWarm,
    "explore-cold": ExploreCold,
}


def measure(name: str, seed: int, seconds: float) -> Measured:
    """Set up :data:`SETUPS` times, then run whole rounds for ``seconds``."""
    workload = WORKLOADS[name](seed)
    out = Measured()
    try:
        for i in range(SETUPS):
            if i:
                workload.teardown(Measured())  # only the last set-up is kept
            started = time.perf_counter()
            workload.setup(out)
            out.setup_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        k = 0
        while k % workload.round_len or time.perf_counter() - started < seconds:
            measured = workload.op(k, out)
            out.attempted += 1
            k += 1
            if measured is None:
                out.failed += 1
                continue
            latency, peak_rss_mb = measured
            out.latencies_s.append(latency)
            if peak_rss_mb is not None:
                out.peak_rss_mb.append(peak_rss_mb)
    finally:
        workload.teardown(out)
    return out


def end_to_end(out: Measured) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of one run, ``{name: (value, unit)}``."""
    if not out.latencies_s:
        raise BenchError("no op completed")
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "ops_per_s": (len(out.latencies_s) / sum(out.latencies_s), "1/s"),
        "op_p50_ms": (statistics.median(out.latencies_s) * 1000, "ms"),
        "peak_rss_mb": (statistics.median(out.peak_rss_mb), "MB"),
    }
