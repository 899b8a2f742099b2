"""The traced run: per-layer metrics from spans around public calls.

The traced run is separate from the timed runs and the same whatever the
workload: it replays all three workloads (``replay.py`` children) so that
every per-layer metric comes out of every traced run, and times the
untraced ops beside them for the tracing overhead.  Spans, counts and
metrics are written to ``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import json
import statistics
import time

import references
from common import DESIGNS, OUT_DIR, environment_note, pass_seed, run_child
from spans import self_times
from workloads import (
    CLI_SIZES,
    EXPLORE_N,
    Daemon,
    cli_op_args,
    cli_seed,
    explore_args,
)

SERVICE_PASSES = 2


class Trace:
    """Spans, counts and problems gathered from the replays."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, list] = {}
        self.values: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.op_ms: dict[str, dict[str, float]] = {}  # workload -> traced/untraced

    def add(self, source: str, child_output: str) -> None:
        """Merge a replay child's JSON line; its spans are tagged ``source``."""
        data = json.loads(child_output.strip().splitlines()[-1])
        for s in data["spans"]:
            self.spans.append({**s, "id": f"{source}:{s['id']}",
                               "parent": None if s["parent"] is None
                               else f"{source}:{s['parent']}",
                               "source": source})
        for name, value in data["counts"].items():
            self.counts.setdefault(name, []).append(value)
        self.values.update(data.get("values", {}))
        self.problems += data["problems"]

    def replay(self, source: str, argv: list[str]) -> float | None:
        """Run one replay child as one op; its wall time in seconds."""
        self.attempted += 1
        child = run_child(["perfbench/replay.py", *argv])
        if child.code != 0:
            self.failed += 1
            self.problems.append(f"replay {argv} exited {child.code}: "
                                 f"{child.output[-800:]}")
            return None
        self.add(source, child.output)
        return child.wall_s


def _trace_cli(trace: Trace, seed: int) -> None:
    traced, untraced = [], []
    for k, design in enumerate(DESIGNS):
        program = DESIGNS[design][0]
        s, n = cli_seed(seed, k), CLI_SIZES[program]
        wall = trace.replay(f"cli-{design}", ["cli", design, str(s), str(n)])
        if wall is not None:
            traced.append(wall)
        trace.attempted += 1
        child = run_child(cli_op_args(design, s))
        if child.code != 0:
            trace.failed += 1
            continue
        untraced.append(child.wall_s)
        trace.problems += references.check_cli_output(program, n, child.output)
    trace.op_ms["cli-cold"] = _op_pair(traced, untraced)


def _trace_service(trace: Trace, seed: int) -> dict:
    trace.replay("service", ["service", str(seed), str(SERVICE_PASSES)])
    daemon = Daemon()
    http_ms, busy = [], []
    try:
        trace.problems += daemon.compile_designs()
        _, failed, problems, _ = daemon.run_pass(pass_seed(seed, 10_000))
        trace.problems += problems + (["the untimed warm-up pass failed"] if failed else [])
        before = daemon.request("GET", "/stats")[1]
        for p in range(SERVICE_PASSES):
            trace.attempted += 1
            elapsed, failed, problems, replies = daemon.run_pass(pass_seed(seed, p))
            trace.problems += problems
            if failed:
                trace.failed += 1
                continue
            busy.append(elapsed)
            http_ms += [(rt - payload["elapsed_s"]) * 1000
                        for *_, payload, rt in replies]
        after = daemon.request("GET", "/stats")[1]
    finally:
        daemon.close()
    passes = [s["end"] - s["start"] for s in trace.spans
              if s["name"] == "service.pass"]
    trace.op_ms["service-warm"] = _op_pair(passes, busy)
    metrics = {"service.http_ms": (statistics.median(http_ms), "ms")}
    for name, key in (("store", "store"), ("module_cache", "module_cache"),
                      ("schedule_cache", "wavefront_cache")):
        hits = after[key]["hits"] - before[key]["hits"]
        misses = after[key]["misses"] - before[key]["misses"]
        metrics[f"service.{name}_hit_ratio"] = (hits / (hits + misses), "ratio")
    return metrics


def _trace_explore(trace: Trace) -> None:
    """The explore replay, timed up to the end of its cold sweep, beside
    one ``repro explore`` op."""
    spawned = time.time()  # wall clock: the child stamps the same clock
    if trace.replay("explore", ["explore", str(EXPLORE_N)]) is None:
        return
    cold_wall = trace.values["explore.cold_done_at"] - spawned
    trace.attempted += 1
    child = run_child(explore_args())
    if child.code != 0:
        trace.failed += 1
        return
    trace.problems += references.check_explore_output(EXPLORE_N, child.output)[0]
    trace.op_ms["explore-cold"] = _op_pair([cold_wall], [child.wall_s])


def _op_pair(traced: list[float], untraced: list[float]) -> dict[str, float]:
    return {"traced": statistics.median(traced) * 1000,
            "untraced": statistics.median(untraced) * 1000}


def _pick(spans, name, **where):
    return [s for s in spans if s["name"] == name
            and all(s.get(k) == v for k, v in where.items())]


def _layer_metrics(trace: Trace) -> dict[str, tuple[float, str]]:
    own = self_times(trace.spans)

    def median_ms(spans):
        return statistics.median(own[s["id"]] for s in spans) * 1000

    def per_pass_ms(spans):
        by_pass: dict = {}
        for s in spans:
            by_pass[s["op"]] = by_pass.get(s["op"], 0.0) + own[s["id"]]
        return statistics.median(by_pass.values()) * 1000

    every = trace.spans
    cli = [s for s in every if s["source"].startswith("cli-")]
    service = [s for s in every if s["source"] == "service"]
    ms = {
        "import.cli_ms": median_ms(_pick(cli, "import")),
        "lang.parse_ms": median_ms(_pick(cli, "lang.parse")),
        "verify.inputs_ms": per_pass_ms(_pick(service, "verify.random_inputs")),
        "oracle.pass_ms": per_pass_ms(_pick(service, "oracle.run_sequential")),
        "explore.synthesize_ms": median_ms(_pick(every, "explore.synthesize")),
        "explore.sweep_cold_ms": median_ms(_pick(every, "explore.sweep", phase="cold")),
        "explore.sweep_warm_ms": median_ms(_pick(every, "explore.sweep", phase="warm")),
    }
    for d in DESIGNS:
        in_cli = [s for s in cli if s.get("design") == d]
        in_service = [s for s in service if s.get("design") == d]
        ms.update({
            f"core.derive_cold_ms.{d}": median_ms(_pick(in_cli, "core.derive")),
            f"core.derive_warm_ms.{d}": median_ms(_pick(in_service, "core.derive")),
            f"wavefront.schedule_cold_ms.{d}":
                median_ms(_pick(in_cli, "wavefront.schedule")),
            f"oracle.ms.{d}": median_ms(_pick(in_service, "oracle.run_sequential")),
            f"runtime.sim_ms.{d}": median_ms(_pick(in_service, "runtime.execute")),
            f"pygen.ms.{d}": median_ms(_pick(in_service, "pygen.execute_python")),
            f"npgen.ms.{d}":
                median_ms(_pick(in_service, "npgen.execute_numpy", kind="npgen")),
            f"npgen.batch8_ms.{d}":
                median_ms(_pick(in_service, "npgen.execute_numpy_batch")),
            f"npgen.loop8_ms.{d}": per_pass_ms(
                _pick(in_service, "npgen.execute_numpy", kind="npgen-batch8")),
            f"partition.sim_ms.{d}":
                median_ms(_pick(in_service, "partition.partitioned_execute")),
            f"partition.banded_ms.{d}":
                median_ms(_pick(in_service, "npgen.execute_numpy_banded")),
        })
    metrics = {name: (value, "ms") for name, value in ms.items()}
    messages = sum(trace.counts[f"runtime.messages.{d}"][0] for d in DESIGNS)
    metrics["runtime.sim_us_per_message"] = (
        per_pass_ms(_pick(service, "runtime.execute")) * 1000 / messages, "us")
    metrics["explore.derive_per_candidate_ms"] = (
        trace.values["explore.cost_ms"] / trace.counts["explore.compilable"][0], "ms")
    return metrics


def _counts(trace: Trace) -> dict[str, tuple[float, str]]:
    """Exact counts; each must agree across the replays that report it."""
    out = {}
    for name, values in sorted(trace.counts.items()):
        if len(set(values)) != 1:
            trace.problems.append(f"count {name} differs between replays: {values}")
        out[name] = (values[0], "count")
    hits, misses = out.pop("memo.hits")[0], out.pop("memo.misses")[0]
    out["memo.hit_ratio"] = (hits / (hits + misses), "ratio")
    return out


def traced_run(workload: str, seed: int) -> tuple[dict, Trace]:
    trace = Trace()
    _trace_cli(trace, seed)
    metrics = _trace_service(trace, seed)
    _trace_explore(trace)
    metrics.update(_layer_metrics(trace))
    metrics.update(_counts(trace))
    for name, pair in trace.op_ms.items():
        metrics[f"trace.overhead_ms.{name}"] = (pair["traced"] - pair["untraced"], "ms")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({
        "environment": environment_note(),
        "op_ms": trace.op_ms,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "counts": trace.counts,
        "spans": trace.spans,
    }, indent=1))
    return metrics, trace
