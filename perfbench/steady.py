"""Steadiness of the benchmark: repeated runs, quartiles, spread vs bound.

    python3 perfbench/steady.py                       # 10 runs per workload
    python3 perfbench/steady.py --workloads explore-cold --runs 5
    python3 perfbench/steady.py --counts              # two traced runs

Each run uses another seed.  For every end-to-end metric and workload it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread ``(q3 - q1) / median`` beside the metric's bound from
``BENCHMARK.json``; a spread above a third of the bound is flagged (the
spread of ``setup_s`` is shown but not held to its bound).  ``--counts``
instead makes two traced runs and requires every count and hit ratio to
be exactly equal.  The raw results go to ``.perfbench/steady-*.json``.
Exit status 1 if a run failed, a check failed or a figure is unsteady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import OUT_DIR, ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steadiness(workloads: list[str], runs: int, first_seed: int,
               seconds: int) -> bool:
    steady = True
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    for workload in workloads:
        results = []
        for seed in range(first_seed, first_seed + runs):
            results.append(run(workload, seed, seconds, 0))
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in results[-1]["metrics"].items()),
                flush=True)
        (OUT_DIR / f"steady-{workload}.json").write_text(json.dumps(results, indent=1))
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            print(f"{workload}: failed shares {shares}, correct "
                  f"{[r['correct'] for r in results]}")
            steady = False
        print(f"{workload}: {runs} runs, ops {[r['attempted'] for r in results]}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in results])
            flag = ""
            if name != "setup_s" and rel > bound / 3:
                flag = "  UNSTEADY" if rel > bound else "  over a third of the bound"
                steady &= rel <= bound
            print(f"  {name:<14}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{rel:>9.2%}{bound:>8.0%}{flag}")
    return steady


def counts_repeat(first_seed: int, seconds: int) -> bool:
    """Two traced runs: every count and hit ratio exactly equal."""
    exact = {m["name"] for m in BENCHMARK["per_layer"]
             if m["unit"] in ("count", "ratio")}
    a, b = (run("cli-cold", seed, seconds, 1)
            for seed in (first_seed, first_seed + 1))
    (OUT_DIR / "steady-counts.json").write_text(json.dumps([a, b], indent=1))
    same = True
    for name in sorted(exact):
        va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
        print(f"  {name:<36}{va!s:>22}{vb!s:>22}{'' if va == vb else '  DIFFERS'}")
        same &= va == vb
    return same and a["correct"] and b["correct"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    if args.counts:
        ok = counts_repeat(args.first_seed, args.seconds)
    else:
        ok = steadiness(args.workloads.split(","), args.runs, args.first_seed,
                        args.seconds)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
