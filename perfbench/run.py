"""The repository's benchmark: one command, checked outputs, cold and warm.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 45 --trace 0

Workloads (one op in flight at a time, from this single process):

* ``cli-cold``     one op = one fresh ``repro execute ... --backend npgen``
                   (oracle check on), cycling over D1, D2, E1, E2;
* ``service-warm`` one op = one pass of 28 ``POST /execute`` requests on a
                   warm ``repro serve --workers 1`` daemon;
* ``explore-cold`` one op = one fresh ``repro explore matmul.src -s n=4
                   --limit 1000`` (168 of 228 place candidates compile);
                   runnable, but not in ``BENCHMARK.json`` (README.md).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced replay of every layer instead (see ``tracing.py``).  The
last line of standard output is the result as one JSON object; the lines
before it are for people.  Exit status 2 means the benchmark could not
run (for instance, no program to measure).
"""

from __future__ import annotations

import argparse
import json
import sys

from common import BenchError, environment_note, require_program, tail_ms
from workloads import WORKLOADS, end_to_end, measure


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
        print(f"environment: {json.dumps(environment_note())}", flush=True)
        if args.trace:
            from tracing import traced_run

            metrics, trace = traced_run(args.workload, args.seed)
            problems, attempted, failed = trace.problems, trace.attempted, trace.failed
            for name, pair in trace.op_ms.items():
                print(f"{name}: traced op {pair['traced']:.1f} ms, "
                      f"untraced op {pair['untraced']:.1f} ms")
        else:
            out = measure(args.workload, args.seed, args.seconds)
            metrics = end_to_end(out)
            problems, attempted, failed = out.problems, out.attempted, out.failed
            tail = tail_ms(out.latencies_s)
            print(f"{args.workload}: {len(out.latencies_s)} ops, set-ups "
                  + ", ".join(f"{s:.3f}s" for s in out.setup_s)
                  + ("" if tail is None else
                     f", op_tail_ms (p{tail[0]:.1f}) {tail[1]:.1f}"))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(_result(not problems, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
