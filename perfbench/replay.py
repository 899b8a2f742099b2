"""Traced replays of the workloads through the program's public functions.

Run as a child process with the program on ``PYTHONPATH``::

    python perfbench/replay.py cli <design> <seed> <n>
    python perfbench/replay.py service <seed> <passes>
    python perfbench/replay.py explore <n>
    python perfbench/replay.py oracle <program=n,...> <seed,...>

The last line of standard output is one JSON object: ``spans`` (see
:mod:`spans`), exact ``counts`` and the ``problems`` the reference checks
found.  ``oracle`` prints ``run_sequential``'s ``c`` per program and seed
instead, for the benchmark to compare with numpy.
"""

import sys

from spans import Tracer


def _emit(tracer: Tracer, counts: dict, problems: list, values=None) -> None:
    import json

    print(json.dumps({"spans": tracer.spans, "counts": counts,
                      "values": values or {}, "problems": problems}))


def _rows(final) -> dict:
    """Executor output ``{var: {index: value}}`` in the service's encoding."""
    return {var: [[*tuple(index), value] for index, value in elements.items()]
            for var, elements in final.items()}


def _design(name: str):
    from common import DESIGNS, design_path, source_path
    from repro.cli import load_design
    from repro.lang.parser import parse_program

    program = DESIGNS[name][0]
    return program, parse_program(source_path(program).read_text()), load_design(
        str(design_path(name)))


def replay_cli(design: str, seed: int, n: int) -> None:
    """The steps of ``repro execute --backend npgen`` in a fresh process."""
    tracer = Tracer()
    tracer.op = design
    with tracer.span("import", design=design):
        before = len(sys.modules)
        import repro.cli
        modules = len(sys.modules) - before

    from common import DESIGNS, design_path, source_path
    from repro.analysis.wavefront import wavefront_schedule
    from repro.core.scheme import compile_systolic
    from repro.lang.interpreter import run_sequential
    from repro.lang.parser import parse_program
    from repro.target.npgen import execute_numpy_batch
    from repro.verify.equivalence import random_inputs

    program_name = DESIGNS[design][0]
    text = source_path(program_name).read_text()
    env = {"n": n}
    with tracer.span("lang.parse", design=design):
        program = parse_program(text)
    with tracer.span("cli.load_design", design=design):
        array = repro.cli.load_design(str(design_path(design)))
    with tracer.span("core.derive", design=design):
        sp = compile_systolic(program, array)
    with tracer.span("verify.random_inputs", design=design):
        inputs = random_inputs(program, env, seed=seed)
    with tracer.span("wavefront.schedule", design=design):
        wavefront_schedule(sp, env)
    with tracer.span("npgen.execute_numpy_batch", design=design):
        final = execute_numpy_batch(sp, env, [inputs])[0]
    with tracer.span("oracle.run_sequential", design=design):
        oracle = run_sequential(program, env, inputs)

    import references

    expected = references.expected_state(program_name, n, seed)
    problems = references.check_rows(_rows(final), expected, f"npgen {design}")
    problems += references.check_rows(_rows(oracle), expected, f"oracle {design}")
    _emit(tracer, {"import.modules": modules}, problems)


def replay_service(seed: int, passes: int) -> None:
    """The service-warm cycle, in process, through the executors."""
    from common import DESIGNS, SERVICE_SIZES, pass_seed, service_cycle
    from repro.core.scheme import compile_systolic
    from repro.extensions.partition import partitioned_execute
    from repro.lang.interpreter import run_sequential
    from repro.runtime.network import execute
    from repro.target.npgen import (
        execute_numpy,
        execute_numpy_banded,
        execute_numpy_batch,
    )
    from repro.target.pygen import execute_python
    from repro.verify.equivalence import random_inputs

    import references

    designs = {name: _design(name) for name in DESIGNS}
    compiled = {name: compile_systolic(p, a) for name, (_, p, a) in designs.items()}
    tracer = Tracer()
    counts: dict = {}
    problems: list = []

    def run_backend(design, kind, body, inputs):
        sp, env = compiled[design], body["sizes"]
        shape = tuple(body["array"]) if "array" in body else None
        if kind == "sim":
            with tracer.span("runtime.execute", design=design, kind=kind):
                final, stats = execute(sp, env, inputs)
            counts[f"runtime.messages.{design}"] = stats.total_messages
            return final
        if kind == "pygen":
            with tracer.span("pygen.execute_python", design=design, kind=kind):
                return execute_python(sp, env, inputs)
        if kind == "sim-partitioned":
            with tracer.span("partition.partitioned_execute", design=design,
                             kind=kind):
                return partitioned_execute(sp, env, inputs, shape=shape)[0]
        if kind == "npgen-banded":
            with tracer.span("npgen.execute_numpy_banded", design=design,
                             kind=kind):
                return execute_numpy_banded(sp, env, [inputs], shape=shape)[0]
        with tracer.span("npgen.execute_numpy", design=design, kind=kind):
            return execute_numpy(sp, env, inputs)

    def run_pass(seed_p: int) -> list:
        # mirrors the daemon's /execute: per input set, inputs, run, check
        finals = []
        for design, kind, body in service_cycle(seed_p):
            program = designs[design][1]
            for b in range(body.get("batch", 1)):
                with tracer.span("verify.random_inputs", design=design,
                                 kind=kind):
                    inputs = random_inputs(program, body["sizes"],
                                           seed=body["seed"] + b)
                final = run_backend(design, kind, body, inputs)
                if body.get("check", True):
                    with tracer.span("oracle.run_sequential", design=design,
                                     kind=kind):
                        run_sequential(program, body["sizes"], inputs)
                finals.append((design, kind, body["seed"] + b, final))
        return finals

    def check(finals: list) -> None:
        for design, kind, input_seed, final in finals:
            program_name = designs[design][0]
            expected = references.expected_state(
                program_name, SERVICE_SIZES[program_name], input_seed)
            problems.extend(references.check_rows(
                _rows(final), expected, f"{kind} {design} seed {input_seed}"))

    tracer.op = "warmup"
    check(run_pass(pass_seed(seed, 10_000)))
    for p in range(passes):
        tracer.op = p
        seed_p = pass_seed(seed, p)
        for name, (_, program, array) in designs.items():
            with tracer.span("core.derive", design=name):
                compile_systolic(program, array)
        with tracer.span("service.pass"):
            finals = run_pass(seed_p)
        check(finals)
        # one batched call over the eight input sets of the batch request,
        # beside the eight single calls the daemon makes today
        for name, (_, program, _) in designs.items():
            env = {"n": SERVICE_SIZES[designs[name][0]]}
            batch = [random_inputs(program, env, seed=seed_p + b) for b in range(8)]
            with tracer.span("npgen.execute_numpy_batch", design=name):
                execute_numpy_batch(compiled[name], env, batch)
    tracer.spans = [s for s in tracer.spans if s["op"] != "warmup"]
    _emit(tracer, counts, problems)


def replay_explore(n: int) -> None:
    """``repro explore matmul.src -s n=<n> --limit 1000``, then again warm."""
    import time

    from common import source_path
    from repro.core.memo import MEMO
    from repro.lang.parser import parse_program
    from repro.parallel import sweep_designs
    from repro.systolic.schedule import synthesize_step

    import references

    tracer = Tracer()
    tracer.op = "explore"
    program = parse_program(source_path("matmul").read_text())
    with tracer.span("explore.synthesize"):
        step = synthesize_step(program, bound=2)[0]
    with tracer.span("explore.sweep", phase="cold"):
        cold = sweep_designs(program, step, [{"n": n}], bound=1, limit=1000, jobs=1)
    cold_done_at = time.time()
    memo = MEMO.stats_snapshot()
    with tracer.span("explore.sweep", phase="warm"):
        warm = sweep_designs(program, step, [{"n": n}], bound=1, limit=1000, jobs=1)

    points = list(references.matmul_iteration_space(n))
    problems = []
    rows = [c.row() for c in cold.by_size[0][1]]
    for cost in cold.by_size[0][1]:
        box = references.bounding_box(cost.place.rows, points)
        if (cost.processes, cost.null_processes) != box:
            problems.append(f"sweep place {cost.place.rows}: procs/null "
                            f"{cost.processes}/{cost.null_processes}, box {box}")
    if rows != [c.row() for c in warm.by_size[0][1]]:
        problems.append("the warm sweep's table differs from the cold one")
    t = cold.timings
    counts = {
        "explore.candidates": t.candidates,
        "explore.compilable": t.compiled,
        "memo.hits": memo["hits"],
        "memo.misses": memo["misses"],
    }
    if len(rows) != t.compiled:
        problems.append(f"{len(rows)} table rows for {t.compiled} compilable")
    _emit(tracer, counts, problems, {"explore.cost_ms": t.cost_s * 1000,
                                     "explore.cold_done_at": cold_done_at})


def replay_oracle(sizes: str, seeds: str) -> None:
    """``run_sequential``'s ``c`` as dense nested lists, per program/seed."""
    import json

    from common import source_path
    from repro.lang.interpreter import run_sequential
    from repro.lang.parser import parse_program
    from repro.verify.equivalence import random_inputs

    out: dict = {}
    for pair in sizes.split(","):
        name, n = pair.split("=")
        program = parse_program(source_path(name).read_text())
        env = {"n": int(n)}
        out[name] = {}
        for seed in map(int, seeds.split(",")):
            c = run_sequential(program, env, random_inputs(program, env, seed=seed))["c"]
            dense = {tuple(index): value for index, value in c.items()}
            if len(next(iter(dense))) == 1:
                value = [dense[(i,)] for i in range(len(dense))]
            else:
                side = int(n) + 1
                value = [[dense[(i, j)] for j in range(side)] for i in range(side)]
            out[name][seed] = value
    print(json.dumps(out))


if __name__ == "__main__":
    mode, *args = sys.argv[1:]
    if mode == "cli":
        replay_cli(args[0], int(args[1]), int(args[2]))
    elif mode == "service":
        replay_service(int(args[0]), int(args[1]))
    elif mode == "explore":
        replay_explore(int(args[0]))
    elif mode == "oracle":
        replay_oracle(args[0], args[1])
    else:
        sys.exit(f"unknown replay mode {mode!r}")
