"""Sequential-vs-systolic equivalence checking.

The paper validated its scheme by hand-translating the generated programs
to occam and C and running them on real machines ("In all cases, the only
errors were mistakes made in the hand translation").  Here the whole loop
is mechanical: compile, lower, execute on the simulator, and compare every
element of every variable against the sequential reference interpreter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.program import SystolicProgram
from repro.core.scheme import compile_systolic
from repro.geometry.point import Point
from repro.lang.expr import RuntimeValue
from repro.lang.interpreter import run_sequential
from repro.lang.program import SourceProgram
from repro.symbolic.affine import Numeric
from repro.systolic.spec import SystolicArray
from repro.util.errors import VerificationError

if TYPE_CHECKING:
    from repro.runtime.scheduler import SchedulerStats


def random_inputs(
    program: SourceProgram,
    env: Mapping[str, Numeric],
    *,
    seed: int = 0,
    low: int = -9,
    high: int = 9,
    zero_for_written: bool = True,
) -> dict[str, dict[Point, RuntimeValue]]:
    """Deterministic pseudo-random integer contents for every variable.

    Streams that the basic statement writes are zero-initialised by default
    (the usual accumulator convention of the paper's examples).
    """
    rng = random.Random(seed)
    written = program.body.streams_written()
    inputs: dict[str, dict[Point, RuntimeValue]] = {}
    for var in program.variables:
        space = var.space(env)
        if zero_for_written and var.name in written:
            inputs[var.name] = {p: 0 for p in space}
        else:
            inputs[var.name] = {p: rng.randint(low, high) for p in space}
    return inputs


#: Execution engines verify_design can drive (simulator is the default).
BACKENDS = ("sim", "pygen", "npgen")


@dataclass
class VerificationReport:
    """Outcome of one verified execution."""

    env: dict
    matched: bool
    stats: SchedulerStats | None
    mismatches: list[str] = field(default_factory=list)
    backend: str = "sim"

    def __str__(self) -> str:
        status = "OK" if self.matched else f"MISMATCH ({len(self.mismatches)})"
        if self.stats is None:
            return f"verify[{self.backend}] {self.env}: {status}"
        return (
            f"verify {self.env}: {status}, makespan {self.stats.makespan}, "
            f"{self.stats.total_messages} messages, "
            f"{self.stats.process_count} processes"
        )


def _execute_backend(backend, sp, env, inputs, channel_capacity, partition=None):
    """Run one engine; returns (tuple-keyed final contents, stats or None).

    ``partition`` (an array shape ``(p,)`` or ``(p, q)``) folds the run
    onto a fixed physical array: the simulator uses the partitioned
    process network (:func:`repro.extensions.partition.partitioned_execute`),
    npgen the banded batched executor.  pygen has no partitioned mode.
    """
    if backend == "sim":
        if partition is not None:
            from repro.extensions.partition import partitioned_execute

            final, stats = partitioned_execute(
                sp, env, inputs, shape=partition, channel_capacity=channel_capacity
            )
        else:
            from repro.runtime.network import execute

            final, stats = execute(
                sp, env, inputs, channel_capacity=channel_capacity
            )
        return (
            {v: {tuple(p): val for p, val in vals.items()}
             for v, vals in final.items()},
            stats,
        )
    if backend == "pygen":
        if partition is not None:
            raise VerificationError(
                "the pygen backend has no partitioned execution mode; "
                "use backend='sim' or backend='npgen'"
            )
        from repro.target.pygen import execute_python

        return execute_python(sp, env, inputs), None
    if backend == "npgen":
        if partition is not None:
            from repro.target.npgen import execute_numpy_banded

            return execute_numpy_banded(sp, env, [inputs], shape=partition)[0], None
        from repro.target.npgen import execute_numpy

        return execute_numpy(sp, env, inputs), None
    raise VerificationError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}"
    )


def verify_design(
    program: SourceProgram,
    array: SystolicArray,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
    *,
    compiled: SystolicProgram | None = None,
    channel_capacity: int = 1,
    seed: int = 0,
    raise_on_mismatch: bool = True,
    backend: str = "sim",
    partition: tuple[int, ...] | None = None,
) -> VerificationReport:
    """Compile (unless given), execute on ``backend`` and compare vs oracle.

    ``backend`` selects the execution engine: ``"sim"`` (the coroutine
    process-network simulator, with scheduler stats), ``"pygen"`` (the
    rendered standalone Python module) or ``"npgen"`` (the vectorized
    NumPy wavefront backend; requires the optional NumPy extra).

    ``partition`` folds the execution onto a fixed physical array of that
    shape (``(p,)`` bands or ``(p, q)`` tiles) via the symbolically
    compiled LSGP partition; supported on ``sim`` and ``npgen``.
    """
    sp = compiled if compiled is not None else compile_systolic(program, array)
    if inputs is None:
        inputs = random_inputs(program, env, seed=seed)
    final, stats = _execute_backend(
        backend, sp, env, inputs, channel_capacity, partition=partition
    )
    oracle = run_sequential(program, env, inputs)
    mismatches: list[str] = []
    for var, expected in oracle.items():
        got = final[var]
        for element, value in expected.items():
            if got.get(tuple(element)) != value:
                mismatches.append(
                    f"{var}{element}: systolic {got.get(tuple(element))}, "
                    f"oracle {value}"
                )
    report = VerificationReport(
        env=dict(env),
        matched=not mismatches,
        stats=stats,
        mismatches=mismatches,
        backend=backend,
    )
    if mismatches and raise_on_mismatch:
        preview = "; ".join(mismatches[:5])
        raise VerificationError(
            f"systolic program disagrees with the oracle at {dict(env)}: {preview}"
        )
    return report


def verify_design_batch(
    program: SourceProgram,
    array: SystolicArray,
    env: Mapping[str, Numeric],
    *,
    compiled: SystolicProgram | None = None,
    input_sets: int = 1,
    seed: int = 0,
    channel_capacity: int = 1,
    backend: str = "sim",
    raise_on_mismatch: bool = True,
) -> list[VerificationReport]:
    """Verify one design against the oracle over many input sets.

    The design is compiled once and every input set (seeds ``seed`` ..
    ``seed + input_sets - 1``) is checked against its own sequential-oracle
    run.  ``"npgen"`` executes all sets in a single batched wavefront pass
    (one schedule, stacked arrays); ``"sim"`` reuses the pre-bound network
    plan across sets and ``"pygen"`` the cached compiled module, so each
    additional set only pays execution, never recompilation.
    """
    if input_sets < 1:
        raise VerificationError(
            f"input_sets must be >= 1, got {input_sets}"
        )
    sp = compiled if compiled is not None else compile_systolic(program, array)
    seeds = [seed + k for k in range(input_sets)]
    all_inputs = [random_inputs(program, env, seed=s) for s in seeds]

    if backend == "npgen":
        from repro.target.npgen import execute_numpy_batch

        finals = execute_numpy_batch(sp, env, all_inputs)
        stats_per_set: list[SchedulerStats | None] = [None] * input_sets
    else:
        finals, stats_per_set = [], []
        for inputs in all_inputs:
            final, stats = _execute_backend(
                backend, sp, env, inputs, channel_capacity
            )
            finals.append(final)
            stats_per_set.append(stats)

    reports = []
    for inputs, final, stats in zip(all_inputs, finals, stats_per_set):
        oracle = run_sequential(program, env, inputs)
        mismatches = [
            f"{var}{element}: systolic {final[var].get(tuple(element))}, "
            f"oracle {value}"
            for var, expected in oracle.items()
            for element, value in expected.items()
            if final[var].get(tuple(element)) != value
        ]
        reports.append(
            VerificationReport(
                env=dict(env),
                matched=not mismatches,
                stats=stats,
                mismatches=mismatches,
                backend=backend,
            )
        )
    bad = [r for r in reports if not r.matched]
    if bad and raise_on_mismatch:
        preview = "; ".join(bad[0].mismatches[:5])
        raise VerificationError(
            f"systolic program disagrees with the oracle on "
            f"{len(bad)}/{input_sets} input sets at {dict(env)}: {preview}"
        )
    return reports
