"""Output checks against references computed apart from the program.

Nothing here imports the program.  Inputs are regenerated from a request
seed by the documented convention of ``repro.verify.random_inputs``
(``random.Random(seed)``, one ``randint(-9, 9)`` per element of each read
variable in declaration and row-major order, written variables zero), and
results are compared with ``numpy.convolve`` (polyprod) or an int64 matrix
product (matmul).  Design-space rows are compared with the bounding box of
``place(IS)`` enumerated point by point.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import ast
import itertools
import random
import re

import numpy as np

LOW, HIGH = -9, 9


def regenerate_inputs(program: str, n: int, seed: int) -> dict[str, np.ndarray]:
    """The read streams of ``program`` at size ``n`` for input ``seed``."""
    rng = random.Random(seed)
    shape = (n + 1,) if program == "polyprod" else (n + 1, n + 1)
    count = int(np.prod(shape))
    return {
        var: np.array(
            [rng.randint(LOW, HIGH) for _ in range(count)], dtype=np.int64
        ).reshape(shape)
        for var in ("a", "b")
    }


def expected_state(program: str, n: int, seed: int) -> dict[str, np.ndarray]:
    """Every variable's final contents: inputs unchanged, ``c`` computed."""
    state = regenerate_inputs(program, n, seed)
    if program == "polyprod":
        state["c"] = np.convolve(state["a"], state["b"])
    else:
        state["c"] = state["a"] @ state["b"]
    return state


def element_count(program: str, n: int) -> int:
    """Elements of all variables: a, b and c of polyprod or matmul."""
    return 4 * n + 3 if program == "polyprod" else 3 * (n + 1) ** 2


def check_rows(
    rows_by_var: dict, expected: dict[str, np.ndarray], where: str
) -> list[str]:
    """Compare ``{var: [[i, (j,) value], ...]}`` (the service's result
    encoding) with dense expected arrays, element by element."""
    problems = []
    if sorted(rows_by_var) != sorted(expected):
        return [f"{where}: variables {sorted(rows_by_var)} != {sorted(expected)}"]
    for var, want in expected.items():
        got = {tuple(row[:-1]): row[-1] for row in rows_by_var[var]}
        if len(got) != want.size:
            problems.append(f"{where}: {var} has {len(got)} elements, want {want.size}")
            continue
        for index in np.ndindex(*want.shape):
            if got.get(index) != int(want[index]):
                problems.append(
                    f"{where}: {var}{list(index)} = {got.get(index)}, "
                    f"reference {int(want[index])}"
                )
                break
    return problems


def check_execute_response(
    program: str, n: int, request: dict, status: int, payload: dict
) -> list[str]:
    """One ``POST /execute`` reply against the reference, batch by batch."""
    where = f"/execute {request}"
    if status != 200:
        return [f"{where}: HTTP {status}: {payload.get('error', payload)}"]
    batch = request.get("batch", 1)
    results = payload.get("results", [])
    if len(results) != batch:
        return [f"{where}: {len(results)} results for batch {batch}"]
    problems = []
    if request.get("check", True) and not (
        payload.get("matched") is True and payload.get("mismatched_elements") == 0
    ):
        problems.append(f"{where}: the program's own oracle check did not pass")
    for b, result in enumerate(results):
        expected = expected_state(program, n, request["seed"] + b)
        problems += check_rows(result, expected, f"{where} batch[{b}]")
    return problems


def check_cli_output(program: str, n: int, output: str) -> list[str]:
    """A ``repro execute`` run: the element count and the oracle line."""
    want = f"batch 1, {element_count(program, n)} elements/run"
    problems = []
    if want not in output:
        problems.append(f"repro execute: expected {want!r} in {output!r}")
    if "oracle check: OK" not in output:
        problems.append(f"repro execute: no 'oracle check: OK' in {output!r}")
    return problems


def matmul_iteration_space(n: int):
    return itertools.product(range(n + 1), repeat=3)


def bounding_box(place_rows, points) -> tuple[int, int]:
    """``(procs, null)``: cells of the bounding box of ``place(IS)`` and
    how many of them no index point maps to."""
    images = {tuple(sum(r * x for r, x in zip(row, p)) for row in place_rows)
              for p in points}
    procs = 1
    for axis in zip(*images):
        procs *= max(axis) - min(axis) + 1
    return procs, procs - len(images)


_ROW = re.compile(r"^\s*(\(.*\))\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s*$")
_SUMMARY = re.compile(r"\((\d+) candidates, (\d+) compilable")


def parse_explore_rows(output: str) -> list[tuple[tuple, int, int]]:
    """``[(place rows, procs, null), ...]`` from a ``repro explore`` table."""
    rows = []
    for line in output.splitlines():
        match = _ROW.match(line)
        if match:
            place = tuple(
                ast.literal_eval(part.strip()) for part in match.group(1).split(";")
            )
            rows.append((place, int(match.group(2)), int(match.group(3))))
    return rows


def check_explore_output(n: int, output: str) -> tuple[list[str], int, int]:
    """Every row's ``procs``/``null`` against the bounding-box enumeration.

    Returns ``(problems, candidates, compilable)``.
    """
    summary = _SUMMARY.search(output)
    if summary is None:
        return [f"repro explore: no summary line in {output[-400:]!r}"], 0, 0
    candidates, compilable = int(summary.group(1)), int(summary.group(2))
    rows = parse_explore_rows(output)
    problems = []
    if len(rows) != compilable or not rows:
        problems.append(f"repro explore: {len(rows)} rows for {compilable} compilable")
    points = list(matmul_iteration_space(n))
    boxes: dict[tuple, tuple[int, int]] = {}
    for place, procs, null in rows:
        if place not in boxes:
            boxes[place] = bounding_box(place, points)
        if (procs, null) != boxes[place]:
            problems.append(
                f"repro explore: place {place} procs/null {procs}/{null}, "
                f"bounding box {boxes[place][0]}/{boxes[place][1]}"
            )
    return problems, candidates, compilable
