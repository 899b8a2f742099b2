"""Sequential reference semantics -- the verification oracle.

Runs a source program exactly as its sequential reading prescribes
(Section 3.1: positive-step loops from left to right bound, negative-step
loops from right to left), on dense arrays of exact values.  The systolic
programs generated by the compilation scheme are verified against these
results (``repro.verify``).

:func:`run_sequential` runs a *compiled* form of the loop nest.  The nest
is lowered once per :class:`SourceProgram` into one generated Python
function, cached on the program object:

* the loops keep their full sequential order, negative steps included.
  The oracle is never reordered or vectorized with the repository's own
  dependence analysis -- it would then share a failure mode with the
  compiler it judges;
* every variable is a flat row-major list, and every stream access is an
  integer offset: a dot product of the stream's *offset row* (its index
  map folded with the variable's strides) with the loop indices, plus a
  constant.  The partial sums are hoisted to the loop that binds them;
* guards, ``IndexExpr`` terms, ``min``/``max`` and Fraction constants are
  rendered through the shared lowering of :mod:`repro.symbolic.compile`.

Per run, only the offset rows, the loop ranges and one bounds check are
computed: a linear map over a box takes its extremes at the box's
corners, so checking each index-map row at two corners proves that every
access stays inside its variable's space.  An access outside it raises a
:class:`SourceProgramError` naming the stream, the statement and the
element.

:func:`run_sequential_interpreted` is the tree-walking interpreter the
compiled form replaced; it stays as the reference of the A/B checks
(``tests/lang/test_oracle_compiled.py`` and the fuzz ``oracle_ab`` check).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping

from repro.geometry.point import Point
from repro.lang.expr import (
    BinOp,
    Body,
    Condition,
    Const,
    Expr,
    IndexExpr,
    RuntimeValue,
    StreamRead,
)
from repro.lang.program import SourceProgram
from repro.symbolic.affine import Affine, Numeric
from repro.symbolic.compile import closure_num, render_affine
from repro.util.errors import SourceProgramError

#: Variable contents: name -> {element point -> value}.
VariableState = dict[str, dict[Point, RuntimeValue]]

#: The program attribute holding its lowered nest (``None`` when the
#: program falls outside what the lowering handles; see :func:`_lower`).
_NEST_ATTR = "_compiled_nest"


def initial_state(
    program: SourceProgram,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
) -> VariableState:
    """Build a full variable state at problem size ``env``.

    ``inputs`` may give, per variable, either a mapping from element points
    to values or a single fill value; unmentioned variables are zero-filled.
    Every element of every variable space must end up defined.
    """
    inputs = dict(inputs or {})
    state: VariableState = {}
    for var in program.variables:
        space = var.space(env)
        spec = inputs.get(var.name, 0)
        if isinstance(spec, Mapping):
            values = {
                k if type(k) is Point else Point(k): v for k, v in spec.items()
            }
            missing = [p for p in space if p not in values]
            if missing:
                raise SourceProgramError(
                    f"variable {var.name}: missing values for {missing[:3]}..."
                )
            # With nothing missing, as many keys as elements means no extra.
            extra = (
                [p for p in values if p not in space]
                if len(values) != space.size
                else None
            )
            if extra:
                raise SourceProgramError(
                    f"variable {var.name}: values outside its space: {extra[:3]}..."
                )
            state[var.name] = values
        else:
            state[var.name] = {p: spec for p in space}
    return state


def run_sequential(
    program: SourceProgram,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
) -> VariableState:
    """Execute the program sequentially; returns the final variable state.

    Values, key types and key order equal :func:`run_sequential_interpreted`;
    only an access outside a variable's space differs: it raises a named
    :class:`SourceProgramError` instead of a bare ``KeyError``.
    """
    state = initial_state(program, env, inputs)
    nest = compiled_nest(program)
    if nest is None or not nest.binds(program, env):
        return _interpret(program, env, state)
    return nest.run(program, env, state)


def run_sequential_interpreted(
    program: SourceProgram,
    env: Mapping[str, Numeric],
    inputs: Mapping[str, Mapping[Point, RuntimeValue] | int] | None = None,
) -> VariableState:
    """The tree-walking interpreter: the reference for :func:`run_sequential`."""
    return _interpret(program, env, initial_state(program, env, inputs))


def _interpret(
    program: SourceProgram, env: Mapping[str, Numeric], state: VariableState
) -> VariableState:
    streams = {s.name: s for s in program.streams}
    for x in program.iter_index_points_sequential(env):
        indices = program.index_env(x)
        indices.update({k: int(v) for k, v in env.items()})
        elements = {name: s.element_of(x) for name, s in streams.items()}
        current = {name: state[name][el] for name, el in elements.items()}
        updated = program.body.execute(current, indices)
        for name, el in elements.items():
            state[name][el] = updated[name]
    return state


# ----------------------------------------------------------------------
# the compiled nest
# ----------------------------------------------------------------------
def compiled_nest(program: SourceProgram) -> "_Nest | None":
    """The program's lowered nest, built on first use and kept on the
    program object (``None`` when the program needs the interpreter)."""
    try:
        return program.__dict__[_NEST_ATTR]
    except KeyError:
        nest = _lower(program)
        object.__setattr__(program, _NEST_ATTR, nest)
        return nest


class _Nest:
    """One program's generated loop-nest function plus its run-time glue."""

    __slots__ = ("fn", "symbols", "columns")

    def __init__(self, fn, symbols, columns) -> None:
        self.fn = fn
        #: size symbols the body reads, in argument order
        self.symbols = symbols
        #: per stream, the loop columns its index map uses
        self.columns = columns

    def binds(self, program: SourceProgram, env: Mapping[str, Numeric]) -> bool:
        """Whether the generated code binds symbols as the interpreter
        would: it has every body symbol, and no size shadows a loop index."""
        return all(s in env for s in self.symbols) and not any(
            idx in env for idx in program.indices
        )

    def run(
        self,
        program: SourceProgram,
        env: Mapping[str, Numeric],
        state: VariableState,
    ) -> VariableState:
        ranges = [lp.iteration_values(env) for lp in program.loops]
        box = [(min(r[0], r[-1]), max(r[0], r[-1])) for r in ranges]
        offsets, flats, layouts = [], [], []
        for s, cols in zip(program.streams, self.columns):
            space = s.variable.space(env)
            rows = s.index_map.rows
            _check_access(s.name, rows, box, space.lo, space.hi, env)
            strides = _row_major_strides(space.lo, space.hi)
            offsets.append(-sum(st * lo for st, lo in zip(strides, space.lo)))
            offsets.extend(
                sum(st * row[k] for st, row in zip(strides, rows)) for k in cols
            )
            layout, flat = _flatten(state[s.name], space.lo, space.hi, strides)
            layouts.append(layout)
            flats.append(flat)
        sizes = [int(env[sym]) for sym in self.symbols]
        self.fn(ranges, sizes, offsets, flats)
        return {
            s.name: _unflatten(state[s.name], layout, flat)
            for s, layout, flat in zip(program.streams, layouts, flats)
        }


def _check_access(name, rows, box, lo, hi, env) -> None:
    """Raise unless every statement of ``box`` accesses inside ``lo..hi``."""
    for row, vlo, vhi in zip(rows, lo, hi):
        low = [b[0] if c >= 0 else b[1] for c, b in zip(row, box)]
        high = [b[1] if c >= 0 else b[0] for c, b in zip(row, box)]
        for corner in (low, high):
            value = sum(c * x for c, x in zip(row, corner))
            if not vlo <= value <= vhi:
                x = Point(corner)
                el = Point(sum(c * v for c, v in zip(r, x)) for r in rows)
                raise SourceProgramError(
                    f"stream {name}: statement {x} accesses element {el} "
                    f"outside {lo}..{hi} at size {dict(env)}"
                )


def _row_major_strides(lo, hi) -> list[int]:
    strides = [1] * len(lo)
    for d in range(len(lo) - 1, 0, -1):
        strides[d - 1] = strides[d] * (hi[d] - lo[d] + 1)
    return strides


def _flatten(values: dict, lo, hi, strides):
    """``values`` as a flat row-major list; returns ``(layout, flat)``
    where ``layout`` is ``None`` when the keys already run in row-major
    order, and the per-key offset list otherwise."""
    axes = [range(l, h + 1) for l, h in zip(lo, hi)]
    if list(values) == list(itertools.product(*axes)):
        return None, list(values.values())
    layout = [
        sum((c - l) * st for c, l, st in zip(p, lo, strides)) for p in values
    ]
    flat = [None] * len(layout)
    for o, v in zip(layout, values.values()):
        flat[o] = v
    return layout, flat


def _unflatten(keys: dict, layout, flat: list) -> dict:
    """The flat list back as a dict over ``keys``, in their order."""
    if layout is None:
        return dict(zip(keys, flat))
    return {p: flat[o] for p, o in zip(keys, layout)}


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
class _Unsupported(Exception):
    """The body holds a form the lowering has no exact rendering of."""


def _quotient(num: int, den: int) -> RuntimeValue:
    """``num / den`` as the interpreter's ``IndexExpr`` yields it."""
    return num // den if num % den == 0 else Fraction(num, den)


def _integral(a: Affine) -> tuple[Affine, int]:
    """``(a * den, den)`` with ``den >= 1`` the least common denominator."""
    den = Fraction(a.const).denominator
    for c in a.coeffs.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    return (a * den if den != 1 else a), den


def _lower(program: SourceProgram) -> _Nest | None:
    """Generate the program's nest function, or ``None`` when the body
    uses a form with no exact compiled rendering (the interpreter runs
    those programs)."""
    r = program.r
    declared = [s.name for s in program.streams]
    body = program.body
    if r == 0 or not body.streams_accessed() <= set(declared):
        return None
    loop_sym = {idx: f"_x{k}" for k, idx in enumerate(program.indices)}
    symbols: list[str] = []
    consts: dict[str, Fraction] = {}

    def sym(name: str) -> str:
        if name in loop_sym:
            return loop_sym[name]
        if name not in symbols:
            symbols.append(name)
        return f"_s{symbols.index(name)}"

    slot = {name: m for m, name in enumerate(declared)}

    def expr(e: Expr) -> str:
        if isinstance(e, Const):
            if type(e.value) is int:
                return repr(e.value)
            if not isinstance(e.value, Fraction):
                raise _Unsupported(repr(e))
            name = f"_K{len(consts)}"
            consts[name] = e.value
            return name
        if isinstance(e, StreamRead):
            return f"_v{slot[e.name]}"
        if isinstance(e, IndexExpr):
            scaled, den = _integral(e.affine)
            text = render_affine(scaled, closure_num, sym)
            return f"({text})" if den == 1 else f"_q({text}, {den})"
        if isinstance(e, BinOp):
            left, right = expr(e.left), expr(e.right)
            if e.op in ("min", "max"):
                return f"{e.op}({left}, {right})"
            return f"({left} {e.op} {right})"
        raise _Unsupported(repr(e))

    def condition(c: Condition) -> str:
        # Scaling by the positive denominator keeps the sign, so the test
        # runs on integers even when the guard has Fraction coefficients.
        scaled, _den = _integral(c.affine)
        return f"({render_affine(scaled, closure_num, sym)}) {c.relation} 0"

    try:
        body_lines = _body_lines(body, slot, expr, condition)
    except _Unsupported:
        return None

    columns = [
        tuple(k for k in range(r) if any(row[k] for row in s.index_map.rows))
        for s in program.streams
    ]
    accessed = [m for m, name in enumerate(declared)
                if name in body.streams_accessed()]
    written = [m for m, name in enumerate(declared)
               if name in body.streams_written()]

    lines = [f"{name} = _Fr({closure_num(v)})" for name, v in consts.items()]
    lines.append("def _nest(_R, _S, _C, _A):")
    lines.append("    " + "".join(f"_r{k}, " for k in range(r)) + "= _R")
    if symbols:
        lines.append("    " + "".join(f"_s{j}, " for j in range(len(symbols)))
                     + "= _S")
    names = []
    for m, cols in enumerate(columns):
        names.append(f"_k{m}")
        names.extend(f"_c{m}_{k}" for k in cols)
    lines.append("    " + "".join(f"{n}, " for n in names) + "= _C")
    lines.append("    " + "".join(f"_a{m}, " for m in range(len(declared)))
                 + "= _A")
    offset = {m: f"_k{m}" for m in accessed}
    pad = "    "
    for k in range(r):
        lines.append(f"{pad}for _x{k} in _r{k}:")
        pad += "    "
        last = k == r - 1
        for m in accessed:
            if k in columns[m]:
                term = f"{offset[m]} + _c{m}_{k} * _x{k}"
                if last:
                    offset[m] = term
                else:
                    lines.append(f"{pad}_p{m}_{k} = {term}")
                    offset[m] = f"_p{m}_{k}"
    # An innermost offset sum used twice (load and store) is bound once.
    for m in accessed:
        if m in written and not offset[m].isidentifier():
            lines.append(f"{pad}_o{m} = {offset[m]}")
            offset[m] = f"_o{m}"
    for m in accessed:
        lines.append(f"{pad}_v{m} = _a{m}[{offset[m]}]")
    lines.extend(pad + line for line in body_lines)
    for m in written:
        lines.append(f"{pad}_a{m}[{offset[m]}] = _v{m}")

    ns = {"_Fr": Fraction, "_q": _quotient}
    exec(compile("\n".join(lines) + "\n", f"<oracle {program.name}>", "exec"), ns)
    return _Nest(ns["_nest"], tuple(symbols), columns)


def _body_lines(body: Body, slot, expr, condition) -> list[str]:
    """The basic statement on stream locals ``_v<m>``: branches in order,
    each assignment visible to the ones after it (as in ``Body.execute``)."""
    lines = []
    for br in body.branches:
        if br.condition is not None and not isinstance(br.condition, Condition):
            raise _Unsupported(repr(br.condition))
        pad = ""
        if br.condition is not None:
            lines.append(f"if {condition(br.condition)}:")
            pad = "    "
        for a in br.assigns:
            lines.append(f"{pad}_v{slot[a.stream]} = {expr(a.expr)}")
        if br.condition is not None and not br.assigns:
            lines.append(f"{pad}pass")
    return lines
