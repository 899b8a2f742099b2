"""The compiled oracle against the tree-walking interpreter it replaced.

``run_sequential`` lowers each program's loop nest once into a generated
function; ``run_sequential_interpreted`` is the reference.  Every case
here requires the two to agree in values, value types, ``Point`` key type
and key order -- and, for bad inputs, in the error raised.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

import repro.lang.interpreter as interpreter
from repro.geometry.linalg import Matrix
from repro.geometry.point import Point
from repro.lang import parse_program, validate_program
from repro.lang.expr import (
    Assign,
    BinOp,
    Body,
    Branch,
    Condition,
    Const,
    IndexExpr,
    StreamRead,
)
from repro.lang.interpreter import (
    compiled_nest,
    run_sequential,
    run_sequential_interpreted,
)
from repro.lang.program import Loop, SourceProgram
from repro.lang.stream import Stream
from repro.lang.variables import IndexedVariable
from repro.symbolic.affine import Affine
from repro.systolic.designs import all_paper_designs
from repro.util.errors import ReproError, SourceProgramError
from repro.verify.equivalence import random_inputs


def assert_same(program, env, inputs=None):
    got = run_sequential(program, env, inputs)
    assert compiled_nest(program) is not None  # the lowering handled it
    ref = run_sequential_interpreted(program, env, inputs)
    assert list(got) == list(ref)
    for name, expected in ref.items():
        assert list(got[name]) == list(expected)  # key order
        assert all(type(k) is Point for k in got[name])
        assert list(got[name].values()) == list(expected.values())
        assert [type(v) for v in got[name].values()] == [
            type(v) for v in expected.values()
        ]
    return got


def same_error(program, env, inputs=None):
    """Both oracles raise the same exception type with the same text."""
    with pytest.raises(ReproError) as compiled:
        run_sequential(program, env, inputs)
    with pytest.raises(ReproError) as interpreted:
        run_sequential_interpreted(program, env, inputs)
    assert type(compiled.value) is type(interpreted.value)
    assert str(compiled.value) == str(interpreted.value)
    return compiled.value


NEG = """program neg
size n
var a[0..n], c[0..2*n]
for i = 0 <- {si} -> n
for j = 0 <- {sj} -> n
    c[i + j] := c[i + j] * 3 + a[i] - (j * a[i])
"""

MINMAX = """program minmax
size n
var a[0..n], b[0..n], c[0..2*n]
for i = max(0, n - 4) <- -1 -> n
for j = 0 <- 1 -> min(n, 5)
    c[i + j] := max(c[i + j], a[i] * b[j]) + min(a[i], b[j])
"""


class TestIdentity:
    @pytest.mark.parametrize("tag", ["D1", "D2", "E1", "E2"])
    def test_paper_designs(self, tag):
        program = {t: p for t, p, _a in all_paper_designs()}[tag]
        for n in (0, 1, 3, 6):
            for seed in (0, 1):
                env = {"n": n}
                assert_same(program, env, random_inputs(program, env, seed=seed))

    def test_default_fill(self):
        program = all_paper_designs()[0][1]
        assert_same(program, {"n": 4})
        assert_same(program, {"n": 4}, {"a": 2, "b": -1, "c": 5})

    @pytest.mark.parametrize("si,sj", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
    def test_negative_steps(self, si, sj):
        # c[i+j] := 3*c[i+j] + ... is order-sensitive: a wrong direction
        # changes the values.
        program = parse_program(NEG.format(si=si, sj=sj))
        for n in (1, 4):
            env = {"n": n}
            assert_same(program, env, random_inputs(program, env, seed=n))

    def test_minmax_body_and_extremum_bounds(self):
        program = parse_program(MINMAX)
        for n in (2, 4, 7):
            env = {"n": n}
            assert_same(
                program,
                env,
                random_inputs(program, env, seed=n, zero_for_written=False),
            )

    def test_fraction_inputs(self):
        program = parse_program(MINMAX)
        env = {"n": 3}
        inputs = {
            name: {p: Fraction(int(sum(p)) - 2, 3) for p in points}
            for name, points in random_inputs(program, env).items()
        }
        got = assert_same(program, env, inputs)
        assert any(type(v) is Fraction for v in got["c"].values())

    def test_unordered_and_tuple_keyed_inputs(self):
        program = all_paper_designs()[2][1]
        env = {"n": 2}
        inputs = random_inputs(program, env, seed=4)
        shuffled = {
            name: {tuple(p): v for p, v in reversed(list(values.items()))}
            for name, values in inputs.items()
        }
        assert_same(program, env, shuffled)


def guarded_program() -> SourceProgram:
    """Multi-branch body: ``!=``/``<``/``==`` guards, IndexExpr terms with
    Fraction coefficients, a Fraction constant and chained assignments."""
    i, j, n = Affine.var("i"), Affine.var("j"), Affine.var("n")
    half = IndexExpr(i * Fraction(1, 2) + n * Fraction(1, 3) - Fraction(1, 6))
    body = Body(
        (
            Branch(
                Condition(i - j, "!="),
                (Assign("c", BinOp("+", StreamRead("c"), StreamRead("a"))),),
            ),
            Branch(
                Condition(i * Fraction(1, 2) - 1, "<"),
                (
                    Assign("a", BinOp("*", StreamRead("a"), half)),
                    # reads the a just written, as Body.execute does
                    Assign("c", BinOp("-", StreamRead("c"), StreamRead("a"))),
                    Assign("b", BinOp("max", StreamRead("c"), IndexExpr(j - n))),
                ),
            ),
            Branch(
                Condition(i + j - n, "=="),
                (Assign("c", BinOp("*", StreamRead("c"), Const(Fraction(3, 2)))),),
            ),
            Branch(
                None,
                (
                    Assign("b", BinOp("+", StreamRead("b"), Const(Fraction(4, 2)))),
                    Assign("b", BinOp("min", StreamRead("b"), IndexExpr(n * 2))),
                ),
            ),
        )
    )
    return SourceProgram(
        loops=(Loop.of("i", 0, n), Loop.of("j", 0, n, step=-1)),
        streams=(
            Stream(IndexedVariable.of("a", (0, n)), Matrix([[1, 0]])),
            Stream(IndexedVariable.of("b", (0, n)), Matrix([[0, 1]])),
            Stream(IndexedVariable.of("c", (0, 2 * n)), Matrix([[1, 1]])),
        ),
        body=body,
        size_symbols=("n",),
        name="guarded",
    )


class TestGuardedBodies:
    def test_multi_branch_identity(self):
        program = guarded_program()
        for n in (1, 3, 5):
            env = {"n": n}
            inputs = random_inputs(program, env, seed=n, zero_for_written=False)
            got = assert_same(program, env, inputs)
        types = {type(v) for values in got.values() for v in values.values()}
        assert types == {int, Fraction}

    def test_parsed_guards(self):
        text = """program guards
size n
var a[0..n], b[0..n]
for i = 0 <- 1 -> n
for j = 0 <- -1 -> n
    if j == 0 -> a[i] := 0
    if i != j -> a[i] := a[i] + b[j]
    if i - j < 0 -> b[j] := b[j] - (i * a[i])
    if i >= 2 -> a[i] := a[i] * (n - j)
"""
        program = parse_program(text)
        for n in (1, 4):
            env = {"n": n}
            assert_same(
                program, env, random_inputs(program, env, seed=n, zero_for_written=False)
            )


class TestErrors:
    def test_missing_input_element(self):
        program = all_paper_designs()[0][1]
        err = same_error(program, {"n": 2}, {"a": {Point.of(0): 1}})
        assert "missing values" in str(err)

    def test_extra_input_element(self):
        program = all_paper_designs()[0][1]
        bad = {Point.of(i): 0 for i in range(5)}  # a has 3 elements at n=2
        err = same_error(program, {"n": 2}, {"a": bad})
        assert "outside its space" in str(err)

    def test_lb_greater_than_rb(self):
        program = parse_program(MINMAX.replace("for j = 0 <-", "for j = m <-"))
        err = same_error(program, {"n": 2, "m": 3})
        assert "loop j: lb 3 > rb 2" in str(err)

    def test_unbound_body_symbol(self):
        text = """program sym
size n
var a[0..n], c[0..2*n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
    c[i + j] := c[i + j] + a[i] * m
"""
        program = parse_program(text)
        same_error(program, {"n": 2})
        assert_same(program, {"n": 2, "m": 3})


class TestOutOfSpace:
    TEXT = """program overhang
size n
var a[0..n], b[0..n], c[0..n+3]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
    c[i + j] := c[i + j] + a[i] * b[j]
"""

    def test_valid_at_sample_size(self):
        # Coverage is checked at n=3 only, where c[i+j] spans 0..6 exactly.
        validate_program(parse_program(self.TEXT))
        assert_same(parse_program(self.TEXT), {"n": 3})

    def test_named_error_beyond_sample_size(self):
        program = parse_program(self.TEXT)
        with pytest.raises(SourceProgramError) as err:
            run_sequential(program, {"n": 5})
        text = str(err.value)
        assert text.startswith("stream c: statement (5, 5)")
        assert "element (10) outside (0)..(8)" in text
        assert "{'n': 5}" in text

    def test_negative_step_reports_a_corner(self):
        program = parse_program(self.TEXT.replace("0 <- 1 -> n\nfor j", "0 <- -1 -> n\nfor j"))
        with pytest.raises(SourceProgramError, match=r"statement \(5, 5\)"):
            run_sequential(program, {"n": 5})


class TestCaching:
    def test_lowered_once_per_program(self, monkeypatch):
        calls = []
        lower = interpreter._lower

        def counting(program):
            calls.append(program.name)
            return lower(program)

        monkeypatch.setattr(interpreter, "_lower", counting)
        program = parse_program(NEG.format(si=1, sj=-1))
        run_sequential(program, {"n": 2})
        run_sequential(program, {"n": 5})
        assert calls == ["neg"]
        assert compiled_nest(program) is compiled_nest(program)
        assert calls == ["neg"]

    def test_pickle_drops_the_nest(self):
        program = parse_program(NEG.format(si=-1, sj=1))
        env = {"n": 3}
        inputs = random_inputs(program, env, seed=2)
        before = run_sequential(program, env, inputs)
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program
        assert "_compiled_nest" not in clone.__dict__
        assert run_sequential(clone, env, inputs) == before
