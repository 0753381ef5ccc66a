"""Operators compiled when they are built against the guard interpreter
and the two-walk guard check they replaced (``oracle_guard_eval``,
``oracle_check_guard``), the explicit-stack evaluator against the
recursive one it replaced (``oracle_evaluate``), the one-pass least fuel
of ``terminates_on`` and ``epsilon_check`` against the probe-and-bisect
search it replaced (``oracle_minimal_fuel``), and calling contexts read
off the one body walk against the recursive walk they replaced
(``oracle_calling_contexts``).
"""

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from rdp import (
    EpsilonResult,
    GAdd,
    GComp,
    GConst,
    GIf,
    GMonus,
    GTuple,
    Op1,
    Op2,
    OperatorDef,
    Pvs0Error,
    Pvs0Program,
    Rec,
    Vr,
    calling_contexts,
    chi_eval,
    epsilon_check,
    guard_eval,
    terminates_on,
)
from rdp.pvs0 import _evaluate

from helpers import (
    oracle_calling_contexts,
    oracle_check_guard,
    oracle_evaluate,
    oracle_guard_eval,
    oracle_minimal_fuel,
    random_pvs0_program,
)

FUELS = range(41)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_operators_agree_with_the_guard_interpreter(seed):
    """Every operator of a random program, on every argument tuple over
    {0,1,2,3}^width."""
    program = random_pvs0_program(random.Random(seed))
    for defn in program.o1 + program.o2:
        values = list(product(range(4), repeat=program.width))
        for args in product(values, repeat=defn.arity):
            assert guard_eval(defn, args) == oracle_guard_eval(defn, args)


def random_guard(rng: random.Random, arity: int, width: int):
    """A well-sorted operator body whose constants, argument and component
    indices and tuple widths are now and then out of range."""

    def pick(good, bad):
        return rng.choice(bad) if rng.random() < 0.05 else rng.choice(good)

    def scalar(depth):
        if depth == 0 or rng.random() < 0.4:
            if rng.random() < 0.3:
                return GConst(pick(range(4), [-1]))
            arg = pick(range(arity), [-1, arity])
            return GComp(arg, pick(range(width), [-1, width, width + 1]))
        return rng.choice((GAdd, GMonus))(scalar(depth - 1), scalar(depth - 1))

    def value(depth):
        if depth > 0 and rng.random() < 0.5:
            return GIf(
                rng.choice(("lt", "le", "eq")),
                scalar(depth - 1),
                scalar(depth - 1),
                value(depth - 1),
                value(depth - 1),
            )
        items = pick([width], [width - 1, width + 1])
        return GTuple(tuple(scalar(depth) for _ in range(items)))

    return value(3)


def raises_pvs0_error(build) -> bool:
    try:
        build()
    except Pvs0Error:
        return True
    return False


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_building_rejects_what_the_two_walk_check_rejects(seed):
    """On well-sorted bodies, an operator fails to build exactly when the old
    check without a width raises, and a program over a built operator exactly
    when the old check with the program's width raises."""
    rng = random.Random(seed)
    arity, width = rng.randint(1, 2), rng.randint(1, 3)
    body = random_guard(rng, arity, width)
    rejected = raises_pvs0_error(lambda: OperatorDef(arity, body))
    assert rejected == raises_pvs0_error(lambda: oracle_check_guard(body, arity, None))
    if rejected:
        return
    bank = (OperatorDef(arity, body),)
    o1, o2 = (bank, ()) if arity == 1 else ((), bank)
    zero, one = (0,) * width, (1,) + (0,) * (width - 1)
    assert raises_pvs0_error(lambda: Pvs0Program(width, zero, one, o1, o2, Vr())) == (
        raises_pvs0_error(lambda: oracle_check_guard(body, arity, width))
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_evaluator_agrees_with_the_recursive_definition(seed):
    """Same result and same lowest body fuel, for the body and every
    actual parameter, on every input in {0,1,2}^width at fuels 0-12."""
    program = random_pvs0_program(random.Random(seed))
    exprs = [program.body] + [ctx.actual for ctx in calling_contexts(program)]
    for value in product(range(3), repeat=program.width):
        for fuel in range(13):
            for expr in exprs:
                expected = oracle_evaluate(program, expr, value, fuel)
                assert _evaluate(program, expr, value, fuel) == expected


def test_evaluator_agrees_on_ackermann(ack_program):
    for m in range(3):
        for n in range(4):
            for fuel in range(0, 14, 3):
                expected = oracle_evaluate(ack_program, ack_program.body, (m, n), fuel)
                assert _evaluate(ack_program, ack_program.body, (m, n), fuel) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_calling_contexts_agree_with_the_recursive_definition(seed):
    program = random_pvs0_program(random.Random(seed))
    assert calling_contexts(program) == oracle_calling_contexts(program)


def test_calling_contexts_agree_on_ackermann(ack_program):
    assert calling_contexts(ack_program) == oracle_calling_contexts(ack_program)


def check_against_oracle(program, expr, value, max_fuel):
    """``epsilon_check`` (and ``terminates_on`` on the body) agree with the
    search, and the least fuel is tight: defined at n, undefined at n - 1."""
    least = oracle_minimal_fuel(program, expr, value, max_fuel)
    if expr is program.body:
        assert terminates_on(program, value, max_fuel) == least
    if least is None:
        assert chi_eval(program, expr, value, max_fuel) is None
        assert epsilon_check(program, expr, value, value, max_fuel) is EpsilonResult.UNKNOWN
        return
    result = chi_eval(program, expr, value, least)
    assert result is not None
    assert chi_eval(program, expr, value, least - 1) is None
    other = tuple(c + 1 for c in result)
    assert epsilon_check(program, expr, value, result, max_fuel) is EpsilonResult.TRUE
    assert epsilon_check(program, expr, value, other, max_fuel) is EpsilonResult.FALSE


def test_random_programs_agree_with_search():
    rng = random.Random(3)
    for _ in range(150):
        program = random_pvs0_program(rng)
        exprs = [program.body] + [ctx.actual for ctx in calling_contexts(program)]
        for _ in range(2):
            value = tuple(rng.randint(0, 3) for _ in range(program.width))
            for max_fuel in FUELS:
                for expr in exprs:
                    check_against_oracle(program, expr, value, max_fuel)


def test_ackermann_cells_agree_with_search(ack_program):
    for m in range(4):
        for n in range(4):
            least = oracle_minimal_fuel(ack_program, ack_program.body, (m, n), 100)
            assert least is not None
            fuels = {0, 1, least - 1, least, 2 * least}
            for max_fuel in sorted(fuels):
                check_against_oracle(ack_program, ack_program.body, (m, n), max_fuel)


def test_dangling_operators_and_divergence_agree_with_search():
    bare = Pvs0Program(1, (0,), (1,), (), (), Vr())
    for dangling in (Op1(0, Vr()), Op2(5, Vr(), Vr()), Op1(-1, Vr()), Rec(Op1(3, Vr()))):
        for max_fuel in FUELS:
            check_against_oracle(bare, dangling, (2,), max_fuel)
    divergent = Pvs0Program(1, (0,), (1,), (), (), Rec(Vr()))
    for max_fuel in FUELS:
        check_against_oracle(divergent, divergent.body, (0,), max_fuel)
        assert terminates_on(divergent, (0,), max_fuel) is None
