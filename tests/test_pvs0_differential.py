"""The one-pass least fuel of ``terminates_on`` and ``epsilon_check``
against the probe-and-bisect search it replaced (``oracle_minimal_fuel``).
"""

import random

from rdp import (
    EpsilonResult,
    Op1,
    Op2,
    Pvs0Program,
    Rec,
    Vr,
    calling_contexts,
    chi_eval,
    epsilon_check,
    terminates_on,
)

from helpers import oracle_minimal_fuel, random_pvs0_program

FUELS = range(41)


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
