"""Operators compiled when they are built against the guard interpreter
and the two-walk guard check they replaced (``oracle_guard_eval``,
``oracle_check_guard``), the tabled explicit-stack evaluator against the
recursive one it replaced (``oracle_evaluate``), the one-pass least fuel
of ``terminates_on`` and ``epsilon_check`` against the probe-and-bisect
search it replaced (``oracle_minimal_fuel``), and calling contexts read
off the one body walk against the recursive walk they replaced
(``oracle_calling_contexts``).  The explicit-stack operator compile,
program reader, expression printer, equality and hash are checked against
the recursive definitions they replaced (``oracle_compile_guard``,
``oracle_parse_pvs0_program``, ``oracle_pvs0_expr_to_str``), the reader
also on broken programs, and the one-pass ``repr`` of nodes against the
dataclass-generated one (``oracle_node_repr``).  The unary encoder that
shares one numeral tower is checked against the one that built every
numeral anew (``oracle_unary_encoder``), and the correspondence check that
runs each rule's compiled matcher against the one that matched with
``substitution.match`` (``oracle_check_cc_dp_correspondence``).
"""

import copy
import json
import random
from importlib import resources
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
    check_cc_dp_correspondence,
    chi_eval,
    dep_pairs_alt,
    epsilon_check,
    guard_eval,
    parse_pvs0_program,
    parse_trs,
    terminates_on,
    unary_encoder,
)
from rdp.formats import pvs0_expr_to_str
from rdp.pvs0 import _evaluate, _kids
from rdp.terms import _walk

from helpers import (
    ack_system,
    oracle_calling_contexts,
    oracle_check_cc_dp_correspondence,
    oracle_check_guard,
    oracle_compile_guard,
    oracle_evaluate,
    oracle_gscalar_to_json,
    oracle_guard_eval,
    oracle_gvalue_to_json,
    oracle_minimal_fuel,
    oracle_node_repr,
    oracle_parse_pvs0_program,
    oracle_program_to_json,
    oracle_pvs0_expr_to_json,
    oracle_pvs0_expr_to_str,
    oracle_unary_encoder,
    random_pvs0_program,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

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


def random_guard(rng: random.Random, arity: int, width: int, misplace: float = 0.0):
    """An operator body whose constants, argument and component indices and
    tuple widths are now and then out of range; with ``misplace``, now and
    then a node of the wrong sort too (a value, an expression or no node at
    all where a scalar belongs, or a scalar where a value belongs)."""

    def pick(good, bad):
        return rng.choice(bad) if rng.random() < 0.05 else rng.choice(good)

    def scalar(depth):
        if misplace and rng.random() < misplace:
            return rng.choice([Vr(), Op1(0, Vr()), 3, None, GTuple((GConst(0),) * width)])
        if depth == 0 or rng.random() < 0.4:
            if rng.random() < 0.3:
                return GConst(pick(range(4), [-1]))
            arg = pick(range(arity), [-1, arity])
            return GComp(arg, pick(range(width), [-1, width, width + 1]))
        return rng.choice((GAdd, GMonus))(scalar(depth - 1), scalar(depth - 1))

    def value(depth):
        if misplace and rng.random() < misplace:
            return rng.choice([GConst(1), GComp(0, 0), Vr(), None])
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


def test_evaluator_agrees_on_ackermann_at_every_fuel(ack_program):
    """Every fuel from 0 to one past the least, so that table hits also meet
    too little fuel to cover the input's least fuel."""
    body = ack_program.body
    for value in [(2, n) for n in range(7)] + [(3, n) for n in range(3)]:
        least = oracle_minimal_fuel(ack_program, body, value, 100)
        for fuel in range(least + 2):
            expected = oracle_evaluate(ack_program, body, value, fuel)
            assert _evaluate(ack_program, body, value, fuel) == expected


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


# --- the operator compile ----------------------------------------------------


def build_outcome(build):
    try:
        return build()
    except Pvs0Error as err:
        return str(err)


@settings(max_examples=500, deadline=None)
@given(SEEDS)
def test_compile_agrees_with_the_recursive_compile(seed):
    """Building an operator raises the recursive compile's first error, or
    records the same widths and reads and computes the same values."""
    rng = random.Random(seed)
    arity, width = rng.randint(1, 2), rng.randint(1, 2)
    body = random_guard(rng, arity, width, misplace=0.03)
    expected = build_outcome(lambda: oracle_compile_guard(arity, body))
    defn = build_outcome(lambda: OperatorDef(arity, body))
    if isinstance(expected, str):
        assert defn == expected
        return
    run, widths, reads = expected
    assert (defn._widths, defn._reads) == (widths, reads)
    values = list(product(range(3), repeat=max(width, reads)))
    for args in product(values, repeat=arity):
        assert defn._run(args) == run(args)


# --- the program reader and the expression printer ---------------------------


def outcome(read, text):
    """What reading ``text`` gives: the program as the recursive writer puts
    it, or the error's class and its message up to the node it shows."""
    try:
        return "read", oracle_program_to_json(read(text))
    except Exception as err:  # the two readers must fail alike, whatever the error
        message = str(err)
        for cut in (" node: ", " naturals: "):
            if cut in message:
                message = message[: message.index(cut) + len(cut)]
        return type(err), message


TAGS = ["cnst", "vr", "op1", "op2", "rec", "ite", "const", "comp", "add", "monus", "tuple",
        "if", "bottom", "top", "lt", "le", "eq", "bogus"]


def lists_in(data) -> list[list]:
    found, stack = [], [data]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack += item.values()
        elif isinstance(item, list):
            found.append(item)
            stack += item
    return found


def break_once(data, rng: random.Random) -> None:
    """Drop, duplicate or swap one item of one list of ``data``, give a node a
    wrong tag, or put a bool or a float where an integer is."""
    target = rng.choice(lists_in(data))
    if not target:
        target.append(rng.choice([0, "vr", ["vr"]]))
        return
    i = rng.randrange(len(target))
    kind = rng.randrange(5)
    if kind == 0:
        del target[i]
    elif kind == 1:
        target.insert(i, copy.deepcopy(target[i]))
    elif kind == 2 and len(target) > 1:
        j = (i + 1) % len(target)
        target[i], target[j] = target[j], target[i]
    elif kind == 3 and isinstance(target[0], str):
        target[0] = rng.choice(TAGS)
    else:
        ints = [j for j, x in enumerate(target) if type(x) is int] or [i]
        j = rng.choice(ints)
        target[j] = rng.choice([True, False, float(target[j]) if type(target[j]) is int else 1.5])


def fixture_text() -> str:
    return resources.files("rdp").joinpath("fixtures/ackermann.pvs0.json").read_text()


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_reader_agrees_with_the_recursive_reader(seed):
    program = random_pvs0_program(random.Random(seed))
    text = json.dumps(oracle_program_to_json(program))
    read = parse_pvs0_program(text)
    assert read == oracle_parse_pvs0_program(text) == program
    assert oracle_program_to_json(read) == oracle_program_to_json(program)


@settings(max_examples=1000, deadline=None)
@given(SEEDS)
def test_reader_rejects_what_the_recursive_reader_rejects(seed):
    """One fault in a program's JSON: both readers fail alike, or both read
    the same program."""
    rng = random.Random(seed)
    if rng.random() < 0.2:
        data = json.loads(fixture_text())
    else:
        data = oracle_program_to_json(random_pvs0_program(rng))
    break_once(data, rng)
    text = json.dumps(data)
    assert outcome(parse_pvs0_program, text) == outcome(oracle_parse_pvs0_program, text)


def test_reader_agrees_on_the_fixture():
    text = fixture_text()
    assert outcome(parse_pvs0_program, text) == outcome(oracle_parse_pvs0_program, text)


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_writers_agree_with_the_recursive_writers(seed):
    """Programs are only read, so the one writer left prints expressions."""
    program = random_pvs0_program(random.Random(seed))
    for expr, _ in _walk(program.body, _kids):
        assert pvs0_expr_to_str(expr) == oracle_pvs0_expr_to_str(expr)


def oracle_json(node):
    if isinstance(node, (GTuple, GIf)):
        return oracle_gvalue_to_json(node)
    if isinstance(node, (GConst, GComp, GAdd, GMonus)):
        return oracle_gscalar_to_json(node)
    return oracle_pvs0_expr_to_json(node)


def nodes_of(program: Pvs0Program) -> list:
    """Every subexpression of the body and every node of every operator."""
    found = [expr for expr, _ in _walk(program.body, _kids)]
    stack = [defn.body for defn in program.o1 + program.o2]
    while stack:
        node = stack.pop()
        found.append(node)
        if isinstance(node, GTuple):
            stack += node.items
        elif isinstance(node, GIf):
            stack += [node.left, node.right, node.then, node.orelse]
        elif isinstance(node, (GAdd, GMonus)):
            stack += [node.left, node.right]
    return found


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30))
def test_equality_and_hash_agree_with_the_json(seed, other_seed):
    """Two nodes are equal exactly when their JSON is, and equal nodes hash
    alike; so are two programs."""
    first = random_pvs0_program(random.Random(seed))
    second = random_pvs0_program(random.Random(other_seed))
    nodes = nodes_of(first) + nodes_of(second)
    texts = [json.dumps(oracle_json(node)) for node in nodes]
    for node, text in zip(nodes, texts):
        for other, other_text in zip(nodes, texts):
            assert (node == other) == (text == other_text)
            assert (node != other) == (text != other_text)
            if node == other:
                assert hash(node) == hash(other)
    same = oracle_program_to_json(first) == oracle_program_to_json(second)
    assert (first == second) == same
    if same:
        assert hash(first) == hash(second)


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_repr_agrees_with_the_recursive_repr(seed):
    """Every node of a random program prints as the dataclass-generated repr."""
    program = random_pvs0_program(random.Random(seed))
    for node in nodes_of(program):
        assert repr(node) == oracle_node_repr(node)


# --- the unary encoder and the correspondence check --------------------------

NATS = st.integers(min_value=0, max_value=12)


@st.composite
def _encoded_values(draw):
    """Pairs of naturals, zeros favoured, each drawn list visited twice (so
    values repeat), and now and then one negative component."""
    values = draw(st.lists(st.tuples(NATS, NATS), min_size=1, max_size=12))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(values) - 1)), draw(st.integers(0, 1))
        value = list(values[i])
        value[j] = draw(st.integers(min_value=-5, max_value=-1))
        values[i] = tuple(value)
    return values + values[::-1]


@settings(max_examples=300, deadline=None)
@given(_encoded_values())
def test_the_shared_numeral_encoder_agrees_with_building_each_numeral(values):
    """Every encoding equals the one built node by node, and the encodings of
    one encoder share their numerals: each ``succ^k(zero)`` below any of them
    is one object."""
    trs = ack_system()
    encode, oracle = unary_encoder(trs), oracle_unary_encoder(trs)
    numeral = {}  # k to the one succ^k(zero) every encoding holds
    for value in values:
        term = encode(value)
        assert term == oracle(value)
        for c, node in zip(value, term.args):
            for k in range(max(c, 0), -1, -1):
                assert numeral.setdefault(k, node) is node
                if k:
                    node = node.args[0]
    assert encode((3, 5)).args[1].args[0] is encode((4, 0)).args[0]
    assert encode((-1, 0)).args[0] is encode((0, 2)).args[0]


ACK_TEXT = resources.files("rdp").joinpath("fixtures/ackermann.trs").read_text()
ACK_PROGRAM_TEXT = resources.files("rdp").joinpath("fixtures/ackermann.pvs0.json").read_text()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=8),
    st.integers(0, 40),
)
def test_the_check_agrees_with_matching_by_substitution_match(choices, samples, fuel):
    """Every calling context of the Ackermann fixture against every one of
    its dependency pairs, on drawn samples at fuels 0..40: the report is the
    one matching with ``substitution.match`` wrote, byte for byte."""
    trs, program = parse_trs(ACK_TEXT), parse_pvs0_program(ACK_PROGRAM_TEXT)
    dps = dep_pairs_alt(trs)
    assert len(calling_contexts(program)) == 3 and len(dps) == 3
    pairs = [(ctx, dps[k]) for ctx, k in choices]
    got = check_cc_dp_correspondence(program, trs, unary_encoder(trs), pairs, samples, fuel)
    want = oracle_check_cc_dp_correspondence(
        program, trs, oracle_unary_encoder(trs), pairs, samples, fuel
    )
    assert json.dumps(got, indent=2) == json.dumps(want, indent=2)
