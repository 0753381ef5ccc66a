import pickle
import sys

import pytest

from rdp import (
    App,
    CallingContext,
    Cnst,
    DepPairAlt,
    EpsilonResult,
    GAdd,
    GComp,
    GConst,
    GIf,
    GMonus,
    GTuple,
    InvalidDepPairError,
    Ite,
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
    epsilon_check,
    guard_eval,
    terminates_on,
    unary_encoder,
)

from rdp.formats import pvs0_expr_to_str

from helpers import ack, ack_system, hg_system, nat


def width1(body, o1=(), o2=()):
    return Pvs0Program(1, (0,), (1,), tuple(o1), tuple(o2), body)


def loop_program():
    return width1(Rec(Vr()))


def countdown_program():
    """Recurse on n-1 until zero; the least sufficient fuel on (n,) is n+1."""
    is_zero = OperatorDef(
        1,
        GIf("eq", GComp(0, 0), GConst(0), GTuple((GConst(1),)), GTuple((GConst(0),))),
    )
    minus_one = OperatorDef(1, GTuple((GMonus(GComp(0, 0), GConst(1)),)))
    return width1(
        Ite(Op1(0, Vr()), Cnst((0,)), Rec(Op1(1, Vr()))),
        o1=(is_zero, minus_one),
    )


# --- guards ----------------------------------------------------------------


def test_guard_eval_ackermann_operators(ack_program):
    o1 = ack_program.o1
    assert guard_eval(o1[0], ((0, 3),)) == (1, 0)
    assert guard_eval(o1[0], ((2, 3),)) == (0, 0)
    assert guard_eval(o1[1], ((2, 0),)) == (1, 0)
    assert guard_eval(o1[2], ((5, 9),)) == (10, 0)
    assert guard_eval(o1[2], ((9, 5),)) == (6, 0)
    assert guard_eval(o1[3], ((3, 5),)) == (2, 1)
    assert guard_eval(o1[3], ((0, 5),)) == (0, 0)
    assert guard_eval(o1[4], ((2, 3),)) == (2, 2)
    assert guard_eval(o1[4], ((2, 0),)) == (0, 0)
    assert guard_eval(ack_program.o2[0], ((2, 9), (7, 1))) == (1, 7)
    assert guard_eval(ack_program.o2[0], ((0, 9), (7, 1))) == (0, 0)


def test_guard_eval_monus_clamps():
    clamp = OperatorDef(1, GTuple((GMonus(GConst(2), GConst(5)),)))
    assert guard_eval(clamp, ((9,),)) == (0,)


def test_guard_eval_add_and_le():
    body = GIf("le", GComp(0, 0), GComp(1, 0), GTuple((GAdd(GComp(0, 0), GComp(1, 0)),)), GTuple((GConst(0),)))
    op = OperatorDef(2, body)
    assert guard_eval(op, ((2,), (3,))) == (5,)
    assert guard_eval(op, ((4,), (3,))) == (0,)


@pytest.mark.xfail(
    raises=RecursionError,
    strict=True,
    reason="ROADMAP item 6: each guard node compiles to a closure that calls "
    "its operands' closures, one Python frame per level",
)
def test_a_guard_of_any_depth_evaluates():
    body = GComp(0, 0)
    for _ in range(5000):
        body = GAdd(body, GConst(1))
    assert guard_eval(OperatorDef(1, GTuple((body,))), ((0,),)) == (5000,)


def test_guard_eval_arity_mismatch():
    op = OperatorDef(1, GTuple((GConst(0),)))
    with pytest.raises(Pvs0Error):
        guard_eval(op, ((1,), (2,)))
    # An operator in no program, applied to a value too short for the
    # component it reads: a Pvs0Error, not an IndexError.
    reads_third = OperatorDef(1, GTuple((GConst(0), GComp(0, 2))))
    with pytest.raises(Pvs0Error):
        guard_eval(reads_third, ((1, 2),))


def test_operator_rejects_ill_sorted_guards():
    """A scalar where a value belongs, or a value where a scalar belongs, is
    refused when the operator is built, not when evaluation reaches it."""
    zero = GTuple((GConst(0),))
    with pytest.raises(Pvs0Error, match="not a value guard expression: GConst"):
        OperatorDef(1, GConst(3))
    with pytest.raises(Pvs0Error, match="not a value guard expression: GConst"):
        OperatorDef(1, GIf("eq", GComp(0, 0), GConst(0), GConst(1), zero))
    with pytest.raises(Pvs0Error, match="not a scalar guard expression: GTuple"):
        OperatorDef(1, GTuple((zero,)))


def test_operator_rejects_out_of_range_components():
    """Checked once, when the operator is built, not on every evaluation: a
    negative index must not wrap round, and an argument index past the
    arity must not surface as an IndexError."""
    with pytest.raises(Pvs0Error, match="component index -1 is negative"):
        OperatorDef(1, GTuple((GComp(0, -1),)))
    with pytest.raises(Pvs0Error, match="argument index -1 out of range for arity 1"):
        OperatorDef(1, GTuple((GComp(-1, 0),)))
    with pytest.raises(Pvs0Error, match="argument index 1 out of range for arity 1"):
        OperatorDef(1, GIf("eq", GConst(0), GConst(0), GTuple((GComp(1, 0),)), GTuple((GConst(0),))))
    with pytest.raises(Pvs0Error, match="argument index 2 out of range for arity 2"):
        OperatorDef(2, GTuple((GAdd(GComp(0, 0), GComp(2, 0)),)))


def test_gif_rejects_unknown_comparison():
    with pytest.raises(Pvs0Error):
        GIf("gt", GConst(0), GConst(1), GTuple((GConst(0),)), GTuple((GConst(0),)))


def test_gif_abbreviates_an_oversized_comparison():
    with pytest.raises(Pvs0Error, match="^unknown comparison ") as err:
        GIf("c" * 500_000, GConst(0), GConst(1), GTuple((GConst(0),)), GTuple((GConst(0),)))
    message = str(err.value)
    assert "..." in message
    assert len(message.encode()) < 1024


# --- program validation ----------------------------------------------------


def test_program_validation():
    with pytest.raises(Pvs0Error):
        Pvs0Program(0, (), (), (), (), Vr())
    with pytest.raises(Pvs0Error):
        Pvs0Program(2, (0,), (1, 0), (), (), Vr())
    with pytest.raises(Pvs0Error):
        width1(Vr(), o1=(OperatorDef(2, GTuple((GConst(0),))),))
    with pytest.raises(Pvs0Error):
        width1(Vr(), o1=(OperatorDef(1, GTuple((GComp(0, 3),))),))
    with pytest.raises(Pvs0Error):
        width1(Vr(), o1=(OperatorDef(1, GTuple((GConst(0), GConst(0)))),))
    c, one = GConst(0), GTuple((GConst(0),))
    nested = GIf("lt", c, c, one, GIf("eq", c, c, one, GTuple((c, c))))
    with pytest.raises(Pvs0Error, match="tuple of 2 components in a width-1 program"):
        width1(Vr(), o1=(OperatorDef(1, nested),))
    compared = GIf("le", c, GComp(1, 1), one, one)
    with pytest.raises(Pvs0Error, match="component index 1 out of range for width 1"):
        width1(Vr(), o2=(OperatorDef(2, compared),))
    clamped = GTuple((GMonus(GConst(1), GComp(0, 2)),))
    with pytest.raises(Pvs0Error, match="component index 2 out of range for width 1"):
        width1(Vr(), o1=(OperatorDef(1, clamped),))
    with pytest.raises(Pvs0Error):
        width1(Cnst((1, 2)))


def test_out_of_range_body_operator_indices_are_allowed():
    """The shape check leaves dangling indices alone; evaluation yields bottom."""
    program = width1(Op1(4, Vr()))
    assert chi_eval(program, program.body, (3,), 10) is None


# --- evaluation ------------------------------------------------------------


def test_chi_fuel_zero_is_undefined():
    program = loop_program()
    for expr in (Cnst((1,)), Vr(), Rec(Vr()), Ite(Vr(), Vr(), Vr())):
        assert chi_eval(program, expr, (0,), 0) is None


def test_chi_base_cases():
    program = width1(Vr())
    assert chi_eval(program, Cnst((7,)), (0,), 1) == (7,)
    assert chi_eval(program, Vr(), (4,), 1) == (4,)


def test_chi_input_width_checked():
    program = width1(Vr())
    with pytest.raises(Pvs0Error):
        chi_eval(program, program.body, (1, 2), 5)
    for fuel in (0, 5):
        with pytest.raises(Pvs0Error):
            terminates_on(program, (1, 2), fuel)
        with pytest.raises(Pvs0Error):
            epsilon_check(program, program.body, (1, 2), (1,), fuel)


def test_chi_ite_tests_against_false_value():
    branch = Ite(Vr(), Cnst((5,)), Cnst((7,)))
    program = width1(branch)
    assert chi_eval(program, branch, (0,), 3) == (7,)
    assert chi_eval(program, branch, (1,), 3) == (5,)
    assert chi_eval(program, branch, (2,), 3) == (5,)


def test_chi_only_rec_consumes_fuel():
    """Nesting operators arbitrarily deep works at fuel 1; one rec does not."""
    program = countdown_program()
    deep = Op1(1, Op1(1, Op1(1, Vr())))
    assert chi_eval(program, deep, (9,), 1) == (6,)
    assert chi_eval(program, Rec(Vr()), (0,), 1) is None


def test_chi_ackermann_anchor_values(ack_program):
    body = ack_program.body
    assert chi_eval(ack_program, body, (0, 5), 1) == (6, 0)
    assert chi_eval(ack_program, body, (1, 1), 20) == (3, 0)
    assert chi_eval(ack_program, body, (2, 3), 10) == (9, 0)
    assert chi_eval(ack_program, body, (2, 3), 9) is None


def test_a_program_pickles_and_evaluates_the_same(ack_program):
    copy = pickle.loads(pickle.dumps(ack_program))
    assert copy == ack_program and hash(copy) == hash(ack_program)
    assert chi_eval(copy, copy.body, (2, 3), 10) == (9, 0)


def test_chi_monotone_and_deterministic(ack_program):
    body = ack_program.body
    for m in range(3):
        for n in range(3):
            settled = None
            for fuel in range(12):
                result = chi_eval(ack_program, body, (m, n), fuel)
                assert result == chi_eval(ack_program, body, (m, n), fuel)
                if settled is not None:
                    assert result == settled
                elif result is not None:
                    settled = result


def test_terminates_on_minimal_fuel():
    program = countdown_program()
    for n in (0, 1, 5, 17):
        least = terminates_on(program, (n,), 100)
        assert least == n + 1
        assert chi_eval(program, program.body, (n,), least) is not None
        assert chi_eval(program, program.body, (n,), least - 1) is None


def test_terminates_on_ackermann(ack_program):
    assert terminates_on(ack_program, (2, 3), 100) == 10
    assert terminates_on(ack_program, (3, 4), 10_000) == 127


def test_terminates_on_unknown_for_loop():
    assert terminates_on(loop_program(), (0,), 50) is None
    # The evaluator keeps its own stack: any fuel works on the calling
    # thread at the default recursion limit.
    assert sys.getrecursionlimit() <= 1000
    assert terminates_on(loop_program(), (0,), 100_000) is None
    assert chi_eval(loop_program(), Rec(Rec(Rec(Vr()))), (0,), 100_000) is None


def test_epsilon_check(ack_program):
    body = ack_program.body
    assert epsilon_check(ack_program, body, (1, 1), (3, 0), 50) is EpsilonResult.TRUE
    assert epsilon_check(ack_program, body, (1, 1), (4, 0), 50) is EpsilonResult.FALSE
    program = loop_program()
    assert (
        epsilon_check(program, program.body, (0,), (0,), 50)
        is EpsilonResult.UNKNOWN
    )


# --- tabled rec calls --------------------------------------------------------


def test_terminates_on_runs_the_body_once_per_input(ack_program):
    """Ackermann (3,7) needs fuel 1023.  Its body meets 2,558 distinct inputs;
    re-running the body at every rec made about two million operator calls."""
    program = pickle.loads(pickle.dumps(ack_program))
    calls = 0
    for defn in program.o1 + program.o2:

        def counted(args, run=defn._run):
            nonlocal calls
            calls += 1
            return run(args)

        object.__setattr__(defn, "_run", counted)
    assert terminates_on(program, (3, 7), 10_000) == 1023
    assert 0 < calls <= 10_000


def test_a_rec_on_the_input_its_body_runs_on_is_undefined():
    """rec(vr) and rec^100(vr) call the body on its own input again: undefined
    at any fuel, found when the input comes back rather than by spending it."""
    nested = Vr()
    for _ in range(100):
        nested = Rec(nested)
    for program in (loop_program(), width1(nested)):
        assert chi_eval(program, program.body, (0,), 10_000) is None
        assert terminates_on(program, (0,), 10_000) is None


# --- calling contexts ------------------------------------------------------


def test_calling_contexts_bare_rec():
    program = loop_program()
    assert calling_contexts(program) == [CallingContext((), (), Vr())]


def test_calling_contexts_condition_position_is_unguarded():
    program = width1(Ite(Rec(Vr()), Cnst((0,)), Cnst((0,))))
    contexts = calling_contexts(program)
    assert len(contexts) == 1
    assert contexts[0].path == (1,)
    assert contexts[0].condition == ()


def test_calling_contexts_ackermann(ack_program):
    contexts = calling_contexts(ack_program)
    m_zero = Op1(0, Vr())
    n_zero = Op1(1, Vr())
    assert contexts == [
        CallingContext((3, 2), ((m_zero, False), (n_zero, True)), Op1(3, Vr())),
        CallingContext(
            (3, 3),
            ((m_zero, False), (n_zero, False)),
            Op2(0, Vr(), Rec(Op1(4, Vr()))),
        ),
        CallingContext((3, 3, 1, 2), ((m_zero, False), (n_zero, False)), Op1(4, Vr())),
    ]


def test_a_deep_body_builds_lists_its_contexts_and_evaluates():
    """Building, listing contexts and evaluating each walk one explicit
    stack, so a 3,000-deep body, past the default recursion limit, works."""
    never = Cnst((0,))
    body = Vr()
    for i in range(3000):
        body = Ite(never, Rec(Vr()), body) if i % 3 == 0 else Op1(0, body)
    succ = OperatorDef(1, GTuple((GAdd(GComp(0, 0), GConst(1)),)))
    program = width1(body, o1=[succ])
    contexts = calling_contexts(program)
    assert len(contexts) == 1000
    assert contexts[0] == CallingContext((1, 1, 2), ((never, True),), Vr())
    assert contexts[-1] == CallingContext(
        (1, 1, 3) * 999 + (1, 1, 2), ((never, False),) * 999 + ((never, True),), Vr()
    )
    assert chi_eval(program, body, (0,), 1) == (2000,)


def test_a_body_and_a_guard_of_any_depth_work():
    """A 20,000-deep body hashes, compares, prints and lists its contexts,
    and a guard of 5,000 nested additions builds: each is one
    walk over an explicit stack."""

    def body(bottom):
        expr = Rec(bottom)
        for i in range(20_000):
            expr = Op1(0, expr) if i % 2 else Op2(0, Cnst((i % 3,)), expr)
        return Rec(expr)

    deep, twin, other = body(Vr()), body(Vr()), body(Cnst((1,)))
    assert hash(deep) == hash(twin)
    assert deep == twin and not deep != twin
    assert deep != other and not deep == other
    text = pvs0_expr_to_str(deep)
    assert text.startswith("rec(op1(0, op2(0, (0), op1(0, op2(0, (1), ")
    assert text.endswith("op2(0, (0), rec(vr)" + ")" * 20_001)
    succ = OperatorDef(1, GTuple((GAdd(GComp(0, 0), GConst(1)),)))
    plus = OperatorDef(2, GTuple((GAdd(GComp(0, 0), GComp(1, 0)),)))
    program = width1(deep, o1=[succ], o2=[plus])
    contexts = calling_contexts(program)
    assert [len(ctx.path) for ctx in contexts] == [0, 20_001]
    assert contexts[1].actual == Vr()
    scalar = GComp(0, 1)
    for _ in range(5_000):
        scalar = GAdd(scalar, GConst(1))
    guard = OperatorDef(1, GTuple((scalar,)))
    assert (guard._reads, guard._widths) == (2, frozenset({1}))


def test_a_deep_ill_sorted_tree_is_refused_with_a_pvs0_error():
    """A node in a message prints in one pass over the walk, so a misplaced
    tree 2,000 levels deep is refused as ill-sorted, not with RecursionError."""
    scalar = GConst(1)
    for _ in range(2_000):
        scalar = GAdd(scalar, GConst(1))
    with pytest.raises(Pvs0Error, match=r"^not a value guard expression: GAdd\(left=GAdd\("):
        OperatorDef(1, scalar)
    with pytest.raises(Pvs0Error, match=r"^not a program expression: GAdd\(left=GAdd\("):
        Pvs0Program(1, (0,), (1,), (), (), Op1(0, scalar))
    assert repr(scalar).endswith(", right=GConst(value=1))" * 2_000)


def test_a_message_shows_a_deep_misplaced_tree_cut_short():
    """Every check of a node's sort shows the node cut to 200 characters, its
    head and tail kept, so a message stays short however deep the tree is."""
    scalar = GConst(1)
    for _ in range(10_000):
        scalar = GAdd(scalar, GConst(1))
    expr = Vr()
    for _ in range(10_000):
        expr = Op1(0, expr)
    program = width1(Vr())
    refusals = (
        (lambda: OperatorDef(1, GTuple((expr,))), Pvs0Error),  # a program expression in a guard
        (lambda: OperatorDef(1, scalar), Pvs0Error),
        (lambda: width1(Op1(0, scalar)), Pvs0Error),  # a guard in a body
        (lambda: width1(scalar), Pvs0Error),
        (lambda: chi_eval(program, scalar, (1,), 5), Pvs0Error),
        (lambda: pvs0_expr_to_str(Rec(scalar)), ValueError),
    )
    for refuse, error in refusals:
        with pytest.raises(error) as err:
            refuse()
        message = str(err.value)
        assert len(message) < 300
        assert "..." in message
        assert message.startswith(("not a scalar guard expression: Op1(index=0, arg=Op1(",
                                   "not a value guard expression: GAdd(left=GAdd(",
                                   "not a program expression: GAdd(left=GAdd("))
        assert message.endswith((")" * 99, ", right=GConst(value=1))" * 4))


def test_a_body_fails_with_its_first_error_in_pre_order():
    """A body's constants and sorts are checked on one walk: a constant of the
    wrong width fails before any node after it, and after any node before it."""
    wide, misplaced = Cnst((1, 2)), GConst(0)
    constant = r"^constant \(1, 2\) in a width-1 program$"
    sort = r"^not a program expression: GConst\(value=0\)$"
    for body, message in (
        (Op2(0, wide, misplaced), constant),
        (Op2(0, Op1(0, wide), Op1(0, misplaced)), constant),
        (Ite(Rec(Vr()), wide, misplaced), constant),
        (Op2(0, misplaced, wide), sort),
        (Ite(Op1(0, misplaced), Rec(wide), Vr()), sort),
    ):
        with pytest.raises(Pvs0Error, match=message):
            width1(body)


def test_equality_tells_apart_trees_that_differ_only_in_shape():
    """Equality is field by field also on trees no reader builds: two nested
    tuples with the same leaves in the same order, split differently, differ."""
    one, two = GConst(1), GConst(2)
    split = GTuple((GTuple((one,)), two))
    whole = GTuple((GTuple((one, two)),))
    assert whole != split and not whole == split
    assert whole == GTuple((GTuple((GConst(1), GConst(2))),))


# --- encoding and the correspondence check ---------------------------------


def test_unary_encoder_defaults_to_unique_defined_symbol():
    encode = unary_encoder(ack_system())
    assert encode((2, 1)) == ack(nat(2), nat(1))


def test_unary_encoder_errors():
    with pytest.raises(ValueError):
        unary_encoder(hg_system())
    with pytest.raises(ValueError):
        unary_encoder(ack_system(), succ="missing")
    with pytest.raises(ValueError):
        unary_encoder(ack_system(), zero="s")
    encode = unary_encoder(ack_system())
    with pytest.raises(Pvs0Error):
        encode((1, 2, 3))


def test_cc_dp_correspondence_passes_for_matching_pairs(ack_program):
    trs = ack_system()
    encode = unary_encoder(trs)
    samples = [(m, n) for m in range(3) for n in range(3)]
    report = check_cc_dp_correspondence(
        ack_program,
        trs,
        encode,
        [(0, DepPairAlt(1, ())), (2, DepPairAlt(2, (2,)))],
        samples,
        fuel=100,
    )
    assert report["passed"] is True
    for pair_report in report["pairs"]:
        assert pair_report["passed"] is True
        for row in pair_report["samples"]:
            assert row["iff"] is True


def test_cc_dp_correspondence_nested_actual_fails_value_equation(ack_program):
    """The middle context's actual contains a nested call, which the encoded
    next-call equation cannot absorb; the pairing must be reported failing."""
    trs = ack_system()
    report = check_cc_dp_correspondence(
        ack_program,
        trs,
        unary_encoder(trs),
        [(1, DepPairAlt(2, ()))],
        [(1, 1), (2, 1)],
        fuel=100,
    )
    assert report["passed"] is False
    rows = report["pairs"][0]["samples"]
    assert all(row["iff"] is True for row in rows)
    assert any(row["next_call"] is False for row in rows)


def test_cc_dp_correspondence_wrong_pairing_breaks_iff(ack_program):
    trs = ack_system()
    report = check_cc_dp_correspondence(
        ack_program,
        trs,
        unary_encoder(trs),
        [(0, DepPairAlt(2, (2,)))],
        [(1, 0), (1, 1)],
        fuel=100,
    )
    assert report["passed"] is False
    assert any(row["iff"] is False for row in report["pairs"][0]["samples"])


def test_cc_dp_correspondence_rejects_bad_indices(ack_program):
    trs = ack_system()
    with pytest.raises(Pvs0Error):
        check_cc_dp_correspondence(
            ack_program, trs, unary_encoder(trs), [(7, DepPairAlt(1, ()))], [(0, 0)]
        )
    with pytest.raises(InvalidDepPairError):
        check_cc_dp_correspondence(
            ack_program, trs, unary_encoder(trs), [(0, DepPairAlt(0, ()))], [(0, 0)]
        )


def test_a_grid_check_builds_a_bounded_number_of_nodes(monkeypatch, ack_program, ack_trs):
    """Counted work, not time.  The encoder builds each numeral once and
    every encoding only its root node, so a row of the check builds at most
    three nodes besides the numerals (the sample's encoding, and for a match
    whose condition holds the actual's encoding and the rhs subterm's
    instance): 2.44 a row on the 15x15 grid, where building every numeral
    anew at each encoding built 27.2."""
    built = [0]
    init = App.__init__

    def counting(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(App, "__init__", counting)
    samples = [(m, n) for m in range(16) for n in range(16)]
    pairs = [(0, DepPairAlt(1, ())), (2, DepPairAlt(2, (2,)))]
    report = check_cc_dp_correspondence(
        ack_program, ack_trs, unary_encoder(ack_trs), pairs, samples, fuel=200
    )
    assert report["passed"] is True
    rows = sum(len(pair["samples"]) for pair in report["pairs"])
    assert rows == 2 * 256
    numerals = 16  # 0 up to 15, the grid's largest component
    assert built[0] <= 3 * rows + numerals, f"{built[0]} nodes built for {rows} rows"
