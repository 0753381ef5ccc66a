import json

import pytest

from rdp import (
    ChainWitness,
    DepPairAlt,
    InvalidDepPairError,
    ParseError,
    Pvs0Error,
    RelationMode,
    RuleRestrictionError,
    Substitution,
    format_trs,
    normalize,
    parse_chain_witness,
    parse_pvs0_program,
    parse_term,
    parse_trace,
    parse_trs,
    parse_value,
    program_to_json,
    trace_to_json,
    witness_to_json,
)
from rdp.formats import parse_substitution, pvs0_expr_to_str, substitution_to_json

from helpers import S1, X, Y, Z0, ack, ack_system, ap, hg_system, nat


# --- TRS files -------------------------------------------------------------


def test_trs_round_trip():
    for trs in (ack_system(), hg_system()):
        assert parse_trs(format_trs(trs)) == trs


def test_format_trs_frozen_text():
    assert format_trs(ack_system()) == (
        "(VAR x y)\n"
        "(RULES\n"
        "  a(0,y) -> s(y)\n"
        "  a(s(x),0) -> a(x,s(0))\n"
        "  a(s(x),s(y)) -> a(x,a(s(x),y))\n"
        ")\n"
    )


def test_parse_trs_without_var_section():
    trs = parse_trs("(RULES f(c) -> c)")
    assert not trs.variables
    assert len(trs.rules) == 1


def test_parse_trs_unknown_section():
    with pytest.raises(ParseError, match="unknown section 'FOO'") as exc:
        parse_trs("(FOO x)\n(RULES a -> a)")
    assert exc.value.line == 1


def test_parse_trs_duplicate_var_section():
    with pytest.raises(ParseError, match="duplicate") as exc:
        parse_trs("(VAR x)\n(VAR y)\n(RULES f(x) -> x)")
    assert exc.value.line == 2


def test_parse_trs_missing_rules():
    with pytest.raises(ParseError, match="missing"):
        parse_trs("(VAR x)")


def test_parse_trs_arity_conflict_points_at_both_uses():
    text = "(VAR x)\n(RULES\n  f(x) -> x\n  f(x, x) -> x\n)"
    with pytest.raises(ParseError, match="arity 2 but with arity 1 on line 3") as exc:
        parse_trs(text)
    assert exc.value.line == 4


def test_parse_trs_variable_with_arguments():
    with pytest.raises(ParseError, match="variable 'x' used with arguments") as exc:
        parse_trs("(VAR x)\n(RULES x(x) -> x)")
    assert exc.value.line == 2


def test_parse_trs_rule_restrictions_carry_the_line():
    with pytest.raises(RuleRestrictionError, match="line 2"):
        parse_trs("(VAR x)\n(RULES x -> x)")
    with pytest.raises(RuleRestrictionError, match="line 2"):
        parse_trs("(VAR x y)\n(RULES f(x) -> y)")


def test_parse_trs_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character '#'") as exc:
        parse_trs("(VAR x)\n(RULES f(x) -> x #)")
    assert exc.value.line == 2


# --- terms -----------------------------------------------------------------


def test_parse_term_against_system():
    trs = ack_system()
    assert parse_term("a(s(x), 0)", trs) == ack(ap(S1, X), ap(Z0))
    assert parse_term("s(s(0))", trs) == nat(2)


def test_parse_term_errors():
    trs = ack_system()
    with pytest.raises(ParseError, match="unknown identifier 'b'"):
        parse_term("b", trs)
    with pytest.raises(ParseError, match="arity 1, applied to 2"):
        parse_term("s(0, 0)", trs)
    with pytest.raises(ParseError, match="variable 'x' used with arguments"):
        parse_term("x(0)", trs)
    with pytest.raises(ParseError, match="expected eof"):
        parse_term("a(0, 0) a", trs)


def test_input_too_deep_to_read_is_a_parse_error():
    deep = "s(" * 2000 + "0" + ")" * 2000
    with pytest.raises(ParseError, match="nested too deeply to read"):
        parse_term(deep, ack_system())
    with pytest.raises(ParseError, match="nested too deeply to read"):
        parse_trs(f"(RULES f -> {deep})")
    deep_body = '["rec", ' * 3000 + '["vr"]' + "]" * 3000
    with pytest.raises(ParseError, match="nested too deeply to read"):
        parse_pvs0_program(
            f'{{"width": 1, "false_val": [0], "top_val": [1], "body": {deep_body}}}'
        )
    with pytest.raises(ParseError, match="nested too deeply to read"):
        parse_chain_witness('{"entries": ' + "[" * 5000 + "]" * 5000 + "}", ack_system())


# --- substitutions ---------------------------------------------------------


def test_substitution_json_round_trip():
    trs = ack_system()
    sigma = Substitution({X: nat(1), Y: ack(ap(Z0), ap(Z0))})
    data = substitution_to_json(sigma)
    assert data == {"x": "s(0)", "y": "a(0,0)"}
    assert parse_substitution(data, trs) == sigma


def test_parse_substitution_errors():
    trs = ack_system()
    with pytest.raises(ParseError, match="undeclared variable 'z'"):
        parse_substitution({"z": "0"}, trs)
    with pytest.raises(ParseError, match="must be a term string"):
        parse_substitution({"x": 3}, trs)
    with pytest.raises(ParseError, match="must be an object"):
        parse_substitution("x", trs)


# --- traces ----------------------------------------------------------------


def test_trace_json_round_trip():
    trs = ack_system()
    trace = normalize(trs, ack(nat(1), nat(1)), RelationMode.INNERMOST)
    assert parse_trace(trace_to_json(trace), trs) == trace


def test_parse_trace_errors():
    trs = ack_system()
    with pytest.raises(ParseError, match="malformed trace"):
        parse_trace({}, trs)
    with pytest.raises(ParseError, match="malformed trace"):
        parse_trace({"start": "0", "mode": "sideways", "steps": []}, trs)
    with pytest.raises(ParseError, match="malformed trace step"):
        parse_trace(
            {"start": "a(0,0)", "mode": "full", "steps": [{"position": "1"}]}, trs
        )
    for raw_steps in (5, None):
        with pytest.raises(ParseError, match="malformed trace: steps must be a list"):
            parse_trace({"mode": "full", "start": "0", "steps": raw_steps}, trs)
    for rule_index in (0.7, True, "0"):
        step = {"position": "", "rule_index": rule_index, "substitution": {}, "term": "s(0)"}
        with pytest.raises(ParseError, match="'rule_index' must be an integer"):
            parse_trace({"start": "a(0,0)", "mode": "full", "steps": [step]}, trs)
    for position in (1, None, "a.b", "0"):
        step = {"position": position, "rule_index": 0, "substitution": {}, "term": "s(0)"}
        with pytest.raises(ParseError, match="malformed trace step: .*position"):
            parse_trace({"start": "a(0,0)", "mode": "full", "steps": [step]}, trs)


# --- chain witnesses -------------------------------------------------------


def test_witness_round_trip():
    trs = ack_system()
    witness = ChainWitness(
        (
            (DepPairAlt(2, (2,)), Substitution({X: ap(Z0), Y: nat(1)})),
            (DepPairAlt(2, (2,)), Substitution({X: ap(Z0), Y: ap(Z0)})),
        )
    )
    text = json.dumps(witness_to_json(witness))
    assert parse_chain_witness(text, trs) == witness


def test_witness_defaults():
    witness = parse_chain_witness('{"entries": [{"rule": 1}]}', ack_system())
    dp, sigma = witness.entries[0]
    assert dp == DepPairAlt(1, ())
    assert not sigma


def test_witness_rejects_non_dependency_pair():
    with pytest.raises(InvalidDepPairError) as exc:
        parse_chain_witness('{"entries": [{"rule": 0}]}', ack_system())
    assert exc.value.entry == 0


def test_witness_shape_errors():
    trs = ack_system()
    with pytest.raises(ParseError, match="malformed witness JSON"):
        parse_chain_witness("{", trs)
    with pytest.raises(ParseError, match='"entries" list'):
        parse_chain_witness("[]", trs)
    with pytest.raises(ParseError, match="entry 0 must be an object"):
        parse_chain_witness('{"entries": [3]}', trs)
    with pytest.raises(ParseError, match="entry 0"):
        parse_chain_witness('{"entries": [{"position": "1"}]}', trs)
    for rule in ("1.9", "true", '"1"'):
        with pytest.raises(ParseError, match="entry 0: 'rule' must be an integer"):
            parse_chain_witness(f'{{"entries": [{{"rule": {rule}}}]}}', trs)
    # As strings, "2.1" and "2" name pairs of rule 0 of hg; as numbers they are no position.
    for position in ("2.1", "2"):
        with pytest.raises(ParseError, match="entry 0: 'position' must be a string"):
            parse_chain_witness(
                f'{{"entries": [{{"rule": 0, "position": {position}}}]}}', hg_system()
            )


# --- programs --------------------------------------------------------------


def test_program_round_trip(ack_program):
    text = json.dumps(program_to_json(ack_program))
    assert parse_pvs0_program(text) == ack_program


def test_program_body_rendering(ack_program):
    assert pvs0_expr_to_str(ack_program.body) == (
        "ite(op1(0, vr), op1(2, vr), "
        "ite(op1(1, vr), rec(op1(3, vr)), rec(op2(0, vr, rec(op1(4, vr))))))"
    )


def test_parse_program_errors():
    with pytest.raises(ParseError, match="malformed program JSON"):
        parse_pvs0_program("{")
    with pytest.raises(ParseError, match="must be a JSON object"):
        parse_pvs0_program("3")
    with pytest.raises(ParseError, match="malformed program"):
        parse_pvs0_program('{"width": 1}')
    with pytest.raises(ParseError, match="naturals"):
        parse_pvs0_program(
            '{"width": 1, "false_val": [-1], "top_val": [1], "body": ["vr"]}'
        )
    with pytest.raises(ParseError, match="malformed expression node"):
        parse_pvs0_program(
            '{"width": 1, "false_val": [0], "top_val": [1], "body": ["weird"]}'
        )
    with pytest.raises(ParseError, match="malformed guard value node"):
        parse_pvs0_program(
            '{"width": 1, "false_val": [0], "top_val": [1],'
            ' "o1": [["frob"]], "body": ["vr"]}'
        )
    base = {"width": 1, "false_val": [0], "top_val": [1], "body": ["vr"]}
    for field, value, message in (
        ("width", 2.9, "'width' must be an integer"),
        ("width", True, "'width' must be an integer"),
        ("false_val", [True], "false_val must be a list of naturals"),
        ("top_val", [1.0], "top_val must be a list of naturals"),
        ("body", ["cnst", [True]], "constant must be a list of naturals"),
        ("body", ["op1", True, ["vr"]], "malformed expression node"),
        ("body", ["op2", 0.0, ["vr"], ["vr"]], "malformed expression node"),
        ("o1", [["tuple", ["const", True]]], "malformed guard scalar node"),
        ("o1", [["tuple", ["const", 1.5]]], "malformed guard scalar node"),
        ("o1", [["tuple", ["comp", 0, False]]], "malformed guard scalar node"),
        ("o1", 5, "malformed program: o1 must be a list"),
        ("o1", None, "malformed program: o1 must be a list"),
        ("o1", "ab", "malformed program: o1 must be a list"),
        ("o1", {"a": 1}, "malformed program: o1 must be a list"),
        ("o2", 5, "malformed program: o2 must be a list"),
        ("o2", None, "malformed program: o2 must be a list"),
        ("o2", "ab", "malformed program: o2 must be a list"),
        ("o2", {"a": 1}, "malformed program: o2 must be a list"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_pvs0_program(json.dumps({**base, field: value}))


def test_parse_program_semantic_errors_use_the_evaluator_type():
    with pytest.raises(Pvs0Error, match="comparison"):
        parse_pvs0_program(
            '{"width": 1, "false_val": [0], "top_val": [1],'
            ' "o1": [["if", ["gt", ["const", 0], ["const", 1]],'
            ' ["top"], ["bottom"]]], "body": ["vr"]}'
        )
    with pytest.raises(Pvs0Error):
        parse_pvs0_program(
            '{"width": 1, "false_val": [0], "top_val": [1],'
            ' "o1": [["tuple", ["comp", 0, 5]]], "body": ["vr"]}'
        )


# --- values ----------------------------------------------------------------


def test_parse_value():
    assert parse_value("2,3") == (2, 3)
    assert parse_value("(2,3)") == (2, 3)
    assert parse_value(" (4) ") == (4,)
    for bad in ("", "()", "x", "1,-2", "(1,2", "1,2)", "((1,2))", ")1,2("):
        with pytest.raises(ParseError):
            parse_value(bad)
