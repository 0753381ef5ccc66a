import json
import re
import sys
import threading
import tracemalloc
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdp import (
    App,
    ChainWitness,
    DerivationTrace,
    FuelExhausted,
    Op1,
    DepPairAlt,
    InvalidDepPairError,
    ParseError,
    Pvs0Error,
    RelationMode,
    RuleRestrictionError,
    Signature,
    Step,
    Substitution,
    Symbol,
    Term,
    Var,
    Vr,
    dep_pairs_alt,
    derives,
    format_trs,
    match,
    normalize,
    parse_chain_witness,
    parse_pvs0_program,
    parse_term,
    parse_trace,
    parse_trs,
    parse_value,
    positions_of,
    replace_at,
    subterm_at,
    successors,
    term_to_str,
    trace_to_json,
    trs_of,
    vars_of,
    witness_to_json,
)
from rdp import formats, terms
from rdp.terms import InvalidPositionError
from rdp.formats import parse_substitution, pvs0_expr_to_str, substitution_to_json
from rdp.rewriting import TRS

from helpers import (
    A2,
    C0,
    F1,
    G1,
    G2,
    H2,
    S1,
    X,
    Y,
    Z0,
    _tokenize,
    ack,
    ack_system,
    ap,
    detour_system,
    eq_system,
    grow_system,
    growing_wrap_system,
    hg_system,
    loop_system,
    nat,
    nest_system,
    oracle_apply,
    oracle_parse_term,
    oracle_parse_trs,
    oracle_program_to_json,
    oracle_trace_to_json,
    terms_over,
)


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
    """JSON nested deeper than its reader reaches is a ParseError; terms and
    systems are read at any depth."""
    deep = "s(" * 2000 + "0" + ")" * 2000
    assert parse_term(deep, ack_system()) == nat(2000)
    assert parse_trs(f"(RULES f -> {deep})").rules[0].rhs == nat(2000)
    # Deeper than json.loads reads on every supported Python, 3.13 included.
    deep_body = '["rec", ' * 100_000 + '["vr"]' + "]" * 100_000
    with pytest.raises(ParseError, match="nested too deeply to read"):
        parse_pvs0_program(
            f'{{"width": 1, "false_val": [0], "top_val": [1], "body": {deep_body}}}'
        )
    with pytest.raises(ParseError, match="nested too deeply to read"):
        parse_chain_witness('{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}", ack_system())


def test_terms_and_systems_of_any_depth_read_and_work():
    """A term and a right-hand side 100,000 levels deep are read, and then
    hashed, compared, matched, instantiated, searched for pairs and
    rewritten."""
    n = 100_000
    term = parse_term("s(" * n + "0" + ")" * n, ack_system())
    trs = parse_trs("(VAR x)\n(RULES\n  f(x) -> " + "s(" * n + "f(x)" + ")" * n + "\n)")
    rhs = trs.rules[0].rhs
    assert hash(term) == hash(nat(n)) and term == nat(n)
    built = ap(Symbol("f", 1), nat(2))
    for _ in range(n):
        built = ap(S1, built)
    sigma = Substitution({X: nat(2)})
    assert sigma.apply(rhs) == built and hash(sigma.apply(rhs)) == hash(built)
    assert match(rhs, built) == sigma
    assert match(rhs, term) is None
    assert vars_of(rhs) == {X} and vars_of(term) == frozenset()
    assert dep_pairs_alt(trs) == [DepPairAlt(0, (1,) * n)]
    assert derives(trs, ap(Symbol("f", 1), X), X, RelationMode.FULL, 1) is None


def test_systems_and_witnesses_of_any_depth_round_trip():
    """A right-hand side and a witness binding 100,000 levels deep are
    written on an explicit stack and read back."""
    n = 100_000
    rhs = "s(" * n + "f(x)" + ")" * n
    trs = parse_trs(f"(VAR x)\n(RULES\n  f(x) -> {rhs}\n)")
    text = format_trs(trs)
    assert text == f"(VAR x)\n(RULES\n  f(x) -> {rhs}\n)\n"
    assert parse_trs(text) == trs
    witness = ChainWitness(((DepPairAlt(2, (2,)), Substitution({X: nat(n), Y: ap(Z0)})),))
    data = witness_to_json(witness)
    assert data["entries"][0]["substitution"] == {"x": "s(" * n + "0" + ")" * n, "y": "0"}
    assert parse_chain_witness(json.dumps(data), ack_system()) == witness


def test_var_section_may_follow_the_rules():
    assert parse_trs("(RULES\n  f(x) -> x\n)\n(VAR x)") == parse_trs("(VAR x)\n(RULES f(x) -> x)")


# --- the one-pass reader against the two-pass oracle -----------------------

# Names that the signatures below also use as symbols: declaring one of them
# a variable makes its applications variables used with arguments.
VAR_NAMES = ("x", "y", "f", "s")
READ_SIGNATURE = Signature((A2, S1, Z0, F1, G2, C0))
READ_TERMS = terms_over([A2, S1, Z0, F1, G2], max_leaves=12)


def _tower(term: Term, depth: int) -> str:
    """``s^depth(term)`` as text, printed without the recursive printer."""
    return "s(" * depth + term_to_str(term) + ")" * depth


@st.composite
def term_inputs(draw):
    """A term's text (up to about 320 levels) and a system declaring some of
    ``VAR_NAMES`` as variables."""
    text = _tower(draw(READ_TERMS), draw(st.integers(0, 300)))
    names = draw(st.sets(st.sampled_from(VAR_NAMES)))
    return text, TRS(READ_SIGNATURE, frozenset(Var(n) for n in names), ())


@st.composite
def trs_texts(draw):
    """A system's text: random rules, mostly well formed, the first as deep as
    about 320 levels, with a ``(VAR ...)`` section before, after or absent."""
    rules = []
    depth = draw(st.integers(0, 300))
    for _ in range(draw(st.integers(1, 4))):
        lhs = draw(READ_TERMS.filter(lambda t: isinstance(t, App)))
        rhs = draw(READ_TERMS)
        invented = vars_of(rhs) - vars_of(lhs)
        if draw(st.booleans()):
            rhs = oracle_apply(Substitution({v: ap(C0) for v in invented}), rhs)
        rules.append(f"{term_to_str(lhs)} -> {_tower(rhs, depth)}")
        depth = 0
    section = "(RULES\n" + "\n".join(rules) + "\n)"
    names = draw(st.lists(st.sampled_from(VAR_NAMES), max_size=3))
    var = "(VAR " + " ".join(names) + ")"
    where = draw(st.sampled_from(("before", "after", "absent")))
    text = {"before": f"{var}\n{section}", "after": f"{section}\n{var}", "absent": section}
    return text[where]


def _read(read, *args):
    """What ``read`` returns, or None if it rejects the input.  Which of two
    faults is reported first may differ between the readers, so the class
    of the error is not compared."""
    try:
        return read(*args)
    except (ParseError, RuleRestrictionError):
        return None


@settings(max_examples=150, deadline=None)
@given(case=term_inputs())
def test_reader_agrees_with_the_two_pass_reader_on_terms(case):
    text, trs = case
    assert _read(parse_term, text, trs) == _read(oracle_parse_term, text, trs)


@settings(max_examples=150, deadline=None)
@given(text=trs_texts())
def test_reader_agrees_with_the_two_pass_reader_on_systems(text):
    assert _read(parse_trs, text) == _read(oracle_parse_trs, text)


@pytest.mark.parametrize(
    "system",
    [ack_system, loop_system, hg_system, grow_system, nest_system, growing_wrap_system,
     detour_system, eq_system],
)
def test_reader_agrees_with_the_two_pass_reader_on_the_hand_built_systems(system):
    text = format_trs(system())
    assert parse_trs(text) == oracle_parse_trs(text) == system()


def _broken(text: str, draw) -> str:
    """``text`` with one token dropped, duplicated or swapped with the next, or
    with one of ``#``, ``-`` and ``>`` inserted at a drawn character, where
    it is a character nothing may hold or half of a broken ``->``."""
    tokens = [tok.text for tok in _tokenize(text)[:-1]]
    i = draw(st.integers(0, len(tokens) - 1))
    edit = draw(st.sampled_from(("drop", "duplicate", "swap", "insert")))
    if edit == "drop":
        del tokens[i]
    elif edit == "duplicate":
        tokens.insert(i, tokens[i])
    elif edit == "swap" and i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    text = " ".join(tokens)
    if edit == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("#->")) + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(case=term_inputs(), data=st.data())
def test_reader_rejects_broken_terms_exactly_when_the_two_pass_reader_does(case, data):
    text, trs = case
    text = _broken(text, data.draw)
    assert _read(parse_term, text, trs) == _read(oracle_parse_term, text, trs)


@settings(max_examples=200, deadline=None)
@given(text=trs_texts(), data=st.data())
def test_reader_rejects_broken_systems_exactly_when_the_two_pass_reader_does(text, data):
    text = _broken(text, data.draw)
    assert _read(parse_trs, text) == _read(oracle_parse_trs, text)


@pytest.mark.parametrize(
    "read, text",
    [
        ("term", "b"),
        ("term", "s(0, 0)"),
        ("term", "x(0)"),
        ("term", "a(0, 0) a"),
        ("term", "a(0,\n s(0)"),
        ("term", "a(0,, #)"),
        ("term", "-"),
        ("term", ">"),
        ("term", "-->"),
        ("term", "->>"),
        ("trs", "(VAR x)\n(RULES\n  f(x) -> x\n  f(x, x) -> x\n)"),
        ("trs", "(VAR x)\n(RULES x(x) -> x)"),
        ("trs", "(VAR x)\n(RULES x -> x)"),
        ("trs", "(VAR x y)\n(RULES f(x) -> y)"),
        ("trs", "(RULES\n  f(x) -> y\n)\n(VAR x y)"),
        ("trs", "(FOO x)\n(RULES a -> a)"),
        ("trs", "(VAR x)\n(VAR y)\n(RULES f(x) -> x)"),
        ("trs", "(RULES a -> a)\n(RULES b -> b)"),
        ("trs", "(VAR x)"),
        ("trs", "(VAR x)\n(RULES f(x) -> x #)"),
        ("trs", "(VAR x)\n(RULES f(x) -> \n)"),
        ("trs", "(VAR x)\n(RULES\n  f(x) - > x\n)"),
    ],
)
def test_reader_reports_a_single_fault_as_the_two_pass_reader_does(read, text):
    """One fault: the same error class, message and line."""
    new, oracle = {
        "term": (lambda t: parse_term(t, ack_system()), lambda t: oracle_parse_term(t, ack_system())),
        "trs": (parse_trs, oracle_parse_trs),
    }[read]
    with pytest.raises((ParseError, RuleRestrictionError)) as expected:
        oracle(text)
    with pytest.raises(type(expected.value)) as found:
        new(text)
    assert str(found.value) == str(expected.value)
    assert getattr(found.value, "line", None) == getattr(expected.value, "line", None)


def test_the_scanner_reads_exactly_the_characters_the_tokenizer_did():
    """Over every code point: the reader's name, blank and fault patterns take
    exactly the characters the tokenizer's ``str`` predicates did."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    names = [c for c in every if c.isalnum() or c in "_'"]
    blanks = [c for c in every if c.isspace()]
    faults = [c for c in every if not (c.isalnum() or c.isspace() or c in "_'(),")]
    assert "".join(formats._NAME.findall(every)) == "".join(names)
    assert "".join(formats._BLANKS.findall(every)) == "".join(blanks)
    # Here - is followed by . and > follows =: each stands alone.
    assert "".join(formats._BAD.findall(every)) == "".join(faults)


def test_reading_keeps_no_second_copy_of_the_input():
    """The peak of reading a deep term stays within twice what the term keeps."""
    text, trs = "s(" * 100_000 + "0" + ")" * 100_000, ack_system()
    tracemalloc.start()
    try:
        term = parse_term(text, trs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert term.args[0].args[0].sym is S1
    assert peak <= 2 * kept, f"peak {peak} bytes for a term of {kept}"


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


def _trace(trs, term, mode, fuel):
    try:
        return normalize(trs, term, mode, fuel)
    except FuelExhausted as err:
        return err.trace


@pytest.mark.parametrize("mode", list(RelationMode), ids=lambda mode: mode.value)
def test_trace_printer_matches_the_recursive_printer_on_shared_terms(mode):
    """hg's first rule puts g(x,y) twice into its result, so each step doubles
    the printed term while the nodes stay shared; f(x) -> p(x,x) shares its
    argument inside one term, which is printed in full where it is met
    again in the same term and copied in the steps after."""
    p2 = Symbol("p", 2)
    dup = trs_of((ap(F1, X), App(p2, (X, X))))
    tower = ap(C0)
    for _ in range(8):
        tower = ap(F1, tower)
    shared = App(p2, (tower, tower))
    for trs, start, fuel in (
        (hg_system(), ap(H2, X, X), 10),
        (hg_system(), ap(H2, ap(H2, X, Y), ap(G2, X, X)), 6),
        (dup, tower, 40),
        (dup, App(p2, (shared, shared)), 40),
    ):
        trace = _trace(trs, start, mode, fuel)
        assert trace_to_json(trace) == oracle_trace_to_json(trace)


def test_trace_printer_matches_the_recursive_printer_on_parsed_traces():
    """A trace read back shares no node between its steps, so every term is
    written in full, as before."""
    for trs, start in ((ack_system(), ack(nat(2), nat(1))), (hg_system(), ap(H2, X, X))):
        for mode in RelationMode:
            data = oracle_trace_to_json(_trace(trs, start, mode, 8))
            parsed = parse_trace(json.loads(json.dumps(data)), trs)
            assert trace_to_json(parsed) == oracle_trace_to_json(parsed) == data


def test_a_trace_of_any_depth_prints():
    """5,000 steps of g(x) -> g(s(x)) end 5,001 levels deep, past the
    recursive printer, which failed near 330; each step copies the previous
    term's argument instead of writing it again."""
    trace = _trace(grow_system(), ap(G1, X), RelationMode.FULL, 5000)
    steps = trace_to_json(trace)["steps"]
    assert len(steps) == 5000
    assert steps[-1]["term"] == "g(" + "s(" * 5000 + "x" + ")" * 5001
    assert steps[-1]["substitution"] == {"x": "s(" * 4999 + "x" + ")" * 4999}
    assert steps[1] == {"position": "ε", "rule_index": 0, "substitution": {"x": "s(x)"},
                        "term": "g(s(s(x)))"}


def test_a_trace_step_writes_only_the_nodes_it_builds(monkeypatch):
    """Each step of g(x) -> g(s(x)) builds g and s over the previous argument,
    and writes them from the text of the rule's right-hand side around its σ
    binding, copied as text already printed: after the start, no node is
    written symbol by symbol.  Under h(_, s^50(0)) the step is spliced into
    the text before, so neither the rebuilt h nor the numeral beside it is
    written again."""
    written = []

    def counting(term):
        count, todo = 0, [term]  # the applications the call writes symbol by symbol
        while todo:
            node = todo.pop()
            if node.__class__ is App and node.args:
                count += 1
                todo += node.args
        written.append(count)
        return write(term)

    write = terms._write
    monkeypatch.setattr(terms, "_write", counting)
    monkeypatch.setattr(formats, "_write", counting)
    # (start, applications in it)
    for start, size in ((ap(G1, X), 1), (ap(H2, ap(G1, X), nat(50)), 52)):
        written.clear()
        trace = _trace(grow_system(), start, RelationMode.INNERMOST, 300)
        assert trace_to_json(trace) == oracle_trace_to_json(trace)
        # the start is written whole, and no step writes a node
        assert [count for count in written if count] == [size]


def _oracle_deep(trace):
    """``oracle_trace_to_json(trace)`` for terms thousands of levels deep: the
    recursive oracle runs on a thread with a stack and a recursion limit
    that reach that far, both restored after."""
    out, limit = [], sys.getrecursionlimit()
    size = threading.stack_size(256 << 20)
    sys.setrecursionlimit(40_000)
    try:
        worker = threading.Thread(target=lambda: out.append(oracle_trace_to_json(trace)))
        worker.start()
        worker.join()
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(size)
    return out[0]


def test_the_printer_writes_whole_the_steps_it_cannot_splice():
    """Every step prints as the recursive printer prints its replayed term.
    A σ binding equal to the redex's subterm at its variable is copied from
    the text before; a step whose rule does not match at its position,
    whose σ is not the matcher, or whose binding lies outside the redex
    writes the rest whole; a position the term lacks raises, naming the
    step, as the replay does."""
    trs = ack_system()
    zero, succ, rec = trs.rules
    start = ack(nat(1), ack(nat(0), nat(2)))
    inner = ack(nat(0), nat(2))
    sigma = Substitution({Y: nat(2)})
    cases = {}
    # read back, a trace shares no node with the one it was printed from
    data = trace_to_json(normalize(trs, start, RelationMode.INNERMOST))
    cases["parsed"] = parse_trace(json.loads(json.dumps(data)), trs)
    # a rule that does not match at the position: its σ binds no subterm there
    cases["no-match"] = DerivationTrace(
        start, (Step((2,), rec, Substitution({X: nat(4), Y: nat(1)})),), RelationMode.FULL, start
    )
    # the rule matches, but σ is not its matcher there
    cases["not-the-matcher"] = DerivationTrace(
        start, (Step((2,), zero, Substitution({Y: nat(3)})),), RelationMode.FULL, start
    )
    # the matcher's binding, equal to the redex's subterm but another object
    cases["equal-binding"] = DerivationTrace(
        start, (Step((2,), zero, sigma),), RelationMode.INNERMOST, start
    )
    # a σ binding for a variable the lhs lacks: it is written whole
    foreign = Substitution({X: ack(nat(3), nat(3)), Y: inner.args[1]})
    cases["foreign-binding"] = DerivationTrace(
        start, (Step((2,), zero, foreign),), RelationMode.FULL, start
    )
    # steps that go up and down, three of them at one position tuple object
    at, deep = (2, 2), ack(nat(1), ack(nat(0), inner))
    cases["shared-position"] = DerivationTrace(
        deep, tuple(Step(at, zero, s) for s in (sigma, Substitution({Y: nat(3)}), sigma)),
        RelationMode.FULL, deep,
    )
    cases["up-and-down"] = DerivationTrace(
        deep,
        tuple(Step(p, zero, sigma) for p in ((2, 2), (2,), (2, 1, 1), (1,), (2, 1, 1, 1), ())),
        RelationMode.FULL, deep,
    )
    # root steps, the first of a trace among them
    cases["root"] = normalize(trs, ack(nat(1), nat(1)), RelationMode.FULL)
    cases["shared-root"] = _trace(hg_system(), ap(H2, X, X), RelationMode.FULL, 6)
    for name, trace in cases.items():
        assert trace_to_json(trace) == oracle_trace_to_json(trace), name
    # a position that leaves the term before, and one that is not 1-based
    for bad in ((2, 1, 1, 1, 1), (0,)):
        trace = DerivationTrace(start, (Step((2,), zero, sigma), Step(bad, zero, sigma)),
                                RelationMode.FULL, start)
        with pytest.raises(InvalidPositionError, match="^trace step 1: position"):
            trace_to_json(trace)
        with pytest.raises(InvalidPositionError):
            oracle_trace_to_json(trace)
    # The oracle prints each term on its own, in time quadratic in the length
    # here (80 s for all 5,000 steps), so the steps after every 250th term and
    # after the last but one stand in, each printed from the term before.
    trace = _trace(grow_system(), ap(G1, X), RelationMode.FULL, 5000)
    printed = trace_to_json(trace)
    picked = [*range(0, 5000, 250), 4999]
    terms = list(trace.terms())
    for k in picked:
        want = _oracle_deep(DerivationTrace(terms[k], trace.steps[k : k + 1], trace.mode, terms[k + 1]))
        assert printed["steps"][k] == want["steps"][0]
    assert printed["start"] == "g(x)"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_trace_prints_as_its_replay_and_reads_back_or_is_refused(data):
    """Steps drawn at random over the replayed terms, valid or not: a
    successor of the term, or any rule at any position with its matcher,
    with bindings taken from the term, or with fresh ones.  The printer
    writes what the recursive printer writes of each replayed term, never
    other text, and the reader gives the trace back exactly or refuses it
    with a ParseError."""
    trs = data.draw(st.sampled_from([ack_system(), hg_system(), eq_system(), detour_system()]))
    start = term = data.draw(terms_over(trs.signature.symbols, 8))
    steps = []
    for _ in range(data.draw(st.integers(0, 6))):
        honest = successors(trs, term, RelationMode.FULL)
        if honest and data.draw(st.integers(0, 3)):  # three in four steps honest
            step = data.draw(st.sampled_from(honest))
        else:
            pos = data.draw(st.sampled_from(positions_of(term)))
            rule = data.draw(st.sampled_from(trs.rules))
            sigma = match(rule.lhs, subterm_at(term, pos))
            if sigma is None or data.draw(st.booleans()):
                inside = st.sampled_from(positions_of(term)).map(lambda p: subterm_at(term, p))
                value = st.one_of(inside, terms_over(trs.signature.symbols, 3))
                sigma = Substitution(data.draw(st.dictionaries(st.sampled_from([X, Y]), value)))
            step = Step(pos, rule, sigma)
        steps.append(step)
        term = replace_at(term, step.position, step.substitution.apply(step.rule.rhs))
    trace = DerivationTrace(start, tuple(steps), RelationMode.FULL, term)
    printed = trace_to_json(trace)
    assert printed == oracle_trace_to_json(trace)
    try:
        back = parse_trace(json.loads(json.dumps(printed)), trs)
    except ParseError:
        return
    assert (back.end, trace_to_json(back)) == (term, printed)


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


def test_parse_trace_refuses_a_step_that_does_not_replay():
    """Each step is replayed as it is read: a rule that does not match at its
    position, a substitution that is not the matcher, or a term that is not
    the replayed result is a parse error naming the step.  A term or a
    binding printed with other blanks is read, since it differs only as text."""
    trs = ack_system()
    data = trace_to_json(normalize(trs, ack(nat(1), nat(1)), RelationMode.INNERMOST))
    assert len(data["steps"]) == 4

    def tampered(k, **fields):
        out = json.loads(json.dumps(data))
        out["steps"][k].update(fields)
        return out

    for k, fields, why in (
        (1, {"rule_index": 0}, "trace step 1: rule 0 does not match at 2"),
        (2, {"rule_index": 7}, "trace step 2: the system has no rule 7"),
        (0, {"position": "1"}, "trace step 0: rule 2 does not match at 1"),
        (1, {"substitution": {"x": "s(0)"}}, "trace step 1: the substitution is not"),
        (3, {"term": "s(s(0))"}, "trace step 3: the term is not the step's result"),
    ):
        with pytest.raises(ParseError, match=f"^{re.escape(why)}"):
            parse_trace(tampered(k, **fields), trs)
    with pytest.raises(ParseError, match="unknown identifier 'b'"):
        parse_trace(tampered(3, term="b"), trs)
    spaced = tampered(0, term=data["steps"][0]["term"].replace(",", ", "),
                      substitution={"x": " 0", "y": "0 "})
    assert parse_trace(spaced, trs) == parse_trace(data, trs)


def test_parse_trace_refuses_a_term_that_is_not_a_string():
    """A start or a step's term must be a string: a list, even of strings, is
    not text to tokenize."""
    trs = ack_system()
    for start in ([1], ["0"], 0, None):
        with pytest.raises(ParseError, match="^malformed trace: 'start' must be a term string"):
            parse_trace({"mode": "full", "start": start, "steps": []}, trs)
    step = {"position": "", "rule_index": 0, "substitution": {}, "term": ["s(0)"]}
    with pytest.raises(ParseError, match="^malformed trace step: 'term' must be a term string"):
        parse_trace({"mode": "full", "start": "a(0,0)", "steps": [step]}, trs)


@pytest.mark.parametrize(
    "field, value", [("mode", "m" * 1_000_000), ("start", "b" * 1_000_000)], ids=["mode", "start"]
)
def test_parse_trace_abbreviates_an_oversized_field(field, value):
    """A trace read in process, where no command reaches, is refused with its
    oversized field abbreviated, not whole."""
    data = {"mode": "full", "start": "0", "steps": []} | {field: value}
    with pytest.raises(ParseError, match="^malformed trace: ") as err:
        parse_trace(data, ack_system())
    message = str(err.value)
    assert "..." in message
    assert len(message.encode()) < 1024


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
    text = json.dumps(oracle_program_to_json(ack_program))
    assert parse_pvs0_program(text) == ack_program


def test_program_body_rendering(ack_program):
    assert pvs0_expr_to_str(ack_program.body) == (
        "ite(op1(0, vr), op1(2, vr), "
        "ite(op1(1, vr), rec(op1(3, vr)), rec(op2(0, vr, rec(op1(4, vr))))))"
    )


def test_program_printing_time_grows_linearly_with_depth():
    """Four times the depth takes about four times as long to print, not the
    sixteen or more of a printer that copies its subtrees' text per level."""

    def best_time(depth):
        expr = Vr()
        for _ in range(depth):
            expr = Op1(0, expr)
        times = []
        for _ in range(3):
            start = perf_counter()
            text = pvs0_expr_to_str(expr)
            times.append(perf_counter() - start)
        assert len(text) == 8 * depth + 2
        return min(times)

    assert best_time(40_000) / best_time(10_000) < 8


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
