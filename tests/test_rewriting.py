import pytest
from hypothesis import given

from rdp import (
    DerivationTrace,
    FuelExhausted,
    RelationMode,
    Rule,
    RuleRestrictionError,
    Signature,
    Step,
    Substitution,
    Symbol,
    TRS,
    check_step,
    check_trace,
    defined_symbols,
    derives,
    descendants,
    detect_innermost_loop,
    embed_trace,
    has_redex,
    is_normal_form,
    is_nr_normal_form,
    normalize,
    reduce_at,
    subterm_at,
    successors,
    trs_of,
)
from rdp import rewriting

from helpers import (
    A2,
    C0,
    F1,
    G1,
    S1,
    X,
    Y,
    Z0,
    ack,
    ack_system,
    ap,
    fc,
    grow_system,
    ground_ack_terms,
    loop_system,
    nat,
)

FULL = RelationMode.FULL
NR = RelationMode.NON_ROOT
INN = RelationMode.INNERMOST
NRI = RelationMode.NON_ROOT_INNERMOST


def test_mode_axes():
    assert not FULL.non_root and not FULL.innermost
    assert NR.non_root and not NR.innermost
    assert INN.innermost and not INN.non_root
    assert NRI.non_root and NRI.innermost


def test_rule_restrictions():
    with pytest.raises(RuleRestrictionError):
        Rule(X, nat(0), 0)
    with pytest.raises(RuleRestrictionError):
        Rule(ap(F1, X), ap(F1, Y), 0)


def test_trs_indices_must_match_order():
    rule = Rule(ap(F1, X), ap(F1, X), 1)
    with pytest.raises(ValueError):
        TRS(ack_system().signature, frozenset({X}), (rule,))


def test_trs_of_rejects_a_name_with_two_arities():
    f2 = Symbol("f", 2)
    with pytest.raises(ValueError, match="duplicate symbol name 'f'"):
        trs_of((ap(F1, X), X), (ap(f2, X, X), ap(F1, X)))


def test_defined_symbols():
    assert defined_symbols(ack_system()) == frozenset({A2})
    assert defined_symbols(loop_system()) == frozenset({F1})


def test_defined_symbols_are_stored_but_not_compared(ack_trs):
    built = ack_system()
    extra = Signature(built.signature.symbols + (Symbol("w", 1),))
    direct = TRS(extra, built.variables, built.rules)
    for trs in (built, ack_trs, direct):
        assert defined_symbols(trs) == frozenset({A2})
        assert defined_symbols(trs) is defined_symbols(trs)
    assert ack_trs == built
    twin = TRS(built.signature, built.variables, built.rules)
    object.__setattr__(twin, "_defined", frozenset())
    assert twin == built and hash(twin) == hash(built)
    assert "_defined" not in repr(twin)


def test_has_redex_and_normal_forms():
    trs = ack_system()
    assert not has_redex(trs, nat(2))
    assert has_redex(trs, ack(ap(Z0), X))
    assert is_normal_form(trs, nat(2), FULL)
    assert is_normal_form(trs, ap(Z0), FULL)
    assert not is_normal_form(trs, ack(ap(Z0), ap(Z0)), FULL)


def test_is_nr_normal_form():
    trs = ack_system()
    assert is_nr_normal_form(trs, ack(nat(1), nat(1)))
    assert not is_nr_normal_form(trs, ack(ap(Z0), ack(ap(Z0), ap(Z0))))
    assert is_nr_normal_form(trs, X)
    assert is_nr_normal_form(trs, ap(Z0))


def test_reduce_at_root_full():
    trs = ack_system()
    step = reduce_at(trs, ack(ap(Z0), nat(1)), (), FULL)
    assert step is not None
    assert step.result == nat(2)
    assert step.rule_index == 0
    assert step.substitution == Substitution({Y: nat(1)})


def test_reduce_at_innermost_inner_position():
    trs = ack_system()
    t = ack(ap(Z0), ack(nat(1), nat(1)))
    step = reduce_at(trs, t, (2,), INN)
    assert step is not None
    assert step.result == ack(ap(Z0), ack(ap(Z0), ack(nat(1), ap(Z0))))


def test_reduce_at_innermost_blocks_unready_redex():
    """A root redex with a reducible argument is not an innermost redex."""
    trs = ack_system()
    t = ack(ap(Z0), ack(nat(1), ap(Z0)))
    assert reduce_at(trs, t, (), INN) is None
    assert reduce_at(trs, t, (), FULL) is not None


def test_reduce_at_non_root_refuses_root():
    trs = ack_system()
    assert reduce_at(trs, ack(ap(Z0), ap(Z0)), (), NR) is None


def test_successors_order_and_content():
    trs = ack_system()
    t = ack(ap(Z0), ack(ap(Z0), ap(Z0)))
    steps = successors(trs, t, FULL)
    assert [s.position for s in steps] == [(), (2,)]
    inner = successors(trs, t, INN)
    assert [s.position for s in inner] == [(2,)]


def test_successors_rule_index_tiebreak():
    trs = trs_of((ap(F1, X), X), (ap(F1, X), ap(F1, X)))
    steps = successors(trs, fc(), FULL)
    assert [(s.position, s.rule_index) for s in steps] == [((), 0), ((), 1)]


def test_successors_of_loop():
    trs = loop_system()
    steps = successors(trs, fc(), INN)
    assert len(steps) == 1
    assert steps[0] == Step((), 0, Substitution({X: ap(C0)}), fc())


def test_normalize_innermost_ackermann():
    trs = ack_system()
    trace = normalize(trs, ack(nat(1), nat(1)), INN, 10_000)
    assert trace.end == nat(3)
    assert check_trace(trs, trace)


def test_normalize_already_normal():
    trs = ack_system()
    trace = normalize(trs, nat(1), FULL, 10)
    assert trace.steps == ()
    assert trace.end == nat(1)


def test_normalize_exact_fuel_boundary():
    """Reaching the normal form on the last unit of fuel is not exhaustion."""
    trs = ack_system()
    trace = normalize(trs, ack(ap(Z0), ap(Z0)), FULL, 1)
    assert trace.end == nat(1)
    assert len(trace.steps) == 1


def test_normalize_fuel_exhausted_carries_partial_trace():
    trs = loop_system()
    with pytest.raises(FuelExhausted) as info:
        normalize(trs, fc(), INN, 100)
    partial = info.value.trace
    assert len(partial.steps) == 100
    assert partial.end == fc()
    assert check_trace(trs, partial)


def test_normalize_leftmost_lowest_is_deterministic():
    trs = ack_system()
    t = ack(ack(ap(Z0), ap(Z0)), ack(ap(Z0), ap(Z0)))
    first = normalize(trs, t, FULL, 100)
    second = normalize(trs, t, FULL, 100)
    assert first == second
    assert first.steps[0].position == (1,)


def test_derives_non_root_descent():
    trs = ack_system()
    source = ack(nat(1), ack(nat(2), ap(Z0)))
    target = ack(nat(1), ap(S1, ack(nat(1), ap(Z0))))
    trace = derives(trs, source, target, NR, 10_000)
    assert trace is not None
    assert trace.end == target
    assert all(step.position != () for step in trace.steps)
    assert check_trace(trs, trace)


def test_derives_trivial_and_shortest():
    trs = ack_system()
    t = ack(nat(1), ap(Z0))
    assert derives(trs, t, t, FULL, 10).steps == ()
    trace = derives(trs, t, nat(2), FULL, 1000)
    assert trace is not None
    assert len(trace.steps) == 2


def test_derives_not_found_within_fuel():
    trs = ack_system()
    assert derives(trs, ack(nat(1), ap(Z0)), ap(Z0), FULL, 1000) is None


def test_descendants_closed_orbit():
    closure, truncated = descendants(loop_system(), fc(), INN, 10)
    assert closure == frozenset({fc()})
    assert not truncated


def test_descendants_ackermann_closure():
    trs = ack_system()
    closure, truncated = descendants(trs, ack(nat(1), ap(Z0)), FULL, 1000)
    assert closure == frozenset(
        {ack(nat(1), ap(Z0)), ack(ap(Z0), nat(1)), nat(2)}
    )
    assert not truncated


def test_descendants_normal_form_and_truncation():
    closure, truncated = descendants(ack_system(), ap(Z0), FULL, 10)
    assert closure == frozenset({ap(Z0)})
    assert not truncated
    grown, cut = descendants(grow_system(), ap(G1, X), FULL, 3)
    assert cut
    assert len(grown) == 3


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_loop_search_matches_each_node_once(monkeypatch, n):
    """One redex table per search: each expansion of ``g(s^k(x))`` matches
    only its two new nodes, so fuel n buys at most 2n + 2 match rounds."""
    calls = 0
    matches = rewriting._matches

    def counting(trs, node):
        nonlocal calls
        calls += 1
        return matches(trs, node)

    monkeypatch.setattr(rewriting, "_matches", counting)
    assert detect_innermost_loop(grow_system(), ap(G1, X), n) is None
    assert calls <= 2 * n + 2


def test_check_step_rejects_tampering():
    trs = ack_system()
    t = ack(ap(Z0), ap(Z0))
    step = successors(trs, t, FULL)[0]
    assert check_step(trs, t, step, FULL)
    wrong_result = Step(step.position, step.rule_index, step.substitution, nat(5))
    assert not check_step(trs, t, wrong_result, FULL)
    wrong_rule = Step(step.position, 2, step.substitution, step.result)
    assert not check_step(trs, t, wrong_rule, FULL)
    assert not check_step(trs, t, Step((9,), 0, step.substitution, step.result), FULL)
    # An invalid position in a term too deep to print is still just a rejection.
    assert not check_step(trs, nat(1000), Step((2,), 0, step.substitution, step.result), FULL)


def test_check_step_enforces_mode():
    trs = ack_system()
    t = ack(ap(Z0), ack(nat(1), ap(Z0)))
    root_step = next(s for s in successors(trs, t, FULL) if s.position == ())
    assert not check_step(trs, t, root_step, NR)
    assert not check_step(trs, t, root_step, INN)


def test_check_trace_replays_whole_derivations():
    trs = ack_system()
    trace = normalize(trs, ack(nat(1), nat(1)), INN, 1000)
    assert check_trace(trs, trace)
    broken = DerivationTrace(nat(7), trace.steps, trace.mode)
    assert not check_trace(trs, broken)


def test_embed_trace_shifts_positions():
    trs = ack_system()
    inner = normalize(trs, ack(ap(Z0), ap(Z0)), FULL, 10)
    context = ap(S1, X)
    embedded = embed_trace(context, (1,), inner)
    assert embedded.start == ap(S1, ack(ap(Z0), ap(Z0)))
    assert embedded.end == ap(S1, nat(1))
    assert [s.position for s in embedded.steps] == [(1,)]
    assert check_trace(trs, embedded)


def test_trace_terms_iteration():
    trs = ack_system()
    trace = normalize(trs, ack(ap(Z0), ap(Z0)), FULL, 10)
    assert list(trace.terms()) == [ack(ap(Z0), ap(Z0)), nat(1)]
    assert len(trace) == 1


@given(ground_ack_terms)
def test_relation_algebra_on_random_terms(t):
    """NonRootInnermost is exactly the intersection of NonRoot and Innermost."""
    trs = ack_system()
    full = {(s.position, s.rule_index) for s in successors(trs, t, FULL)}
    inn = {(s.position, s.rule_index) for s in successors(trs, t, INN)}
    nr = {(s.position, s.rule_index) for s in successors(trs, t, NR)}
    nri = {(s.position, s.rule_index) for s in successors(trs, t, NRI)}
    assert inn <= full
    assert nr <= full
    assert nri == inn & nr


@given(ground_ack_terms)
def test_innermost_redexes_are_nr_normal(t):
    trs = ack_system()
    for step in successors(trs, t, INN):
        assert is_nr_normal_form(trs, subterm_at(t, step.position))
