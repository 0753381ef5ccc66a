from dataclasses import replace

import pytest
from hypothesis import given

from rdp import (
    App,
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
    detect_innermost_loop,
    embed_trace,
    is_nr_normal_form,
    normalize,
    parse_trace,
    reduce_at,
    subterm_at,
    successors,
    trace_to_json,
    trs_of,
)
from rdp import rewriting

from helpers import (
    A2,
    C0,
    EQ2,
    F1,
    G1,
    H2,
    P2,
    S1,
    T0,
    X,
    Y,
    Z0,
    ack,
    ack_system,
    ap,
    dup_system,
    explored,
    fc,
    grow_system,
    ground_ack_terms,
    hg_system,
    loop_system,
    nat,
    oracle_normalize,
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
    """A normal form is a term with no successors."""
    trs = ack_system()
    assert not successors(trs, nat(2), FULL)
    assert successors(trs, ack(ap(Z0), X), FULL)
    assert not successors(trs, ap(Z0), FULL)
    assert successors(trs, ack(ap(Z0), ap(Z0)), FULL)


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
    assert check_step(trs, ack(ap(Z0), nat(1)), step, FULL) == nat(2)
    assert step.rule_index == 0
    assert step.substitution == Substitution({Y: nat(1)})


def test_reduce_at_innermost_inner_position():
    trs = ack_system()
    t = ack(ap(Z0), ack(nat(1), nat(1)))
    step = reduce_at(trs, t, (2,), INN)
    assert step is not None
    assert check_step(trs, t, step, INN) == ack(ap(Z0), ack(ap(Z0), ack(nat(1), ap(Z0))))


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
    assert steps[0] == Step((), trs.rules[0], Substitution({X: ap(C0)}))


def test_normalize_innermost_ackermann():
    trs = ack_system()
    trace = normalize(trs, ack(nat(1), nat(1)), INN, 10_000)
    assert trace.end == nat(3)
    assert check_trace(trs, trace)


def test_call_by_value_keeps_arguments_already_normal():
    """A parent is rebuilt only around an argument that changed, so the
    term the first step reaches, where the walk stops for fuel, shares the
    normal first argument with the start."""
    trs = ack_system()
    t = ack(nat(2), ack(ap(Z0), ap(Z0)))
    with pytest.raises(FuelExhausted) as err:
        normalize(trs, t, INN, 1)
    assert err.value.trace.steps[0].position == (2,)
    assert err.value.trace.end == ack(nat(2), nat(1))
    assert err.value.trace.end.args[0] is t.args[0]
    trace = normalize(trs, t, INN)
    assert trace.end == nat(5)
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


H1 = Symbol("h", 1)
K0 = Symbol("k", 0)


def _normalize_like_the_oracle(trs, term):
    """Full and non-root traces of ``term``, each checked against the oracle."""
    traces = {}
    for mode in (FULL, NR):
        traces[mode] = normalize(trs, term, mode)
        assert traces[mode] == oracle_normalize(trs, term, mode)
    return traces[FULL], traces[NR]


def test_leftmost_outermost_rechecks_an_ancestor_within_reach():
    """f(g(h(x))) -> c reaches two levels down, so the step at 1.1 makes the
    root a redex next; under non-root the root never fires."""
    trs = trs_of((ap(F1, ap(G1, ap(H1, X))), ap(C0)), (ap(K0), ap(H1, ap(Z0))))
    assert trs._reach == 2
    full, non_root = _normalize_like_the_oracle(trs, ap(F1, ap(G1, ap(K0))))
    assert [s.position for s in full.steps] == [(1, 1), ()]
    assert full.end == ap(C0)
    assert [s.position for s in non_root.steps] == [(1, 1)]
    assert non_root.end == ap(F1, ap(G1, ap(H1, ap(Z0))))


def test_leftmost_outermost_rechecks_every_ancestor_under_a_non_linear_rule():
    """eq(x,x) -> t reaches no deeper than its root, yet the step at 1.1
    makes the root a redex through the repeated variable."""
    trs = trs_of((ap(EQ2, X, X), ap(T0)), (ap(K0), ap(H1, ap(Z0))))
    assert trs._reach is None
    sh0 = ap(S1, ap(H1, ap(Z0)))
    full, non_root = _normalize_like_the_oracle(trs, ap(EQ2, ap(S1, ap(K0)), sh0))
    assert [s.position for s in full.steps] == [(1, 1), ()]
    assert full.end == ap(T0)
    assert [s.position for s in non_root.steps] == [(1, 1)]
    assert non_root.end == ap(EQ2, sh0, sh0)


def test_leftmost_outermost_matches_a_constant_number_of_times_per_step(monkeypatch):
    """The walk resumes after each step instead of rescanning from the root:
    a(3,3) takes 2,432 steps at fewer than 10 matches each under full (a
    rescan made 34) and fewer than 4 under innermost.  Either way it tries
    fewer than 4 nodes per step; innermost, the hints keep it out of a
    contractum's variable parts, and without them it tried 21."""
    calls = tried = 0
    counted, tries = rewriting.match, rewriting._matches

    def counting(pattern, subject):
        nonlocal calls
        calls += 1
        return counted(pattern, subject)

    def trying(trs, node):
        nonlocal tried
        tried += 1
        return tries(trs, node)

    monkeypatch.setattr(rewriting, "match", counting)
    monkeypatch.setattr(rewriting, "_matches", trying)
    for mode, bound in ((FULL, 10), (INN, 4)):
        calls = tried = 0
        trace = normalize(ack_system(), ack(nat(3), nat(3)), mode)
        assert trace.end == nat(61) and len(trace.steps) == 2432
        assert calls < bound * len(trace.steps), mode
        assert tried < 4 * len(trace.steps), mode


@pytest.mark.parametrize("mode", list(RelationMode))
def test_normalize_deep_term(mode):
    """20,000 inert levels above a(1,1): the walk keeps no recursion, and
    the root never fires, so every mode takes the same 4 steps."""
    term = ack(nat(1), nat(1))
    for _ in range(20_000):
        term = ap(S1, term)
    trace = normalize(ack_system(), term, mode)
    assert len(trace.steps) == 4
    assert trace.end == nat(20_003)


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
    closure, truncated = explored(loop_system(), fc(), INN, 10)
    assert closure == frozenset({fc()})
    assert not truncated


def test_descendants_ackermann_closure():
    trs = ack_system()
    closure, truncated = explored(trs, ack(nat(1), ap(Z0)), FULL, 1000)
    assert closure == frozenset(
        {ack(nat(1), ap(Z0)), ack(ap(Z0), nat(1)), nat(2)}
    )
    assert not truncated


def test_descendants_normal_form_and_truncation():
    closure, truncated = explored(ack_system(), ap(Z0), FULL, 10)
    assert closure == frozenset({ap(Z0)})
    assert not truncated
    grown, cut = explored(grow_system(), ap(G1, X), FULL, 3)
    assert cut
    assert len(grown) == 3


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_loop_search_matches_each_node_once(monkeypatch, n):
    """One redex table per search: each expansion of ``g(s^k(x))`` matches
    only its two new nodes, so fuel n buys at most 2n + 2 match rounds."""
    calls = _counting_matches(monkeypatch)
    assert detect_innermost_loop(grow_system(), ap(G1, X), n) is None
    assert calls[0] <= 2 * n + 2


def _counting_matches(monkeypatch) -> list[int]:
    """Count the calls of ``_matches`` in the one-item list returned."""
    calls = [0]
    matches = rewriting._matches

    def counting(trs, node):
        calls[0] += 1
        return matches(trs, node)

    monkeypatch.setattr(rewriting, "_matches", counting)
    return calls


def _distinct_nodes(term) -> int:
    """Application nodes of ``term``, each shared node counted once."""
    seen, stack = set(), [term]
    while stack:
        node = stack.pop()
        if isinstance(node, App) and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.args)
    return len(seen)


def test_innermost_replay_of_a_duplicating_rule_is_linear_in_the_dag(monkeypatch):
    """Innermost ``f^200(c)`` under ``f(x) -> p(x,x)`` ends in ``p^200(c)``
    with both arguments of every ``p`` one node: 201 distinct nodes, 2^201 - 1
    positions.  Replay and the nr-normal check visit each distinct node
    once, so they match at most once per distinct node of each term."""
    n = 200
    trs = dup_system()
    term = shared = ap(C0)
    for _ in range(n):
        term, shared = ap(F1, term), ap(P2, shared, shared)
    trace = normalize(trs, term, INN, n)
    assert len(trace) == n and trace.end == shared
    calls = _counting_matches(monkeypatch)
    assert check_trace(trs, trace)
    assert calls[0] <= sum(_distinct_nodes(t) for t in trace.terms())
    calls[0] = 0
    assert is_nr_normal_form(trs, trace.end)
    assert calls[0] <= _distinct_nodes(trace.end)
    calls[0] = 0
    assert not is_nr_normal_form(trs, ap(P2, ap(F1, shared), ap(F1, shared)))
    assert calls[0] == 1  # the walk stops at the first node a rule matches


def test_innermost_replay_does_not_walk_the_normal_part_again(monkeypatch):
    """Each innermost step of ``f^400(c)`` under ``f(x) -> p(x,x)`` puts one
    new ``p`` over the normal part the step before checked.  Replay keeps
    the nodes it has found normal for the whole trace, so it matches about
    two nodes per step, where walking the normal part again at every step
    made 80,600 calls."""
    n = 400
    term = ap(C0)
    for _ in range(n):
        term = ap(F1, term)
    trace = normalize(dup_system(), term, INN, n)
    calls = _counting_matches(monkeypatch)
    assert check_trace(dup_system(), trace)
    assert calls[0] <= 2 * n + 1


def test_nr_normal_check_of_hg_terms_is_linear_in_the_dag(monkeypatch):
    """Under ``h(x,y) -> h(g(x,y), g(g(x,y),y))``, the first rule of ``hg``,
    full ``h(x,x)`` rewrites the root 200 times, and each step puts ``y``
    and ``g(x,y)`` at two positions.  Every term is nr-normal, as ``g`` is
    a constructor here, so the check walks all of it, once per distinct node."""
    first = hg_system().rules[0]
    trs = trs_of((first.lhs, first.rhs))
    with pytest.raises(FuelExhausted) as err:
        normalize(trs, ap(H2, X, X), FULL, 200)
    trace = err.value.trace
    assert len(trace) == 200
    calls = _counting_matches(monkeypatch)
    assert check_trace(trs, trace)
    assert calls[0] == 200
    for t in trace.terms():
        calls[0] = 0
        assert is_nr_normal_form(trs, t)
        assert calls[0] <= _distinct_nodes(t)


@pytest.mark.parametrize("mode", [INN, FULL], ids=lambda mode: mode.value)
def test_a_step_builds_a_bounded_number_of_nodes(monkeypatch, mode):
    """Counted work, not time.  The walk builds each contractum and rebuilds
    a parent only when it leaves it (outermost, also the ancestors within
    the deepest lhs, which it matches again), and the checker, the printer
    and the reader replay the same way: on a(3,4) each builds at most 4
    nodes per step, where rebuilding every ancestor at every step built 55."""
    trs, term = ack_system(), ack(nat(3), nat(4))
    built = [0]
    init = App.__init__

    def counting(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(App, "__init__", counting)
    trace = normalize(trs, term, mode, 20_000)
    assert len(trace) == 10_307
    assert built[0] <= 4 * len(trace)
    built[0] = 0
    assert check_trace(trs, trace)
    assert built[0] <= 4 * len(trace)
    built[0] = 0
    printed = trace_to_json(trace)
    assert built[0] <= 4 * len(trace)
    built[0] = 0
    assert parse_trace(printed, trs) == trace
    assert built[0] <= 4 * len(trace)


def test_check_step_rejects_tampering():
    trs = ack_system()
    t = ack(ap(Z0), ap(Z0))
    step = successors(trs, t, FULL)[0]
    assert check_step(trs, t, step, FULL) == nat(1)
    assert check_step(trs, t, replace(step, rule=trs.rules[2]), FULL) is None
    # a rule of another system that carries the step's index
    forged = Rule(step.rule.lhs, nat(5), step.rule_index)
    assert check_step(trs, t, replace(step, rule=forged), FULL) is None
    assert check_step(trs, t, replace(step, position=(9,)), FULL) is None
    # An invalid position in a term too deep to print is still just a rejection.
    assert check_step(trs, nat(1000), replace(step, position=(2,)), FULL) is None
    # A step carries no result: a wrong one is a wrong end, which replay refuses.
    trace = DerivationTrace(t, (step,), FULL, nat(1))
    assert check_trace(trs, trace)
    assert not check_trace(trs, replace(trace, end=nat(5)))


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
    assert not check_trace(trs, replace(trace, start=nat(7)))
    assert not check_trace(trs, replace(trace, end=nat(7)))


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
