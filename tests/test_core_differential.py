"""The successor core against the original definitions kept in ``helpers``.

Every mode, every system, every position: successor lists, single-position
reduction, the normal-form predicates, normalization traces (complete or
cut off by fuel), the terms they replay to and their printed form, and step
replay, on honest and on tampered steps, must be exactly the ones the
original definitions produce.
"""

from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdp import (
    DerivationTrace,
    FuelExhausted,
    RelationMode,
    Rule,
    Step,
    Substitution,
    check_step,
    check_trace,
    derives,
    is_nr_normal_form,
    normalize,
    positions_of,
    reduce_at,
    replace_at,
    subterm_at,
    successors,
    trace_to_json,
)
from rdp.rewriting import iter_successors

from helpers import (
    C0,
    EQ2,
    F1,
    S1,
    X,
    Y,
    ack,
    ack_system,
    ack_terms,
    ap,
    detour_system,
    dup_system,
    eq_system,
    explored,
    fc,
    ground_ack_terms,
    grow_system,
    hg_system,
    loop_system,
    nat,
    nest_system,
    oracle_check_step,
    oracle_derives,
    oracle_descendants,
    oracle_is_nr_normal_form,
    oracle_iter_successors,
    oracle_leftmost,
    oracle_normalize,
    oracle_reduce_at,
    oracle_successors,
    oracle_trace_to_json,
    terms_over,
)

MODES = tuple(RelationMode)
# Outermost hg and dup steps double the term, and the oracle rescans all of it.
FUELS = {"dup": range(9), "hg": range(7)}


def _systems():
    out = {}
    ack_trs = ack_system()
    out["ack"] = (ack_trs, st.one_of(ack_terms, ground_ack_terms))
    for name, build in (
        ("dup", dup_system),
        ("hg", hg_system),
        ("nest", nest_system),
        ("loop", loop_system),
        ("grow", grow_system),
        ("eq", eq_system),
    ):
        trs = build()
        out[name] = (trs, terms_over(trs.signature.symbols))
    eq_trs, eq_terms = out["eq"]
    out["eq"] = (eq_trs, st.one_of(eq_terms, _eq_after_a_step(eq_trs, eq_terms)))
    return out


@st.composite
def _eq_after_a_step(draw, trs, terms):
    """eq(C[u], C[v]) in a drawn context, where v is u after its first full
    step, as eq(eq(s(one),c), eq(s(s(0)),c)): once the walk takes that
    step, eq(x,x) matches high above it through its repeated variable."""
    u = draw(terms)
    _, v = next(oracle_iter_successors(trs, u, RelationMode.FULL), (None, u))
    inner, outer = draw(terms), draw(terms)
    hole = draw(st.sampled_from(positions_of(inner)))
    pair = ap(EQ2, replace_at(inner, hole, u), replace_at(inner, hole, v))
    return replace_at(outer, draw(st.sampled_from(positions_of(outer))), pair)


SYSTEMS = _systems()


def _normalize_outcome(fn, trs, term, mode, fuel):
    try:
        return "normalized", fn(trs, term, mode, fuel)
    except FuelExhausted as err:
        return "fuel-exhausted", err.trace


def _assert_core_agrees(trs, term):
    assert is_nr_normal_form(trs, term) == oracle_is_nr_normal_form(trs, term)
    for mode in MODES:
        assert successors(trs, term, mode) == oracle_successors(trs, term, mode)
        for pos in positions_of(term):
            assert reduce_at(trs, term, pos, mode) == oracle_reduce_at(trs, term, pos, mode)


def _assert_normalize_agrees(trs, term, fuels):
    for mode in MODES:
        for fuel in fuels:
            got = _normalize_outcome(normalize, trs, term, mode, fuel)
            want = _normalize_outcome(oracle_normalize, trs, term, mode, fuel)
            assert got == want, (mode, fuel)
            assert trace_to_json(got[1]) == trace_to_json(want[1])


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_successor_core_matches_oracle(name, data):
    trs, terms = SYSTEMS[name]
    term = data.draw(terms)
    _assert_core_agrees(trs, term)
    for _, result in iter_successors(trs, term, RelationMode.FULL):
        _assert_core_agrees(trs, result)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nr_normal_form_matches_oracle_on_shared_terms(name, data):
    """Terms that steps built, where a duplicating rule (dup, hg, ack) put
    one node at several positions: every term of a normalization trace in
    each mode, and in each result the contractum and its ancestors."""
    trs, terms = SYSTEMS[name]
    term = data.draw(terms)
    for mode in MODES:
        trace = _normalize_outcome(normalize, trs, term, mode, max(FUELS.get(name, range(11))))[1]
        for step, result in zip(trace.steps, islice(trace.terms(), 1, None)):
            for depth in range(len(step.position) + 1):
                sub = subterm_at(result, step.position[:depth])
                assert is_nr_normal_form(trs, sub) == oracle_is_nr_normal_form(trs, sub)
        assert is_nr_normal_form(trs, term) == oracle_is_nr_normal_form(trs, term)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_normalize_matches_oracle_at_every_fuel(name, data):
    trs, terms = SYSTEMS[name]
    _assert_normalize_agrees(trs, data.draw(terms), FUELS.get(name, range(11)))


# The walk and the printer against the oracles: ``detour`` besides the
# systems above, and fuel up to 12, where outermost hg output has grown
# about 7x per two fuel.  Derandomized, so that its time is fixed: drawn hg
# terms alone took 1 to 9 s over six seeds at 30 examples.
REPLAYED = {name: SYSTEMS[name] for name in ("ack", "hg", "dup", "eq", "nest")}
REPLAYED["detour"] = (detour_system(), terms_over(detour_system().signature.symbols))


@pytest.mark.parametrize("name", sorted(REPLAYED))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), fuel=st.integers(min_value=0, max_value=12))
def test_the_walk_replays_and_prints_as_the_oracles(name, data, fuel):
    """``normalize``'s zipper walk against the walk that rescans each term
    from the root, in every mode: the same steps, end and fuel exhaustion;
    the trace replays to the oracle's terms; and it prints as the recursive
    printer prints each replayed term."""
    trs, terms = REPLAYED[name]
    term = data.draw(terms)
    for mode in MODES:
        outcome, trace = _normalize_outcome(normalize, trs, term, mode, fuel)
        steps, reached, more = oracle_leftmost(trs, term, mode, fuel)
        assert outcome == ("fuel-exhausted" if more else "normalized"), mode
        assert (trace.steps, trace.end) == (tuple(steps), reached[-1]), mode
        assert list(trace.terms()) == reached, mode
        assert trace_to_json(trace) == oracle_trace_to_json(trace), mode


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), fuel=st.integers(min_value=0, max_value=12))
def test_explorers_match_oracle(name, data, fuel):
    trs, terms = SYSTEMS[name]
    source = data.draw(terms)
    target = data.draw(terms)
    for mode in MODES:
        assert explored(trs, source, mode, fuel) == oracle_descendants(
            trs, source, mode, fuel
        )
        assert derives(trs, source, target, mode, fuel) == oracle_derives(
            trs, source, target, mode, fuel
        )
        reached, _ = oracle_descendants(trs, source, mode, fuel)
        for v in sorted(reached, key=repr)[:4]:
            assert derives(trs, source, v, mode, fuel) == oracle_derives(
                trs, source, v, mode, fuel
            )


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trace_printer_matches_the_recursive_printer(name, data):
    """Every trace prints byte for byte as the recursive printer printed it:
    normalization traces (complete or cut off by fuel) in every mode, whose
    steps share all but the rebuilt nodes with the step before, and the
    breadth-first derivations to the terms a search reached."""
    trs, terms = SYSTEMS[name]
    term = data.draw(terms)
    for mode in MODES:
        trace = _normalize_outcome(normalize, trs, term, mode, max(FUELS.get(name, range(11))))[1]
        assert trace_to_json(trace) == oracle_trace_to_json(trace), mode
        reached, _ = oracle_descendants(trs, term, mode, 8)
        for v in sorted(reached, key=repr)[-3:]:
            found = derives(trs, term, v, mode, 8)
            assert trace_to_json(found) == oracle_trace_to_json(found), (mode, v)


@pytest.mark.parametrize(
    "start",
    [pytest.param(ack(nat(m), nat(n)), id=f"{m}-{n}") for m, n in ((0, 2), (1, 3), (2, 2), (3, 1))]
    # After one step the root is a redex, which only full and innermost reduce.
    + [pytest.param(ack(ack(nat(0), nat(0)), nat(1)), id="a(a(0,0),s(0))")]
    # Every step is below the root: 44 of them, the same in all four modes.
    + [pytest.param(ap(S1, ack(nat(2), nat(3))), id="s(a(2,3))")],
)
def test_ackermann_normal_forms_match_oracle(start):
    """Whole derivations, including nested Ackermann redexes under ``s``."""
    trs = ack_system()
    for term in (start, ack(nat(1), start)):
        for mode in MODES:
            got = normalize(trs, term, mode, 5000)
            want = oracle_normalize(trs, term, mode, 5000)
            assert got == want
            assert trace_to_json(got) == oracle_trace_to_json(want)


def _tampered(trs, source, step):
    """The step, then copies with its rule, position or substitution changed:
    each rule of the system, and rules of another system that carry the
    step's index or one the system lacks.  A changed substitution binds only
    variables the step's own one binds, since an extra binding is the one
    case where replay got stricter.  A step carries no result to change."""
    yield step
    for rule in trs.rules:
        yield replace(step, rule=rule)
        yield replace(step, rule=Rule(rule.lhs, rule.rhs, step.rule_index))
    for index in (-1, len(trs.rules)):
        yield replace(step, rule=Rule(step.rule.lhs, step.rule.rhs, index))
    for pos in ((), step.position[:-1], step.position + (1,), step.position + (2,), (9,)):
        yield replace(step, position=pos)
    bindings = dict(step.substitution.items())
    for var in bindings:
        yield replace(step, substitution=Substitution({**bindings, var: ap(C0)}))
        dropped = {v: t for v, t in bindings.items() if v != var}
        yield replace(step, substitution=Substitution(dropped))


def _assert_replay_agrees(trs, source, steps):
    for step in steps:
        for candidate in _tampered(trs, source, step):
            for mode in MODES:
                got = check_step(trs, source, candidate, mode)
                assert got == oracle_check_step(trs, source, candidate, mode), (
                    candidate,
                    mode,
                )


def _oracle_check_trace(trs, trace):
    """The original ``check_trace``: ``oracle_check_step`` folded over the
    steps, then the term reached compared with ``end``."""
    current = trace.start
    for step in trace.steps:
        current = oracle_check_step(trs, current, step, trace.mode)
        if current is None:
            return False
    return current == trace.end


def _assert_trace_replay_agrees(trs, trace, k, modes):
    """``check_trace`` against the fold under each of ``modes``: the trace,
    the trace with a wrong end, and the trace with its step ``k`` replaced
    by each tampered copy, so that the steps after it replay on a term the
    step changed otherwise or not at all."""
    variants = [trace]
    if trace.steps:
        variants.append(replace(trace, end=trace.start))
        source = next(islice(trace.terms(), k, None))
        for candidate in _tampered(trs, source, trace.steps[k]):
            steps = (*trace.steps[:k], candidate, *trace.steps[k + 1 :])
            variants.append(replace(trace, steps=steps))
    for variant in variants:
        for mode in modes:
            checked = replace(variant, mode=mode)
            assert check_trace(trs, checked) == _oracle_check_trace(trs, checked), (
                checked.steps,
                mode,
            )


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_check_step_matches_oracle_on_successors_and_traces(name, data):
    """Every full-mode successor (so also steps a stricter mode refuses) and
    every step of a normalization trace in each mode, honest or tampered,
    replays exactly when the original ``check_step`` says it does.  Whole
    traces replay on one zipper exactly when the original steps fold to
    their end: each normalization trace, and a walk through random
    full-mode successors under every mode, whose positions climb, descend
    and reopen a frame, each also with one step tampered."""
    trs, terms = SYSTEMS[name]
    term = data.draw(terms)
    _assert_replay_agrees(trs, term, successors(trs, term, RelationMode.FULL))
    fuel = max(FUELS.get(name, range(11)))
    for mode in MODES:
        trace = _normalize_outcome(normalize, trs, term, mode, fuel)[1]
        for source, step in zip(trace.terms(), trace.steps):
            _assert_replay_agrees(trs, source, [step])
        k = data.draw(st.integers(min_value=0, max_value=max(len(trace) - 1, 0)))
        _assert_trace_replay_agrees(trs, trace, k, [mode])
    steps, current = [], term
    for _ in range(data.draw(st.integers(min_value=0, max_value=fuel))):
        choices = list(iter_successors(trs, current, RelationMode.FULL))
        if not choices:
            break
        step, current = data.draw(st.sampled_from(choices))
        steps.append(step)
    walk = DerivationTrace(term, tuple(steps), RelationMode.FULL, current)
    k = data.draw(st.integers(min_value=0, max_value=max(len(walk) - 1, 0)))
    _assert_trace_replay_agrees(trs, walk, k, MODES)


def test_check_step_rejects_a_substitution_binding_outside_the_lhs():
    """The one intended difference from the original replay: a step replays
    only when its substitution is the matcher, so an extra binding, which
    changes neither the instantiated lhs nor the result, is refused."""
    trs = loop_system()
    honest = Step((), trs.rules[0], Substitution({X: ap(C0)}))
    padded = replace(honest, substitution=Substitution({X: ap(C0), Y: ap(F1, ap(C0))}))
    for mode in (RelationMode.FULL, RelationMode.INNERMOST):
        assert check_step(trs, fc(), honest, mode) == fc()
        assert oracle_check_step(trs, fc(), honest, mode) == fc()
        assert oracle_check_step(trs, fc(), padded, mode) == fc()
        assert check_step(trs, fc(), padded, mode) is None
