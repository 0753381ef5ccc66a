"""The successor core against the original definitions kept in ``helpers``.

Every mode, every system, every position: successor lists, single-position
reduction, the normal-form predicates, normalization traces (complete or
cut off by fuel) and step replay, on honest and on tampered steps, must be
exactly the ones the original definitions produce.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdp import (
    FuelExhausted,
    RelationMode,
    Step,
    Substitution,
    check_step,
    derives,
    descendants,
    has_redex,
    is_normal_form,
    is_nr_normal_form,
    normalize,
    positions_of,
    reduce_at,
    successors,
    trace_to_json,
)

from helpers import (
    C0,
    F1,
    X,
    Y,
    ack,
    ack_system,
    ack_terms,
    ap,
    eq_system,
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
    oracle_has_redex,
    oracle_is_normal_form,
    oracle_is_nr_normal_form,
    oracle_normalize,
    oracle_reduce_at,
    oracle_successors,
    terms_over,
)

MODES = tuple(RelationMode)
# Outermost hg steps double the term, and the oracle rescans all of it.
FUELS = {"hg": range(7)}


def _systems():
    out = {}
    ack_trs = ack_system()
    out["ack"] = (ack_trs, st.one_of(ack_terms, ground_ack_terms))
    for name, build in (
        ("hg", hg_system),
        ("nest", nest_system),
        ("loop", loop_system),
        ("grow", grow_system),
        ("eq", eq_system),
    ):
        trs = build()
        out[name] = (trs, terms_over(trs.signature.symbols))
    return out


SYSTEMS = _systems()


def _normalize_outcome(fn, trs, term, mode, fuel):
    try:
        return "normalized", fn(trs, term, mode, fuel)
    except FuelExhausted as err:
        return "fuel-exhausted", err.trace


def _assert_core_agrees(trs, term):
    assert has_redex(trs, term) == oracle_has_redex(trs, term)
    assert is_nr_normal_form(trs, term) == oracle_is_nr_normal_form(trs, term)
    for mode in MODES:
        assert successors(trs, term, mode) == oracle_successors(trs, term, mode)
        assert is_normal_form(trs, term, mode) == oracle_is_normal_form(trs, term, mode)
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
    for step in successors(trs, term, RelationMode.FULL):
        _assert_core_agrees(trs, step.result)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_normalize_matches_oracle_at_every_fuel(name, data):
    trs, terms = SYSTEMS[name]
    _assert_normalize_agrees(trs, data.draw(terms), FUELS.get(name, range(11)))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), fuel=st.integers(min_value=0, max_value=12))
def test_explorers_match_oracle(name, data, fuel):
    trs, terms = SYSTEMS[name]
    source = data.draw(terms)
    target = data.draw(terms)
    for mode in MODES:
        assert descendants(trs, source, mode, fuel) == oracle_descendants(
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


@pytest.mark.parametrize("m,n", [(0, 2), (1, 3), (2, 2), (3, 1)])
def test_ackermann_normal_forms_match_oracle(m, n):
    """Whole derivations, including nested Ackermann redexes under ``s``."""
    trs = ack_system()
    for term in (ack(nat(m), nat(n)), ack(nat(1), ack(nat(m), nat(n)))):
        for mode in MODES:
            got = normalize(trs, term, mode, 5000)
            want = oracle_normalize(trs, term, mode, 5000)
            assert got == want
            assert trace_to_json(got) == trace_to_json(want)


def _tampered(trs, source, step):
    """The step, then copies with its rule, position, result or substitution
    changed; a changed substitution binds only variables the step's own one
    binds, since an extra binding is the one case where replay got stricter."""
    yield step
    for index in range(-1, len(trs.rules) + 1):
        yield replace(step, rule_index=index)
    for pos in ((), step.position[:-1], step.position + (1,), step.position + (2,), (9,)):
        yield replace(step, position=pos)
    yield replace(step, result=source)
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


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_check_step_matches_oracle_on_successors_and_traces(name, data):
    """Every full-mode successor (so also steps a stricter mode refuses) and
    every step of a normalization trace in each mode, honest or tampered,
    replays exactly when the original ``check_step`` says it does."""
    trs, terms = SYSTEMS[name]
    term = data.draw(terms)
    _assert_replay_agrees(trs, term, successors(trs, term, RelationMode.FULL))
    fuel = max(FUELS.get(name, range(11)))
    for mode in MODES:
        trace = _normalize_outcome(normalize, trs, term, mode, fuel)[1]
        for source, step in zip(trace.terms(), trace.steps):
            _assert_replay_agrees(trs, source, [step])


def test_check_step_rejects_a_substitution_binding_outside_the_lhs():
    """The one intended difference from the original replay: a step replays
    only when its substitution is the matcher, so an extra binding, which
    changes neither the instantiated lhs nor the result, is refused."""
    trs = loop_system()
    honest = Step((), 0, Substitution({X: ap(C0)}), fc())
    padded = replace(honest, substitution=Substitution({X: ap(C0), Y: ap(F1, ap(C0))}))
    for mode in (RelationMode.FULL, RelationMode.INNERMOST):
        assert check_step(trs, fc(), honest, mode)
        assert oracle_check_step(trs, fc(), honest, mode)
        assert oracle_check_step(trs, fc(), padded, mode)
        assert not check_step(trs, fc(), padded, mode)
