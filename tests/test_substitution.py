import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdp import (
    ROOT,
    RelationMode,
    Substitution,
    Var,
    is_nr_normal_form,
    match,
    reduce_at,
    successors,
)

from helpers import (
    A2,
    F1,
    G2,
    S1,
    X,
    Y,
    Z0,
    ack,
    ack_system,
    ack_terms,
    ap,
    ground_ack_terms,
    nat,
    oracle_apply,
    terms_over,
)

TERMS = terms_over([A2, S1, Z0, F1, G2], max_leaves=12)


def test_identity_bindings_are_dropped():
    assert Substitution({X: X}) == Substitution()
    assert not Substitution({X: X})
    assert dict(Substitution({X: nat(1), Y: Y}).items()) == {X: nat(1)}


def test_apply():
    sigma = Substitution({X: nat(1), Y: ap(Z0)})
    assert sigma.apply(ack(X, ack(X, Y))) == ack(nat(1), ack(nat(1), ap(Z0)))
    assert sigma.apply(Var("z")) == Var("z")
    assert sigma.get(X) == nat(1)
    assert sigma.get(Var("z")) == Var("z")


@settings(max_examples=300, deadline=None)
@given(
    term=TERMS,
    depth=st.integers(0, 300),
    bindings=st.dictionaries(st.sampled_from([X, Y, Var("z")]), TERMS, max_size=3),
)
def test_apply_agrees_with_the_recursive_definition(term, depth, bindings):
    for _ in range(depth):
        term = ap(S1, term)
    sigma = Substitution(bindings)
    assert sigma.apply(term) == oracle_apply(sigma, term)


def test_restrict():
    sigma = Substitution({X: nat(1), Y: nat(2)})
    assert sigma.restrict([X]) == Substitution({X: nat(1)})
    assert sigma.restrict([]) == Substitution()


def test_equality_is_extensional():
    assert Substitution({X: nat(1), Y: Y}) == Substitution({X: nat(1)})
    assert hash(Substitution({X: nat(1), Y: Y})) == hash(Substitution({X: nat(1)}))


def test_match_basic():
    trs = ack_system()
    rule = trs.rules[0]
    sigma = match(rule.lhs, ack(ap(Z0), nat(1)))
    assert sigma == Substitution({Y: nat(1)})
    assert match(rule.lhs, ack(nat(1), ap(Z0))) is None
    assert match(X, ack(X, Y)) == Substitution({X: ack(X, Y)})


def test_match_nonlinear():
    pattern = ack(X, X)
    assert match(pattern, ack(nat(1), nat(1))) == Substitution({X: nat(1)})
    assert match(pattern, ack(nat(1), nat(2))) is None


def test_match_respects_symbols():
    assert match(nat(1), nat(2)) is None
    assert match(ap(Z0), X) is None


@given(ack_terms, ground_ack_terms, ground_ack_terms)
def test_match_recovers_an_equivalent_substitution(pattern, t1, t2):
    sigma = Substitution({X: t1, Y: t2})
    subject = sigma.apply(pattern)
    found = match(pattern, subject)
    assert found is not None
    assert found.apply(pattern) == subject


@settings(max_examples=200, deadline=None)
@given(st.one_of(ack_terms, ground_ack_terms))
def test_a_root_step_of_an_nr_normal_term_binds_only_normal_forms(term):
    """No lhs is a variable, so the matcher at the root binds proper
    subterms only, and those of an nr-normal term have no successors."""
    trs = ack_system()
    step = reduce_at(trs, term, ROOT, RelationMode.FULL)
    if step is not None and is_nr_normal_form(trs, term):
        for _, bound in step.substitution.items():
            assert not successors(trs, bound, RelationMode.FULL)
