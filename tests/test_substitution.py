import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdp import (
    ROOT,
    App,
    RelationMode,
    Rule,
    Substitution,
    Symbol,
    Var,
    is_nr_normal_form,
    match,
    positions_of,
    reduce_at,
    replace_at,
    subterm_at,
    successors,
)

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


# --- each rule's compiled matcher against match ------------------------------

# g/1 and g/2 share a name, so a subject can carry a root symbol its rules are
# indexed under without being theirs.
MATCH_SYMBOLS = [A2, S1, Z0, F1, G2, G1, C0]
PATTERNS = terms_over(MATCH_SYMBOLS, max_leaves=8).filter(lambda t: t.__class__ is App)
BOUND = terms_over(MATCH_SYMBOLS, max_leaves=6)  # x and y among them: identity bindings
# A symbol of the same arity that differs, for a mismatch at one position.
OTHER = {A2: H2, G2: A2, S1: F1, F1: S1, G1: S1, Z0: C0, C0: Z0}


def _copied(term):
    """``term`` rebuilt of new objects: every symbol and every variable equal
    to its original and not identical to it."""
    if term.__class__ is Var:
        return Var(term.name)
    return App(Symbol(term.sym.name, term.sym.arity), tuple(map(_copied, term.args)))


def _agrees(rule, subject):
    """``rule._match(subject)``, after checking that it is ``match``'s answer
    with the same nodes bound, in the same order."""
    found, want = rule._match(subject), match(rule.lhs, subject)
    assert found == want
    if want is not None:
        assert [(v, id(t)) for v, t in found.items()] == [(v, id(t)) for v, t in want.items()]
    return found


@settings(max_examples=400, deadline=None)
@given(
    lhs=PATTERNS,
    subject=TERMS,
    bindings=st.dictionaries(st.sampled_from([X, Y, Var("z")]), BOUND, max_size=3),
)
def test_the_compiled_matcher_is_match(lhs, subject, bindings):
    """On any subject, on σ(lhs), which it must match, and on σ(lhs) of new
    symbols and variables, equal but not identical; non-linear left-hand
    sides bind the occurrence ``match`` binds."""
    rule = Rule(lhs, ap(Z0), 0)
    _agrees(rule, subject)
    instance = Substitution(bindings).apply(lhs)
    for hit in (instance, _copied(instance)):
        sigma = _agrees(rule, hit)
        assert sigma is not None and sigma.apply(lhs) == hit


@settings(max_examples=200, deadline=None)
@given(lhs=PATTERNS, bindings=st.dictionaries(st.sampled_from([X, Y]), BOUND, max_size=2))
def test_the_compiled_matcher_fails_at_every_depth(lhs, bindings):
    """σ(lhs) with one non-variable position of the lhs given another symbol
    of the same arity, one of the same name and one more argument, or a
    variable, matches neither way."""
    rule = Rule(lhs, ap(Z0), 0)
    instance = Substitution(bindings).apply(lhs)
    for pos in positions_of(lhs):
        node = subterm_at(instance, pos)
        if subterm_at(lhs, pos).__class__ is App:
            wider = App(Symbol(node.sym.name, node.sym.arity + 1), (*node.args, ap(C0)))
            for bad in (App(OTHER[node.sym], node.args), wider, X):
                assert _agrees(rule, replace_at(instance, pos, bad)) is None


def test_the_compiled_matcher_keeps_no_identity_binding():
    rule = Rule(ap(G2, X, ap(S1, Y)), ap(Z0), 0)
    sigma = _agrees(rule, ap(G2, Var("x"), ap(S1, Y)))
    assert sigma is not None and not sigma
    nonlinear = Rule(ack(X, X), ap(Z0), 0)
    assert _agrees(nonlinear, ack(X, X)) == Substitution()
    assert _agrees(nonlinear, ack(nat(1), _copied(nat(1)))) == Substitution({X: nat(1)})
    assert _agrees(nonlinear, ack(nat(1), nat(2))) is None
