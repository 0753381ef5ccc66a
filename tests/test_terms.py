import sys

import pytest
from hypothesis import given

from rdp import (
    App,
    DepPair,
    FuelExhausted,
    InvalidPositionError,
    RelationMode,
    ROOT,
    Rule,
    Signature,
    Step,
    Substitution,
    Symbol,
    Var,
    format_position,
    normalize,
    parse_position,
    positions_of,
    replace_at,
    subterm_at,
    term_to_str,
    trs_of,
    vars_of,
)
from rdp.terms import _walk, _write, iter_vars, symbols_of, vars_in_order

from helpers import (
    A2,
    C0,
    F1,
    G2,
    H2,
    S1,
    X,
    Y,
    Z0,
    ack,
    ack_terms,
    ap,
    hg_system,
    nat,
    oracle_replace_at,
    terms_over,
)

TERMS = terms_over([A2, S1, Z0, F1, G2], max_leaves=6)


def s_tower(depth, leaf):
    """``s^depth(leaf)``, built without recursion; too deep for ``term_to_str``."""
    for _ in range(depth):
        leaf = ap(S1, leaf)
    return leaf


def test_symbol_repr_and_negative_arity():
    assert repr(A2) == "a/2"
    with pytest.raises(ValueError):
        Symbol("bad", -1)


def test_app_checks_arity():
    with pytest.raises(ValueError):
        App(A2, (ap(Z0),))
    with pytest.raises(ValueError):
        App(Z0, (ap(Z0),))


def test_terms_are_hashable_values():
    assert ack(ap(Z0), Y) == ack(ap(Z0), Y)
    assert hash(nat(3)) == hash(nat(3))
    assert nat(2) != nat(3)
    assert X != Var("y")
    assert ap(S1, X) != X and X != ap(S1, X)


def rebuild(t):
    """A copy of ``t`` that shares no application node with it."""
    if isinstance(t, Var):
        return t
    return App(t.sym, tuple(rebuild(a) for a in t.args))


@given(TERMS)
def test_a_rebuilt_copy_is_equal_and_hashes_alike(t):
    twin, other = rebuild(t), rebuild(t)
    assert twin == t and t == twin and twin == other
    if isinstance(t, App):
        assert twin is not t
        assert twin._hash is None and other._hash is None  # equality hashes nothing
    assert hash(twin) == hash(t)
    assert twin == t and {t: 1}[twin] == 1


@given(TERMS, TERMS)
def test_terms_are_equal_exactly_when_they_print_alike(t, u):
    same = term_to_str(t) == term_to_str(u)
    assert (t == u) is same
    assert (rebuild(t) == u) is same
    hash(t)  # a cached hash on one side only changes nothing
    assert (t == rebuild(u)) is same and (rebuild(u) == t) is same
    if same:
        assert hash(t) == hash(u)


@pytest.mark.parametrize("field", ["sym", "args", "_hash"])
def test_app_fields_cannot_be_assigned(field):
    t = ap(S1, X)
    with pytest.raises(AttributeError):
        setattr(t, field, None)
    with pytest.raises(AttributeError):
        delattr(t, field)
    assert t.sym == S1 and t.args == (X,)


def test_deep_terms_hash_and_compare_without_recursion():
    one, two = s_tower(100_000, X), s_tower(100_000, X)
    assert one == two
    assert hash(one) == hash(two)
    assert one == two  # now with both hashes cached
    assert one != s_tower(100_000, Y)
    assert one != s_tower(99_999, X)
    assert len({one, two}) == 1


class _CountedSymbol(Symbol):
    """Equal to any symbol of the same name and arity; counts how often it is
    compared and refuses to go on past ``budget`` comparisons."""

    compared = 0
    budget = 0

    def __eq__(self, other):
        _CountedSymbol.compared += 1
        assert _CountedSymbol.compared <= _CountedSymbol.budget, "compared too many nodes"
        return (self.name, self.arity) == (other.name, other.arity)

    __hash__ = Symbol.__hash__


@pytest.mark.parametrize("second", [X, Y], ids=["equal", "one-leaf-differs"])
def test_equality_compares_each_pair_of_shared_nodes_once(second):
    """h(x,y) -> h(g(x,y), g(g(x,y),y)) shares each step's arguments twice, so
    200 steps make a tree of about 2^200 nodes over a few hundred distinct
    ones.  Two such terms built apart, under symbols that are equal but not
    the same objects, compare node pair by node pair, each pair once."""
    h, g = _CountedSymbol("h", 2), _CountedSymbol("g", 2)
    counted = trs_of(
        (App(h, (X, Y)), App(h, (App(g, (X, Y)), App(g, (App(g, (X, Y)), Y))))),
        (App(h, (X, Y)), App(g, (X, Y))),
        (App(g, (X, Y)), Y),
    )
    ends = []
    for trs, start in ((hg_system(), ap(H2, X, X)), (counted, App(h, (X, second)))):
        with pytest.raises(FuelExhausted) as stop:
            normalize(trs, start, RelationMode.FULL, 200)
        ends.append(stop.value.trace.end)
    _CountedSymbol.compared, _CountedSymbol.budget = 0, 4 * 200
    assert (ends[0] == ends[1]) is (second == X)
    assert 0 < _CountedSymbol.compared <= 4 * 200


def test_equality_with_a_node_shared_on_one_side_only():
    """A node shared on the left meets two equal or differing copies on the right."""
    shared = ack(nat(3), X)
    left = ack(shared, ack(shared, shared))
    assert left == ack(ack(nat(3), X), ack(ack(nat(3), X), ack(nat(3), X)))
    assert left != ack(ack(nat(3), X), ack(ack(nat(3), X), ack(nat(3), Y)))
    assert left != ack(ack(nat(3), X), ack(ack(nat(2), X), ack(nat(3), X)))


def test_a_node_meets_its_second_partner_once():
    """One node shared 50 times on the left meets one copy on the right first
    and then a second copy, itself shared 49 times.  Each of the two node
    pairs is pushed once, so its symbols, equal but not the same objects,
    are compared once: no more pairs than distinct ones."""
    leaf = ap(C0)
    shared = App(_CountedSymbol("h", 2), (leaf, leaf))
    first, second = (App(_CountedSymbol("h", 2), (leaf, leaf)) for _ in range(2))
    left, right = shared, second
    for _ in range(48):
        left, right = ack(shared, left), ack(second, right)
    left, right = ack(shared, left), ack(first, right)
    _CountedSymbol.compared, _CountedSymbol.budget = 0, 2
    assert left == right
    assert _CountedSymbol.compared == 2


def _memo_entries(left, right):
    """``left == right`` and the entries of the pair memo that ``App.__eq__``
    held when it returned, read from its frame by a profile hook."""
    entries = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is App.__eq__.__code__:
            entries.append(len(frame.f_locals["pushed"]))

    sys.setprofile(profile)
    try:
        same = left == right
    finally:
        sys.setprofile(None)
    return same, entries[-1]


def test_a_unary_chain_compares_in_place():
    """Two s^10000(0) built apart share nothing; a chain of one-argument
    nodes is walked in place, so the memo keeps only the roots' entry,
    where it kept one entry per node of the chain."""
    zero = ap(Z0)
    for second, want in ((zero, True), (ap(Symbol("1", 0)), False)):
        same, entries = _memo_entries(s_tower(10_000, zero), s_tower(10_000, second))
        assert same is want
        assert entries == 1
    # a chain that ends in a binary node pushes only that node's arguments
    left = s_tower(10_000, ack(s_tower(50, X), X))
    right = s_tower(10_000, ack(s_tower(50, X), X))
    assert _memo_entries(left, right) == (True, 2)


def test_signature_lookup_and_duplicates():
    sig = Signature((A2, S1, Z0))
    assert sig.get("a") == A2
    assert sig.get("nope") is None
    assert "s" in sig and "nope" not in sig
    with pytest.raises(ValueError):
        Signature((S1, Symbol("s", 2)))


def test_signature_equality_ignores_order():
    assert Signature((A2, S1, Z0)) == Signature((Z0, A2, S1))


def test_positions_preorder():
    t = ack(ap(Z0), ack(ap(Z0), ap(Z0)))
    assert positions_of(t) == [(), (1,), (2,), (2, 1), (2, 2)]
    assert positions_of(X) == [()]


def test_subterm_at():
    t = ack(nat(1), ack(nat(0), Y))
    assert subterm_at(t, ROOT) == t
    assert subterm_at(t, (1,)) == nat(1)
    assert subterm_at(t, (2, 2)) == Y
    with pytest.raises(InvalidPositionError):
        subterm_at(t, (3,))
    with pytest.raises(InvalidPositionError):
        subterm_at(t, (2, 2, 1))


def test_replace_at():
    t = ack(nat(1), Y)
    assert replace_at(t, (2,), nat(0)) == ack(nat(1), nat(0))
    assert replace_at(t, ROOT, X) == X
    # Both name the whole position, the depth and the node the descent
    # stopped at, never the whole term.
    message = r"^position 1\.2 invalid at depth 1: s/1 has no argument 2$"
    with pytest.raises(InvalidPositionError, match=message):
        replace_at(t, (1, 2), X)
    with pytest.raises(InvalidPositionError, match=message):
        subterm_at(t, (1, 2))
    with pytest.raises(InvalidPositionError, match=r"^position 2\.1 invalid at depth 1: y is a variable$"):
        replace_at(t, (2, 1), X)


@given(TERMS, TERMS)
def test_replace_at_agrees_with_the_recursive_definition(t, u):
    valid = positions_of(t)
    for pos in valid:
        assert replace_at(t, pos, u) == oracle_replace_at(t, pos, u)
        sibling = pos[:-1] + (pos[-1] + 1,) if pos else ()
        for bad in (pos + (0,), pos + (1,), pos + (3,), sibling):
            if bad not in valid:
                for replace in (replace_at, oracle_replace_at):
                    with pytest.raises(InvalidPositionError):
                        replace(t, bad, u)


def test_replace_at_deep_in_a_tower_does_not_recurse():
    tower = s_tower(100_000, X)
    pos = (1,) * 99_999
    assert replace_at(tower, pos, Y) == s_tower(99_999, Y)
    assert subterm_at(replace_at(tower, pos + (1,), Y), pos) == ap(S1, Y)
    # An invalid position is reported, and the tower is not printed.
    with pytest.raises(InvalidPositionError, match=r"^position 2 invalid at depth 0: s/1 has no argument 2$"):
        subterm_at(tower, (2,))
    with pytest.raises(InvalidPositionError, match=r"invalid at depth 99999: s/1 has no argument 2$"):
        replace_at(tower, pos + (2,), X)
    with pytest.raises(InvalidPositionError, match=r"invalid at depth 100000: x is a variable$"):
        replace_at(tower, pos + (1, 1), X)


def test_invalid_position_message_cuts_a_long_position():
    """A position, or a name, longer than 200 characters is shown by its two
    ends, so the message stays under 1 KB however long either is."""
    with pytest.raises(InvalidPositionError) as info:
        subterm_at(nat(1), (1,) * 200_000)
    message = str(info.value)
    assert len(message.encode()) < 1024
    assert message.startswith("position 1.1.1.") and "..." in message
    assert message.endswith(".1.1 invalid at depth 1: 0/0 has no argument 1")
    # 100 parts print in 199 characters, whole.
    whole = format_position((1,) * 100)
    with pytest.raises(InvalidPositionError) as info:
        subterm_at(nat(1), (1,) * 100)
    assert str(info.value) == f"position {whole} invalid at depth 1: 0/0 has no argument 1"
    with pytest.raises(InvalidPositionError) as info:
        subterm_at(Var("v" * 100_000), (1,))
    assert len(str(info.value)) < 1024 and str(info.value).endswith("v is a variable")


def test_vars_helpers():
    t = ack(ack(Y, X), Y)
    assert vars_of(t) == frozenset({X, Y})
    assert vars_in_order(t) == (Y, X)
    assert vars_of(nat(4)) == frozenset()
    deep = s_tower(5000, X)
    assert vars_of(deep) == frozenset({X})
    assert vars_in_order(ap(A2, deep, Y)) == (X, Y)


def subterms_of(t):
    """(position, subterm) pairs in the walk's pre-order."""
    return [(tuple(i for _, i in path), sub) for sub, path in _walk(t)]


def test_subterms_of_matches_positions():
    t = ack(ap(S1, X), ap(Z0))
    assert subterms_of(t) == [
        ((), t),
        ((1,), ap(S1, X)),
        ((1, 1), X),
        ((2,), ap(Z0)),
    ]


@given(TERMS)
def test_the_walk_lists_every_subterm_once_in_pre_order(t):
    pairs = subterms_of(t)
    positions = [pos for pos, _ in pairs]
    assert positions == sorted(set(positions))
    for pos, sub in pairs:
        assert subterm_at(t, pos) == sub
        if isinstance(sub, App):
            assert all(pos + (i,) in positions for i in range(1, len(sub.args) + 1))
    assert list(iter_vars(t)) == [sub for _, sub in pairs if isinstance(sub, Var)]
    assert symbols_of(t) == {sub.sym for _, sub in pairs if isinstance(sub, App)}


def test_symbols_of():
    assert symbols_of(ack(nat(1), X)) == frozenset({A2, S1, Z0})
    assert symbols_of(s_tower(5000, ap(Z0))) == frozenset({S1, Z0})


def test_term_to_str():
    """Constants print bare, applications with commas and no spaces."""
    assert term_to_str(ap(Z0)) == "0"
    assert term_to_str(ack(ap(S1, X), ap(Z0))) == "a(s(x),0)"
    assert term_to_str(Y) == "y"


def test_reprs_print_at_any_depth():
    """The repr of a term, and of a rule, step, pair or substitution that
    holds one, is the text the explicit-stack writer gives, 100,000 levels
    deep, where ``term_to_str`` fails near 330."""
    tower = s_tower(100_000, X)
    text = "s(" * 100_000 + "x" + ")" * 100_000
    assert repr(tower) == _write(tower) == text
    step = Step(ROOT, Rule(ap(F1, X), X, 0), Substitution({X: tower}))
    assert repr(step) == f"0@ε {{x -> {text}}}"
    assert repr(Substitution({Y: tower})) == f"{{y -> {text}}}"
    assert repr(Rule(ap(F1, tower), X, 0)) == f"f({text}) -> x"
    assert repr(DepPair(ap(F1, tower), tower)) == f"<f({text}), {text}>"


def test_position_text_round_trip():
    assert format_position(ROOT) == "ε"
    assert format_position((2, 1)) == "2.1"
    assert parse_position("") == ROOT
    assert parse_position("ε") == ROOT
    assert parse_position("2.1") == (2, 1)
    with pytest.raises(InvalidPositionError):
        parse_position("0.1")
    with pytest.raises(InvalidPositionError):
        parse_position("2.x")


@given(ack_terms)
def test_subterm_replace_identity(t):
    for pos in positions_of(t):
        assert replace_at(t, pos, subterm_at(t, pos)) == t


@given(ack_terms, ack_terms)
def test_replace_then_subterm(t, u):
    for pos in positions_of(t):
        assert subterm_at(replace_at(t, pos, u), pos) == u


@given(ack_terms)
def test_positions_are_valid_and_prefix_closed(t):
    poss = set(positions_of(t))
    for pos in poss:
        subterm_at(t, pos)
        assert pos[:-1] in poss or pos == ()


@given(ack_terms)
def test_position_format_parse_round_trip(t):
    for pos in positions_of(t):
        assert parse_position(format_position(pos)) == pos
