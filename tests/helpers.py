"""Hand-built systems, term builders and test oracles shared across the test modules."""

from collections import deque
from typing import Iterator

from hypothesis import strategies as st

from rdp import App, Symbol, Term, Var, trs_of
from rdp.rewriting import (
    DEFAULT_FUEL,
    TRS,
    DerivationTrace,
    FuelExhausted,
    RelationMode,
    Step,
)
from rdp.substitution import match
from rdp.terms import Position, positions_of, replace_at, subterm_at

A2 = Symbol("a", 2)
S1 = Symbol("s", 1)
Z0 = Symbol("0", 0)
F1 = Symbol("f", 1)
G1 = Symbol("g", 1)
C0 = Symbol("c", 0)
H2 = Symbol("h", 2)
G2 = Symbol("g", 2)
P1 = Symbol("p", 1)
Q1 = Symbol("q", 1)
LOOP1 = Symbol("loop", 1)
EQ2 = Symbol("eq", 2)
T0 = Symbol("t", 0)
D1 = Symbol("d", 1)
ONE0 = Symbol("one", 0)

X = Var("x")
Y = Var("y")


def ap(sym: Symbol, *args: Term) -> App:
    return App(sym, tuple(args))


def nat(k: int) -> Term:
    t: Term = ap(Z0)
    for _ in range(k):
        t = ap(S1, t)
    return t


def ack(left: Term, right: Term) -> Term:
    return ap(A2, left, right)


def ack_system():
    """a(0,y) -> s(y); a(s(x),0) -> a(x,s(0)); a(s(x),s(y)) -> a(x,a(s(x),y))"""
    return trs_of(
        (ack(ap(Z0), Y), ap(S1, Y)),
        (ack(ap(S1, X), ap(Z0)), ack(X, ap(S1, ap(Z0)))),
        (ack(ap(S1, X), ap(S1, Y)), ack(X, ack(ap(S1, X), Y))),
    )


def loop_system():
    """f(x) -> f(x): the one-rule self loop."""
    return trs_of((ap(F1, X), ap(F1, X)))


def fc() -> Term:
    return ap(F1, ap(C0))


def hg_system():
    """h(x,y) -> h(g(x,y), g(g(x,y),y)); h(x,y) -> g(x,y); g(x,y) -> y"""
    gxy = ap(G2, X, Y)
    return trs_of(
        (ap(H2, X, Y), ap(H2, gxy, ap(G2, gxy, Y))),
        (ap(H2, X, Y), gxy),
        (gxy, Y),
    )


def grow_system():
    """g(x) -> g(s(x)): nonterminating but with no cycle, ever."""
    return trs_of((ap(G1, X), ap(G1, ap(S1, X))))


def nest_system():
    """p(x) -> q(loop(x)); loop(x) -> loop(x): the loop sits under a constructor."""
    return trs_of(
        (ap(P1, X), ap(Q1, ap(LOOP1, X))),
        (ap(LOOP1, X), ap(LOOP1, X)),
    )


def growing_wrap_system():
    """p(x) -> q(p(x)): every derivation grows, so no exact cycle exists."""
    return trs_of((ap(P1, X), ap(Q1, ap(P1, X))))


def eq_system():
    """eq(x,x) -> t; eq(s(x),s(y)) -> eq(x,y); d(x) -> eq(x,one); one -> s(0)

    A non-linear lhs, and a defined constant inside a right-hand side.
    """
    return trs_of(
        (ap(EQ2, X, X), ap(T0)),
        (ap(EQ2, ap(S1, X), ap(S1, Y)), ap(EQ2, X, Y)),
        (ap(D1, X), ap(EQ2, X, ap(ONE0))),
        (ap(ONE0), ap(S1, ap(Z0))),
    )


def terms_over(symbols, max_leaves: int = 10):
    """Hypothesis strategy: terms over ``symbols``, the constant c and x, y."""
    leaves = [ap(C0), X, Y] + [ap(sym) for sym in symbols if sym.arity == 0]
    compound = [sym for sym in symbols if sym.arity > 0]
    return st.recursive(
        st.sampled_from(leaves),
        lambda children: st.one_of(
            [
                st.tuples(*[children] * sym.arity).map(lambda args, sym=sym: App(sym, args))
                for sym in compound
            ]
        ),
        max_leaves=max_leaves,
    )


# Hypothesis strategy: terms over the Ackermann-style signature with two
# variables.  Small on purpose; depth is bounded by the leaf budget.
ack_terms = st.recursive(
    st.sampled_from((ap(Z0), X, Y)),
    lambda children: st.one_of(
        st.builds(lambda t: ap(S1, t), children),
        st.builds(lambda l, r: ap(A2, l, r), children, children),
    ),
    max_leaves=10,
)

ground_ack_terms = st.recursive(
    st.just(ap(Z0)),
    lambda children: st.one_of(
        st.builds(lambda t: ap(S1, t), children),
        st.builds(lambda l, r: ap(A2, l, r), children, children),
    ),
    max_leaves=8,
)


# --- oracles -----------------------------------------------------------------
#
# The original definitions of the successor core and of the breadth-first
# searches, kept verbatim (renamed ``oracle_*``) as the obviously correct
# reference for the differential tests.  They rescan the term for every
# position and try every rule everywhere.


def oracle_has_redex(trs: TRS, term: Term) -> bool:
    """True when some rule matches at some position of ``term``."""
    if isinstance(term, Var):
        return False
    if any(match(rule.lhs, term) is not None for rule in trs.rules):
        return True
    return any(oracle_has_redex(trs, arg) for arg in term.args)


def oracle_is_nr_normal_form(trs: TRS, term: Term) -> bool:
    """True when every proper subterm of ``term`` is a normal form.

    This is the innermost side condition: a redex may fire only when it is
    nr-normal.
    """
    if isinstance(term, Var):
        return True
    return not any(oracle_has_redex(trs, arg) for arg in term.args)


def oracle_iter_successors(trs: TRS, term: Term, mode: RelationMode) -> Iterator[Step]:
    """One-step reducts under ``mode``, ordered by (position pre-order, rule index)."""
    for pos in positions_of(term):
        if mode.non_root and pos == ():
            continue
        sub = subterm_at(term, pos)
        if isinstance(sub, Var):
            continue
        if mode.innermost and not oracle_is_nr_normal_form(trs, sub):
            continue
        for rule in trs.rules:
            sigma = match(rule.lhs, sub)
            if sigma is None:
                continue
            result = replace_at(term, pos, sigma.apply(rule.rhs))
            yield Step(pos, rule.index, sigma, result)


def oracle_successors(trs: TRS, term: Term, mode: RelationMode) -> list[Step]:
    return list(oracle_iter_successors(trs, term, mode))


def oracle_reduce_at(
    trs: TRS, term: Term, pos: Position, mode: RelationMode
) -> Step | None:
    """The lowest-rule-index step at ``pos`` valid under ``mode``, if any."""
    sub = subterm_at(term, pos)
    if mode.non_root and pos == ():
        return None
    if isinstance(sub, Var):
        return None
    if mode.innermost and not oracle_is_nr_normal_form(trs, sub):
        return None
    for rule in trs.rules:
        sigma = match(rule.lhs, sub)
        if sigma is not None:
            result = replace_at(term, pos, sigma.apply(rule.rhs))
            return Step(pos, rule.index, sigma, result)
    return None


def oracle_is_normal_form(trs: TRS, term: Term, mode: RelationMode) -> bool:
    return next(oracle_iter_successors(trs, term, mode), None) is None


def oracle_normalize(
    trs: TRS, term: Term, mode: RelationMode, fuel: int = DEFAULT_FUEL
) -> DerivationTrace:
    """Reduce with the leftmost-lowest strategy until a mode-normal form.

    Each step consumes one unit of fuel; raises FuelExhausted (carrying the
    partial trace) if no normal form is reached within ``fuel`` steps.
    """
    steps: list[Step] = []
    current = term
    for _ in range(max(fuel, 0)):
        step = next(oracle_iter_successors(trs, current, mode), None)
        if step is None:
            return DerivationTrace(term, tuple(steps), mode)
        steps.append(step)
        current = step.result
    if next(oracle_iter_successors(trs, current, mode), None) is None:
        return DerivationTrace(term, tuple(steps), mode)
    raise FuelExhausted(DerivationTrace(term, tuple(steps), mode))


def oracle_derives(
    trs: TRS,
    source: Term,
    target: Term,
    mode: RelationMode,
    fuel: int = DEFAULT_FUEL,
) -> DerivationTrace | None:
    """A shortest derivation source ->* target under ``mode``, or None.

    Breadth-first; ``fuel`` bounds the number of distinct terms explored.
    None means not found within fuel, never unreachability.
    """
    if source == target:
        return DerivationTrace(source, (), mode)
    parent: dict[Term, tuple[Term, Step]] = {}
    visited: set[Term] = {source}
    queue: deque[Term] = deque([source])
    while queue:
        u = queue.popleft()
        for step in oracle_iter_successors(trs, u, mode):
            v = step.result
            if v in visited:
                continue
            if len(visited) >= fuel:
                return None
            visited.add(v)
            parent[v] = (u, step)
            if v == target:
                steps: list[Step] = []
                node = v
                while node != source:
                    node, st = parent[node]
                    steps.append(st)
                steps.reverse()
                return DerivationTrace(source, tuple(steps), mode)
            queue.append(v)
    return None


def oracle_descendants(
    trs: TRS, term: Term, mode: RelationMode, fuel: int = DEFAULT_FUEL
) -> tuple[frozenset[Term], bool]:
    """All terms reachable under ``mode`` (including ``term``), with a truncation flag.

    The flag is True when the closure was cut off by fuel, i.e. some reduct
    outside the returned set exists.
    """
    visited: set[Term] = {term}
    queue: deque[Term] = deque([term])
    truncated = False
    while queue:
        u = queue.popleft()
        for step in oracle_iter_successors(trs, u, mode):
            v = step.result
            if v in visited:
                continue
            if len(visited) >= fuel:
                truncated = True
                continue
            visited.add(v)
            queue.append(v)
    return frozenset(visited), truncated
