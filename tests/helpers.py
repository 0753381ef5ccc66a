"""Hand-built systems, term builders and test oracles shared across the test modules."""

import functools
import json
import random
from collections import deque
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterator, NamedTuple

from hypothesis import strategies as st

from rdp import (
    App,
    ChainVerdict,
    ChainWitness,
    Cnst,
    ConstructionFailure,
    DepPairAlt,
    DerivationTrace,
    GAdd,
    GComp,
    GConst,
    GIf,
    GMonus,
    GTuple,
    Ite,
    LinkVerdict,
    LoopCertificate,
    Op1,
    Op2,
    OperatorDef,
    PreconditionFailed,
    Pvs0Program,
    Rec,
    Substitution,
    Symbol,
    Term,
    Var,
    Vr,
    check_certificate,
    calling_contexts,
    chi_eval,
    defined_symbols,
    dep_pairs_alt,
    derives,
    detect_innermost_loop,
    dp_and_sub_from_nrnf,
    find_mint_subterm,
    is_nr_normal_form,
    normalize,
    to_standard,
    trs_of,
    validate_witness,
)
from rdp.dependency_pairs import NOT_FOUND, PRECONDITION_FAILED, VERIFIED
from rdp.formats import (
    ParseError,
    _int_field,
    _is_int,
)
from rdp.pvs0 import (
    _COMPARE,
    CallingContext,
    GScalar,
    GValue,
    Pvs0Error,
    Pvs0Expr,
    Value,
    _condition_holds,
    _Node,
)
from rdp.rewriting import (
    DEFAULT_FUEL,
    TRS,
    FuelExhausted,
    RelationMode,
    Rule,
    RuleRestrictionError,
    Step,
    _may_fire,
    explore,
)
from rdp.substitution import match
from rdp.terms import (
    _SHOW,
    InvalidPositionError,
    Position,
    Signature,
    _plug,
    _split_at,
    format_position,
    positions_of,
    subterm_at,
    term_to_str,
)

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
P2 = Symbol("p", 2)
D1 = Symbol("d", 1)
ONE0 = Symbol("one", 0)
E1 = Symbol("e", 1)
SW2 = Symbol("sw", 2)
W1 = Symbol("w", 1)
B2 = Symbol("b", 2)
M1 = Symbol("m", 1)
K1 = Symbol("k", 1)
FORK0 = Symbol("fork", 0)
NEAR0 = Symbol("near", 0)
FAR0 = Symbol("far", 0)

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


def dup_system():
    """f(x) -> p(x,x); g(x) -> c: each f step puts one node at two positions."""
    return trs_of((ap(F1, X), ap(P2, X, X)), (ap(G1, X), ap(C0)))


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


def detour_system():
    """fork -> k(k(k(k(far)))); fork -> near; k(x) -> x; f(near) -> f(fork); f(far) -> f(fork)

    Normalizing f(fork) below the root takes the five steps to f(far), while
    the cycle through f(near) is found among three terms.
    """
    fork, near, far = ap(FORK0), ap(NEAR0), ap(FAR0)
    return trs_of(
        (fork, ap(K1, ap(K1, ap(K1, ap(K1, far))))),
        (fork, near),
        (ap(K1, X), X),
        (ap(F1, near), ap(F1, fork)),
        (ap(F1, far), ap(F1, fork)),
    )


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


def random_looping_instance(rng: random.Random):
    """A small system with an exact innermost cycle, under an inert context."""
    c = ap(C0)
    shape = rng.choice(("self", "alternate", "swap"))
    if shape == "self":
        rules = [(ap(F1, X), ap(F1, X))]
        start = ap(F1, c)
    elif shape == "alternate":
        rules = [(ap(D1, X), ap(E1, X)), (ap(E1, X), ap(D1, X))]
        start = ap(D1, c)
    else:
        rules = [(ap(SW2, X, Y), ap(SW2, Y, X))]
        start = ap(SW2, c, ap(W1, c))
    has_inert = rng.random() < 0.5
    if has_inert:
        rules.append((ap(M1, X), X))
    for _ in range(rng.randint(0, 2)):
        start = ap(W1, start) if rng.random() < 0.7 else ap(B2, start, c)
    if has_inert and rng.random() < 0.4:
        start = ap(B2, ap(M1, c), start)
    return trs_of(*rules), start


def terms_over(symbols, max_leaves: int = 10, with_c: bool = True):
    """Hypothesis strategy: terms over ``symbols`` and x, y, and the constant c
    unless ``with_c`` is false; then c is offered only if ``symbols`` has it."""
    leaves = ([ap(C0)] if with_c else []) + [X, Y] + [ap(sym) for sym in symbols if sym.arity == 0]
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


# Witness entries that are mostly no dependency pair: rule 0 at the root (one
# in some systems, the loop system's among them), a position no rule 0
# right-hand side has, and a rule no hand-built system has.
NOT_PAIRS = (DepPairAlt(0, ()), DepPairAlt(0, (9,)), DepPairAlt(7, ()))


def witness_entries(values, pairs):
    """Hypothesis strategy: a witness entry, one of ``pairs`` with x and y
    bound to ``values``."""
    sigma = st.tuples(st.sampled_from(values), st.sampled_from(values)).map(
        lambda xy: Substitution({X: xy[0], Y: xy[1]})
    )
    return st.tuples(st.sampled_from(pairs), sigma)


# The systems the command-contract tests run on; none of them shares terms.
CONTRACT_SYSTEMS = {
    "ack": ack_system,
    "loop": loop_system,
    "grow": grow_system,
    "nest": nest_system,
    "growing_wrap": growing_wrap_system,
    "detour": detour_system,
    "eq": eq_system,
}


def reached(system, term, mode, steps):
    """The term ``steps`` steps along ``term``'s derivation under ``mode``, or its
    normal form if that comes first."""
    try:
        return normalize(system, term, mode, steps).end
    except FuelExhausted as err:
        return err.trace.end


@st.composite
def chain_witness(draw, system, min_size=0):
    """A witness of ``min_size`` to six entries over ``system``, with x and y
    bound to a few small terms over the system's own symbols, so that some
    lhs instances hold a redex.  Half of the witnesses are chained from their
    first entry on, for as long as the rhs subterm of the entry before,
    normalized below its root, is an instance of some pair's lhs; the entries
    after that stay as drawn.  When a draw from 0..4 is 0, one entry names
    one of ``NOT_PAIRS`` instead."""
    values = draw(
        st.lists(terms_over(system.signature.symbols, 4, with_c=False), min_size=1, max_size=3)
    )
    pairs = dep_pairs_alt(system)
    entries = draw(st.lists(witness_entries(values, pairs), min_size=min_size, max_size=6))
    if draw(st.booleans()):
        for i in range(1, len(entries)):
            dp, sigma = entries[i - 1]
            rhs_sub = subterm_at(system.rules[dp.rule_index].rhs, dp.position)
            end = reached(system, sigma.apply(rhs_sub), RelationMode.NON_ROOT_INNERMOST, 40)
            options = [
                (pair, found)
                for pair in pairs
                if (found := match(system.rules[pair.rule_index].lhs, end)) is not None
            ]
            if not options:
                break
            entries[i] = draw(st.sampled_from(options))
    if entries and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] = (draw(st.sampled_from(NOT_PAIRS)), entries[i][1])
    return ChainWitness(tuple(entries))


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


def random_pvs0_program(rng: random.Random) -> Pvs0Program:
    """A small random program of width 1 or 2 (the criterion-7 generator)."""
    width = rng.randint(1, 2)
    false_val = (0,) * width
    top_val = (1,) + (0,) * (width - 1)

    def scalar(depth, arity):
        if depth == 0 or rng.random() < 0.5:
            if rng.random() < 0.5:
                return GConst(rng.randint(0, 3))
            return GComp(rng.randrange(arity), rng.randrange(width))
        maker = GAdd if rng.random() < 0.5 else GMonus
        return maker(scalar(depth - 1, arity), scalar(depth - 1, arity))

    def gvalue(depth, arity):
        if depth > 0 and rng.random() < 0.4:
            return GIf(
                rng.choice(("lt", "le", "eq")),
                scalar(depth - 1, arity),
                scalar(depth - 1, arity),
                gvalue(depth - 1, arity),
                gvalue(depth - 1, arity),
            )
        return GTuple(tuple(scalar(depth, arity) for _ in range(width)))

    o1 = tuple(OperatorDef(1, gvalue(2, 1)) for _ in range(rng.randint(0, 2)))
    o2 = tuple(OperatorDef(2, gvalue(2, 2)) for _ in range(rng.randint(0, 2)))

    def expr(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return Vr()
            return Cnst(tuple(rng.randint(0, 3) for _ in range(width)))
        kind = rng.randrange(4)
        if kind == 0:
            return Op1(rng.randint(0, 3), expr(depth - 1))
        if kind == 1:
            return Op2(rng.randint(0, 3), expr(depth - 1), expr(depth - 1))
        if kind == 2:
            return Rec(expr(depth - 1))
        return Ite(expr(depth - 1), expr(depth - 1), expr(depth - 1))

    return Pvs0Program(width, false_val, top_val, o1, o2, expr(3))


# --- oracles -----------------------------------------------------------------
#
# The original definitions of the successor core, of step replay, of the
# breadth-first searches (the loop search over oracle successors), of the
# PVS0 operator check and guard interpreter, evaluator, least-fuel search
# and calling contexts, of the minimal looping subterm, of chain growth, of
# substitution application, of the term and TRS reader, and of the PVS0
# operator compile, program reader and writers, kept verbatim
# (renamed ``oracle_*``) as the obviously correct reference
# for the differential tests.  They rescan the term for every position and
# try every rule everywhere; step replay re-derives the step from the rule
# the step names; the guard check walks an operator once without and once
# with the program's width, and the guard interpreter walks it again on
# every application; the evaluator, the contexts and the looping-subterm
# search recurse once per construct or argument; the fuel search probes
# fuels 1, 2, 4, ... and then bisects;
# chain growth searches each entry's loop again and re-checks every link at
# the end; application recurses once per level of the pattern; the reader
# builds a raw tree by recursion and then resolves it into terms; the
# operator compile, the program reader and its writers recurse once per
# node.  ``_depth_is_bad_input`` turns the recursive readers' RecursionError
# into the ParseError the readers they were replaced by raise.
# ``oracle_node_repr`` restates the dataclass-generated ``repr`` of PVS0
# nodes, which recursed once per level.  ``oracle_trace_to_json`` prints
# every term of a trace whole with the recursive ``term_to_str``, each
# replayed by recursion (``oracle_replay``) from the step's rule and σ.


def _depth_is_bad_input(parse: Callable) -> Callable:
    """Report JSON nested deeper than the recursive reader reaches as a ParseError."""
    @functools.wraps(parse)
    def guarded(*args: Any) -> Any:
        try:
            return parse(*args)
        except RecursionError:
            raise ParseError("nested too deeply to read") from None
    return guarded


def oracle_replay(trace: DerivationTrace) -> list[Term]:
    """Every term of ``trace``, each step's result rebuilt by recursion from
    the term before, its rule and its substitution."""
    out = [trace.start]
    for step in trace.steps:
        contractum = oracle_apply(step.substitution, step.rule.rhs)
        out.append(oracle_replace_at(out[-1], step.position, contractum))
    return out


def oracle_trace_to_json(trace: DerivationTrace) -> dict:
    return {
        "start": term_to_str(trace.start),
        "mode": trace.mode.value,
        "steps": [
            {
                "position": format_position(step.position),
                "rule_index": step.rule_index,
                "substitution": {
                    v.name: term_to_str(t)
                    for v, t in sorted(step.substitution.items(), key=lambda vt: vt[0].name)
                },
                "term": term_to_str(result),
            }
            for step, result in zip(trace.steps, oracle_replay(trace)[1:])
        ],
    }


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


def oracle_replace_at(term: Term, pos: Position, replacement: Term) -> Term:
    """``term`` with the subterm at ``pos`` replaced by ``replacement``."""
    if not pos:
        return replacement
    if not isinstance(term, App) or not 1 <= pos[0] <= len(term.args):
        raise InvalidPositionError(
            f"position {format_position(pos)} invalid in {term_to_str(term)}"
        )
    i = pos[0]
    new_args = (
        term.args[: i - 1]
        + (oracle_replace_at(term.args[i - 1], pos[1:], replacement),)
        + term.args[i:]
    )
    return App(term.sym, new_args)


def oracle_iter_successors(
    trs: TRS, term: Term, mode: RelationMode
) -> Iterator[tuple[Step, Term]]:
    """One-step reducts under ``mode`` as ``(step, result)``, ordered by
    (position pre-order, rule index)."""
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
            yield Step(pos, rule, sigma), oracle_replace_at(term, pos, sigma.apply(rule.rhs))


def oracle_successors(trs: TRS, term: Term, mode: RelationMode) -> list[Step]:
    return [step for step, _ in oracle_iter_successors(trs, term, mode)]


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
            return Step(pos, rule, sigma)
    return None


def oracle_check_step(trs: TRS, source: Term, step: Step, mode: RelationMode) -> Term | None:
    """Replay one step: position, rule, substitution, side condition; the
    result, or None."""
    try:
        frames, sub = _split_at(source, step.position)
    except InvalidPositionError:
        return None
    if not 0 <= step.rule_index < len(trs.rules) or trs.rules[step.rule_index] != step.rule:
        return None
    if not _may_fire(mode, not step.position, lambda: not is_nr_normal_form(trs, sub)):
        return None
    rule = trs.rules[step.rule_index]
    if step.substitution.apply(rule.lhs) != sub:
        return None
    return _plug(frames, step.substitution.apply(rule.rhs))


def oracle_leftmost(
    trs: TRS, term: Term, mode: RelationMode, fuel: int = DEFAULT_FUEL
) -> tuple[list[Step], list[Term], bool]:
    """The leftmost-lowest derivation for at most ``fuel`` steps, rescanning
    each term from the root: its steps, its terms, and whether a step was
    left to take at the last."""
    steps: list[Step] = []
    terms = [term]
    for _ in range(max(fuel, 0)):
        found = next(oracle_iter_successors(trs, terms[-1], mode), None)
        if found is None:
            return steps, terms, False
        steps.append(found[0])
        terms.append(found[1])
    return steps, terms, next(oracle_iter_successors(trs, terms[-1], mode), None) is not None


def oracle_normalize(
    trs: TRS, term: Term, mode: RelationMode, fuel: int = DEFAULT_FUEL
) -> DerivationTrace:
    """Reduce with the leftmost-lowest strategy until a mode-normal form.

    Each step consumes one unit of fuel; raises FuelExhausted (carrying the
    partial trace) if no normal form is reached within ``fuel`` steps.
    """
    steps, terms, more = oracle_leftmost(trs, term, mode, fuel)
    trace = DerivationTrace(term, tuple(steps), mode, terms[-1])
    if more:
        raise FuelExhausted(trace)
    return trace


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
        return DerivationTrace(source, (), mode, source)
    parent: dict[Term, tuple[Term, Step]] = {}
    visited: set[Term] = {source}
    queue: deque[Term] = deque([source])
    while queue:
        u = queue.popleft()
        for step, v in oracle_iter_successors(trs, u, mode):
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
                return DerivationTrace(source, tuple(steps), mode, v)
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
        for _, v in oracle_iter_successors(trs, u, mode):
            if v in visited:
                continue
            if len(visited) >= fuel:
                truncated = True
                continue
            visited.add(v)
            queue.append(v)
    return frozenset(visited), truncated


def explored(
    trs: TRS, start: Term, mode: RelationMode, fuel: int
) -> tuple[frozenset[Term], bool]:
    """The terms ``explore`` expands from ``start`` and whether it refused a
    new one for fuel, in the shape ``oracle_descendants`` gives."""
    reached: list[Term] = []
    refused = False
    for u, tagged in explore(trs, start, mode, fuel):
        reached.append(u)
        refused = refused or any(fresh is None for _, _, fresh in tagged)
    return frozenset(reached), refused


def oracle_detect_innermost_loop(
    trs: TRS, term: Term, fuel: int = DEFAULT_FUEL
) -> LoopCertificate | None:
    """Search for an exact innermost cycle reachable from ``term``.

    Explores at most ``fuel`` distinct terms breadth-first, then looks for a
    cycle among them by depth-first search.  Sound but incomplete: None only
    means no cycle was found within fuel, and in particular nonterminating
    systems whose terms grow forever are never caught.
    """
    edges: dict[Term, list[tuple[Step, Term]]] = {}
    admitted: set[Term] = {term}
    queue: deque[Term] = deque([term])
    while queue:
        u = queue.popleft()
        edges[u] = list(oracle_iter_successors(trs, u, RelationMode.INNERMOST))
        for _, v in edges[u]:
            if v not in admitted and len(admitted) < fuel:
                admitted.add(v)
                queue.append(v)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {u: WHITE for u in edges}
    for root in edges:
        if color[root] != WHITE:
            continue
        stack: list[tuple[Term, object]] = [(root, iter(edges[root]))]
        path_steps: list[Step] = []
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            step, v = next(it, (None, None))  # type: ignore[call-overload]
            if step is None:
                color[node] = BLACK
                stack.pop()
                if path_steps:
                    path_steps.pop()
                continue
            if v not in edges:
                continue
            if color[v] == GRAY:
                cycle_from = next(i for i, (n, _) in enumerate(stack) if n == v)
                steps = tuple(path_steps[cycle_from:]) + (step,)
                return LoopCertificate(
                    DerivationTrace(v, steps, RelationMode.INNERMOST, v)
                )
            if color[v] == WHITE:
                color[v] = GRAY
                stack.append((v, iter(edges[v])))
                path_steps.append(step)
    return None


def oracle_check_guard(expr: GValue | GScalar, arity: int, width: int | None) -> None:
    """Check a guard's shape; a ``width`` of None checks only what the arity can."""
    if isinstance(expr, GConst):
        if expr.value < 0:
            raise Pvs0Error("guard constants are naturals")
    elif isinstance(expr, GComp):
        if not 0 <= expr.arg < arity:
            raise Pvs0Error(f"argument index {expr.arg} out of range for arity {arity}")
        if expr.component < 0:
            raise Pvs0Error(f"component index {expr.component} is negative")
        if width is not None and expr.component >= width:
            raise Pvs0Error(
                f"component index {expr.component} out of range for width {width}"
            )
    elif isinstance(expr, (GAdd, GMonus)):
        oracle_check_guard(expr.left, arity, width)
        oracle_check_guard(expr.right, arity, width)
    elif isinstance(expr, GTuple):
        if width is not None and len(expr.items) != width:
            raise Pvs0Error(
                f"tuple of {len(expr.items)} components in a width-{width} program"
            )
        for item in expr.items:
            oracle_check_guard(item, arity, width)
    elif isinstance(expr, GIf):
        oracle_check_guard(expr.left, arity, width)
        oracle_check_guard(expr.right, arity, width)
        oracle_check_guard(expr.then, arity, width)
        oracle_check_guard(expr.orelse, arity, width)
    else:
        raise Pvs0Error(f"not a guard expression: {expr!r}")


def oracle_guard_eval(defn: OperatorDef, args: tuple[Value, ...]) -> Value:
    """Evaluate an operator body; total on well-formed inputs."""
    if len(args) != defn.arity:
        raise Pvs0Error(f"operator of arity {defn.arity} applied to {len(args)} values")

    def scalar(e: GScalar) -> int:
        if isinstance(e, GConst):
            return e.value
        if isinstance(e, GComp):
            value = args[e.arg]
            if e.component >= len(value):
                raise Pvs0Error(
                    f"component {e.component} out of range for value {value}"
                )
            return value[e.component]
        if isinstance(e, GAdd):
            return scalar(e.left) + scalar(e.right)
        if isinstance(e, GMonus):
            return max(scalar(e.left) - scalar(e.right), 0)
        raise Pvs0Error(f"not a scalar guard expression: {e!r}")

    def value(e: GValue) -> Value:
        if isinstance(e, GTuple):
            return tuple(scalar(item) for item in e.items)
        if isinstance(e, GIf):
            l, r = scalar(e.left), scalar(e.right)
            if e.cmp == "lt":
                taken = l < r
            elif e.cmp == "le":
                taken = l <= r
            else:
                taken = l == r
            return value(e.then if taken else e.orelse)
        raise Pvs0Error(f"not a value guard expression: {e!r}")

    return value(defn.body)


def oracle_evaluate(
    program: Pvs0Program, expr: Pvs0Expr, value: Value, fuel: int
) -> tuple[Value | None, int]:
    """``chi_eval``'s result, with the lowest fuel any ``rec`` ran the body at
    (``fuel`` itself when no ``rec`` ran)."""
    if len(value) != program.width:
        raise Pvs0Error(f"input {value} does not fit width {program.width}")
    o1, o2, body, false_val = program.o1, program.o2, program.body, program.false_val
    lowest = fuel

    def ev(expr: Pvs0Expr, value: Value, fuel: int) -> Value | None:
        nonlocal lowest
        if fuel <= 0:
            return None
        match expr:
            case Cnst(v):
                return v
            case Vr():
                return value
            case Op1(index, arg):
                if not 0 <= index < len(o1):
                    return None
                v1 = ev(arg, value, fuel)
                return None if v1 is None else oracle_guard_eval(o1[index], (v1,))
            case Op2(index, left, right):
                if not 0 <= index < len(o2):
                    return None
                v1 = ev(left, value, fuel)
                if v1 is None:
                    return None
                v2 = ev(right, value, fuel)
                if v2 is None:
                    return None
                return oracle_guard_eval(o2[index], (v1, v2))
            case Rec(arg):
                v1 = ev(arg, value, fuel)
                if v1 is None:
                    return None
                fuel -= 1
                if fuel < lowest:
                    lowest = fuel
                return ev(body, v1, fuel)
            case Ite(cond, then, orelse):
                vc = ev(cond, value, fuel)
                if vc is None:
                    return None
                return ev(then if vc != false_val else orelse, value, fuel)
        raise Pvs0Error(f"not a program expression: {expr!r}")

    return ev(expr, value, fuel), lowest


def oracle_calling_contexts(program: Pvs0Program) -> list[CallingContext]:
    """All calling contexts of the body, in depth-first pre-order.

    A ``rec`` nested in another call's actual parameter yields its own
    context, after the enclosing one.  Guards are collected only when the
    path passes through a branch of a conditional, not through its test.
    """
    out: list[CallingContext] = []

    def walk(
        expr: Pvs0Expr,
        path: tuple[int, ...],
        guards: tuple[tuple[Pvs0Expr, bool], ...],
    ) -> None:
        match expr:
            case Op1(_, arg):
                walk(arg, path + (1,), guards)
            case Op2(_, left, right):
                walk(left, path + (1,), guards)
                walk(right, path + (2,), guards)
            case Rec(arg):
                out.append(CallingContext(path, guards, arg))
                walk(arg, path + (1,), guards)
            case Ite(cond, then, orelse):
                walk(cond, path + (1,), guards)
                walk(then, path + (2,), guards + ((cond, True),))
                walk(orelse, path + (3,), guards + ((cond, False),))
            case _:
                pass

    walk(program.body, (), ())
    return out


def oracle_minimal_fuel(
    program: Pvs0Program, expr: Pvs0Expr, value: Value, max_fuel: int
) -> int | None:
    """Least fuel <= max_fuel making ``expr`` defined on ``value``, or None.

    Exponential probing followed by binary search; valid because defined
    results are monotone in fuel.
    """
    if max_fuel < 1:
        return None
    prev_failed = 0
    n = 1
    while True:
        if chi_eval(program, expr, value, n) is not None:
            lo, hi = prev_failed + 1, n
            while lo < hi:
                mid = (lo + hi) // 2
                if chi_eval(program, expr, value, mid) is not None:
                    hi = mid
                else:
                    lo = mid + 1
            return lo
        if n >= max_fuel:
            return None
        prev_failed = n
        n = min(n * 2, max_fuel)


def oracle_unary_encoder(
    trs: TRS,
    root: str | None = None,
    succ: str = "s",
    zero: str = "0",
) -> Callable[[Value], Term]:
    """``unary_encoder`` as it was: every call builds ``succ^k(zero)`` node by
    node, for every component, so no two encodings share a numeral."""
    if root is None:
        defined = sorted(defined_symbols(trs), key=lambda s: s.name)
        if len(defined) != 1:
            raise ValueError(
                "TRS has several defined symbols; name the encoding root explicitly"
            )
        root_sym = defined[0]
    else:
        maybe = trs.signature.get(root)
        if maybe is None:
            raise ValueError(f"no symbol {_SHOW.repr(root)} in the signature")
        root_sym = maybe
    succ_sym = trs.signature.get(succ)
    zero_sym = trs.signature.get(zero)
    if succ_sym is None or succ_sym.arity != 1:
        raise ValueError(f"need a unary symbol {_SHOW.repr(succ)} in the signature")
    if zero_sym is None or zero_sym.arity != 0:
        raise ValueError(f"need a constant {_SHOW.repr(zero)} in the signature")

    def nat(n: int) -> Term:
        t: Term = App(zero_sym, ())
        for _ in range(n):
            t = App(succ_sym, (t,))
        return t

    def encode(value: Value) -> Term:
        if len(value) != root_sym.arity:
            raise Pvs0Error(
                f"value width {len(value)} does not match arity of {_SHOW.repr(root_sym)}"
            )
        return App(root_sym, tuple(nat(c) for c in value))

    return encode


def oracle_check_cc_dp_correspondence(
    program: Pvs0Program,
    trs: TRS,
    encode: Callable[[Value], Term],
    pairs: list[tuple[int, DepPairAlt]],
    samples: list[Value],
    fuel: int = DEFAULT_FUEL,
) -> dict:
    """``check_cc_dp_correspondence`` as it was: each sample is matched with the
    interpreting ``substitution.match`` against the standard pair's lhs."""
    contexts = calling_contexts(program)
    report_pairs: list[dict] = []
    overall = True
    for ctx_index, dp in pairs:
        if not 0 <= ctx_index < len(contexts):
            raise Pvs0Error(
                f"no calling context {_SHOW.repr(ctx_index)}; program has {len(contexts)}"
            )
        pair = to_standard(trs, dp)
        ctx = contexts[ctx_index]
        sample_rows: list[dict] = []
        pair_ok = True
        for v in samples:
            cond = _condition_holds(program, ctx, v, fuel)
            sigma = match(pair.lhs, encode(v))
            matched = sigma is not None
            iff_ok = (cond is True) == matched
            row: dict = {
                "value": list(v),
                "condition": cond,
                "match": matched,
                "iff": iff_ok,
            }
            next_agrees: bool | None = None
            if matched and cond is True:
                actual_value = chi_eval(program, ctx.actual, v, fuel)
                if actual_value is not None:
                    assert sigma is not None
                    next_agrees = encode(actual_value) == sigma.apply(pair.rhs_sub)
                    pair_ok = pair_ok and next_agrees
            row["next_call"] = next_agrees
            pair_ok = pair_ok and iff_ok
            sample_rows.append(row)
        report_pairs.append(
            {
                "context": ctx_index,
                "pair": {"rule": dp.rule_index, "position": format_position(dp.position)},
                "samples": sample_rows,
                "passed": pair_ok,
            }
        )
        overall = overall and pair_ok
    return {"pairs": report_pairs, "passed": overall}


def oracle_term_pos_dps_alt(
    trs: TRS, witness: ChainWitness, i: int
) -> tuple[Term, Position]:
    """The i-th term of the derivation a chain witness denotes.

    Entry 0 contributes its instantiated rhs; each later entry is plugged in
    at the accumulated position, which extends by that entry's pair position.
    The returned position always addresses a subterm of the returned term.
    """
    if not 0 <= i < len(witness.entries):
        raise IndexError(f"witness has {len(witness.entries)} entries, asked for {i}")
    validate_witness(trs, witness)
    dp0, sigma0 = witness.entries[0]
    term = sigma0.apply(trs.rules[dp0.rule_index].rhs)
    acc = dp0.position
    for j in range(1, i + 1):
        dpj, sigmaj = witness.entries[j]
        term = oracle_replace_at(term, acc, sigmaj.apply(trs.rules[dpj.rule_index].rhs))
        acc = acc + dpj.position
    return term, acc


def oracle_check_chained(
    trs: TRS,
    dp1: DepPairAlt,
    sigma1: Substitution,
    dp2: DepPairAlt,
    sigma2: Substitution,
    innermost: bool,
    fuel: int = DEFAULT_FUEL,
) -> LinkVerdict:
    """Is (dp1, sigma1) followed by (dp2, sigma2) a chain link?

    The instantiated rhs subterm of dp1 must rewrite below the root to the
    instantiated lhs of dp2.  In innermost mode both instantiated lhs's must
    additionally be nr-normal (checked first; violation is reported as
    precondition-failed, not as not-found).
    """
    pair1, pair2 = to_standard(trs, dp1), to_standard(trs, dp2)
    if innermost:
        for which, pair, sigma in (("first", pair1, sigma1), ("second", pair2, sigma2)):
            if not is_nr_normal_form(trs, sigma.apply(pair.lhs)):
                reason = f"{which}-lhs-instance-not-nr-normal"
                return LinkVerdict(PRECONDITION_FAILED, reason=reason)
    source = sigma1.apply(pair1.rhs_sub)
    target = sigma2.apply(pair2.lhs)
    mode = RelationMode.NON_ROOT_INNERMOST if innermost else RelationMode.NON_ROOT
    trace = derives(trs, source, target, mode, fuel)
    if trace is None:
        return LinkVerdict(NOT_FOUND)
    return LinkVerdict(VERIFIED, trace=trace)


def oracle_verify_chain_prefix(
    trs: TRS, witness: ChainWitness, innermost: bool, fuel: int = DEFAULT_FUEL
) -> ChainVerdict:
    """Check every consecutive link; empty and singleton witnesses are vacuously verified."""
    validate_witness(trs, witness)
    traces: list[DerivationTrace] = []
    entries = witness.entries
    for i, ((dp1, sigma1), (dp2, sigma2)) in enumerate(zip(entries, entries[1:])):
        verdict = oracle_check_chained(trs, dp1, sigma1, dp2, sigma2, innermost, fuel)
        if verdict.status != VERIFIED:
            return ChainVerdict(
                verdict.status, tuple(traces), failed_index=i, reason=verdict.reason
            )
        assert verdict.trace is not None
        traces.append(verdict.trace)
    return ChainVerdict(VERIFIED, tuple(traces))


def oracle_find_mint_subterm(
    trs: TRS, term: Term, fuel: int = DEFAULT_FUEL
) -> tuple[Position, LoopCertificate] | None:
    """Deepest-leftmost subterm carrying a loop certificate, with its position.

    Arguments are searched before the term itself, so no proper subterm of
    the reported one carries a certificate within the same fuel.
    """
    if isinstance(term, App):
        for i, arg in enumerate(term.args, start=1):
            found = oracle_find_mint_subterm(trs, arg, fuel)
            if found is not None:
                pos, cert = found
                return (i,) + pos, cert
    cert = detect_innermost_loop(trs, term, fuel)
    if cert is not None:
        return (), cert
    return None


def _oracle_pair_below(trs: TRS, term: Term, fuel: int) -> tuple[DepPairAlt, Substitution]:
    """Normalize ``term`` below the root, then take the pair its root step starts."""
    try:
        t = normalize(trs, term, RelationMode.NON_ROOT_INNERMOST, fuel).end
    except FuelExhausted:
        raise ConstructionFailure("fuel-exhausted-normalizing") from None
    return dp_and_sub_from_nrnf(trs, t, fuel)[:2]


def oracle_next_dp_and_sub(
    trs: TRS,
    dp: DepPairAlt,
    sigma: Substitution,
    fuel: int = DEFAULT_FUEL,
) -> tuple[DepPairAlt, Substitution]:
    """The entry following (dp, sigma) in a chain being grown from a loop.

    Checks the preconditions within fuel (the instantiated rhs subterm
    carries a certificate, the instantiated lhs is nr-normal), normalizes
    the subterm below the root, extracts the next pair, and only returns it
    after the link has been verified chained.
    """
    pair = to_standard(trs, dp)
    if not is_nr_normal_form(trs, sigma.apply(pair.lhs)):
        raise ConstructionFailure("lhs-instance-not-nr-normal")
    u = sigma.apply(pair.rhs_sub)
    if detect_innermost_loop(trs, u, fuel) is None:
        raise ConstructionFailure("no-loop-certificate")
    dp2, sigma2 = _oracle_pair_below(trs, u, fuel)
    verdict = oracle_check_chained(trs, dp, sigma, dp2, sigma2, innermost=True, fuel=fuel)
    if verdict.status != VERIFIED:
        raise ConstructionFailure(f"link-not-chained:{verdict.status}")
    return dp2, sigma2


def oracle_chain_from_loop(
    trs: TRS, cert: LoopCertificate, k: int, fuel: int = DEFAULT_FUEL
) -> ChainWitness:
    """Extract a verified innermost chain witness of length ``k`` from a cycle.

    Entry 0 comes from the certified term's minimal looping subterm; later
    entries are produced by iterating next_dp_and_sub.  The result is
    re-checked with verify_chain_prefix before being returned.
    """
    if k < 1:
        raise ValueError("chain length must be at least 1")
    if not check_certificate(trs, cert):
        raise PreconditionFailed("loop-certificate-does-not-replay")
    found = find_mint_subterm(trs, cert.trace.start, fuel)
    if found is None:
        raise ConstructionFailure("no-mint-within-fuel")
    pos, _ = found
    entries = [_oracle_pair_below(trs, subterm_at(cert.trace.start, pos), fuel)]
    for _ in range(k - 1):
        entries.append(oracle_next_dp_and_sub(trs, entries[-1][0], entries[-1][1], fuel))
    witness = ChainWitness(tuple(entries))
    verdict = oracle_verify_chain_prefix(trs, witness, innermost=True, fuel=fuel)
    if verdict.status != VERIFIED:
        raise ConstructionFailure(
            f"chain-verification-failed-at-link-{verdict.failed_index}"
        )
    return witness


def oracle_apply(sigma: Substitution, term: Term) -> Term:
    if isinstance(term, Var):
        return sigma.get(term)
    return App(term.sym, tuple(oracle_apply(sigma, a) for a in term.args))


# --- the tokenizer the reader oracles stand on ----------------------------

_PUNCT = {"(": "lparen", ")": "rparen", ",": "comma"}


class _Token(NamedTuple):
    kind: str  # lparen rparen comma arrow ident eof
    text: str
    line: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c.isspace():
            i += 1
        elif c in _PUNCT:
            tokens.append(_Token(_PUNCT[c], c, line))
            i += 1
        elif c == "-" and text.startswith("->", i):
            tokens.append(_Token("arrow", "->", line))
            i += 2
        elif c.isalnum() or c in "_'":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line))
            i = j
        else:
            raise ParseError(f"unexpected character {_SHOW.repr(c)}", line)
    tokens.append(_Token("eof", "", line))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self.pos = 0

    @property
    def head(self) -> _Token:
        return self._tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.head
        if tok.kind != kind:
            found = _SHOW.repr(tok.text or "end of input")
            raise ParseError(f"expected {kind}, found {found}", tok.line)
        self.pos += 1
        return tok



@dataclass(frozen=True)
class _RawTerm:
    name: str
    children: tuple["_RawTerm", ...]
    line: int


def _parse_raw_term(ts: _TokenStream) -> _RawTerm:
    name = ts.take("ident")
    if ts.head.kind != "lparen":
        return _RawTerm(name.text, (), name.line)
    ts.take("lparen")
    children = [_parse_raw_term(ts)]
    while ts.head.kind == "comma":
        ts.take("comma")
        children.append(_parse_raw_term(ts))
    ts.take("rparen")
    return _RawTerm(name.text, tuple(children), name.line)


def _resolve(
    raw: _RawTerm, symbol: Callable[[_RawTerm], Symbol], variables: frozenset[Var]
) -> Term:
    """Build the term in one pre-order walk; ``symbol`` names each application's root."""
    if Var(raw.name) in variables:
        if raw.children:
            raise ParseError(f"variable {raw.name!r} used with arguments", raw.line)
        return Var(raw.name)
    sym = symbol(raw)
    return App(sym, tuple(_resolve(c, symbol, variables) for c in raw.children))


@_depth_is_bad_input
def oracle_parse_term(text: str, trs: TRS) -> Term:
    """Parse a term against the TRS's signature and declared variables."""
    ts = _TokenStream(_tokenize(text))
    raw = _parse_raw_term(ts)
    ts.take("eof")

    def declared(node: _RawTerm) -> Symbol:
        sym = trs.signature.get(node.name)
        if sym is None:
            raise ParseError(f"unknown identifier {node.name!r}", node.line)
        if sym.arity != len(node.children):
            raise ParseError(
                f"symbol {node.name!r} has arity {sym.arity}, applied to {len(node.children)}",
                node.line,
            )
        return sym

    return _resolve(raw, declared, trs.variables)


@_depth_is_bad_input
def oracle_parse_trs(text: str) -> TRS:
    """Parse a ``(VAR ...)`` / ``(RULES ...)`` system.

    The signature is inferred: every applied identifier gets the arity of
    its use, bare non-variable identifiers become constants, and
    inconsistent arities, variables used with arguments, or unknown
    sections are reported with their line.
    """
    ts = _TokenStream(_tokenize(text))
    var_names: dict[str, int] | None = None
    raw_rules: list[tuple[_RawTerm, _RawTerm, int]] | None = None
    while ts.head.kind != "eof":
        ts.take("lparen")
        section = ts.take("ident")
        if section.text == "VAR":
            if var_names is not None:
                raise ParseError("duplicate (VAR ...) section", section.line)
            var_names = {}
            while ts.head.kind == "ident":
                tok = ts.take("ident")
                var_names.setdefault(tok.text, tok.line)
            ts.take("rparen")
        elif section.text == "RULES":
            if raw_rules is not None:
                raise ParseError("duplicate (RULES ...) section", section.line)
            raw_rules = []
            while ts.head.kind != "rparen":
                lhs = _parse_raw_term(ts)
                ts.take("arrow")
                rhs = _parse_raw_term(ts)
                raw_rules.append((lhs, rhs, lhs.line))
            ts.take("rparen")
        else:
            raise ParseError(f"unknown section {section.text!r}", section.line)
    if raw_rules is None:
        raise ParseError("missing (RULES ...) section")
    variables = frozenset(Var(n) for n in var_names or {})

    inferred: dict[str, tuple[Symbol, int]] = {}  # name -> (symbol, first line)

    def infer(node: _RawTerm) -> Symbol:
        seen = inferred.get(node.name)
        if seen is None:
            seen = inferred[node.name] = (Symbol(node.name, len(node.children)), node.line)
        elif seen[0].arity != len(node.children):
            raise ParseError(
                f"symbol {node.name!r} used with arity {len(node.children)} "
                f"but with arity {seen[0].arity} on line {seen[1]}",
                node.line,
            )
        return seen[0]

    sides = [
        (_resolve(lhs, infer, variables), _resolve(rhs, infer, variables), line)
        for lhs, rhs, line in raw_rules
    ]
    rules = []
    for index, (lhs, rhs, line) in enumerate(sides):
        try:
            rules.append(Rule(lhs, rhs, index))
        except RuleRestrictionError as err:
            raise RuleRestrictionError(f"line {line}: {err}") from None
    signature = Signature(tuple(sym for sym, _ in inferred.values()))
    return TRS(signature, variables, tuple(rules))


_ORACLE_SORT = dict.fromkeys(GScalar.__args__, "scalar") | dict.fromkeys(GValue.__args__, "value")


def oracle_compile_guard(arity: int, body: GValue) -> tuple[Callable, frozenset[int], int]:
    """The operator's closure, tuple widths and components read, or a Pvs0Error."""
    widths, reads = set(), 0

    def build(node: GValue | GScalar, want: str) -> Callable:
        nonlocal reads
        cls = node.__class__
        if _ORACLE_SORT.get(cls) != want:
            raise Pvs0Error(f"not a {want} guard expression: {node!r}")
        if cls is GConst:
            k = node.value
            if k < 0:
                raise Pvs0Error("guard constants are naturals")
            return lambda args: k
        if cls is GComp:
            a, c = node.arg, node.component
            if not 0 <= a < arity:
                raise Pvs0Error(f"argument index {a} out of range for arity {arity}")
            if c < 0:
                raise Pvs0Error(f"component index {c} is negative")
            reads = max(reads, c + 1)
            return lambda args: args[a][c]
        if cls is GTuple:
            items = [build(item, "scalar") for item in node.items]
            widths.add(len(items))
            return lambda args: tuple([f(args) for f in items])
        left, right = build(node.left, "scalar"), build(node.right, "scalar")
        if cls is GAdd:
            return lambda args: left(args) + right(args)
        if cls is GMonus:
            return lambda args: max(left(args) - right(args), 0)
        test = _COMPARE[node.cmp]
        then, orelse = build(node.then, "value"), build(node.orelse, "value")
        return lambda args: then(args) if test(left(args), right(args)) else orelse(args)

    run = build(body, "value")
    return run, frozenset(widths), reads


def oracle_node(data: Any, what: str) -> list:
    if not isinstance(data, list) or not data or not isinstance(data[0], str):
        raise ParseError(f"malformed {what} node: {data!r}")
    return data


def oracle_parse_gscalar(data: Any) -> GScalar:
    node = oracle_node(data, "guard scalar")
    tag, *rest = node
    if tag == "const" and len(rest) == 1 and _is_int(rest[0]):
        return GConst(rest[0])
    if tag == "comp" and len(rest) == 2 and all(_is_int(x) for x in rest):
        return GComp(rest[0], rest[1])
    if tag == "add" and len(rest) == 2:
        return GAdd(oracle_parse_gscalar(rest[0]), oracle_parse_gscalar(rest[1]))
    if tag == "monus" and len(rest) == 2:
        return GMonus(oracle_parse_gscalar(rest[0]), oracle_parse_gscalar(rest[1]))
    raise ParseError(f"malformed guard scalar node: {data!r}")


def oracle_parse_gvalue(data: Any, false_val: tuple, top_val: tuple) -> GValue:
    node = oracle_node(data, "guard value")
    tag, *rest = node
    if tag == "tuple":
        return GTuple(tuple(oracle_parse_gscalar(item) for item in rest))
    if tag == "bottom" and not rest:
        return GTuple(tuple(GConst(c) for c in false_val))
    if tag == "top" and not rest:
        return GTuple(tuple(GConst(c) for c in top_val))
    if tag == "if" and len(rest) == 3:
        cmp_node = oracle_node(rest[0], "comparison")
        if len(cmp_node) != 3:
            raise ParseError(f"malformed comparison node: {rest[0]!r}")
        return GIf(
            cmp_node[0],
            oracle_parse_gscalar(cmp_node[1]),
            oracle_parse_gscalar(cmp_node[2]),
            oracle_parse_gvalue(rest[1], false_val, top_val),
            oracle_parse_gvalue(rest[2], false_val, top_val),
        )
    raise ParseError(f"malformed guard value node: {data!r}")


def oracle_parse_pexpr(data: Any) -> Pvs0Expr:
    node = oracle_node(data, "expression")
    tag, *rest = node
    if tag == "cnst" and len(rest) == 1 and isinstance(rest[0], list):
        if not all(_is_int(c) and c >= 0 for c in rest[0]):
            raise ParseError(f"constant must be a list of naturals: {rest[0]!r}")
        return Cnst(tuple(rest[0]))
    if tag == "vr" and not rest:
        return Vr()
    if tag == "op1" and len(rest) == 2 and _is_int(rest[0]):
        return Op1(rest[0], oracle_parse_pexpr(rest[1]))
    if tag == "op2" and len(rest) == 3 and _is_int(rest[0]):
        return Op2(rest[0], oracle_parse_pexpr(rest[1]), oracle_parse_pexpr(rest[2]))
    if tag == "rec" and len(rest) == 1:
        return Rec(oracle_parse_pexpr(rest[0]))
    if tag == "ite" and len(rest) == 3:
        return Ite(*(oracle_parse_pexpr(r) for r in rest))
    raise ParseError(f"malformed expression node: {data!r}")


@_depth_is_bad_input
def oracle_parse_pvs0_program(text: str) -> Pvs0Program:
    """Parse a program file.  Shape errors raise ParseError; width and
    guard-bound violations surface as the evaluator's own error type."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"malformed program JSON: {err}") from None
    if not isinstance(data, dict):
        raise ParseError("program must be a JSON object")
    try:
        width = _int_field(data, "width")
        false_val = tuple(data["false_val"])
        top_val = tuple(data["top_val"])
        raw_o1 = data.get("o1", [])
        raw_o2 = data.get("o2", [])
        raw_body = data["body"]
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"malformed program: {err}") from None
    for name, value in (("false_val", false_val), ("top_val", top_val)):
        if not all(_is_int(c) and c >= 0 for c in value):
            raise ParseError(f"{name} must be a list of naturals: {value!r}")
    for name, bank in (("o1", raw_o1), ("o2", raw_o2)):
        if not isinstance(bank, list):
            raise ParseError(f"malformed program: {name} must be a list, got {bank!r}")
    o1 = tuple(
        OperatorDef(1, oracle_parse_gvalue(raw, false_val, top_val)) for raw in raw_o1
    )
    o2 = tuple(
        OperatorDef(2, oracle_parse_gvalue(raw, false_val, top_val)) for raw in raw_o2
    )
    return Pvs0Program(width, false_val, top_val, o1, o2, oracle_parse_pexpr(raw_body))


def oracle_gscalar_to_json(e: GScalar) -> list:
    if isinstance(e, GConst):
        return ["const", e.value]
    if isinstance(e, GComp):
        return ["comp", e.arg, e.component]
    if isinstance(e, GAdd):
        return ["add", oracle_gscalar_to_json(e.left), oracle_gscalar_to_json(e.right)]
    return ["monus", oracle_gscalar_to_json(e.left), oracle_gscalar_to_json(e.right)]


def oracle_gvalue_to_json(e: GValue) -> list:
    if isinstance(e, GTuple):
        return ["tuple", *(oracle_gscalar_to_json(item) for item in e.items)]
    return [
        "if",
        [e.cmp, oracle_gscalar_to_json(e.left), oracle_gscalar_to_json(e.right)],
        oracle_gvalue_to_json(e.then),
        oracle_gvalue_to_json(e.orelse),
    ]


def oracle_pvs0_expr_to_json(e: Pvs0Expr) -> list:
    match e:
        case Cnst(value):
            return ["cnst", list(value)]
        case Vr():
            return ["vr"]
        case Op1(index, arg):
            return ["op1", index, oracle_pvs0_expr_to_json(arg)]
        case Op2(index, left, right):
            return ["op2", index, oracle_pvs0_expr_to_json(left), oracle_pvs0_expr_to_json(right)]
        case Rec(arg):
            return ["rec", oracle_pvs0_expr_to_json(arg)]
        case Ite(cond, then, orelse):
            return [
                "ite",
                oracle_pvs0_expr_to_json(cond),
                oracle_pvs0_expr_to_json(then),
                oracle_pvs0_expr_to_json(orelse),
            ]
    raise ValueError(f"not a program expression: {e!r}")


def oracle_pvs0_expr_to_str(e: Pvs0Expr) -> str:
    match e:
        case Cnst(value):
            return "(" + ",".join(str(c) for c in value) + ")"
        case Vr():
            return "vr"
        case Op1(index, arg):
            return f"op1({index}, {oracle_pvs0_expr_to_str(arg)})"
        case Op2(index, left, right):
            return f"op2({index}, {oracle_pvs0_expr_to_str(left)}, {oracle_pvs0_expr_to_str(right)})"
        case Rec(arg):
            return f"rec({oracle_pvs0_expr_to_str(arg)})"
        case Ite(cond, then, orelse):
            return (
                f"ite({oracle_pvs0_expr_to_str(cond)}, {oracle_pvs0_expr_to_str(then)}, "
                f"{oracle_pvs0_expr_to_str(orelse)})"
            )
    raise ValueError(f"not a program expression: {e!r}")


def oracle_program_to_json(program: Pvs0Program) -> dict:
    return {
        "width": program.width,
        "false_val": list(program.false_val),
        "top_val": list(program.top_val),
        "o1": [oracle_gvalue_to_json(d.body) for d in program.o1],
        "o2": [oracle_gvalue_to_json(d.body) for d in program.o2],
        "body": oracle_pvs0_expr_to_json(program.body),
    }


def oracle_node_repr(node: Any) -> str:
    """The dataclass-generated ``repr`` of a PVS0 node: each field's ``repr`` in
    turn, recursing once per level (a GTuple's items print as a tuple)."""
    if isinstance(node, tuple):
        items = ", ".join(oracle_node_repr(item) for item in node)
        return f"({items},)" if len(node) == 1 else f"({items})"
    if not isinstance(node, _Node):
        return repr(node)
    parts = ", ".join(f"{f.name}={oracle_node_repr(getattr(node, f.name))}" for f in fields(node))
    return f"{node.__class__.__qualname__}({parts})"
