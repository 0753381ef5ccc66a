"""Hand-built systems, term builders and test oracles shared across the test modules."""

import random
from collections import deque
from typing import Iterator

from hypothesis import strategies as st

from rdp import (
    App,
    ChainWitness,
    Cnst,
    ConstructionFailure,
    DepPairAlt,
    GAdd,
    GComp,
    GConst,
    GIf,
    GMonus,
    GTuple,
    Ite,
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
    check_chained,
    chi_eval,
    guard_eval,
    detect_innermost_loop,
    dp_and_sub_from_nrnf,
    find_mint_subterm,
    is_nr_normal_form,
    normalize,
    to_standard,
    trs_of,
    validate_witness,
    verify_chain_prefix,
)
from rdp.dependency_pairs import VERIFIED
from rdp.pvs0 import CallingContext, Pvs0Error, Pvs0Expr, Value
from rdp.rewriting import (
    DEFAULT_FUEL,
    TRS,
    DerivationTrace,
    FuelExhausted,
    RelationMode,
    Step,
    _may_fire,
)
from rdp.substitution import match
from rdp.terms import (
    InvalidPositionError,
    Position,
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
# PVS0 evaluator, least-fuel search and calling contexts, of the minimal
# looping subterm and of chain growth, kept verbatim (renamed ``oracle_*``)
# as the obviously correct reference for the differential tests.  They
# rescan the term for every position and try every rule everywhere; step
# replay re-derives the step from the rule the step names; the evaluator,
# the contexts and the looping-subterm search recurse once per construct or
# argument; the fuel search probes fuels 1, 2, 4, ... and then bisects;
# chain growth searches each entry's loop again and re-checks every link at
# the end.


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
            result = oracle_replace_at(term, pos, sigma.apply(rule.rhs))
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
            result = oracle_replace_at(term, pos, sigma.apply(rule.rhs))
            return Step(pos, rule.index, sigma, result)
    return None


def oracle_is_normal_form(trs: TRS, term: Term, mode: RelationMode) -> bool:
    return next(oracle_iter_successors(trs, term, mode), None) is None


def oracle_check_step(trs: TRS, source: Term, step: Step, mode: RelationMode) -> bool:
    """Replay one step: position, rule, substitution, side condition, result."""
    try:
        frames, sub = _split_at(source, step.position)
    except InvalidPositionError:
        return False
    if not 0 <= step.rule_index < len(trs.rules):
        return False
    if not _may_fire(mode, not step.position, lambda: not is_nr_normal_form(trs, sub)):
        return False
    rule = trs.rules[step.rule_index]
    if step.substitution.apply(rule.lhs) != sub:
        return False
    return _plug(frames, step.substitution.apply(rule.rhs)) == step.result


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


def oracle_detect_innermost_loop(
    trs: TRS, term: Term, fuel: int = DEFAULT_FUEL
) -> LoopCertificate | None:
    """Search for an exact innermost cycle reachable from ``term``.

    Explores at most ``fuel`` distinct terms breadth-first, then looks for a
    cycle among them by depth-first search.  Sound but incomplete: None only
    means no cycle was found within fuel, and in particular nonterminating
    systems whose terms grow forever are never caught.
    """
    edges: dict[Term, list[Step]] = {}
    admitted: set[Term] = {term}
    queue: deque[Term] = deque([term])
    while queue:
        u = queue.popleft()
        edges[u] = oracle_successors(trs, u, RelationMode.INNERMOST)
        for step in edges[u]:
            v = step.result
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
            step = next(it, None)  # type: ignore[call-overload]
            if step is None:
                color[node] = BLACK
                stack.pop()
                if path_steps:
                    path_steps.pop()
                continue
            v = step.result
            if v not in edges:
                continue
            if color[v] == GRAY:
                cycle_from = next(i for i, (n, _) in enumerate(stack) if n == v)
                steps = tuple(path_steps[cycle_from:]) + (step,)
                return LoopCertificate(
                    DerivationTrace(v, steps, RelationMode.INNERMOST)
                )
            if color[v] == WHITE:
                color[v] = GRAY
                stack.append((v, iter(edges[v])))
                path_steps.append(step)
    return None


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
                return None if v1 is None else guard_eval(o1[index], (v1,))
            case Op2(index, left, right):
                if not 0 <= index < len(o2):
                    return None
                v1 = ev(left, value, fuel)
                if v1 is None:
                    return None
                v2 = ev(right, value, fuel)
                if v2 is None:
                    return None
                return guard_eval(o2[index], (v1, v2))
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
    verdict = check_chained(trs, dp, sigma, dp2, sigma2, innermost=True, fuel=fuel)
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
    verdict = verify_chain_prefix(trs, witness, innermost=True, fuel=fuel)
    if verdict.status != VERIFIED:
        raise ConstructionFailure(
            f"chain-verification-failed-at-link-{verdict.failed_index}"
        )
    return witness
