"""A first-order functional mini-language with fuel-indexed evaluation.

A program is a single recursive definition: a body expression over one
input variable, two banks of built-in operators (unary and binary), and
designated false/top values.  Values are fixed-width tuples of naturals.

Evaluation is total by construction: ``chi_eval`` takes a fuel argument,
answers None (undefined) when the fuel cannot cover the recursion, and is
deterministic and monotone in the fuel.  ``rec`` is the only construct
that consumes fuel, so the least fuel that makes an evaluation defined is
one more than its deepest ``rec`` nesting: ``terminates_on`` and
``epsilon_check`` read it off a single evaluation at their maximum fuel.
The evaluator is one loop over an explicit stack that holds the
constructs still waiting for an operand's value (an ``ite`` branch
replaces its construct) and a marker under each body run, so it does not
recurse in Python: its depth is bounded by the fuel and by memory, on any
thread.  Determinism and
monotonicity also make the body's answer on an input one result and one
least fuel, whatever fuel it runs at, so each evaluation tables them and
runs the body once per distinct input: Ackermann (3,7) takes 8,189
operator calls, not 2,081,891.  The price is memory linear in the fuel
even for a tail-recursive body, whose calls each keep a table entry and
a stack entry.

Operator bodies live in a separate guard language (component accessors,
natural constants, addition, truncated subtraction, comparisons,
tuple construction) that always terminates and cannot recurse.  Each
operator is checked, sorts included, and compiled once, when it is built.
Trees of both languages are folded, checked, compared, hashed and printed
on the walk of ``terms``, from one table of each class's subtrees, so any
depth works; only evaluating a guard calls one closure per nesting level.

The correspondence check encodes values as unary terms whose numerals each
encoder builds once and shares, and matches every encoded sample with the
dependency pair's rule's compiled matcher (``Rule._match``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter, eq, le, lt
from typing import Callable, Union

from .dependency_pairs import DepPairAlt, to_standard
from .rewriting import DEFAULT_FUEL, TRS, defined_symbols
from .terms import _SHOW, App, Term, _walk, format_position

Value = tuple[int, ...]
_COMPARE = {"lt": lt, "le": le, "eq": eq}


class Pvs0Error(ValueError):
    """Width, arity, or bound violation in a program or evaluation."""


# --- program expressions ---------------------------------------------------


class _Node:
    """The base of the node classes of both languages.  Equality and hash read
    the whole tree's pre-order key off the walk, and ``repr`` writes the
    dataclass format front to back over it, so all three work at any depth and
    mean what the dataclass-generated methods mean."""

    def _key(self) -> tuple:
        return tuple(
            (cls, len(_kids(node)), *[getattr(node, name) for name in _LEAVES[cls]])
            if (cls := node.__class__) in _LEAVES
            else node  # not a node: compared as a value
            for node, _ in _walk(self, _kids)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        out: list[str] = []
        ends: list[str] = []  # what closes each node the walk is inside, innermost last
        for node, path in _walk(self, _kids):
            while len(ends) > len(path):
                out.append(ends.pop())
            if path:
                parent, i = path[-1]
                cls = parent.__class__
                if cls is not GTuple:
                    sep = ", " if i > 1 or _LEAVES[cls] else ""
                    out.append(f"{sep}{_SUBTREES[cls][i - 1][0]}=")
                elif i > 1:
                    out.append(", ")
            cls = node.__class__
            if cls not in _LEAVES:  # not a node: printed as a value
                out.append(repr(node))
                ends.append("")
            elif cls is GTuple:
                out.append("GTuple(items=(")
                ends.append(",))" if len(node.items) == 1 else "))")
            else:
                leaves = ", ".join(f"{name}={getattr(node, name)!r}" for name in _LEAVES[cls])
                out.append(f"{cls.__qualname__}({leaves}")
                ends.append(")")
        return "".join(out + ends[::-1])


@dataclass(frozen=True, eq=False, repr=False)
class Cnst(_Node):
    value: Value


@dataclass(frozen=True, eq=False, repr=False)
class Vr(_Node):
    """The input variable of the program body."""


@dataclass(frozen=True, eq=False, repr=False)
class Op1(_Node):
    index: int
    arg: "Pvs0Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Op2(_Node):
    index: int
    left: "Pvs0Expr"
    right: "Pvs0Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Rec(_Node):
    arg: "Pvs0Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Ite(_Node):
    cond: "Pvs0Expr"
    then: "Pvs0Expr"
    orelse: "Pvs0Expr"


Pvs0Expr = Union[Cnst, Vr, Op1, Op2, Rec, Ite]


# --- guard language for operator bodies ------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class GConst(_Node):
    value: int


@dataclass(frozen=True, eq=False, repr=False)
class GComp(_Node):
    """Component ``component`` (0-based) of argument ``arg`` (0-based)."""

    arg: int
    component: int


@dataclass(frozen=True, eq=False, repr=False)
class GAdd(_Node):
    left: "GScalar"
    right: "GScalar"


@dataclass(frozen=True, eq=False, repr=False)
class GMonus(_Node):
    """Truncated subtraction: clamps at 0."""

    left: "GScalar"
    right: "GScalar"


GScalar = Union[GConst, GComp, GAdd, GMonus]


@dataclass(frozen=True, eq=False, repr=False)
class GTuple(_Node):
    items: tuple[GScalar, ...]


@dataclass(frozen=True, eq=False, repr=False)
class GIf(_Node):
    """Branch on a scalar comparison; ``cmp`` is one of lt, le, eq."""

    cmp: str
    left: GScalar
    right: GScalar
    then: "GValue"
    orelse: "GValue"

    def __post_init__(self) -> None:
        if self.cmp not in _COMPARE:
            raise Pvs0Error(f"unknown comparison {_SHOW.repr(self.cmp)}")


GValue = Union[GTuple, GIf]

# Each node class's subtrees, in order: the field that holds each and the sort
# it must have.  A GTuple's one field holds a tuple of them.
_E, _S, _V = "expression", "scalar", "value"
_NOUN = {_E: "program expression", _S: "scalar guard expression", _V: "value guard expression"}
_SUBTREES: dict[type, tuple[tuple[str, str], ...]] = {
    Cnst: (), Vr: (), Op1: (("arg", _E),), Rec: (("arg", _E),),
    Op2: (("left", _E), ("right", _E)), Ite: (("cond", _E), ("then", _E), ("orelse", _E)),
    GConst: (), GComp: (), GAdd: (("left", _S), ("right", _S)),
    GMonus: (("left", _S), ("right", _S)), GTuple: (("items", _S),),
    GIf: (("left", _S), ("right", _S), ("then", _V), ("orelse", _V)),
}


def _getter(cls: type) -> Callable[[_Node], tuple]:
    names = [name for name, _ in _SUBTREES[cls]]
    get = attrgetter(*names)
    return get if len(names) > 1 or cls is GTuple else lambda node: (get(node),)


# Derived per class: its subtrees' reader (if it has any) and sorts, its other fields, its sort.
_KIDS = {cls: _getter(cls) for cls, subtrees in _SUBTREES.items() if subtrees}
_KID_SORTS = {cls: tuple(sort for _, sort in subtrees) for cls, subtrees in _SUBTREES.items()}
_LEAVES = {
    cls: tuple(f.name for f in fields(cls) if f.name not in dict(subtrees))
    for cls, subtrees in _SUBTREES.items()
}
_SORT = dict.fromkeys(Pvs0Expr.__args__, _E) | dict.fromkeys(GScalar.__args__, _S)
_SORT |= dict.fromkeys(GValue.__args__, _V)


def _kids(node: object) -> tuple:
    """A node's subtrees, in order; none for a leaf or a value that is no node."""
    get = _KIDS.get(node.__class__)
    return get(node) if get else ()


def _fold(root: object, combine: Callable, sort: str):
    """Fold a tree bottom-up over the walk: ``combine(node, values)`` gets the node's
    subtrees' values, in order, when the walk leaves it.  Each node is checked when
    the walk reaches it to have the sort its place wants, ``sort`` at the root."""
    values: list = []
    # The nodes the walk is inside, each with where its subtrees' values start.
    inside: list[tuple[object, int]] = []
    for node, path in _walk(root, _kids):
        while len(inside) > len(path):
            done, cut = inside.pop()
            values[cut:] = [combine(done, values[cut:])]
        want = sort
        if path:
            parent, i = path[-1]
            want = _S if parent.__class__ is GTuple else _KID_SORTS[parent.__class__][i - 1]
        if _SORT.get(node.__class__) != want:
            raise Pvs0Error(f"not a {_NOUN[want]}: {_SHOW.repr(node)}")
        inside.append((node, len(values)))
    for done, cut in reversed(inside):  # the walk is over: it has left every node
        values[cut:] = [combine(done, values[cut:])]
    return values[0]


@dataclass(frozen=True)
class OperatorDef:
    """An operator body, checked (sorts included) and compiled once, here.

    One fold over the body checks, in pre-order, that each node is a scalar
    or a value where one belongs, constants are naturals, argument indices
    are below the arity and component indices are not negative.  It leaves
    ``_run``, the body as a closure over the argument tuple, and two facts
    for the program's width check: ``_widths``, the tuple widths the body
    can return, and ``_reads``, one more than the largest component it reads.
    """

    arity: int
    body: GValue
    _run: Callable[[tuple[Value, ...]], Value] = field(init=False, compare=False, repr=False)
    _widths: frozenset[int] = field(init=False, compare=False, repr=False)
    _reads: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        arity, widths, reads = self.arity, set(), 0

        def build(node: GValue | GScalar, kids: list[Callable]) -> Callable:
            """The node as a closure over the arguments; each call binds its own operands."""
            nonlocal reads
            cls = node.__class__
            if cls is GConst:
                k = node.value
                if k < 0:
                    raise Pvs0Error("guard constants are naturals")
                return lambda args: k
            if cls is GComp:
                a, c = node.arg, node.component
                if not 0 <= a < arity:
                    raise Pvs0Error(f"argument index {_SHOW.repr(a)} out of range for arity {arity}")
                if c < 0:
                    raise Pvs0Error(f"component index {_SHOW.repr(c)} is negative")
                reads = max(reads, c + 1)
                return lambda args: args[a][c]
            if cls is GTuple:
                widths.add(len(kids))
                if len(kids) == 2:  # every tuple of a width-2 program: no list built
                    first, second = kids
                    return lambda args: (first(args), second(args))
                return lambda args: tuple([f(args) for f in kids])
            left, right = kids[0], kids[1]
            if cls is GAdd:
                return lambda args: left(args) + right(args)
            if cls is GMonus:
                return lambda args: max(left(args) - right(args), 0)
            test, then, orelse = _COMPARE[node.cmp], kids[2], kids[3]
            return lambda args: then(args) if test(left(args), right(args)) else orelse(args)

        run = _fold(self.body, build, _V)
        for name, fact in (("_run", run), ("_widths", frozenset(widths)), ("_reads", reads)):
            object.__setattr__(self, name, fact)

    def __reduce__(self):  # closures do not pickle: rebuild from the body
        return OperatorDef, (self.arity, self.body)


@dataclass(frozen=True)
class Pvs0Program:
    """One recursive definition over width-``width`` tuples of naturals.

    Operator indices appearing in the body are deliberately not checked
    here: an out-of-range index is defined to evaluate to undefined.
    """

    width: int
    false_val: Value
    top_val: Value
    o1: tuple[OperatorDef, ...]
    o2: tuple[OperatorDef, ...]
    body: Pvs0Expr

    def __post_init__(self) -> None:
        width = self.width
        if width < 1:
            raise Pvs0Error("width must be positive")
        for name, value in (("false_val", self.false_val), ("top_val", self.top_val)):
            if len(value) != width or any(c < 0 for c in value):
                raise Pvs0Error(f"{name} {_SHOW.repr(value)} does not fit width {width}")
        for bank, expected_arity in ((self.o1, 1), (self.o2, 2)):
            for defn in bank:
                if defn.arity != expected_arity:
                    raise Pvs0Error(f"operator arity {defn.arity}, expected {expected_arity}")
                extra = defn._widths - {width}
                if extra:
                    raise Pvs0Error(f"tuple of {min(extra)} components in a width-{width} program")
                if defn._reads > width:
                    index = _SHOW.repr(defn._reads - 1)
                    raise Pvs0Error(f"component index {index} out of range for width {width}")

        def check(node: Pvs0Expr, kids: list) -> None:
            if node.__class__ is Cnst and (len(node.value) != width or any(c < 0 for c in node.value)):
                raise Pvs0Error(f"constant {_SHOW.repr(node.value)} in a width-{width} program")

        _fold(self.body, check, _E)


# --- evaluation ------------------------------------------------------------


def guard_eval(defn: OperatorDef, args: tuple[Value, ...]) -> Value:
    """Apply an operator to ``args``; total on values of the program's width."""
    if len(args) != defn.arity:
        raise Pvs0Error(f"operator of arity {defn.arity} applied to {len(args)} values")
    try:
        return defn._run(args)
    except IndexError:  # a component past the end of a value too short
        shown = _SHOW.repr(args)
        raise Pvs0Error(f"operator reading {defn._reads} components applied to {shown}") from None


class _Tabled:
    """The stack entry under a ``rec`` body's run, as ``(_TABLED, input, body
    fuel, saved floor)``: it writes the body's table entry when the body returns."""


_TABLED = _Tabled()
_RUNNING = (None, float("inf"))  # the table entry of an input whose body is still running


def _evaluate(
    program: Pvs0Program, expr: Pvs0Expr, value: Value, fuel: int
) -> tuple[Value | None, int]:
    """``chi_eval``'s result, with the lowest fuel any ``rec`` ran the body at
    (``fuel`` itself when no ``rec`` ran).

    The body runs once per distinct input.  The semantics is deterministic and
    monotone in the fuel: fuel only decides whether a run stops for want of it,
    never which way it goes.  So a body that returned has one result and one
    least fuel ``n`` for its input: one more than how far below its own fuel its
    ``rec``s went.  A table maps each input to ``(result, n)``; a ``rec`` that
    finds its input there at body fuel ``f`` hands the result up and has reached
    fuel ``f - n + 1``, or, when ``n > f``, ends the evaluation undefined at
    fuel 0, where the body's own run would have ended.  An input met again while
    its body is still running ends it the same way: the body would repeat that
    path, one level lower each time, until the fuel ran out.  The table and the
    stack cost memory linear in the distinct inputs and in the fuel.
    """
    if len(value) != program.width:
        raise Pvs0Error(f"input {_SHOW.repr(value)} does not fit width {program.width}")
    o1, o2, body, false_val = program.o1, program.o2, program.body, program.false_val
    if fuel <= 0:
        return None, fuel
    # Each body input run so far, to (result, least fuel); _RUNNING while it runs.
    table: dict[Value, tuple] = {}
    floor = fuel  # the lowest fuel the innermost run under way has reached
    # Constructs waiting for an operand's value, innermost last, as
    # (construct, input, fuel, left operand or None), and a _TABLED entry under
    # each body run.  Undefined ends the run; an ite branch replaces its
    # construct instead of waiting.
    stack: list[tuple] = []
    while True:
        # Descend from ``expr`` under ``value`` and ``fuel`` to a value.
        cls = expr.__class__
        if cls is Vr:
            result = value
        elif cls is Cnst:
            result = expr.value
        elif cls is Ite or cls is Rec:
            stack.append((expr, value, fuel, None))
            expr = expr.cond if cls is Ite else expr.arg
            continue
        elif cls is Op1 or cls is Op2:
            if not 0 <= expr.index < len(o1 if cls is Op1 else o2):
                # The lowest fuel so far: this run's floor or an enclosing run's.
                return None, min([floor] + [entry[3] for entry in stack if entry[0] is _TABLED])
            stack.append((expr, value, fuel, None))
            expr = expr.arg if cls is Op1 else expr.left
            continue
        else:
            raise Pvs0Error(f"not a {_NOUN[_E]}: {_SHOW.repr(expr)}")
        # Hand ``result`` up until a construct has another operand to run.
        while stack:
            construct, value, fuel, left = stack.pop()
            cls = construct.__class__
            if cls is Op1:
                result = o1[construct.index]._run((result,))
            elif cls is Ite:
                expr = construct.then if result != false_val else construct.orelse
                break
            elif cls is Rec:
                fuel -= 1
                if fuel <= 0:
                    return None, 0
                entry = table.get(result)
                if entry is None:
                    table[result] = _RUNNING
                    stack.append((_TABLED, result, fuel, floor))
                    expr, value, floor = body, result, fuel
                    break
                result, least = entry
                if least > fuel:
                    return None, 0
                if fuel - least + 1 < floor:
                    floor = fuel - least + 1
            elif cls is _Tabled:
                table[value] = (result, fuel - floor + 1)
                if left < floor:
                    floor = left
            elif left is None:
                stack.append((construct, value, fuel, result))
                expr = construct.right
                break
            else:
                result = o2[construct.index]._run((left, result))
        else:
            return result, floor


def chi_eval(
    program: Pvs0Program, expr: Pvs0Expr, value: Value, fuel: int
) -> Value | None:
    """Fuel-indexed evaluation of ``expr`` with the input variable bound to ``value``.

    None is the undefined result.  Fuel 0 is always undefined; only ``rec``
    decrements the fuel (the recursive body runs at fuel - 1); out-of-range
    operator indices are undefined; the conditional tests against the
    program's designated false value.  Deterministic, and monotone in fuel:
    a defined result never changes when the fuel grows.
    """
    return _evaluate(program, expr, value, fuel)[0]


def terminates_on(
    program: Pvs0Program, value: Value, max_fuel: int = DEFAULT_FUEL
) -> int | None:
    """Least fuel on which the program is defined on ``value``, within ``max_fuel``.

    Runs one evaluation at ``max_fuel`` and reads the least fuel off it:
    one more than the deepest ``rec`` nesting.  The evaluation runs the body
    once per distinct input and reads the nesting below a repeated input off
    its table entry, which is sound because the body's result and least fuel
    on an input do not depend on the fuel it runs at; it costs memory linear
    in the fuel.  None is an unknown verdict (not enough fuel), never a
    nontermination proof.
    """
    result, lowest = _evaluate(program, program.body, value, max_fuel)
    return None if result is None else max_fuel - lowest + 1


class EpsilonResult(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown-within-fuel"


def epsilon_check(
    program: Pvs0Program,
    expr: Pvs0Expr,
    v_in: Value,
    v_out: Value,
    max_fuel: int = DEFAULT_FUEL,
) -> EpsilonResult:
    """Does ``expr`` on ``v_in`` evaluate to ``v_out`` at some fuel <= max_fuel?

    Runs one evaluation at ``max_fuel``.  A defined result different from
    ``v_out`` is a definitive FALSE (evaluation is deterministic and
    monotone, so no larger fuel can change it); an undefined one is
    UNKNOWN.
    """
    result = chi_eval(program, expr, v_in, max_fuel)
    if result is None:
        return EpsilonResult.UNKNOWN
    return EpsilonResult.TRUE if result == v_out else EpsilonResult.FALSE


# --- calling contexts and the correspondence check -------------------------


@dataclass(frozen=True)
class CallingContext:
    """One ``rec`` occurrence in the body: its position, the branch guards
    on the path to it (outermost first, polarity True for the then branch),
    and the actual-parameter expression."""

    path: tuple[int, ...]
    condition: tuple[tuple[Pvs0Expr, bool], ...]
    actual: Pvs0Expr


def calling_contexts(program: Pvs0Program) -> list[CallingContext]:
    """All calling contexts of the body, in depth-first pre-order.

    A ``rec`` nested in another call's actual parameter yields its own
    context, after the enclosing one.  Guards are collected only when the
    path passes through a branch of a conditional, not through its test.
    """
    contexts = []
    for expr, path in _walk(program.body, _kids):
        if isinstance(expr, Rec):
            guards = tuple((p.cond, i == 2) for p, i in path if i > 1 and p.__class__ is Ite)
            contexts.append(CallingContext(tuple(i for _, i in path), guards, expr.arg))
    return contexts


def _condition_holds(
    program: Pvs0Program,
    ctx: CallingContext,
    value: Value,
    fuel: int,
) -> bool | None:
    """Evaluate the context's guards on ``value``; None when any guard is undefined."""
    for guard, polarity in ctx.condition:
        gv = chi_eval(program, guard, value, fuel)
        if gv is None:
            return None
        if (gv != program.false_val) != polarity:
            return False
    return True


def unary_encoder(
    trs: TRS,
    root: str | None = None,
    succ: str = "s",
    zero: str = "0",
) -> Callable[[Value], Term]:
    """Encode value tuples as ``root(succ^v1(zero), ..., succ^vk(zero))`` terms.

    With no explicit root the TRS must have exactly one defined symbol.  The
    encoder keeps one list of numerals, ``tower[k]`` being ``succ(tower[k - 1])``,
    and extends it only past the largest component seen so far, so an encoding
    builds just its root node and every encoding shares its numerals: equal
    components are one object, and comparing encodings mostly settles by
    identity.  A negative component encodes as ``zero``.
    """
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

    tower: list[Term] = [App(zero_sym, ())]

    def encode(value: Value) -> Term:
        if len(value) != root_sym.arity:
            raise Pvs0Error(
                f"value width {len(value)} does not match arity of {_SHOW.repr(root_sym)}"
            )
        top = max(value, default=0)
        while len(tower) <= top:
            tower.append(App(succ_sym, (tower[-1],)))
        return App(root_sym, tuple([tower[c] if c >= 0 else tower[0] for c in value]))

    return encode


def check_cc_dp_correspondence(
    program: Pvs0Program,
    trs: TRS,
    encode: Callable[[Value], Term],
    pairs: list[tuple[int, DepPairAlt]],
    samples: list[Value],
    fuel: int = DEFAULT_FUEL,
) -> dict:
    """Check proposed calling-context / dependency-pair pairings on samples.

    For every pairing and sample value v, two observations must agree:
    the context's condition holds on v exactly when the pair's rule lhs
    matches encode(v); and where both sides are defined, the encoded value
    of the actual parameter equals the instantiated rhs subterm (the next
    call seen on the rewriting side).  Returns a JSON-shaped report with
    per-sample detail and per-pair and overall verdicts.
    """
    contexts = calling_contexts(program)
    report_pairs: list[dict] = []
    overall = True
    for ctx_index, dp in pairs:
        if not 0 <= ctx_index < len(contexts):
            raise Pvs0Error(
                f"no calling context {_SHOW.repr(ctx_index)}; program has {len(contexts)}"
            )
        pair = to_standard(trs, dp)
        match_lhs = trs.rules[dp.rule_index]._match  # match(pair.lhs, ·), compiled once
        ctx = contexts[ctx_index]
        sample_rows: list[dict] = []
        pair_ok = True
        for v in samples:
            cond = _condition_holds(program, ctx, v, fuel)
            sigma = match_lhs(encode(v))
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
