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
The evaluator is one loop over an explicit stack that holds only the
constructs still waiting for an operand's value (a ``rec`` body and an
``ite`` branch replace their construct), so it does not recurse in
Python: its depth is bounded by the fuel and by memory, on any thread.

Operator bodies live in a separate guard language (component accessors,
natural constants, addition, truncated subtraction, comparisons,
tuple construction) that always terminates and cannot recurse.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Union

from .dependency_pairs import DepPairAlt, to_standard
from .rewriting import DEFAULT_FUEL, TRS, defined_symbols
from .substitution import match
from .terms import App, Term, format_position

Value = tuple[int, ...]


class Pvs0Error(ValueError):
    """Width, arity, or bound violation in a program or evaluation."""


# --- program expressions ---------------------------------------------------


@dataclass(frozen=True)
class Cnst:
    value: Value


@dataclass(frozen=True)
class Vr:
    """The input variable of the program body."""


@dataclass(frozen=True)
class Op1:
    index: int
    arg: "Pvs0Expr"


@dataclass(frozen=True)
class Op2:
    index: int
    left: "Pvs0Expr"
    right: "Pvs0Expr"


@dataclass(frozen=True)
class Rec:
    arg: "Pvs0Expr"


@dataclass(frozen=True)
class Ite:
    cond: "Pvs0Expr"
    then: "Pvs0Expr"
    orelse: "Pvs0Expr"


Pvs0Expr = Union[Cnst, Vr, Op1, Op2, Rec, Ite]


# --- guard language for operator bodies ------------------------------------


@dataclass(frozen=True)
class GConst:
    value: int


@dataclass(frozen=True)
class GComp:
    """Component ``component`` (0-based) of argument ``arg`` (0-based)."""

    arg: int
    component: int


@dataclass(frozen=True)
class GAdd:
    left: "GScalar"
    right: "GScalar"


@dataclass(frozen=True)
class GMonus:
    """Truncated subtraction: clamps at 0."""

    left: "GScalar"
    right: "GScalar"


GScalar = Union[GConst, GComp, GAdd, GMonus]


@dataclass(frozen=True)
class GTuple:
    items: tuple[GScalar, ...]


@dataclass(frozen=True)
class GIf:
    """Branch on a scalar comparison; ``cmp`` is one of lt, le, eq."""

    cmp: str
    left: GScalar
    right: GScalar
    then: "GValue"
    orelse: "GValue"

    def __post_init__(self) -> None:
        if self.cmp not in ("lt", "le", "eq"):
            raise Pvs0Error(f"unknown comparison {self.cmp!r}")


GValue = Union[GTuple, GIf]


@dataclass(frozen=True)
class OperatorDef:
    """An operator body, its argument and component indices checked here, once."""

    arity: int
    body: GValue

    def __post_init__(self) -> None:
        _check_guard(self.body, self.arity, None)


def _check_guard(expr: GValue | GScalar, arity: int, width: int | None) -> None:
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
        _check_guard(expr.left, arity, width)
        _check_guard(expr.right, arity, width)
    elif isinstance(expr, GTuple):
        if width is not None and len(expr.items) != width:
            raise Pvs0Error(
                f"tuple of {len(expr.items)} components in a width-{width} program"
            )
        for item in expr.items:
            _check_guard(item, arity, width)
    elif isinstance(expr, GIf):
        _check_guard(expr.left, arity, width)
        _check_guard(expr.right, arity, width)
        _check_guard(expr.then, arity, width)
        _check_guard(expr.orelse, arity, width)
    else:
        raise Pvs0Error(f"not a guard expression: {expr!r}")


def _walk(body: Pvs0Expr) -> Iterator[tuple[Pvs0Expr, list[tuple]]]:
    """Each subexpression of ``body`` in pre-order, with its path: one
    ``(index, guard)`` per step down, the guard ``(cond, True)`` into a
    conditional's then branch, ``(cond, False)`` into its else branch and
    None elsewhere.  One explicit stack, so a body of any depth can be
    walked; the path is valid only until the walk resumes."""
    path: list[tuple] = []
    # Subexpressions still to visit: (expr, the parent's depth, the step to it).
    stack: list[tuple] = [(body, 0, None)]
    while stack:
        expr, depth, step = stack.pop()
        del path[depth:]
        if step is not None:
            path.append(step)
        yield expr, path
        depth = len(path)
        if isinstance(expr, (Op1, Rec)):
            stack.append((expr.arg, depth, (1, None)))
        elif isinstance(expr, Op2):
            stack += [(expr.right, depth, (2, None)), (expr.left, depth, (1, None))]
        elif isinstance(expr, Ite):
            stack += [
                (expr.orelse, depth, (3, (expr.cond, False))),
                (expr.then, depth, (2, (expr.cond, True))),
                (expr.cond, depth, (1, None)),
            ]


def _check_expr(body: Pvs0Expr, width: int) -> None:
    for expr, _ in _walk(body):
        if isinstance(expr, Cnst):
            if len(expr.value) != width or any(c < 0 for c in expr.value):
                raise Pvs0Error(f"constant {expr.value} in a width-{width} program")
        elif not isinstance(expr, (Vr, Op1, Op2, Rec, Ite)):
            raise Pvs0Error(f"not a program expression: {expr!r}")


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
        if self.width < 1:
            raise Pvs0Error("width must be positive")
        for name, value in (("false_val", self.false_val), ("top_val", self.top_val)):
            if len(value) != self.width or any(c < 0 for c in value):
                raise Pvs0Error(f"{name} {value} does not fit width {self.width}")
        for bank, expected_arity in ((self.o1, 1), (self.o2, 2)):
            for defn in bank:
                if defn.arity != expected_arity:
                    raise Pvs0Error(
                        f"operator arity {defn.arity}, expected {expected_arity}"
                    )
                _check_guard(defn.body, expected_arity, self.width)
        _check_expr(self.body, self.width)


# --- evaluation ------------------------------------------------------------


def guard_eval(defn: OperatorDef, args: tuple[Value, ...]) -> Value:
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


def _evaluate(
    program: Pvs0Program, expr: Pvs0Expr, value: Value, fuel: int
) -> tuple[Value | None, int]:
    """``chi_eval``'s result, with the lowest fuel any ``rec`` ran the body at
    (``fuel`` itself when no ``rec`` ran)."""
    if len(value) != program.width:
        raise Pvs0Error(f"input {value} does not fit width {program.width}")
    o1, o2, body, false_val = program.o1, program.o2, program.body, program.false_val
    lowest = fuel
    if fuel <= 0:
        return None, lowest
    # Constructs waiting for an operand's value, innermost last, as
    # (construct, input, fuel, left operand or None).  Undefined ends the run;
    # a rec body or an ite branch replaces its construct instead of waiting.
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
                return None, lowest
            stack.append((expr, value, fuel, None))
            expr = expr.arg if cls is Op1 else expr.left
            continue
        else:
            raise Pvs0Error(f"not a program expression: {expr!r}")
        # Hand ``result`` up until a construct has another operand to run.
        while stack:
            construct, value, fuel, left = stack.pop()
            cls = construct.__class__
            if cls is Op1:
                result = guard_eval(o1[construct.index], (result,))
            elif cls is Ite:
                expr = construct.then if result != false_val else construct.orelse
                break
            elif cls is Rec:
                fuel -= 1
                if fuel < lowest:
                    lowest = fuel
                if fuel <= 0:
                    return None, lowest
                expr, value = body, result
                break
            elif left is None:
                stack.append((construct, value, fuel, result))
                expr = construct.right
                break
            else:
                result = guard_eval(o2[construct.index], (left, result))
        else:
            return result, lowest


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
    one more than the deepest ``rec`` nesting.  None is an unknown verdict
    (not enough fuel), never a nontermination proof.
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
    return [
        CallingContext(tuple(i for i, _ in path), tuple(g for _, g in path if g), expr.arg)
        for expr, path in _walk(program.body)
        if isinstance(expr, Rec)
    ]


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

    With no explicit root the TRS must have exactly one defined symbol.
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
            raise ValueError(f"no symbol {root!r} in the signature")
        root_sym = maybe
    succ_sym = trs.signature.get(succ)
    zero_sym = trs.signature.get(zero)
    if succ_sym is None or succ_sym.arity != 1:
        raise ValueError(f"need a unary symbol {succ!r} in the signature")
    if zero_sym is None or zero_sym.arity != 0:
        raise ValueError(f"need a constant {zero!r} in the signature")

    def nat(n: int) -> Term:
        t: Term = App(zero_sym, ())
        for _ in range(n):
            t = App(succ_sym, (t,))
        return t

    def encode(value: Value) -> Term:
        if len(value) != root_sym.arity:
            raise Pvs0Error(
                f"value width {len(value)} does not match arity of {root_sym!r}"
            )
        return App(root_sym, tuple(nat(c) for c in value))

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
                f"no calling context {ctx_index}; program has {len(contexts)}"
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
