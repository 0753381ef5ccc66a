"""Parsers and serializers for the on-disk formats.

TRS files use a TPDB-flavored syntax: a ``(VAR x y)`` section declaring
variables, then ``(RULES l -> r ...)``.  The signature is inferred from
use, with a consistent-arity check.  Chain witnesses, programs, and traces
travel as JSON.  Every parse(print(x)) round-trips to an equal value.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Callable

from .dependency_pairs import ChainWitness, DepPairAlt, require_dep_pair
from .pvs0 import (
    Cnst,
    GAdd,
    GComp,
    GConst,
    GIf,
    GMonus,
    GScalar,
    GTuple,
    GValue,
    Ite,
    Op1,
    Op2,
    OperatorDef,
    Pvs0Expr,
    Pvs0Program,
    Rec,
    Vr,
)
from .rewriting import (
    DerivationTrace,
    RelationMode,
    Rule,
    RuleRestrictionError,
    Step,
    TRS,
)
from .substitution import Substitution
from .terms import (
    ROOT,
    App,
    InvalidPositionError,
    Position,
    Signature,
    Symbol,
    Term,
    Var,
    format_position,
    parse_position,
    term_to_str,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def _depth_is_bad_input(parse: Callable) -> Callable:
    """Report input nested deeper than the recursive reader reaches as a ParseError."""
    @functools.wraps(parse)
    def guarded(*args: Any) -> Any:
        try:
            return parse(*args)
        except RecursionError:
            raise ParseError("nested too deeply to read") from None
    return guarded


def _is_int(value: Any) -> bool:
    """A JSON integer: ``json`` reads true and false as bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(data: Any, key: str) -> int:
    """``data[key]`` if it is a JSON integer; else KeyError or TypeError."""
    value = data[key]
    if not _is_int(value):
        raise TypeError(f"{key!r} must be an integer, found {value!r}")
    return value


def _position_field(data: Any) -> Position:
    """``data["position"]`` read as a position if it is a string; else KeyError,
    TypeError or InvalidPositionError."""
    value = data["position"]
    if not isinstance(value, str):
        raise TypeError(f"'position' must be a string, found {value!r}")
    return parse_position(value)


# --- tokenizer -------------------------------------------------------------

_PUNCT = {"(": "lparen", ")": "rparen", ",": "comma"}


@dataclass(frozen=True)
class _Token:
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
            raise ParseError(f"unexpected character {c!r}", line)
    tokens.append(_Token("eof", "", line))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    @property
    def head(self) -> _Token:
        return self._tokens[self._pos]

    def take(self, kind: str) -> _Token:
        tok = self.head
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text or 'end of input'!r}", tok.line)
        self._pos += 1
        return tok


# --- untyped term trees, shared by the term and TRS parsers ----------------


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
def parse_term(text: str, trs: TRS) -> Term:
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


# --- TRS files -------------------------------------------------------------


@_depth_is_bad_input
def parse_trs(text: str) -> TRS:
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


def format_trs(trs: TRS) -> str:
    names = " ".join(sorted(v.name for v in trs.variables))
    lines = [f"(VAR {names})" if names else "(VAR)"]
    lines.append("(RULES")
    for rule in trs.rules:
        lines.append(f"  {term_to_str(rule.lhs)} -> {term_to_str(rule.rhs)}")
    lines.append(")")
    return "\n".join(lines) + "\n"


# --- substitutions and traces ----------------------------------------------


def substitution_to_json(sigma: Substitution) -> dict[str, str]:
    return {
        v.name: term_to_str(t)
        for v, t in sorted(sigma.items(), key=lambda item: item[0].name)
    }


def parse_substitution(data: Any, trs: TRS) -> Substitution:
    if not isinstance(data, dict):
        raise ParseError("substitution must be an object of name -> term")
    bindings = {}
    for name, term_text in data.items():
        var = Var(name)
        if var not in trs.variables:
            raise ParseError(f"substitution binds undeclared variable {name!r}")
        if not isinstance(term_text, str):
            raise ParseError(f"binding for {name!r} must be a term string")
        bindings[var] = parse_term(term_text, trs)
    return Substitution(bindings)


def trace_to_json(trace: DerivationTrace) -> dict:
    return {
        "start": term_to_str(trace.start),
        "mode": trace.mode.value,
        "steps": [
            {
                "position": format_position(step.position),
                "rule_index": step.rule_index,
                "substitution": substitution_to_json(step.substitution),
                "term": term_to_str(step.result),
            }
            for step in trace.steps
        ],
    }


def parse_trace(data: Any, trs: TRS) -> DerivationTrace:
    try:
        mode = RelationMode(data["mode"])
        start = parse_term(data["start"], trs)
        raw_steps = data["steps"]
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"malformed trace: {err}") from None
    if not isinstance(raw_steps, list):
        raise ParseError(f"malformed trace: steps must be a list, got {raw_steps!r}")
    steps = []
    for raw in raw_steps:
        try:
            steps.append(
                Step(
                    _position_field(raw),
                    _int_field(raw, "rule_index"),
                    parse_substitution(raw["substitution"], trs),
                    parse_term(raw["term"], trs),
                )
            )
        except (KeyError, TypeError, InvalidPositionError) as err:
            raise ParseError(f"malformed trace step: {err}") from None
    return DerivationTrace(start, tuple(steps), mode)


# --- chain witnesses -------------------------------------------------------


@_depth_is_bad_input
def parse_chain_witness(text: str, trs: TRS) -> ChainWitness:
    """Parse and validate a witness: each entry must name a dependency pair
    of ``trs`` and bind only declared variables to well-formed terms."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"malformed witness JSON: {err}") from None
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise ParseError('witness must be an object with an "entries" list')
    entries = []
    for i, raw in enumerate(data["entries"]):
        if not isinstance(raw, dict):
            raise ParseError(f"entry {i} must be an object")
        try:
            rule_index = _int_field(raw, "rule")
            position = _position_field(raw) if "position" in raw else ROOT
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(f"entry {i}: {err}") from None
        dp = DepPairAlt(rule_index, position)
        require_dep_pair(trs, dp, i)
        sigma = parse_substitution(raw.get("substitution", {}), trs)
        entries.append((dp, sigma))
    return ChainWitness(tuple(entries))


def witness_to_json(witness: ChainWitness) -> dict:
    return {
        "entries": [
            {
                "rule": dp.rule_index,
                "position": format_position(dp.position),
                "substitution": substitution_to_json(sigma),
            }
            for dp, sigma in witness.entries
        ]
    }


# --- programs --------------------------------------------------------------


def _node(data: Any, what: str) -> list:
    if not isinstance(data, list) or not data or not isinstance(data[0], str):
        raise ParseError(f"malformed {what} node: {data!r}")
    return data


def _parse_gscalar(data: Any) -> GScalar:
    node = _node(data, "guard scalar")
    tag, *rest = node
    if tag == "const" and len(rest) == 1 and _is_int(rest[0]):
        return GConst(rest[0])
    if tag == "comp" and len(rest) == 2 and all(_is_int(x) for x in rest):
        return GComp(rest[0], rest[1])
    if tag == "add" and len(rest) == 2:
        return GAdd(_parse_gscalar(rest[0]), _parse_gscalar(rest[1]))
    if tag == "monus" and len(rest) == 2:
        return GMonus(_parse_gscalar(rest[0]), _parse_gscalar(rest[1]))
    raise ParseError(f"malformed guard scalar node: {data!r}")


def _parse_gvalue(data: Any, false_val: tuple, top_val: tuple) -> GValue:
    node = _node(data, "guard value")
    tag, *rest = node
    if tag == "tuple":
        return GTuple(tuple(_parse_gscalar(item) for item in rest))
    if tag == "bottom" and not rest:
        return GTuple(tuple(GConst(c) for c in false_val))
    if tag == "top" and not rest:
        return GTuple(tuple(GConst(c) for c in top_val))
    if tag == "if" and len(rest) == 3:
        cmp_node = _node(rest[0], "comparison")
        if len(cmp_node) != 3:
            raise ParseError(f"malformed comparison node: {rest[0]!r}")
        return GIf(
            cmp_node[0],
            _parse_gscalar(cmp_node[1]),
            _parse_gscalar(cmp_node[2]),
            _parse_gvalue(rest[1], false_val, top_val),
            _parse_gvalue(rest[2], false_val, top_val),
        )
    raise ParseError(f"malformed guard value node: {data!r}")


def _parse_pexpr(data: Any) -> Pvs0Expr:
    node = _node(data, "expression")
    tag, *rest = node
    if tag == "cnst" and len(rest) == 1 and isinstance(rest[0], list):
        if not all(_is_int(c) and c >= 0 for c in rest[0]):
            raise ParseError(f"constant must be a list of naturals: {rest[0]!r}")
        return Cnst(tuple(rest[0]))
    if tag == "vr" and not rest:
        return Vr()
    if tag == "op1" and len(rest) == 2 and _is_int(rest[0]):
        return Op1(rest[0], _parse_pexpr(rest[1]))
    if tag == "op2" and len(rest) == 3 and _is_int(rest[0]):
        return Op2(rest[0], _parse_pexpr(rest[1]), _parse_pexpr(rest[2]))
    if tag == "rec" and len(rest) == 1:
        return Rec(_parse_pexpr(rest[0]))
    if tag == "ite" and len(rest) == 3:
        return Ite(*(_parse_pexpr(r) for r in rest))
    raise ParseError(f"malformed expression node: {data!r}")


@_depth_is_bad_input
def parse_pvs0_program(text: str) -> Pvs0Program:
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
        OperatorDef(1, _parse_gvalue(raw, false_val, top_val)) for raw in raw_o1
    )
    o2 = tuple(
        OperatorDef(2, _parse_gvalue(raw, false_val, top_val)) for raw in raw_o2
    )
    return Pvs0Program(width, false_val, top_val, o1, o2, _parse_pexpr(raw_body))


def _gscalar_to_json(e: GScalar) -> list:
    if isinstance(e, GConst):
        return ["const", e.value]
    if isinstance(e, GComp):
        return ["comp", e.arg, e.component]
    if isinstance(e, GAdd):
        return ["add", _gscalar_to_json(e.left), _gscalar_to_json(e.right)]
    return ["monus", _gscalar_to_json(e.left), _gscalar_to_json(e.right)]


def _gvalue_to_json(e: GValue) -> list:
    if isinstance(e, GTuple):
        return ["tuple", *(_gscalar_to_json(item) for item in e.items)]
    return [
        "if",
        [e.cmp, _gscalar_to_json(e.left), _gscalar_to_json(e.right)],
        _gvalue_to_json(e.then),
        _gvalue_to_json(e.orelse),
    ]


def pvs0_expr_to_json(e: Pvs0Expr) -> list:
    match e:
        case Cnst(value):
            return ["cnst", list(value)]
        case Vr():
            return ["vr"]
        case Op1(index, arg):
            return ["op1", index, pvs0_expr_to_json(arg)]
        case Op2(index, left, right):
            return ["op2", index, pvs0_expr_to_json(left), pvs0_expr_to_json(right)]
        case Rec(arg):
            return ["rec", pvs0_expr_to_json(arg)]
        case Ite(cond, then, orelse):
            return [
                "ite",
                pvs0_expr_to_json(cond),
                pvs0_expr_to_json(then),
                pvs0_expr_to_json(orelse),
            ]
    raise ValueError(f"not a program expression: {e!r}")


def pvs0_expr_to_str(e: Pvs0Expr) -> str:
    match e:
        case Cnst(value):
            return "(" + ",".join(str(c) for c in value) + ")"
        case Vr():
            return "vr"
        case Op1(index, arg):
            return f"op1({index}, {pvs0_expr_to_str(arg)})"
        case Op2(index, left, right):
            return f"op2({index}, {pvs0_expr_to_str(left)}, {pvs0_expr_to_str(right)})"
        case Rec(arg):
            return f"rec({pvs0_expr_to_str(arg)})"
        case Ite(cond, then, orelse):
            return (
                f"ite({pvs0_expr_to_str(cond)}, {pvs0_expr_to_str(then)}, "
                f"{pvs0_expr_to_str(orelse)})"
            )
    raise ValueError(f"not a program expression: {e!r}")


def program_to_json(program: Pvs0Program) -> dict:
    return {
        "width": program.width,
        "false_val": list(program.false_val),
        "top_val": list(program.top_val),
        "o1": [_gvalue_to_json(d.body) for d in program.o1],
        "o2": [_gvalue_to_json(d.body) for d in program.o2],
        "body": pvs0_expr_to_json(program.body),
    }


def parse_value(text: str) -> tuple[int, ...]:
    """Parse a tuple of naturals: ``2,3`` or ``(2,3)``."""
    cleaned = text.strip()
    if cleaned.startswith("(") and cleaned.endswith(")"):
        cleaned = cleaned[1:-1]
    if not cleaned:
        raise ParseError(f"empty value {text!r}")
    try:
        parts = tuple(int(p) for p in cleaned.split(","))
    except ValueError:
        raise ParseError(f"malformed value {text!r}") from None
    if any(p < 0 for p in parts):
        raise ParseError(f"value components must be naturals: {text!r}")
    return parts
