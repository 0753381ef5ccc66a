"""Parsers and serializers for the on-disk formats.

TRS files use a TPDB-flavored syntax: a ``(VAR x y)`` section declaring
variables and a ``(RULES l -> r ...)`` section, in either order.  The
signature is inferred from use, with a consistent-arity check.  Terms,
systems and programs are read at any depth on explicit stacks, the first two
straight from the text; program expressions print in one pass of the walk.
Traces are written at any depth too: ``trace_to_json`` and ``parse_trace``
replay each step on ``_Splice``, the zipper of ``terms`` that ``check_trace``
replays on, with the term's text, into which each step splices its
contractum; rules and witness bindings are written whole on the same
explicit stack.  Chain witnesses and traces travel as JSON both ways;
programs are read from JSON and never written back.  The depth limit of the
one ``json.loads`` call is the only one on reading.  TRS files, traces and
witnesses round-trip: parse(print(x)) is x.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable

from .dependency_pairs import ChainWitness, DepPairAlt, require_dep_pair
from .pvs0 import (
    Cnst,
    GAdd,
    GComp,
    GConst,
    GIf,
    GMonus,
    GTuple,
    Ite,
    Op1,
    Op2,
    OperatorDef,
    Pvs0Expr,
    Pvs0Program,
    Rec,
    Vr,
    _KID_SORTS,
    _LEAVES,
    _NOUN,
    _SORT,
    _kids,
)
from .rewriting import (
    DerivationTrace,
    RelationMode,
    Rule,
    RuleRestrictionError,
    Step,
    TRS,
)
from .substitution import Substitution, match
from .terms import (
    ROOT,
    _SHOW,
    App,
    InvalidPositionError,
    Position,
    Signature,
    Symbol,
    Term,
    Var,
    _Zipper,
    _cut,
    _size,
    _walk,
    _write,
    format_position,
    parse_position,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def _load_json(text: str, what: str) -> Any:
    """The one JSON read; the decoder's own depth limit is the only one."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"malformed {what} JSON: {err}") from None
    except RecursionError:
        raise ParseError("nested too deeply to read") from None


def _is_int(value: Any) -> bool:
    """A JSON integer: ``json`` reads true and false as bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(data: Any, key: str) -> int:
    """``data[key]`` if it is a JSON integer; else KeyError or TypeError."""
    value = data[key]
    if not _is_int(value):
        raise TypeError(f"{key!r} must be an integer, found {_SHOW.repr(value)}")
    return value


def _position_field(data: Any) -> Position:
    """``data["position"]`` read as a position if it is a string; else KeyError,
    TypeError or InvalidPositionError."""
    value = data["position"]
    if not isinstance(value, str):
        raise TypeError(f"'position' must be a string, found {_SHOW.repr(value)}")
    return parse_position(value)


def _term_field(data: Any, key: str, trs: TRS) -> Term:
    """``data[key]`` parsed as a term if it is a string; else KeyError, TypeError
    or ParseError."""
    value = data[key]
    if not isinstance(value, str):
        raise TypeError(f"{key!r} must be a term string, found {_SHOW.repr(value)}")
    return parse_term(value, trs)


# --- terms and TRS files ---------------------------------------------------

_NAME = re.compile(r"[\w']+")
_BLANKS = re.compile(r"\s*")
_TOKEN = re.compile(r"[\w']+|->|.?")  # at a cursor in text _BAD passed: "" only at the end
_BAD = re.compile(r"[^\w'\s(),>-]|-(?!>)|(?<!-)>")  # - and > only as ->
_PARENS = re.compile(r"[()]")
_KIND = {"(": "lparen", ")": "rparen", ",": "comma", "-": "arrow", "": "eof"}


class _Text:
    """A cursor over the text of a term or system, read in place; ``at`` stands
    past blanks.  A character nothing may hold is reported before any reading."""

    def __init__(self, text: str):
        self.text, self.at = text, _BLANKS.match(text).end()
        bad = _BAD.search(text)
        if bad is not None:
            raise ParseError(f"unexpected character {_SHOW.repr(bad[0])}", self.line(bad.start()))

    def line(self, at: int) -> int:
        return self.text.count("\n", 0, at) + 1

    def kind(self) -> str:
        """The kind of the token at the cursor: lparen rparen comma arrow ident eof."""
        return _KIND.get(self.text[self.at : self.at + 1], "ident")

    def take(self, kind: str) -> str:
        """The token at the cursor, which must be of ``kind``; the cursor moves past it."""
        token = _TOKEN.match(self.text, self.at)[0]
        if _KIND.get(token[:1], "ident") != kind:
            found = _SHOW.repr(token or "end of input")
            raise ParseError(f"expected {kind}, found {found}", self.line(self.at))
        self.at = _BLANKS.match(self.text, self.at + len(token)).end()
        return token


def _read_term(
    src: _Text, symbol: Callable[[str, int, int], Symbol], variables: dict[str, Var]
) -> Term:
    """Read one term at the cursor: a leaf when its name is read, an application
    when its closing parenthesis is, with ``symbol(name, arity, at)`` naming its
    root, which starts at ``at``.  An explicit stack holds the applications open."""
    text, name_at, blanks = src.text, _NAME.match, _BLANKS.match
    # Applications still open: (the name, where it starts, the arguments read so far).
    open_apps: list[tuple[str, int, list[Term]]] = []
    while True:
        start = src.at
        name = name_at(text, start)
        if name is None:
            src.take("ident")  # fails: no name here
        at = src.at = blanks(text, name.end()).end()
        name = name[0]
        if text.startswith("(", at):
            if name in variables:
                raise ParseError(f"variable {_SHOW.repr(name)} used with arguments", src.line(start))
            open_apps.append((name, start, []))
            src.at = blanks(text, at + 1).end()
            continue
        term = variables.get(name) or App(symbol(name, 0, start))
        while open_apps:
            open_apps[-1][2].append(term)
            if text.startswith(",", at):
                src.at = blanks(text, at + 1).end()
                break
            if not text.startswith(")", at):
                src.take("rparen")  # fails: neither "," nor ")"
            at = src.at = blanks(text, at + 1).end()
            name, start, args = open_apps.pop()
            term = App(symbol(name, len(args), start), tuple(args))
        else:  # no application left open: the term is complete
            return term


def parse_term(text: str, trs: TRS) -> Term:
    """Parse a term against the TRS's signature and declared variables."""
    src = _Text(text)

    def declared(name: str, arity: int, at: int) -> Symbol:
        sym = trs.signature.get(name)
        if sym is None:
            raise ParseError(f"unknown identifier {_SHOW.repr(name)}", src.line(at))
        if sym.arity != arity:
            fault = f"symbol {_SHOW.repr(name)} has arity {sym.arity}, applied to {arity}"
            raise ParseError(fault, src.line(at))
        return sym

    term = _read_term(src, declared, {v.name: v for v in trs.variables})
    src.take("eof")
    return term


def parse_trs(text: str) -> TRS:
    """Parse a ``(VAR ...)`` / ``(RULES ...)`` system.

    The signature is inferred: every applied identifier gets the arity of
    its use, bare non-variable identifiers become constants, and
    inconsistent arities, variables used with arguments, or unknown
    sections are reported with their line.  The rules are read after the
    last section, once the variables are known.
    """
    src = _Text(text)
    var_names: list[str] | None = None
    rules_at: int | None = None  # where the rules start
    while src.kind() != "eof":
        src.take("lparen")
        at = src.at
        section = src.take("ident")
        if section == "VAR":
            if var_names is not None:
                raise ParseError("duplicate (VAR ...) section", src.line(at))
            var_names = []
            while src.kind() == "ident":
                var_names.append(src.take("ident"))
        elif section == "RULES":
            if rules_at is not None:
                raise ParseError("duplicate (RULES ...) section", src.line(at))
            # Skip to the closing parenthesis, or the end; the rules are read below.
            rules_at, depth, src.at = src.at, 0, len(text)
            for paren in _PARENS.finditer(text, rules_at):
                depth += 1 if paren[0] == "(" else -1
                if depth < 0:
                    src.at = paren.start()
                    break
        else:
            raise ParseError(f"unknown section {_SHOW.repr(section)}", src.line(at))
        src.take("rparen")
    if rules_at is None:
        raise ParseError("missing (RULES ...) section")
    variables = {n: Var(n) for n in var_names or ()}

    inferred: dict[str, tuple[Symbol, int]] = {}  # name -> (symbol, where first used)

    def infer(name: str, arity: int, at: int) -> Symbol:
        seen = inferred.get(name)
        if seen is None:
            seen = inferred[name] = (Symbol(name, arity), at)
        elif seen[0].arity != arity:
            raise ParseError(
                f"symbol {_SHOW.repr(name)} used with arity {arity} "
                f"but with arity {seen[0].arity} on line {src.line(seen[1])}",
                src.line(at),
            )
        return seen[0]

    src.at = rules_at
    rules: list[Rule] = []
    while src.kind() != "rparen":
        at = src.at
        lhs = _read_term(src, infer, variables)
        src.take("arrow")
        rhs = _read_term(src, infer, variables)
        try:
            rules.append(Rule(lhs, rhs, len(rules)))
        except RuleRestrictionError as err:
            raise RuleRestrictionError(f"line {src.line(at)}: {err}") from None
    signature = Signature(tuple(sym for sym, _ in inferred.values()))
    return TRS(signature, frozenset(variables.values()), tuple(rules))


def format_trs(trs: TRS) -> str:
    var = " ".join(["(VAR", *sorted(v.name for v in trs.variables)])
    rules = "".join(f"  {_write(r.lhs)} -> {_write(r.rhs)}\n" for r in trs.rules)
    return f"{var})\n(RULES\n{rules})\n"


# --- substitutions and traces ----------------------------------------------


def _by_name(sigma: Substitution) -> list[tuple[Var, Term]]:
    return sorted(sigma.items(), key=lambda item: item[0].name)


def substitution_to_json(sigma: Substitution) -> dict[str, str]:
    return {v.name: _write(t) for v, t in _by_name(sigma)}


def parse_substitution(data: Any, trs: TRS) -> Substitution:
    if not isinstance(data, dict):
        raise ParseError("substitution must be an object of name -> term")
    bindings = {}
    for name, term_text in data.items():
        var = Var(name)
        if var not in trs.variables:
            raise ParseError(f"substitution binds undeclared variable {_SHOW.repr(name)}")
        if not isinstance(term_text, str):
            raise ParseError(f"binding for {_SHOW.repr(name)} must be a term string")
        bindings[var] = parse_term(term_text, trs)
    return Substitution(bindings)


class _Splice(_Zipper):
    """A term rewritten step by step on a ``terms._Zipper``, together with
    its text, which each step edits the way a rope does (Boehm, Atkinson &
    Plass, "Ropes: an alternative to strings", 1995).

    ``starts[d]`` is where the text of the node at depth ``d`` of ``pos``
    starts, the focus's last.  ``place`` is ``pos`` printed, and ``spans[d]``
    the length of its first ``d`` indices printed.  Text lengths are kept
    per node ``id`` (``terms._size``) in ``sizes``, whose nodes ``keep``
    holds, so that no id is reused while it is kept.
    """

    def __init__(self, term: Term):
        super().__init__(term)
        self.text = _write(term)
        self.starts, self.place, self.spans = [0], "ε", [0]
        self.sizes: dict[int, int] = {}
        self.keep: list[Term] = []

    def seek(self, pos: Position, step: int) -> Term:
        """Move to ``pos``, where trace step ``step`` rewrites, and return the
        subterm there.  Each node below the prefix ``pos`` shares with the
        position before is placed by the lengths of the arguments left of
        the path."""
        old, starts, sizes, keep = self.pos, self.starts, self.sizes, self.keep
        try:
            same = super().seek(pos)
        except InvalidPositionError as err:
            raise InvalidPositionError(f"trace step {step}: {err}") from None
        del starts[same + 1 :]
        for node, i, _, args in self.frames[same:]:
            at = starts[-1] + len(node.sym.name) + i
            for a in (args or node.args)[: i - 1]:
                at += _size(a, sizes, keep)
            starts.append(at)
        if same < len(old) or same < len(pos):
            spans = self.spans
            del spans[same + 1 :]
            place = [self.place[: spans[same]]] if same else []
            for i in pos[same:]:
                place.append(str(i))
                spans.append(spans[-1] + len(place[-1]) + (len(spans) > 1))
            self.place = ".".join(place) or "ε"
        return self.focus

    def rewrite(self, rule: Rule, sigma: Substitution) -> dict[str, str]:
        """Put ``sigma.apply(rule.rhs)`` where ``seek`` stands, writing only
        the contractum into the text, and return the text of each σ binding
        by variable name.  The redex's span ends after its length, and a
        binding equal to the redex's subterm at its variable's first place
        in ``rule.lhs`` is a slice of that span; any other binding is
        written whole.  The contractum's text is the rhs's with those texts
        at its variables.  The contractum holds σ's own nodes, so a binding
        that a later step finds again is the same object, and equal at once."""
        redex, at, text = self.focus, self.starts[-1], self.text
        sizes, keep = self.sizes, self.keep
        places, pieces = rule._shape
        texts: dict[str, str] = {}
        for var, value in sigma.items():
            if value.__class__ is Var or not value.args:
                texts[var.name] = value.name if value.__class__ is Var else value.sym.name
                continue
            path = places.get(var.name)
            if path is not None:
                node, start = redex, at
                for i in path:  # down the redex to the variable's place, if it has it
                    args = node.args if node.__class__ is App else ()
                    if i > len(args):
                        break
                    start += len(node.sym.name) + i
                    for a in args[: i - 1]:
                        start += _size(a, sizes, keep)
                    node = args[i - 1]
                else:
                    if node is value or (
                        node.__class__ is App
                        and node.args == value.args
                        and (node.sym is value.sym or node.sym == value.sym)
                    ):
                        texts[var.name] = piece = text[start : start + _size(node, sizes, keep)]
                        if node is not value:
                            sizes[id(value)] = len(piece)
                            keep.append(value)
                        continue
            texts[var.name] = _write(value)
        contractum = sigma.apply(rule.rhs)
        written = "".join(
            [p if p.__class__ is str else texts.get(p.name, p.name) for p in pieces]
        )
        self.text = text[:at] + written + text[at + _size(redex, sizes, keep) :]
        if contractum.__class__ is App and contractum.args:
            sizes[id(contractum)] = len(written)
            keep.append(contractum)
        self.put(contractum)
        return texts

    def term(self) -> Term:
        """The whole term as it now is; the path is left up to the root."""
        self.starts, self.place, self.spans = [0], "ε", [0]
        return super().term()


def trace_to_json(trace: DerivationTrace) -> dict:
    """The trace with every term printed whole, at any depth.

    The terms are replayed from (position, rule, substitution) alone, as
    ``DerivationTrace.terms`` replays them, and each step writes only its
    contractum into the text before (``_Splice``): the σ bindings that are
    subterms of the redex are copied from that text, and the position's
    text shares its prefix with the position before.  So a step costs
    Python work for the levels its path moves and the nodes it builds, and
    a memory copy for the rest.  A position the term does not have raises
    InvalidPositionError naming the step.
    """
    splice = _Splice(trace.start)
    start = splice.text
    steps = []
    for k, step in enumerate(trace.steps):
        splice.seek(step.position, k)
        texts = splice.rewrite(step.rule, step.substitution)
        steps.append(
            {
                "position": splice.place,
                "rule_index": step.rule.index,
                "substitution": {name: texts[name] for name in sorted(texts)},
                "term": splice.text,
            }
        )
    return {"start": start, "mode": trace.mode.value, "steps": steps}


def parse_trace(data: Any, trs: TRS) -> DerivationTrace:
    """Read a trace and replay it: each step's rule must match at its
    position, its substitution must be that matcher, and its ``"term"`` must
    be the replayed result.  Both are compared as text first and parsed
    only when the texts differ.  Whether each step is one ``mode`` allows is
    left to ``check_trace``."""
    try:
        mode = next((m for m in RelationMode if m.value == data["mode"]), None)
        if mode is None:
            raise ValueError(f"{_SHOW.repr(data['mode'])} is not a valid RelationMode")
        start = _term_field(data, "start", trs)
        raw_steps = data["steps"]
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"malformed trace: {err}") from None
    if not isinstance(raw_steps, list):
        raise ParseError(f"malformed trace: steps must be a list, got {_SHOW.repr(raw_steps)}")
    splice = _Splice(start)
    steps = []
    for k, raw in enumerate(raw_steps):
        try:
            position = _position_field(raw)
            index = _int_field(raw, "rule_index")
            raw_sigma, printed = raw["substitution"], raw["term"]
            if not isinstance(printed, str):
                raise TypeError(f"'term' must be a term string, found {_SHOW.repr(printed)}")
            redex = splice.seek(position, k)
        except (KeyError, TypeError, InvalidPositionError) as err:
            raise ParseError(f"malformed trace step: {err}") from None
        if not 0 <= index < len(trs.rules):
            raise ParseError(f"trace step {k}: the system has no rule {index}")
        rule = trs.rules[index]
        sigma = match(rule.lhs, redex)
        if sigma is None:
            raise ParseError(
                f"trace step {k}: rule {index} does not match at "
                f"{_cut(format_position(position))}"
            )
        if splice.rewrite(rule, sigma) != raw_sigma:
            if parse_substitution(raw_sigma, trs) != sigma:
                raise ParseError(f"trace step {k}: the substitution is not rule {index}'s matcher")
        if splice.text != printed and parse_term(printed, trs) != splice.term():
            raise ParseError(f"trace step {k}: the term is not the step's result")
        steps.append(Step(position, rule, sigma))
    return DerivationTrace(start, tuple(steps), mode, splice.term())


# --- chain witnesses -------------------------------------------------------


def parse_chain_witness(text: str, trs: TRS) -> ChainWitness:
    """Parse and validate a witness: each entry must name a dependency pair
    of ``trs`` and bind only declared variables to well-formed terms."""
    data = _load_json(text, "witness")
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


# A node is [tag, *its other fields, *its subtrees], except that a constant's
# value is one list, a tuple's items follow its tag, and a conditional's
# comparison and its operands are one list, [cmp, left, right].
_TAGS = {
    Cnst: "cnst", Vr: "vr", Op1: "op1", Op2: "op2", Rec: "rec", Ite: "ite",
    GConst: "const", GComp: "comp", GAdd: "add", GMonus: "monus", GTuple: "tuple", GIf: "if",
}
_WHAT = {"expression": "expression", "scalar": "guard scalar", "value": "guard value"}
# (tag, sort) -> the class, its number of other fields and its subtrees' sorts.
_LAYOUT = {
    (tag, _SORT[cls]): (cls, len(_LEAVES[cls]), _KID_SORTS[cls]) for cls, tag in _TAGS.items()
}
_SPECIAL = {None, Cnst, GTuple, GIf}  # laid out otherwise, or no node at all


def _read_tree(data: Any, sort: str, false_val: tuple = (), top_val: tuple = ()) -> Any:
    """Read a program expression (``sort`` "expression") or an operator body
    ("value") on one explicit stack; ``["bottom"]`` and ``["top"]`` are the
    tuples of ``false_val`` and ``top_val``.  Each node is checked when it is
    reached, in pre-order, and built once its subtrees are."""
    built: list = []
    # JSON to read, with the sort wanted there, and (class, fields, count) to build, with None.
    todo, wants = [data], [sort]
    while todo:
        data, sort = todo.pop(), wants.pop()
        if sort is None:
            cls, leaves, count = data
            cut = len(built) - count
            kids = built[cut:]
            built[cut:] = [cls(*leaves, tuple(kids)) if cls is GTuple else cls(*leaves, *kids)]
            continue
        tag = data[0] if isinstance(data, list) and data and isinstance(data[0], str) else None
        if sort == "value" and tag in ("bottom", "top") and len(data) == 1:
            built.append(GTuple(tuple(map(GConst, false_val if tag == "bottom" else top_val))))
            continue
        cls, n, sorts = _LAYOUT.get((tag, sort), (None, 0, ()))
        leaves = data[1 : n + 1] if cls is not None else ()
        if cls not in _SPECIAL and len(data) == 1 + n + len(sorts) and (
            not n or all(map(_is_int, leaves))
        ):
            kids = data[n + 1 :]
        elif cls is GTuple:
            leaves, kids, sorts = (), data[1:], sorts * (len(data) - 1)
        elif cls is GIf and len(data) == 4:
            cmp = data[1]
            if not isinstance(cmp, list) or len(cmp) != 3 or not isinstance(cmp[0], str):
                raise ParseError(f"malformed comparison node: {_SHOW.repr(cmp)}")
            leaves, kids = cmp[:1], [cmp[1], cmp[2], data[2], data[3]]
        elif cls is Cnst and len(data) == 2 and isinstance(data[1], list):
            if not all(_is_int(c) and c >= 0 for c in data[1]):
                raise ParseError(f"constant must be a list of naturals: {_SHOW.repr(data[1])}")
            leaves, kids = (tuple(data[1]),), ()
        else:
            raise ParseError(f"malformed {_WHAT[sort]} node: {_SHOW.repr(data)}")
        if kids or cls is GTuple:
            todo += [(cls, leaves, len(kids)), *reversed(kids)]
            wants += [None, *reversed(sorts)]
        else:
            built.append(cls(*leaves))
    return built[0]


def parse_pvs0_program(text: str) -> Pvs0Program:
    """Parse a program file.  Shape errors raise ParseError; width and
    guard-bound violations surface as the evaluator's own error type."""
    data = _load_json(text, "program")
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
            raise ParseError(f"{name} must be a list of naturals: {_SHOW.repr(value)}")
    for name, bank in (("o1", raw_o1), ("o2", raw_o2)):
        if not isinstance(bank, list):
            raise ParseError(f"malformed program: {name} must be a list, got {_SHOW.repr(bank)}")
    o1 = tuple(OperatorDef(1, _read_tree(raw, "value", false_val, top_val)) for raw in raw_o1)
    o2 = tuple(OperatorDef(2, _read_tree(raw, "value", false_val, top_val)) for raw in raw_o2)
    return Pvs0Program(width, false_val, top_val, o1, o2, _read_tree(raw_body, "expression"))


def pvs0_expr_to_str(e: Pvs0Expr) -> str:
    """A program expression as text, written in one pass over the walk."""
    out: list[str] = []
    opened = 0  # one parenthesis per node the walk is inside, closed as the depth falls
    for node, path in _walk(e, _kids):
        cls = node.__class__
        if _SORT.get(cls) != "expression":
            raise ValueError(f"not a {_NOUN['expression']}: {_SHOW.repr(node)}")
        out.append(")" * (opened - len(path)) + (", " if path and path[-1][1] > 1 else ""))
        opened = len(path)
        if cls is Cnst:
            out.append("(" + ",".join(str(c) for c in node.value) + ")")
        elif _kids(node):
            out.append(f"{_TAGS[cls]}(" + "".join(f"{getattr(node, n)}, " for n in _LEAVES[cls]))
            opened += 1
        else:
            out.append(_TAGS[cls])
    return "".join(out) + ")" * opened


def parse_value(text: str) -> tuple[int, ...]:
    """Parse a tuple of naturals: ``2,3`` or ``(2,3)``."""
    cleaned = text.strip()
    if cleaned.startswith("(") and cleaned.endswith(")"):
        cleaned = cleaned[1:-1]
    if not cleaned:
        raise ParseError(f"empty value {_SHOW.repr(text)}")
    try:
        parts = tuple(int(p) for p in cleaned.split(","))
    except ValueError:
        raise ParseError(f"malformed value {_SHOW.repr(text)}") from None
    if any(p < 0 for p in parts):
        raise ParseError(f"value components must be naturals: {_SHOW.repr(text)}")
    return parts
