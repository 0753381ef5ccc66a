"""First-order terms over an arity-checked signature.

Terms are immutable trees: a variable leaf or a symbol applied to exactly
``arity`` arguments.  Subterms are addressed by positions, tuples of 1-based
argument indices with ``()`` denoting the root.

An application node computes its hash once and keeps it, and hashing and
equality walk the term with an explicit stack, so both work at any depth
and a set or dict lookup of a term already hashed costs constant time.
Every walk to a position goes through one descent, ``_split_at``, and every
rebuild around one through ``_plug``; neither recurses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union


class InvalidPositionError(ValueError):
    """Raised when a position does not address a subterm of the given term."""


@dataclass(frozen=True)
class Symbol:
    name: str
    arity: int

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise ValueError(f"negative arity for symbol {self.name!r}")

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True)
class Var:
    """A variable, usable directly as a term."""

    name: str

    def __repr__(self) -> str:
        return self.name


# Stores a field of an immutable App, whose own __setattr__ refuses.
_set = object.__setattr__


class App:
    """A symbol applied to exactly ``sym.arity`` argument terms.

    Immutable.  The hash is computed on first use, for every descendant
    still without one, bottom-up with an explicit stack, and then kept in
    the node, so hashing and comparing terms of any depth never recurse.
    """

    __slots__ = ("sym", "args", "_hash")

    sym: Symbol
    args: tuple[Term, ...]

    def __init__(self, sym: Symbol, args: tuple[Term, ...] = ()) -> None:
        if len(args) != sym.arity:
            raise ValueError(
                f"symbol {sym.name!r} has arity {sym.arity}, got {len(args)} arguments"
            )
        _set(self, "sym", sym)
        _set(self, "args", args)
        _set(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable term")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable term")

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            stack: list[App] = [self]
            while stack:
                node = stack[-1]
                pending = [a for a in node.args if a.__class__ is App and a._hash is None]
                if pending:
                    stack += pending
                    continue
                stack.pop()
                _set(node, "_hash", hash((node.sym, *map(hash, node.args))))
            h = self._hash
        return h

    def __eq__(self, other: object) -> bool:
        """Structural equality.  Differing cached hashes settle it early, but
        no hash is ever computed here: equal terms built apart are compared
        node by node.
        """
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            ha, hb = a._hash, b._hash
            if ha is not None and hb is not None and ha != hb:
                return False
            if a.sym is not b.sym and a.sym != b.sym:
                return False
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if x.__class__ is App and y.__class__ is App:
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        return term_to_str(self)


Term = Union[Var, App]

Position = tuple[int, ...]
ROOT: Position = ()


@dataclass(frozen=True)
class Signature:
    """A set of symbols with pairwise distinct names.

    Symbols are stored sorted by name, so signatures built in different
    orders compare equal.
    """

    symbols: tuple[Symbol, ...]
    _by_name: dict[str, Symbol] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name: dict[str, Symbol] = {}
        for sym in self.symbols:
            if sym.name in by_name:
                raise ValueError(f"duplicate symbol name {sym.name!r}")
            by_name[sym.name] = sym
        object.__setattr__(
            self, "symbols", tuple(sorted(self.symbols, key=lambda s: s.name))
        )
        object.__setattr__(self, "_by_name", by_name)

    def get(self, name: str) -> Symbol | None:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)


def positions_of(term: Term) -> list[Position]:
    """All positions of ``term`` in pre-order (root first, arguments left to right)."""
    return [pos for pos, _ in subterms_of(term)]


# A frame is ``(symbol, arguments, i, ...)``: one ancestor on the path to a
# subterm, the path going on through its i-th argument (1-based).  Extra
# items are private to the walk that built the frame.
def _split_at(term: Term, pos: Position) -> tuple[list[tuple], Term]:
    """The path to ``pos`` in ``term``, one frame per ancestor, and the subterm there."""
    frames: list[tuple] = []
    current = term
    for depth, i in enumerate(pos):
        if not isinstance(current, App) or not 1 <= i <= len(current.args):
            stop = (
                f"{current.name} is a variable"
                if isinstance(current, Var)
                else f"{current.sym!r} has no argument {i}"
            )
            raise InvalidPositionError(
                f"position {format_position(pos)} invalid at depth {depth}: {stop}"
            )
        frames.append((current.sym, current.args, i))
        current = current.args[i - 1]
    return frames, current


def _plug(frames: list, term: Term) -> Term:
    """Rebuild the whole term around ``term`` from the path ``frames``."""
    for frame in reversed(frames):
        sym, args, i = frame[0], frame[1], frame[2]
        term = App(sym, (*args[: i - 1], term, *args[i:]))
    return term


def subterm_at(term: Term, pos: Position) -> Term:
    """The subterm of ``term`` at ``pos``."""
    return _split_at(term, pos)[1]


def replace_at(term: Term, pos: Position, replacement: Term) -> Term:
    """``term`` with the subterm at ``pos`` replaced by ``replacement``."""
    return _plug(_split_at(term, pos)[0], replacement)


def iter_vars(term: Term) -> Iterator[Var]:
    """Variable occurrences of ``term`` in pre-order (with repetitions)."""
    return (t for _, t in subterms_of(term) if isinstance(t, Var))


def vars_of(term: Term) -> frozenset[Var]:
    return frozenset(iter_vars(term))


def vars_in_order(term: Term) -> tuple[Var, ...]:
    """Distinct variables of ``term`` in order of first occurrence."""
    return tuple(dict.fromkeys(iter_vars(term)))


def subterms_of(term: Term) -> Iterator[tuple[Position, Term]]:
    """(position, subterm) pairs in pre-order."""
    stack: list[tuple[Position, Term]] = [(ROOT, term)]
    while stack:
        pos, t = stack.pop()
        yield pos, t
        if isinstance(t, App):
            for i in range(len(t.args), 0, -1):
                stack.append((pos + (i,), t.args[i - 1]))


def term_to_str(term: Term) -> str:
    """Render a term; constants print bare, like ``0`` rather than ``0()``."""
    if isinstance(term, Var):
        return term.name
    if not term.args:
        return term.sym.name
    return f"{term.sym.name}({','.join(term_to_str(a) for a in term.args)})"


def format_position(pos: Position) -> str:
    """Dot-separated 1-based indices; the root prints as the empty-path mark."""
    return ".".join(str(i) for i in pos) if pos else "ε"


def parse_position(text: str) -> Position:
    """Inverse of format_position; accepts the empty string for the root."""
    text = text.strip()
    if text in ("", "ε"):
        return ROOT
    try:
        indices = tuple(int(part) for part in text.split("."))
    except ValueError:
        raise InvalidPositionError(f"malformed position {text!r}") from None
    if any(i < 1 for i in indices):
        raise InvalidPositionError(f"position indices are 1-based: {text!r}")
    return indices


def symbols_of(term: Term) -> frozenset[Symbol]:
    return frozenset(t.sym for _, t in subterms_of(term) if isinstance(t, App))
