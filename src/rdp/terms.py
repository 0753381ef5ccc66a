"""First-order terms over an arity-checked signature.

Terms are immutable trees: a variable leaf or a symbol applied to exactly
``arity`` arguments.  Subterms are addressed by positions, tuples of 1-based
argument indices with ``()`` denoting the root.
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


@dataclass(frozen=True)
class App:
    """A symbol applied to exactly ``sym.arity`` argument terms."""

    sym: Symbol
    args: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        if len(self.args) != self.sym.arity:
            raise ValueError(
                f"symbol {self.sym.name!r} has arity {self.sym.arity}, "
                f"got {len(self.args)} arguments"
            )

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


def subterm_at(term: Term, pos: Position) -> Term:
    """The subterm of ``term`` at ``pos``."""
    current = term
    for depth, i in enumerate(pos):
        if not isinstance(current, App) or not 1 <= i <= len(current.args):
            raise InvalidPositionError(
                f"position {format_position(pos)} invalid at depth {depth} in {term_to_str(term)}"
            )
        current = current.args[i - 1]
    return current


def replace_at(term: Term, pos: Position, replacement: Term) -> Term:
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
        + (replace_at(term.args[i - 1], pos[1:], replacement),)
        + term.args[i:]
    )
    return App(term.sym, new_args)


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
