"""First-order terms over an arity-checked signature.

Terms are immutable trees: a variable leaf or a symbol applied to exactly
``arity`` arguments.  Subterms are addressed by positions, tuples of 1-based
argument indices with ``()`` denoting the root.

An application node computes its hash once and keeps it, and hashing and
equality walk the term with an explicit stack, so both work at any depth
and a set or dict lookup of a term already hashed costs constant time.
A path is a list of ``(parent, i)`` pairs from the root: ``_walk`` yields any
tree's nodes (PVS0 trees too) with theirs, ``_split_at`` descends to one
position and returns its path, ``_plug`` rebuilds around one; none recurses.
``_Zipper`` keeps a path of frames open from step to step and rebuilds a
node only when the path leaves it; ``check_trace``, the trace printer and
the trace reader replay steps on it, and ``normalize``'s walk uses its frames.

``_write`` prints on an explicit stack every term rdp shows but one
``normalize`` field, from the text pieces of ``_pieces``; the trace printer
writes each contractum from its rule's rhs pieces, placed by ``_size``.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterator, Union

_SHOW = reprlib.Repr()  # how every message shows a value it was given: a long one is cut at "..."
_SHOW.maxother = 200  # for a node or a pair; a string is cut at 30 characters, a list at 6 items


def _cut(text: str, limit: int = 200) -> str:
    """``text`` whole up to ``limit`` characters, else its two ends around "..."."""
    if len(text) <= limit:
        return text
    head = (limit - 3) // 2
    return f"{text[:head]}...{text[len(text) - (limit - 3 - head):]}"


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
        _put_sym(self, sym)
        _put_args(self, args)
        _put_hash(self, None)

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
                _put_hash(node, hash((node.sym, *map(hash, node.args))))
            h = self._hash
        return h

    def __eq__(self, other: object) -> bool:
        """Structural equality.  Differing cached hashes settle it early, but
        no hash is ever computed here: equal terms built apart are compared
        node by node, each pair of nodes pushed once, so terms that share
        subterms compare in time linear in their distinct nodes.  A chain of
        one-argument nodes is walked in place, with no stack or memo entry
        per node; only a chain shared below several pushed pairs is walked
        once per pair.
        """
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        stack = [(self, other)]
        # Keyed by the id of each left node pushed, the right node it was first
        # pushed with, and by an id pair, each pair pushed after that; both terms
        # keep these nodes alive, so their ids stay valid.
        pushed = {id(self): other}
        while stack:
            a, b = stack.pop()
            while True:  # down a chain of one-argument nodes in place
                ha, hb = a._hash, b._hash
                if ha is not None and hb is not None and ha != hb:
                    return False
                if a.sym is not b.sym and a.sym != b.sym:
                    return False
                if len(a.args) != 1:
                    break
                (x,), (y,) = a.args, b.args
                if x.__class__ is not App or y.__class__ is not App or x is y:
                    break
                a, b = x, y
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if x.__class__ is App and y.__class__ is App:
                    if not x.args:  # a constant: nothing below it to push
                        if x.sym is not y.sym and x.sym != y.sym:
                            return False
                        continue
                    key = id(x)
                    seen = pushed.get(key)
                    if seen is None:
                        pushed[key] = y
                    elif seen is y:
                        continue
                    else:
                        key = (key, id(y))
                        if key in pushed:
                            continue
                        pushed[key] = y
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        return _write(self)


# Store a field of an immutable App through its slot, past the __setattr__ that refuses.
_put_sym, _put_args, _put_hash = App.sym.__set__, App.args.__set__, App._hash.__set__

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


_index = itemgetter(1)  # the index in one step of a path, so tuple(map(_index, path)) is its position


def positions_of(term: Term) -> list[Position]:
    """All positions of ``term`` in pre-order (root first, arguments left to right)."""
    return [tuple(map(_index, path)) for _, path in _walk(term)]


def _no_position(pos: Position, depth: int, node: Term) -> InvalidPositionError:
    """The error for ``pos``, which stops at ``node``, at ``depth``."""
    stop = (
        f"{node.name} is a variable"
        if node.__class__ is Var
        else f"{node.sym!r} has no argument {pos[depth]}"
    )
    return InvalidPositionError(
        f"position {_cut(format_position(pos))} invalid at depth {depth}: {_cut(stop)}"
    )


# A path is a list of ``(parent, i)`` pairs, root first: each ancestor of a
# subterm and the 1-based index of the argument the path goes on through.
def _split_at(term: Term, pos: Position) -> tuple[list[tuple[App, int]], Term]:
    """The path to ``pos`` in ``term`` and the subterm there."""
    path: list[tuple[App, int]] = []
    current = term
    for depth, i in enumerate(pos):
        if not isinstance(current, App) or not 1 <= i <= len(current.args):
            raise _no_position(pos, depth, current)
        path.append((current, i))
        current = current.args[i - 1]
    return path, current


def _plug(path: list, term: Term) -> Term:
    """Rebuild the whole term around ``term`` from the path to its place."""
    for parent, i in reversed(path):
        args = parent.args
        term = App(parent.sym, (*args[: i - 1], term, *args[i:]))
    return term


def subterm_at(term: Term, pos: Position) -> Term:
    """The subterm of ``term`` at ``pos``."""
    return _split_at(term, pos)[1]


def replace_at(term: Term, pos: Position, replacement: Term) -> Term:
    """``term`` with the subterm at ``pos`` replaced by ``replacement``."""
    return _plug(_split_at(term, pos)[0], replacement)


# A zipper frame is ``[node, i, slot, args]``: an ancestor of the focus, the
# 1-based index of the argument the path goes on through, a slot its walk
# keeps there, and None until an argument changes, then the list of the
# arguments as they now are.  A node is rebuilt only when the path leaves it.
def _put(frame: list, child: Term) -> None:
    """Set the argument that ``frame`` goes on through to ``child``."""
    args = frame[3]
    if args is None:
        args = frame[3] = list(frame[0].args)
    args[frame[1] - 1] = child


def _leave(frames: list[list]) -> Term:
    """Pop the lowest frame and return its node, rebuilt if an argument
    changed and then put into the frame above."""
    node, _, _, args = frames.pop()
    if args is not None:
        node = App(node.sym, tuple(args))
        if frames:
            _put(frames[-1], node)
    return node


class _Zipper:
    """A term with a focus that steps move (Huet, "The Zipper", JFP 7(5),
    1997): ``focus`` is the subterm at ``pos``, and ``frames`` holds one
    frame per ancestor of it, root first, its slot None.  A move costs the
    levels it climbs and descends, and rebuilds only the changed nodes the
    path leaves."""

    def __init__(self, term: Term):
        self.frames: list[list] = []
        self.focus, self.pos = term, ROOT

    def seek(self, pos: Position) -> int:
        """Move the focus to ``pos`` and return the length of the prefix it
        shares with the position before: the path climbs to that prefix and
        descends from there.  A position the term lacks raises
        InvalidPositionError, after which the zipper is not used again."""
        old, frames = self.pos, self.frames
        same = min(len(old), len(pos))  # the depth down to which pos follows old
        if old[:same] != pos[:same]:
            same = next(d for d, (i, j) in enumerate(zip(old, pos)) if i != j)
        # Leave the frames below the shared prefix, and the one at its end too
        # when pos ends there: the focus is then the node that frame holds.
        while len(frames) > (same if same == len(pos) else same + 1):
            self.focus = _leave(frames)
        node, changed = self.focus, None
        if len(frames) > same:  # the node at depth ``same`` stays open: on through another argument
            node, _, _, changed = frames.pop()
        for depth in range(same, len(pos)):
            i = pos[depth]
            args = changed or (node.args if node.__class__ is App else ())
            if not 0 < i <= len(args):
                raise _no_position(pos, depth, node)
            frames.append([node, i, None, changed])
            node, changed = args[i - 1], None
        self.focus, self.pos = node, pos
        return same

    def put(self, node: Term) -> None:
        """Replace the subterm at the focus by ``node``."""
        self.focus = node
        if self.frames:
            _put(self.frames[-1], node)

    def term(self) -> Term:
        """The whole term as it now is; every frame is left, up to the root."""
        while self.frames:
            self.focus = _leave(self.frames)
        self.pos = ROOT
        return self.focus


def iter_vars(term: Term) -> Iterator[Var]:
    """Variable occurrences of ``term`` in pre-order (with repetitions)."""
    return (t for t, _ in _walk(term) if isinstance(t, Var))


def vars_of(term: Term) -> frozenset[Var]:
    return frozenset(iter_vars(term))


def vars_in_order(term: Term) -> tuple[Var, ...]:
    """Distinct variables of ``term`` in order of first occurrence."""
    return tuple(dict.fromkeys(iter_vars(term)))


def _args(term: Term) -> tuple[Term, ...]:
    return term.args if term.__class__ is App else ()


def _walk(root: object, kids: Callable[[object], tuple] = _args) -> Iterator[tuple]:
    """Each node under ``root`` in pre-order with its path, one ``(parent, i)`` per step
    down (``i`` 1-based) in a list valid until the walk resumes.  ``kids`` lists a node's
    subtrees.  The walk has left a node when it yields one no deeper, or when it ends."""
    path: list[tuple] = []
    node = root
    while True:
        yield node, path
        subtrees, i = kids(node), 0
        while i == len(subtrees):  # climb past the nodes whose subtrees are all walked
            if not path:
                return
            node, i = path.pop()
            subtrees = kids(node)
        path.append((node, i + 1))
        node = subtrees[i]


def term_to_str(term: Term) -> str:
    """Render a term by recursion, which fails near 330 levels; constants print
    bare, like ``0`` rather than ``0()``.  Its one caller left in ``src/rdp`` is
    ``last`` in a fuel-exhausted ``cli._cmd_normalize``, where a deep end still
    fails short: printed, it would bring its trace, megabytes at growing fuel."""
    if isinstance(term, Var):
        return term.name
    if not term.args:
        return term.sym.name
    return f"{term.sym.name}({','.join(term_to_str(a) for a in term.args)})"


def _write(term: Term) -> str:
    """``term``'s text, as ``term_to_str`` has it, on one explicit stack at any depth."""
    return "".join([p if p.__class__ is str else p.name for p in _pieces(term)])


def _pieces(term: Term) -> list:
    """``term``'s text in pieces: strings, and each variable occurrence left
    as the variable, for a caller that puts a text in its place."""
    pieces: list = []
    part: list[str] = []
    todo: list = [term]  # terms to write, and the "," and ")" between and after arguments
    while todo:
        node = todo.pop()
        cls = node.__class__
        if cls is App:
            args = node.args
            part.append(node.sym.name)
            if args:
                part.append("(")
                todo.append(")")
                if len(args) == 1:
                    todo.append(args[0])
                else:
                    rest = [","] * (2 * len(args) - 1)
                    rest[::2] = args[::-1]
                    todo += rest
        elif cls is str:
            part.append(node)
        else:
            pieces += ["".join(part), node]
            part = []
    pieces.append("".join(part))
    return pieces


def _size(node: Term, sizes: dict[int, int], keep: list[Term]) -> int:
    """The length of ``node``'s text, kept in ``sizes`` by ``id`` for each
    node with arguments it computes; a pass bottom-up that stops at nodes
    already kept, as ``App.__hash__`` does: a node that waits for its
    arguments is summed again once they are kept.  Every node it adds is
    ``node`` or below it, and ``node`` goes into ``keep``, which holds them
    alive, so no id in ``sizes`` is reused while ``keep`` lives."""
    if node.__class__ is Var:
        return len(node.name)
    if not node.args:
        return len(node.sym.name)
    size = sizes.get(id(node))
    if size is None:
        keep.append(node)
        stack = [node]
        while stack:
            top = stack[-1]
            size, waiting = len(top.sym.name) + 1 + len(top.args), False
            for a in top.args:
                if a.__class__ is Var:
                    size += len(a.name)
                elif not a.args:
                    size += len(a.sym.name)
                elif id(a) in sizes:
                    size += sizes[id(a)]
                else:
                    stack.append(a)
                    waiting = True
            if not waiting:
                sizes[id(stack.pop())] = size
    return size


def format_position(pos: Position) -> str:
    """Dot-separated 1-based indices; the root prints as the empty-path mark."""
    return ".".join(map(str, pos)) if pos else "ε"


def parse_position(text: str) -> Position:
    """Inverse of format_position; accepts the empty string for the root."""
    text = text.strip()
    if text in ("", "ε"):
        return ROOT
    try:
        indices = tuple(int(part) for part in text.split("."))
    except ValueError:
        raise InvalidPositionError(f"malformed position {_SHOW.repr(text)}") from None
    if any(i < 1 for i in indices):
        raise InvalidPositionError(f"position indices are 1-based: {_SHOW.repr(text)}")
    return indices


def symbols_of(term: Term) -> frozenset[Symbol]:
    return frozenset(t.sym for t, _ in _walk(term) if isinstance(t, App))
