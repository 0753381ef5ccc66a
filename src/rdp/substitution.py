"""Substitutions and syntactic matching."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .terms import App, Term, Var, _write


class Substitution:
    """A finite map from variables to terms, identity elsewhere.

    Identity bindings are dropped on construction, so two substitutions are
    equal exactly when they act the same on every term.
    """

    __slots__ = ("_map",)

    def __init__(self, bindings: Mapping[Var, Term] | Iterable[tuple[Var, Term]] = ()):
        mapping = dict(bindings)
        self._map = {
            v: t for v, t in mapping.items() if not isinstance(t, Var) or t != v
        }

    def apply(self, term: Term) -> Term:
        """``term`` with each variable replaced by its binding, at any depth."""
        get = self._map.get
        if term.__class__ is not App:
            return get(term, term)
        # The applications above the one being rebuilt: (node, its arguments
        # still to visit, those built so far).
        stack: list[tuple[App, Iterator[Term], list[Term]]] = []
        node, todo, built = term, iter(term.args), []
        while True:
            for arg in todo:
                if arg.__class__ is not App:
                    built.append(get(arg, arg))
                elif arg.args:  # rebuild it first, then come back to the rest of todo
                    stack.append((node, todo, built))
                    node, todo, built = arg, iter(arg.args), []
                    break
                else:
                    built.append(arg)
            else:
                result = App(node.sym, tuple(built))
                if not stack:
                    return result
                node, todo, built = stack.pop()
                built.append(result)

    def get(self, var: Var) -> Term:
        return self._map.get(var, var)

    def items(self) -> Iterator[tuple[Var, Term]]:
        return iter(self._map.items())

    def restrict(self, keep: Iterable[Var]) -> Substitution:
        keep = set(keep)
        return Substitution({v: t for v, t in self._map.items() if v in keep})

    def __bool__(self) -> bool:
        return bool(self._map)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v.name} -> {_write(t)}" for v, t in sorted(self._map.items(), key=lambda it: it[0].name)
        )
        return "{" + inner + "}"


def match(pattern: Term, subject: Term) -> Substitution | None:
    """The unique substitution with ``apply(sigma, pattern) == subject``, if any.

    Non-linear patterns require equal subjects at repeated variables.
    """
    bindings: dict[Var, Term] = {}
    stack: list[tuple[Term, Term]] = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            seen = bindings.get(p)
            if seen is None:
                bindings[p] = s
            elif seen != s:
                return None
        elif isinstance(s, App) and (p.sym is s.sym or p.sym == s.sym):
            stack.extend(zip(p.args, s.args))
        else:
            return None
    return Substitution(bindings)
