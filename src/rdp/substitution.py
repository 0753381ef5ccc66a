"""Substitutions, syntactic matching, and fresh renaming of variables."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .terms import App, Term, Var, iter_vars, term_to_str, vars_in_order


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
        if isinstance(term, Var):
            return self._map.get(term, term)
        return App(term.sym, tuple(self.apply(a) for a in term.args))

    def get(self, var: Var) -> Term:
        return self._map.get(var, var)

    def domain(self) -> frozenset[Var]:
        return frozenset(self._map)

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
            f"{v.name} -> {term_to_str(t)}" for v, t in sorted(self._map.items(), key=lambda it: it[0].name)
        )
        return "{" + inner + "}"


EMPTY_SUBSTITUTION = Substitution()


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


def rename_apart(term: Term, forbidden: Iterable[Var]) -> tuple[Term, Substitution]:
    """A variant of ``term`` sharing no variable with ``forbidden``.

    Clashing variables get fresh names ``base#k`` with the least k avoiding
    the forbidden set, the term's own variables, and earlier picks.  Returns
    the variant together with the variable renaming that produced it.
    """
    forbidden_names = {v.name for v in forbidden}
    used = forbidden_names | {v.name for v in iter_vars(term)}
    renaming: dict[Var, Term] = {}
    for v in vars_in_order(term):
        if v.name not in forbidden_names:
            continue
        k = 1
        while f"{v.name}#{k}" in used:
            k += 1
        fresh = f"{v.name}#{k}"
        used.add(fresh)
        renaming[v] = Var(fresh)
    sigma = Substitution(renaming)
    return sigma.apply(term), sigma
