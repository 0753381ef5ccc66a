"""Rewrite rules and four reduction relations, with fuel-bounded search.

The relations differ along two independent axes: whether the root position
may be rewritten, and whether a redex must have all proper subterms in
normal form (the innermost side condition).  All searches are deterministic:
candidate steps are ordered by position in pre-order with ties broken by
rule index, and breadth-first exploration visits terms in that order.

One successor core answers every question about redexes.  Rules are
indexed by the root symbol of their lhs, each matches through its lhs
compiled once into a flat table (``Rule._match``), and every walk asks one
rule, ``_may_fire``, whether a position may fire under a mode.
``iter_successors`` first records in one bottom-up pass, per node, the
matching rules and whether a redex lies below, then rides the walk of
``terms`` over that table to the positions that may fire.  A breadth-first
search keeps one such table for all the terms it expands, so each expansion
matches only the nodes it has not seen and skips every subterm without a
redex; on a term that grows by a node per step, fuel buys work linearly.
``normalize`` always takes the first of those steps.  Its one walk is a
zipper over the current term: a path of frames that rebuilds a parent only
when the walk leaves it, and resumes after each contractum instead of
rescanning from the root.  Under ``full`` and ``non-root`` it tries a node
on the way down (leftmost-outermost) and, after a step, rebuilds and
re-checks only the redex's ancestors within the depth of the deepest
left-hand side (all of them when some left-hand side is non-linear).
Under the innermost modes it tries a node on the way up (leftmost-innermost)
and never enters a contractum's variable parts, which are normal.  Its
traces are the ones the original definitions, which rescanned the whole
term per step, produced.

A step records the choice a checker recomputes, its position, rule and
substitution, and not the term it makes (as CPF records a step for CeTA,
Thiemann & Sternagel, TPHOLs 2009).  A trace keeps its start and its end;
``DerivationTrace.terms`` and ``check_trace`` replay the terms between,
``check_trace`` on the zipper of ``terms`` that the trace printer and
reader ride too, so a step costs the levels its position moves.

The one boolean question, whether a redex is nr-normal, which replay and
the dependency-pair checks ask, has its own walk: it visits each distinct
node once and stops at the first match, so it costs time linear in the
distinct nodes of a term whose steps duplicated subterms, not in the size
of its unfolded tree.

Fuel bounds work, never correctness: a positive answer always carries a
replayable trace, a negative answer only says nothing was found within fuel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator

# ``match`` stays bound here too: the benchmark's tracer wraps a function in
# every namespace that binds it, and its self-test reads this binding.
from .substitution import Substitution, _holding, match  # noqa: F401
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
    _args,
    _index,
    _leave,
    _pieces,
    _plug,
    _put,
    _split_at,
    _walk,
    _write,
    format_position,
    iter_vars,
    replace_at,
    subterm_at,
    symbols_of,
    vars_of,
)

DEFAULT_FUEL = 10_000


class RelationMode(Enum):
    """Which one-step reduction relation is in force."""

    FULL = "full"
    NON_ROOT = "non-root"
    INNERMOST = "innermost"
    NON_ROOT_INNERMOST = "non-root-innermost"

    @property
    def non_root(self) -> bool:
        return self in (RelationMode.NON_ROOT, RelationMode.NON_ROOT_INNERMOST)

    @property
    def innermost(self) -> bool:
        return self in (RelationMode.INNERMOST, RelationMode.NON_ROOT_INNERMOST)


class RuleRestrictionError(ValueError):
    """A rule whose lhs is a variable, or whose rhs invents variables."""


class FuelExhausted(Exception):
    """Normalization ran out of fuel; ``trace`` holds the steps taken so far."""

    def __init__(self, trace: DerivationTrace):
        super().__init__(f"fuel exhausted after {len(trace.steps)} steps")
        self.trace = trace


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term
    index: int

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise RuleRestrictionError(
                f"rule {self.index}: left-hand side is the variable {_SHOW.repr(self.lhs.name)}"
            )
        extra = vars_of(self.rhs) - vars_of(self.lhs)
        if extra:
            names = _SHOW.repr(sorted(v.name for v in extra))
            raise RuleRestrictionError(
                f"rule {self.index}: right-hand side invents variables {names}"
            )

    def __repr__(self) -> str:
        return f"{_write(self.lhs)} -> {_write(self.rhs)}"

    @cached_property
    def _shape(self) -> tuple[dict[str, Position], list]:
        """Where each variable of the lhs first occurs, by name, and the rhs's
        text in pieces (``terms._pieces``): what the trace printer reads of
        a rule at every step, worked out once per rule."""
        places: dict[str, Position] = {}
        for node, path in _walk(self.lhs):
            if node.__class__ is Var:
                places.setdefault(node.name, tuple(map(_index, path)))
        return places, _pieces(self.rhs)

    @cached_property
    def _match(self) -> Callable[[Term], Substitution | None]:
        """The lhs compiled into a matcher once per rule: ``rule._match(s)``
        is ``match(rule.lhs, s)``, which interprets the lhs again at every
        call (Maranget, "Compiling pattern matching to good decision
        trees", ML Workshop 2008, for one pattern at a time).

        The lhs becomes a flat table.  Slot 0 is the subject, and slot k
        its node at the k-th non-variable position below the root, read
        breadth-first: check k is ``(slot, i, sym, name)``, argument ``i``
        of an earlier slot, which must be an application of ``sym``.  Each
        variable is bound from ``(slot, i)`` at its first occurrence in the
        order ``match`` meets them, so both bind the same nodes, and each
        later occurrence is one pair of places whose subterms are equal.
        """
        lhs, checks = self.lhs, []
        slot_of = {ROOT: 0}
        level = [(ROOT, lhs)]
        while level:
            below = []
            for pos, node in level:
                for i, arg in enumerate(node.args):
                    if arg.__class__ is App:
                        checks.append((slot_of[pos], i, arg.sym, arg.sym.name))
                        slot_of[pos + (i + 1,)] = len(checks)
                        below.append((pos + (i + 1,), arg))
            level = below
        binds, repeats, first = [], [], {}
        stack = [(ROOT, lhs)]
        while stack:  # match's own order: pre-order, the last argument first
            pos, node = stack.pop()
            if node.__class__ is Var:
                place = (slot_of[pos[:-1]], pos[-1] - 1)
                if node in first:
                    repeats.append((*first[node], *place))
                else:
                    first[node] = place
                    binds.append((node, *place))
            else:
                stack += [(pos + (i,), arg) for i, arg in enumerate(node.args, 1)]
        root = lhs.sym

        def matcher(node: Term) -> Substitution | None:
            if node.__class__ is not App:
                return None
            head = node.sym
            if head is not root and head != root:
                return None
            slots = [node]
            for slot, i, sym, name in checks:
                arg = slots[slot].args[i]
                if arg.__class__ is not App:
                    return None
                have = arg.sym
                if have is not sym and (have.name != name or have != sym):
                    return None
                slots.append(arg)
            for slot, i, other, j in repeats:
                a, b = slots[slot].args[i], slots[other].args[j]
                if a is not b and a != b:
                    return None
            bindings = {}
            for var, slot, i in binds:
                value = slots[slot].args[i]
                if value.__class__ is not Var or value != var:  # no identity binding
                    bindings[var] = value
            return _holding(bindings)

        return matcher


@dataclass(frozen=True)
class TRS:
    """A finite set of rules, indexed 0..n-1 in file order."""

    signature: Signature
    variables: frozenset[Var]
    rules: tuple[Rule, ...]
    # Rules by the name of their lhs root symbol, in index order.
    _by_root: dict[str, tuple[Rule, ...]] = field(init=False, repr=False, compare=False)
    # Root symbols of left-hand sides.
    _defined: frozenset[Symbol] = field(init=False, repr=False, compare=False)
    # How far above a changed position a redex can appear: the depth of the
    # deepest non-variable position of any lhs, None when some lhs is non-linear.
    _reach: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_root: dict[str, list[Rule]] = {}
        for i, rule in enumerate(self.rules):
            if rule.index != i:
                raise ValueError(f"rule {i} carries index {rule.index}")
            by_root.setdefault(rule.lhs.sym.name, []).append(rule)
        object.__setattr__(
            self, "_by_root", {name: tuple(rules) for name, rules in by_root.items()}
        )
        object.__setattr__(self, "_defined", frozenset(r.lhs.sym for r in self.rules))
        reach: int | None = 0
        for rule in self.rules:
            occurrences = list(iter_vars(rule.lhs))
            if len(occurrences) != len(set(occurrences)):
                reach = None
                break
            reach = max(reach, *(len(p) for t, p in _walk(rule.lhs) if t.__class__ is App))
        object.__setattr__(self, "_reach", reach)


def trs_of(*rules: tuple[Term, Term]) -> TRS:
    """Build a TRS from lhs/rhs pairs, inferring signature and variables."""
    indexed = tuple(Rule(l, r, i) for i, (l, r) in enumerate(rules))
    symbols: set[Symbol] = set()
    variables: set[Var] = set()
    for rule in indexed:
        for t in (rule.lhs, rule.rhs):
            symbols |= symbols_of(t)
            variables |= vars_of(t)
    return TRS(Signature(tuple(symbols)), frozenset(variables), indexed)


def defined_symbols(trs: TRS) -> frozenset[Symbol]:
    """Root symbols of left-hand sides; everything else is a constructor."""
    return trs._defined


@dataclass(frozen=True, slots=True)
class Step:
    """One reduction: ``rule`` fired at ``position`` with ``substitution``.

    A step is the choice a checker recomputes, not the term it makes: the
    result is the term before with ``substitution.apply(rule.rhs)`` at
    ``position``, which replay rebuilds (``DerivationTrace.terms``,
    ``check_step``)."""

    position: Position
    rule: Rule
    substitution: Substitution

    @property
    def rule_index(self) -> int:
        return self.rule.index

    def __repr__(self) -> str:
        return f"{self.rule.index}@{format_position(self.position)} {self.substitution!r}"


@dataclass(frozen=True)
class DerivationTrace:
    """``start`` rewritten by ``steps`` under ``mode`` to ``end``; the terms
    between are not kept, and ``terms`` replays them."""

    start: Term
    steps: tuple[Step, ...]
    mode: RelationMode
    end: Term

    def terms(self) -> Iterator[Term]:
        """Each term of the derivation, ``start`` first, each step's result
        rebuilt from the term before; ``end`` is not consulted."""
        term = self.start
        yield term
        for step in self.steps:
            term = replace_at(term, step.position, step.substitution.apply(step.rule.rhs))
            yield term

    def __len__(self) -> int:
        return len(self.steps)


# --- the successor core ------------------------------------------------------
#
# Paths are those of ``terms``, one ``(parent, i)`` per step down, and ``_plug``
# rebuilds a term around a contractum from one.  ``iter_successors`` rides
# ``_walk``; ``_leftmost`` keeps its own path of ``terms`` zipper frames,
# and ``check_trace`` replays on a ``terms._Zipper``.


def _matches(trs: TRS, node: App) -> list[tuple[Rule, Substitution]]:
    """Rules matching at the root of ``node``, by rule index, with their substitutions."""
    out = []
    for rule in trs._by_root.get(node.sym.name, ()):
        sigma = rule._match(node)
        if sigma is not None:
            out.append((rule, sigma))
    return out


def _redex_table(trs: TRS, term: Term, table: dict[int, tuple]) -> dict[int, tuple]:
    """Add to ``table`` every application node of ``term`` it lacks, keyed by
    ``id``, and return it.  An entry is ``(matches, below, node)``: the rules
    matching at the node, whether a redex lies strictly below it, and the
    node itself, which keeps its ``id`` from being reused while the table
    lives.

    One bottom-up pass that stops at nodes already present, so a table kept
    across the terms of one search matches each node once, however many
    terms share it.  A table is only valid for the ``trs`` that filled it.
    """
    stack: list[Term] = [term]
    while stack:
        node = stack[-1]
        if isinstance(node, Var) or id(node) in table:
            stack.pop()
            continue
        pending = [a for a in node.args if isinstance(a, App) and id(a) not in table]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        below = False
        for arg in node.args:
            if isinstance(arg, App):
                matches, arg_below, _ = table[id(arg)]
                if matches or arg_below:
                    below = True
                    break
        table[id(node)] = (_matches(trs, node), below, node)
    return table


def _may_fire(mode: RelationMode, at_root: bool, redex_below: Callable[[], bool]) -> bool:
    """Whether a redex may fire under ``mode``: never at the root under a
    non-root mode, and under an innermost mode only with no redex below it.
    """
    if mode.non_root and at_root:
        return False
    return not (mode.innermost and redex_below())


def is_nr_normal_form(trs: TRS, term: Term, normal: dict[int, App] | None = None) -> bool:
    """True when every proper subterm of ``term`` is a normal form.

    This is the innermost side condition: a redex may fire only when it is
    nr-normal.  One walk on a plain stack visits each distinct node below
    the root once, however often it is shared, and stops at the first one a
    rule matches.  ``normal`` maps the ids of nodes already found normal to
    the nodes, which the walk skips, and gains every node it visits when the
    answer is True; holding the nodes keeps their ids from being reused.
    """
    seen: dict[int, App] = {}
    known = () if normal is None else normal
    stack = list(_args(term))
    while stack:
        node = stack.pop()
        if node.__class__ is App and id(node) not in seen and id(node) not in known:
            if _matches(trs, node):
                return False
            seen[id(node)] = node
            stack.extend(node.args)
    if normal is not None:
        normal.update(seen)
    return True


def iter_successors(
    trs: TRS, term: Term, mode: RelationMode, table: dict[int, tuple] | None = None
) -> Iterator[tuple[Step, Term]]:
    """One-step reducts under ``mode``, each as ``(step, result)``, ordered by
    (position pre-order, rule index).

    The walk first adds the nodes of ``term`` that the redex ``table`` (see
    ``_redex_table``) lacks, then reads every node's matches from it and
    skips every subterm without a redex.  One search keeps one table for
    ``trs`` across the terms it expands; without one the call builds a
    table for ``term`` alone.
    """
    table = _redex_table(trs, term, {} if table is None else table)
    kids = lambda node: (  # a node's arguments, if a redex lies there
        node.args if node.__class__ is App and table[id(node)][1] else ()
    )
    for node, path in _walk(term, kids):
        if node.__class__ is App:
            matches, below, _ = table[id(node)]
            if matches and _may_fire(mode, not path, lambda: below):
                pos = tuple(map(_index, path))
                for rule, sigma in matches:
                    yield Step(pos, rule, sigma), _plug(path, sigma.apply(rule.rhs))


def successors(trs: TRS, term: Term, mode: RelationMode) -> list[Step]:
    """The steps of ``iter_successors``, without their results."""
    return [step for step, _ in iter_successors(trs, term, mode)]


def reduce_at(
    trs: TRS, term: Term, pos: Position, mode: RelationMode
) -> Step | None:
    """The lowest-rule-index step at ``pos`` valid under ``mode``, if any; an
    invalid ``pos`` raises InvalidPositionError."""
    sub = subterm_at(term, pos)
    if sub.__class__ is App and _may_fire(mode, not pos, lambda: not is_nr_normal_form(trs, sub)):
        for rule, sigma in _matches(trs, sub):
            return Step(pos, rule, sigma)
    return None


def _leftmost(
    trs: TRS, term: Term, mode: RelationMode, fuel: int
) -> tuple[list[Step], Term, bool]:
    """The derivation under ``mode`` that always fires the first position in
    pre-order where a step may fire, for at most ``fuel`` steps: the steps,
    the term they reach, and whether a step was left to take there.

    The walk is a zipper over the current term: one ``terms`` zipper frame
    per ancestor, whose slot holds the hint's arguments.  A step puts its
    contractum into its parent's frame, and a parent is rebuilt only when
    the walk leaves it, so the steps below one ancestor rebuild it once.
    Outermost, a node is tried when the walk enters it; innermost, when
    the walk leaves it (leaves too), since the first redex in post-order is
    the leftmost innermost one.  Positions tried before may not fire, and a
    step changes only the redex's ancestors among them.  Innermost, those
    are tried when left anyway, and a hint that is a variable (of the
    rule's rhs, in a contractum) marks a normal subterm, never entered.
    Outermost, a linear lhs matches afresh only where the change lies at
    its non-variable positions, so the ancestors within ``trs._reach``
    levels (all of them when some lhs is non-linear) are rebuilt and tried
    again, top-down; the first that may fire is next.
    """
    inner, reach = mode.innermost, trs._reach
    # The walk tries a node only when nothing below it may fire, so
    # _may_fire's answer turns on the root alone: a node below the root
    # may fire under every mode, and the root as this says.
    fires_at_root = _may_fire(mode, True, lambda: False)
    steps: list[Step] = []
    path: list[list] = []
    node, hint, down, fired = term, term, True, []
    while True:
        if (
            not fired
            and down != inner
            and node.__class__ is App
            and hint.__class__ is not Var
            and (path or fires_at_root)
        ):
            fired = _matches(trs, node)
        if fired:
            if len(steps) >= fuel:
                while path:  # leave every frame: the term the steps reached
                    node = _leave(path)
                return steps, node, True
            rule, sigma = fired[0]
            steps.append(Step(tuple(map(_index, path)), rule, sigma))
            node = sigma.apply(rule.rhs)
            hint, down, fired = rule.rhs if inner else node, True, []
            if path:
                _put(path[-1], node)
            if not inner and path:
                lowest = 0 if reach is None else max(len(path) - reach, 0)
                for depth in range(len(path) - 1, lowest - 1, -1):
                    frame = path[depth]
                    frame[0], frame[3] = App(frame[0].sym, tuple(frame[3])), None
                    if depth:
                        _put(path[depth - 1], frame[0])
                for depth in range(lowest, len(path)):
                    if depth or fires_at_root:
                        fired = _matches(trs, path[depth][0])
                        if fired:
                            node = path[depth][0]
                            del path[depth:]
                            break
        elif down and node.__class__ is App and node.args and hint.__class__ is not Var:
            path.append([node, 1, hint.args, None])
            node, hint = node.args[0], hint.args[0]
        elif down:
            down = False  # leave the node, so an innermost walk tries it
        elif path:
            top = path[-1]
            parent, i, hints, _ = top
            if i < len(parent.args):
                top[1] = i + 1
                node, hint, down = parent.args[i], hints[i], True
            else:
                node = hint = _leave(path)
        else:
            return steps, node, False


def normalize(
    trs: TRS, term: Term, mode: RelationMode, fuel: int = DEFAULT_FUEL
) -> DerivationTrace:
    """Reduce until a mode-normal form, always firing the lowest-index rule
    at the first position in pre-order where ``mode`` allows a step.

    Under ``full`` and ``non-root`` that is the leftmost-outermost strategy,
    under the innermost modes the leftmost-innermost one; one walk,
    ``_leftmost``, computes both.  Each step consumes one unit of fuel;
    raises FuelExhausted (carrying the partial trace) if no normal form is
    reached within ``fuel`` steps.
    """
    steps, end, more = _leftmost(trs, term, mode, fuel)
    trace = DerivationTrace(term, tuple(steps), mode, end)
    if more:
        raise FuelExhausted(trace)
    return trace


def explore(
    trs: TRS, start: Term, mode: RelationMode, fuel: int
) -> Iterator[tuple[Term, list[tuple[Step, Term, bool | None]]]]:
    """Breadth-first exploration from ``start``, one expanded term at a time.

    Yields each expanded term with its steps in successor order, each as
    ``(step, result, admitted)``: admitted is True when the result was
    admitted just now, False when it was admitted before, and None when it
    is new but refused because ``fuel`` terms are already admitted.  Refused
    terms are never expanded; what a refusal means is the caller's fuel rule.

    One redex table serves the whole search.  A successor shares all but
    the rebuilt path and the contractum with the term it came from, so each
    expansion matches only the nodes it has not seen, and terms hash once;
    on a term that grows by a node per step, fuel buys work linearly.
    """
    admitted: set[Term] = {start}
    queue: deque[Term] = deque([start])
    table: dict[int, tuple] = {}
    while queue:
        u = queue.popleft()
        tagged: list[tuple[Step, Term, bool | None]] = []
        for step, v in iter_successors(trs, u, mode, table):
            if v in admitted:
                tagged.append((step, v, False))
            elif len(admitted) >= fuel:
                tagged.append((step, v, None))
            else:
                admitted.add(v)
                queue.append(v)
                tagged.append((step, v, True))
        yield u, tagged


def derives(
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
        return DerivationTrace(source, (), mode, source)
    parent: dict[Term, tuple[Term, Step]] = {}
    for u, tagged in explore(trs, source, mode, fuel):
        for step, v, fresh in tagged:
            if fresh is None:
                return None
            if not fresh:
                continue
            parent[v] = (u, step)
            if v == target:
                steps: list[Step] = []
                node = v
                while node != source:
                    node, st = parent[node]
                    steps.append(st)
                steps.reverse()
                return DerivationTrace(source, tuple(steps), mode, v)
    return None


def _check(
    trs: TRS, zipper: _Zipper, step: Step, mode: RelationMode, normal: dict[int, App]
) -> bool:
    """Replay ``step`` on ``zipper``: whether it is one of the steps ``mode``
    allows at its position (its rule one of ``trs``'s that match there, its
    substitution their matcher), and if so, with its contractum put there.
    ``normal`` is as for ``is_nr_normal_form``."""
    try:
        zipper.seek(step.position)
    except InvalidPositionError:
        return False
    sub = zipper.focus
    if sub.__class__ is App and _may_fire(
        mode, not step.position, lambda: not is_nr_normal_form(trs, sub, normal)
    ):
        given = step.substitution
        for rule, sigma in _matches(trs, sub):
            if rule == step.rule and sigma == given:
                # The contractum holds the step's own bindings, so that a later
                # step that binds them again compares them by identity; those
                # equal to a node found normal are known normal too.
                for var, value in sigma.items():
                    if id(value) in normal:
                        normal[id(given.get(var))] = given.get(var)
                zipper.put(given.apply(rule.rhs))
                return True
    return False


def check_step(trs: TRS, source: Term, step: Step, mode: RelationMode) -> Term | None:
    """Replay one step: the result, if ``_check`` finds it one of the steps
    ``mode`` allows at its position in ``source``, else None."""
    zipper = _Zipper(source)
    return zipper.term() if _check(trs, zipper, step, mode, {}) else None


def check_trace(trs: TRS, trace: DerivationTrace) -> bool:
    """Replay a whole trace under its recorded mode on one zipper, then
    compare the term it reaches with its ``end``.  The nodes found normal
    stay known for the steps after, so an innermost replay walks the normal
    part below each redex only where the step before built it."""
    zipper, normal = _Zipper(trace.start), {}
    for step in trace.steps:
        if not _check(trs, zipper, step, trace.mode, normal):
            return False
    return zipper.term() == trace.end


def embed_trace(context: Term, pos: Position, trace: DerivationTrace) -> DerivationTrace:
    """Run ``trace`` inside ``context`` at ``pos``.

    Validity under the same mode is preserved because both the matching and
    the innermost side condition only look at the redex subterm, which the
    embedding does not change.  Only the start and the end are plugged.
    """
    path, _ = _split_at(context, pos)
    steps = tuple(Step(pos + s.position, s.rule, s.substitution) for s in trace.steps)
    return DerivationTrace(_plug(path, trace.start), steps, trace.mode, _plug(path, trace.end))
