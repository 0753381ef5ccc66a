"""Rewrite rules and four reduction relations, with fuel-bounded search.

The relations differ along two independent axes: whether the root position
may be rewritten, and whether a redex must have all proper subterms in
normal form (the innermost side condition).  All searches are deterministic:
candidate steps are ordered by position in pre-order with ties broken by
rule index, and breadth-first exploration visits terms in that order.

One successor core answers every question about redexes.  Rules are
indexed by the root symbol of their lhs; a pre-order walk over the term
yields the positions that may fire, and under the innermost modes one
bottom-up pass first records, per node, the matching rules and whether a
redex lies below.  Every walk asks one rule, ``_may_fire``, whether a
position may fire under a mode.  A breadth-first search keeps one such
table for all the terms it expands, under every mode, so each expansion
matches only the nodes it has not seen and skips every subterm without a
redex; on a term that grows by a node per step, fuel buys work linearly.
``normalize`` always takes the first of those steps: leftmost-outermost
under ``full`` and ``non-root``, leftmost-innermost under the innermost
modes, where it is computed call by value (arguments left to right, then
the root).  Its traces are the ones the original definitions, which
rescanned the whole term for every step, produced.

Fuel bounds work, never correctness: a positive answer always carries a
replayable trace, a negative answer only says nothing was found within fuel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

from .substitution import Substitution, match
from .terms import (
    App,
    InvalidPositionError,
    Position,
    Signature,
    Symbol,
    Term,
    Var,
    _plug,
    _split_at,
    format_position,
    symbols_of,
    term_to_str,
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
                f"rule {self.index}: left-hand side is the variable {self.lhs.name}"
            )
        extra = vars_of(self.rhs) - vars_of(self.lhs)
        if extra:
            names = ", ".join(sorted(v.name for v in extra))
            raise RuleRestrictionError(
                f"rule {self.index}: right-hand side invents variables {names}"
            )

    def __repr__(self) -> str:
        return f"{term_to_str(self.lhs)} -> {term_to_str(self.rhs)}"


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


@dataclass(frozen=True)
class Step:
    """One reduction: rule ``rule_index`` fired at ``position`` with ``substitution``."""

    position: Position
    rule_index: int
    substitution: Substitution
    result: Term

    def __repr__(self) -> str:
        return (
            f"--{self.rule_index}@{format_position(self.position)}--> "
            f"{term_to_str(self.result)}"
        )


@dataclass(frozen=True)
class DerivationTrace:
    start: Term
    steps: tuple[Step, ...]
    mode: RelationMode

    @property
    def end(self) -> Term:
        return self.steps[-1].result if self.steps else self.start

    def terms(self) -> Iterator[Term]:
        yield self.start
        for step in self.steps:
            yield step.result

    def __len__(self) -> int:
        return len(self.steps)


# --- the successor core ------------------------------------------------------
#
# The walks below keep a path as ``terms`` frames (see ``_split_at``), made
# lists so that a walk can advance ``i`` in place, and rebuild with ``_plug``.


def _matches(trs: TRS, node: App) -> list[tuple[Rule, Substitution]]:
    """Rules matching at the root of ``node``, by rule index, with their substitutions."""
    out = []
    for rule in trs._by_root.get(node.sym.name, ()):
        sigma = match(rule.lhs, node)
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


def _fireable(
    trs: TRS,
    term: Term,
    mode: RelationMode,
    table: dict[int, tuple] | None = None,
) -> Iterator[tuple[list[list], list[tuple[Rule, Substitution]]]]:
    """Each position of ``term`` that may fire under ``mode``, in pre-order,
    as its path and its matching rules.

    The path is only valid until the walk resumes.  Given a redex ``table``
    (see ``_redex_table``), the walk first adds the nodes of ``term`` it
    lacks, then reads matches from it under every mode and skips every
    subterm without a redex.  Without one, innermost modes build a table for
    ``term`` alone, and the other modes match lazily during the walk, so
    that a caller asking for the first position stops early.
    """
    if isinstance(term, Var):
        return
    if table is not None:
        _redex_table(trs, term, table)
    elif mode.innermost:
        table = _redex_table(trs, term, {})
    frames: list[list] = []
    node: Term = term
    while True:
        if isinstance(node, App):
            if table is None:
                # Not known without the pass; only innermost modes need it.
                matches, below = _matches(trs, node), True
            else:
                matches, below, _ = table[id(node)]
            if matches and _may_fire(mode, not frames, lambda: below):
                yield frames, matches
            if node.args and below:
                frames.append([node.sym, node.args, 0])
        while frames:
            frame = frames[-1]
            if frame[2] < len(frame[1]):
                node = frame[1][frame[2]]
                frame[2] += 1
                break
            frames.pop()
        else:
            return


def has_redex(trs: TRS, term: Term) -> bool:
    """True when some rule matches at some position of ``term``."""
    return next(_fireable(trs, term, RelationMode.FULL), None) is not None


def is_nr_normal_form(trs: TRS, term: Term) -> bool:
    """True when every proper subterm of ``term`` is a normal form.

    This is the innermost side condition: a redex may fire only when it is
    nr-normal.
    """
    return next(_fireable(trs, term, RelationMode.NON_ROOT), None) is None


def iter_successors(
    trs: TRS, term: Term, mode: RelationMode, table: dict[int, tuple] | None = None
) -> Iterator[Step]:
    """One-step reducts under ``mode``, ordered by (position pre-order, rule index).

    ``table`` is a redex table that one search keeps for ``trs`` across
    the terms it expands (see ``_redex_table``); without one the call
    stands alone.
    """
    for frames, matches in _fireable(trs, term, mode, table):
        pos = tuple(frame[2] for frame in frames)
        for rule, sigma in matches:
            yield Step(pos, rule.index, sigma, _plug(frames, sigma.apply(rule.rhs)))


def successors(trs: TRS, term: Term, mode: RelationMode) -> list[Step]:
    return list(iter_successors(trs, term, mode))


def _steps_at(trs: TRS, term: Term, pos: Position, mode: RelationMode) -> Iterator[Step]:
    """Every step ``mode`` allows at ``pos`` in ``term``, by rule index; an
    invalid ``pos`` raises InvalidPositionError when the first is asked for."""
    frames, sub = _split_at(term, pos)
    if isinstance(sub, Var):
        return
    if _may_fire(mode, not pos, lambda: not is_nr_normal_form(trs, sub)):
        for rule, sigma in _matches(trs, sub):
            yield Step(pos, rule.index, sigma, _plug(frames, sigma.apply(rule.rhs)))


def reduce_at(
    trs: TRS, term: Term, pos: Position, mode: RelationMode
) -> Step | None:
    """The lowest-rule-index step at ``pos`` valid under ``mode``, if any."""
    return next(_steps_at(trs, term, pos, mode), None)


def is_normal_form(trs: TRS, term: Term, mode: RelationMode) -> bool:
    return next(_fireable(trs, term, mode), None) is None


def is_normal_substitution(sigma: Substitution, trs: TRS) -> bool:
    """True when every term in the range of ``sigma`` is a normal form of ``trs``."""
    return all(is_normal_form(trs, t, RelationMode.FULL) for _, t in sigma.items())


def _call_by_value(trs: TRS, term: Term, mode: RelationMode) -> Iterator[Step]:
    """The derivation under an innermost ``mode`` that normalizes arguments
    left to right before trying the root.

    Innermost redexes never nest, so each step fires the first innermost
    redex in pre-order, exactly as ``iter_successors`` orders them; a node
    is tried only once its arguments are normal, so never with a redex
    below.  After a step only the contractum's rule-built part is examined:
    its variable parts are subterms of normal forms, hence normal.  The walk
    keeps a frame per ancestor, with the hints (the rhs pattern under the
    node) and the ancestor's arguments normalized so far.
    """
    frames: list[list] = []
    node, hint = term, None
    while True:
        while isinstance(node, App) and node.args and not isinstance(hint, Var):
            hints = hint.args if hint is not None else None
            frames.append([node.sym, list(node.args), 1, hints])
            node, hint = node.args[0], hints[0] if hints is not None else None
        normal = isinstance(node, Var) or isinstance(hint, Var)
        while True:
            if not normal and _may_fire(mode, not frames, lambda: False):
                fired = _matches(trs, node)
                if fired:
                    rule, sigma = fired[0]
                    contractum = sigma.apply(rule.rhs)
                    pos = tuple(frame[2] for frame in frames)
                    yield Step(pos, rule.index, sigma, _plug(frames, contractum))
                    node, hint = contractum, rule.rhs
                    break
            if not frames:
                return
            frame = frames[-1]
            sym, args, i, hints = frame
            args[i - 1] = node
            if i < len(args):
                frame[2] = i + 1
                node, hint = args[i], hints[i] if hints is not None else None
                break
            frames.pop()
            node, normal = App(sym, tuple(args)), False


def _leftmost_outermost(trs: TRS, term: Term, mode: RelationMode) -> Iterator[Step]:
    """The derivation that always takes the first step of ``iter_successors``."""
    step = next(iter_successors(trs, term, mode), None)
    while step is not None:
        yield step
        step = next(iter_successors(trs, step.result, mode), None)


def normalize(
    trs: TRS, term: Term, mode: RelationMode, fuel: int = DEFAULT_FUEL
) -> DerivationTrace:
    """Reduce until a mode-normal form, always firing the lowest-index rule
    at the first position in pre-order where ``mode`` allows a step.

    Under ``full`` and ``non-root`` that is the leftmost-outermost strategy.
    Under the innermost modes it is leftmost-innermost, computed call by
    value: arguments are normalized left to right before the root is tried.
    Each step consumes one unit of fuel; raises FuelExhausted (carrying the
    partial trace) if no normal form is reached within ``fuel`` steps.
    """
    walk = _call_by_value if mode.innermost else _leftmost_outermost
    steps: list[Step] = []
    for step in walk(trs, term, mode):
        if len(steps) >= fuel:
            raise FuelExhausted(DerivationTrace(term, tuple(steps), mode))
        steps.append(step)
    return DerivationTrace(term, tuple(steps), mode)


def explore(
    trs: TRS, start: Term, mode: RelationMode, fuel: int
) -> Iterator[tuple[Term, list[tuple[Step, bool | None]]]]:
    """Breadth-first exploration from ``start``, one expanded term at a time.

    Yields each expanded term with its steps in successor order, each tagged
    True when its result was admitted just now, False when it was admitted
    before, and None when it is new but refused because ``fuel`` terms are
    already admitted.  Refused terms are never expanded; what a refusal
    means is the caller's fuel rule.

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
        tagged: list[tuple[Step, bool | None]] = []
        for step in iter_successors(trs, u, mode, table):
            v = step.result
            if v in admitted:
                tagged.append((step, False))
            elif len(admitted) >= fuel:
                tagged.append((step, None))
            else:
                admitted.add(v)
                queue.append(v)
                tagged.append((step, True))
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
        return DerivationTrace(source, (), mode)
    parent: dict[Term, tuple[Term, Step]] = {}
    for u, tagged in explore(trs, source, mode, fuel):
        for step, fresh in tagged:
            if fresh is None:
                return None
            if not fresh:
                continue
            v = step.result
            parent[v] = (u, step)
            if v == target:
                steps: list[Step] = []
                node = v
                while node != source:
                    node, st = parent[node]
                    steps.append(st)
                steps.reverse()
                return DerivationTrace(source, tuple(steps), mode)
    return None


def descendants(
    trs: TRS, term: Term, mode: RelationMode, fuel: int = DEFAULT_FUEL
) -> tuple[frozenset[Term], bool]:
    """All terms reachable under ``mode`` (including ``term``), with a truncation flag.

    The flag is True when the closure was cut off by fuel, i.e. some reduct
    outside the returned set exists.
    """
    reached: list[Term] = []
    truncated = False
    for u, tagged in explore(trs, term, mode, fuel):
        reached.append(u)
        truncated = truncated or any(fresh is None for _, fresh in tagged)
    return frozenset(reached), truncated


def check_step(trs: TRS, source: Term, step: Step, mode: RelationMode) -> bool:
    """Replay one step: it must be one of the steps ``mode`` allows at its
    position, so its substitution is the matcher of its rule there."""
    try:
        return step in _steps_at(trs, source, step.position, mode)
    except InvalidPositionError:
        return False


def check_trace(trs: TRS, trace: DerivationTrace) -> bool:
    """Replay a whole trace under its recorded mode."""
    current = trace.start
    for step in trace.steps:
        if not check_step(trs, current, step, trace.mode):
            return False
        current = step.result
    return True


def embed_trace(context: Term, pos: Position, trace: DerivationTrace) -> DerivationTrace:
    """Run ``trace`` inside ``context`` at ``pos``.

    Validity under the same mode is preserved because both the matching and
    the innermost side condition only look at the redex subterm, which the
    embedding does not change.
    """
    frames, _ = _split_at(context, pos)
    steps = tuple(
        Step(pos + s.position, s.rule_index, s.substitution, _plug(frames, s.result))
        for s in trace.steps
    )
    return DerivationTrace(_plug(frames, trace.start), steps, trace.mode)
