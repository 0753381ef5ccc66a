"""Dependency pairs, chain witnesses, and loop certificates.

A dependency pair in alternative form is a (rule index, rhs position) pair
whose addressed subterm has a defined root symbol; the standard form pairs
the rule's lhs with that subterm.  A chain witness lists (pair,
substitution) entries; consecutive entries are chained when the
instantiated rhs subterm of one rewrites below the root to the
instantiated lhs of the next.

Pairs are validated where they enter: ``require_dep_pair`` is the one
rejection, reached by ``to_standard`` and ``check_chained`` for single
pairs and through ``validate_witness`` and the witness parser for whole
witnesses; the chain check and the pass over a witness's denoted terms
trust a witness already validated.

Checking is fuel-bounded and evidence-carrying in both directions: chain
links come with replayable non-root traces, nontermination evidence is an
exact innermost cycle, and from a cycle a verified chain of any requested
length can be extracted.  During construction a link is verified by the
search ``chain-verify`` runs, on the two ends construction built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator

from .rewriting import (
    DEFAULT_FUEL,
    DerivationTrace,
    FuelExhausted,
    RelationMode,
    Step,
    TRS,
    _redex_table,
    check_trace,
    defined_symbols,
    derives,
    embed_trace,
    explore,
    is_nr_normal_form,
    normalize,
    reduce_at,
)
from .substitution import Substitution
from .terms import (
    ROOT,
    _SHOW,
    App,
    InvalidPositionError,
    Position,
    Term,
    Var,
    _walk,
    _write,
    format_position,
    replace_at,
    subterm_at,
    vars_in_order,
    vars_of,
)

VERIFIED = "verified"
NOT_FOUND = "not-found"
PRECONDITION_FAILED = "precondition-failed"


class InvalidDepPairError(ValueError):
    """A (rule, position) pair that is not a dependency pair of the TRS."""

    def __init__(self, message: str, entry: int | None = None):
        super().__init__(message)
        self.entry = entry


class PreconditionFailed(Exception):
    """An operation's checked precondition does not hold."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ConstructionFailure(Exception):
    """A fuel-bounded construction stage could not produce its result."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class DepPairAlt:
    """Alternative form: rule index plus a position in that rule's rhs."""

    rule_index: int
    position: Position

    def __repr__(self) -> str:
        return f"({self.rule_index}, {format_position(self.position)})"


@dataclass(frozen=True)
class DepPair:
    """Standard form: the rule's lhs paired with the addressed rhs subterm."""

    lhs: Term
    rhs_sub: Term

    def __repr__(self) -> str:
        return f"<{_write(self.lhs)}, {_write(self.rhs_sub)}>"


@dataclass(frozen=True)
class ChainWitness:
    """Entries of (pair, substitution); substitutions are per entry, never shared."""

    entries: tuple[tuple[DepPairAlt, Substitution], ...]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LoopCertificate:
    """An exact innermost cycle: a nonempty trace from a term back to itself."""

    trace: DerivationTrace

    def __post_init__(self) -> None:
        if self.trace.mode != RelationMode.INNERMOST:
            raise ValueError("loop certificate trace must use the innermost relation")
        if not self.trace.steps:
            raise ValueError("loop certificate trace must have at least one step")
        if self.trace.start != self.trace.end:
            raise ValueError("loop certificate trace must return to its start")


@dataclass(frozen=True)
class LinkVerdict:
    """Outcome of one chain-link check."""

    status: str
    trace: DerivationTrace | None = None
    reason: str | None = None


@dataclass(frozen=True)
class ChainVerdict:
    """Outcome of checking all consecutive links of a witness.

    On failure, ``failed_index`` is the first bad link (between entries i and
    i+1) and ``traces`` holds the links verified before it.
    """

    status: str
    traces: tuple[DerivationTrace, ...] = ()
    failed_index: int | None = None
    reason: str | None = None


def is_dep_pair_alt(trs: TRS, dp: DepPairAlt) -> bool:
    """True when ``dp`` addresses a defined-root application in its rule's rhs."""
    if not 0 <= dp.rule_index < len(trs.rules):
        return False
    try:
        sub = subterm_at(trs.rules[dp.rule_index].rhs, dp.position)
    except InvalidPositionError:
        return False
    return isinstance(sub, App) and sub.sym in defined_symbols(trs)


def require_dep_pair(trs: TRS, dp: DepPairAlt, entry: int | None = None) -> None:
    """Reject ``dp`` unless it is a pair of ``trs``; ``entry`` is its witness entry."""
    if not is_dep_pair_alt(trs, dp):
        which = "not" if entry is None else f"entry {entry} is not"
        raise InvalidDepPairError(f"{which} a dependency pair of this TRS: {_SHOW.repr(dp)}", entry)


def dep_pairs_alt(trs: TRS) -> list[DepPairAlt]:
    """All dependency pairs, ordered by (rule index, position pre-order)."""
    defined = defined_symbols(trs)
    out: list[DepPairAlt] = []
    for rule in trs.rules:
        for sub, path in _walk(rule.rhs):
            if isinstance(sub, App) and sub.sym in defined:
                out.append(DepPairAlt(rule.index, tuple(i for _, i in path)))
    return out


def to_standard(trs: TRS, dp: DepPairAlt) -> DepPair:
    require_dep_pair(trs, dp)
    rule = trs.rules[dp.rule_index]
    return DepPair(rule.lhs, subterm_at(rule.rhs, dp.position))


def canonical_pair(pair: DepPair) -> DepPair:
    """Rename variables to v1, v2, ... in order of first occurrence (lhs first).

    Two standard pairs are equal up to renaming exactly when their canonical
    forms are equal.
    """
    order = dict.fromkeys(vars_in_order(pair.lhs) + vars_in_order(pair.rhs_sub))
    renaming = Substitution(
        {v: Var(f"v{i}") for i, v in enumerate(order, start=1)}
    )
    return DepPair(renaming.apply(pair.lhs), renaming.apply(pair.rhs_sub))


def standard_dep_pairs(trs: TRS, dedup: bool = False) -> list[DepPair]:
    """Standard-form pairs; with ``dedup`` duplicates up to renaming are dropped."""
    pairs = [to_standard(trs, dp) for dp in dep_pairs_alt(trs)]
    if not dedup:
        return pairs
    firsts: dict[DepPair, DepPair] = {}
    for pair in pairs:
        firsts.setdefault(canonical_pair(pair), pair)
    return list(firsts.values())


def validate_witness(trs: TRS, witness: ChainWitness) -> None:
    for i, (dp, _) in enumerate(witness.entries):
        require_dep_pair(trs, dp, i)


def check_chained(
    trs: TRS,
    dp1: DepPairAlt,
    sigma1: Substitution,
    dp2: DepPairAlt,
    sigma2: Substitution,
    innermost: bool,
    fuel: int = DEFAULT_FUEL,
) -> LinkVerdict:
    """Is (dp1, sigma1) followed by (dp2, sigma2) a chain link?  Each pair is rejected
    through ``require_dep_pair``; the link is ``verify_chain_prefix``'s pass over the two."""
    require_dep_pair(trs, dp1)
    require_dep_pair(trs, dp2)
    verdict = _check_links(trs, ((dp1, sigma1), (dp2, sigma2)), innermost, fuel)
    return LinkVerdict(verdict.status, next(iter(verdict.traces), None), verdict.reason)


def verify_chain_prefix(
    trs: TRS, witness: ChainWitness, innermost: bool, fuel: int = DEFAULT_FUEL
) -> ChainVerdict:
    """Check every consecutive link in one pass over the validated witness: each lhs
    instance is built once and, under innermost, checked nr-normal once, when its
    entry is reached.  Empty and singleton witnesses are vacuously verified."""
    validate_witness(trs, witness)
    return _check_links(trs, witness.entries, innermost, fuel)


def _check_links(trs: TRS, entries: tuple, innermost: bool, fuel: int) -> ChainVerdict:
    """The pass of ``verify_chain_prefix`` over entries whose pairs are validated."""
    if len(entries) < 2:
        return ChainVerdict(VERIFIED)
    mode = RelationMode.NON_ROOT_INNERMOST if innermost else RelationMode.NON_ROOT
    traces: list[DerivationTrace] = []
    for i, (dp, sigma) in enumerate(entries):
        rule = trs.rules[dp.rule_index]
        lhs = sigma.apply(rule.lhs)
        if innermost and not is_nr_normal_form(trs, lhs):
            reason = f"{'second' if i else 'first'}-lhs-instance-not-nr-normal"
            return ChainVerdict(PRECONDITION_FAILED, tuple(traces), max(i - 1, 0), reason)
        if i:
            trace = derives(trs, source, lhs, mode, fuel)
            if trace is None:
                return ChainVerdict(NOT_FOUND, tuple(traces), i - 1)
            traces.append(trace)
        source = sigma.apply(subterm_at(rule.rhs, dp.position))
    return ChainVerdict(VERIFIED, tuple(traces))


def term_pos_dps_alt(trs: TRS, witness: ChainWitness, i: int) -> tuple[Term, Position]:
    """The i-th term of the derivation a chain witness denotes.

    Entry 0 contributes its instantiated rhs; each later entry is plugged in
    at the accumulated position, which extends by that entry's pair position.
    The returned position always addresses a subterm of the returned term.
    """
    if not 0 <= i < len(witness.entries):
        raise IndexError(f"witness has {len(witness.entries)} entries, asked for {i}")
    validate_witness(trs, witness)
    return next(islice(_denoted_terms(trs, witness), i, None))


def _denoted_terms(trs: TRS, witness: ChainWitness) -> Iterator[tuple[Term, Position]]:
    """Every (term, position) of ``term_pos_dps_alt`` in one pass over a valid witness."""
    term: Term | None = None
    acc = ROOT
    for dp, sigma in witness.entries:
        rhs = sigma.apply(trs.rules[dp.rule_index].rhs)
        term = rhs if term is None else replace_at(term, acc, rhs)
        acc += dp.position
        yield term, acc


def derivation_from_chain(
    trs: TRS, witness: ChainWitness, fuel: int = DEFAULT_FUEL
) -> list[tuple[Term, DerivationTrace]]:
    """Turn a verified innermost chain into connected innermost derivations.

    Returns one (term, trace) pair per link: the i-th denoted term together
    with a nonempty, replay-verified innermost trace to the (i+1)-th.  The
    trace embeds the link's below-root derivation at the accumulated
    position and closes with the next entry's own rule step there.
    """
    verdict = verify_chain_prefix(trs, witness, innermost=True, fuel=fuel)
    if verdict.status != VERIFIED:
        raise PreconditionFailed(
            f"witness is not innermost chained: {verdict.status}"
            + (f" ({verdict.reason})" if verdict.reason else "")
        )
    denoted = list(_denoted_terms(trs, witness))
    out: list[tuple[Term, DerivationTrace]] = []
    for i, link in enumerate(verdict.traces):
        (term_i, acc), (term_next, _) = denoted[i], denoted[i + 1]
        dp_next, sigma_next = witness.entries[i + 1]
        rule = trs.rules[dp_next.rule_index]
        closing = Step(acc, rule, sigma_next.restrict(vars_of(rule.lhs)))
        steps = embed_trace(term_i, acc, link).steps + (closing,)
        trace = DerivationTrace(term_i, steps, RelationMode.INNERMOST, term_next)
        if not check_trace(trs, trace):
            raise ConstructionFailure("derivation-replay-failed")
        out.append((term_i, trace))
    return out


def check_certificate(trs: TRS, cert: LoopCertificate) -> bool:
    """Replay the cycle; structural shape is already enforced at construction."""
    return check_trace(trs, cert.trace)


def detect_innermost_loop(
    trs: TRS, term: Term, fuel: int = DEFAULT_FUEL
) -> LoopCertificate | None:
    """Search for an exact innermost cycle reachable from ``term``.

    Depth-first over the terms explored breadth-first, which are admitted up
    to ``fuel`` distinct terms: the exploration runs only until the term the
    search enters next has been expanded, so a cycle near ``term`` is found
    without spending the budget.  Sound but incomplete: None only means no
    cycle was found within fuel, and in particular nonterminating systems
    whose terms grow forever are never caught.
    """
    expansions = explore(trs, term, RelationMode.INNERMOST, fuel)
    edges: dict[Term, list[tuple[Step, Term, bool | None]]] = {}

    def steps_from(u: Term) -> Iterator[tuple[Step, Term, bool | None]]:
        while u not in edges:  # u is admitted, so the exploration expands it
            v, tagged = next(expansions)
            edges[v] = tagged
        return iter(edges[u])

    # Depth-first from ``term``, one path of (node, steps not yet tried, step into node).
    done: set[Term] = set()
    path: list[tuple] = [(term, steps_from(term), None)]
    on_path: dict[Term, int] = {term: 0}
    while path:
        node, remaining, _ = path[-1]
        step, v, admitted = next(remaining, (None, None, None))
        if step is None:
            path.pop()
            del on_path[node]
            done.add(node)
            continue
        if admitted is None or v in done:  # refused by the fuel, or searched
            continue
        if v in on_path:
            steps = tuple(s for _, _, s in path[on_path[v] + 1 :]) + (step,)
            return LoopCertificate(DerivationTrace(v, steps, RelationMode.INNERMOST, v))
        on_path[v] = len(path)
        path.append((v, steps_from(v), step))
    return None


def find_mint_subterm(
    trs: TRS, term: Term, fuel: int = DEFAULT_FUEL
) -> tuple[Position, LoopCertificate] | None:
    """Deepest-leftmost subterm carrying a loop certificate, with its position.

    Each subterm is searched when the walk leaves it, after its arguments, so
    no proper subterm of the reported one carries one within the same fuel.
    Only subterms with a redex at or below them are searched: the others have
    no innermost step, so no cycle, and the walk costs time linear in them.
    """
    table = _redex_table(trs, term, {})
    # The subterms the walk is inside, each with the step to it (0 at the root).
    inside: list[tuple[Term, int]] = []
    for node, path in chain(_walk(term), [(None, ())]):  # at depth 0: leave all
        while len(inside) > len(path):
            matches, below, _ = table.get(id(inside[-1][0]), ((), False, None))  # none: a variable
            if matches or below:
                cert = detect_innermost_loop(trs, inside[-1][0], fuel)
                if cert is not None:
                    return tuple(i for _, i in inside[1:]), cert
            inside.pop()
        inside.append((node, path[-1][1] if path else 0))
    return None


def dp_and_sub_from_nrnf(
    trs: TRS, term: Term, fuel: int = DEFAULT_FUEL
) -> tuple[DepPairAlt, Substitution, Term]:
    """From an nr-normal term, extract the dependency pair its root step takes.

    Matches the lowest-index rule at the root (the substitution is normal:
    no lhs is a variable, so it binds only proper subterms of the
    nr-normal term), reduces, and locates a certified subterm of the
    reduct.  Returns the pair, the substitution, and that subterm.
    """
    if isinstance(term, Var) or not is_nr_normal_form(trs, term):
        raise ConstructionFailure("not-nr-normal")
    step = reduce_at(trs, term, ROOT, RelationMode.FULL)
    if step is None:
        raise ConstructionFailure("no-root-rule")
    sigma = step.substitution
    reduct = sigma.apply(step.rule.rhs)  # the root step's result
    found = find_mint_subterm(trs, reduct, fuel)
    if found is None:
        raise ConstructionFailure("no-mint-within-fuel")
    pos, _ = found
    dp = DepPairAlt(step.rule_index, pos)
    if not is_dep_pair_alt(trs, dp):
        raise ConstructionFailure("mint-not-a-dependency-pair-position")
    return dp, sigma, subterm_at(reduct, pos)


def _entry_from(trs: TRS, u: Term, fuel: int, link: bool) -> tuple[DepPairAlt, Substitution, Term]:
    """Normalize ``u`` below the root to ``t``, then extract as dp_and_sub_from_nrnf
    does.  With ``link``, ``u`` is the entry before's instantiated rhs subterm and
    ``t`` the new entry's instantiated lhs, both lhs instances nr-normal where they
    were extracted: the link is the one search ``verify_chain_prefix`` runs there."""
    try:
        t = normalize(trs, u, RelationMode.NON_ROOT_INNERMOST, fuel).end
    except FuelExhausted:
        raise ConstructionFailure("fuel-exhausted-normalizing") from None
    entry = dp_and_sub_from_nrnf(trs, t, fuel)
    if link and derives(trs, u, t, RelationMode.NON_ROOT_INNERMOST, fuel) is None:
        raise ConstructionFailure(f"link-not-chained:{NOT_FOUND}")
    return entry


def next_dp_and_sub(
    trs: TRS,
    dp: DepPairAlt,
    sigma: Substitution,
    fuel: int = DEFAULT_FUEL,
) -> tuple[DepPairAlt, Substitution]:
    """The entry following (dp, sigma) in a chain being grown from a loop.

    Checks the preconditions within fuel (the instantiated rhs subterm
    carries a certificate, the instantiated lhs is nr-normal), normalizes
    the subterm below the root, extracts the next pair, and returns it once
    the link is verified by the search ``chain-verify`` runs, on the two ends
    construction built.
    """
    pair = to_standard(trs, dp)
    if not is_nr_normal_form(trs, sigma.apply(pair.lhs)):
        raise ConstructionFailure("lhs-instance-not-nr-normal")
    u = sigma.apply(pair.rhs_sub)
    if detect_innermost_loop(trs, u, fuel) is None:
        raise ConstructionFailure("no-loop-certificate")
    return _entry_from(trs, u, fuel, link=True)[:2]


def chain_from_loop(
    trs: TRS, cert: LoopCertificate, k: int, fuel: int = DEFAULT_FUEL
) -> ChainWitness:
    """Extract a verified innermost chain witness of length ``k`` from a cycle.

    Entry 0 comes from the certified term's minimal looping subterm.  Each
    later entry grows from the certified subterm its predecessor's
    extraction located, so the preconditions of next_dp_and_sub hold by
    construction.  Each link is verified as it is added, by the search
    ``chain-verify`` runs, on the two ends construction built.
    """
    if k < 1:
        raise ValueError("chain length must be at least 1")
    if not check_certificate(trs, cert):
        raise PreconditionFailed("loop-certificate-does-not-replay")
    found = find_mint_subterm(trs, cert.trace.start, fuel)
    if found is None:
        raise ConstructionFailure("no-mint-within-fuel")
    entries, u = [], subterm_at(cert.trace.start, found[0])
    for i in range(k):
        dp, sigma, u = _entry_from(trs, u, fuel, link=i > 0)
        entries.append((dp, sigma))
    return ChainWitness(tuple(entries))
