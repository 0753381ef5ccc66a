"""Microbenchmarks of the hot primitives on a workload's largest reached term.

Each primitive runs over the whole term (every position, every rule) in
batches until its time budget is spent; the value is the median batch
time per call, in microseconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import rdp

BUDGET_S = 0.2


def _per_call_us(batch, calls: int) -> float:
    samples = []
    deadline = perf_counter() + BUDGET_S
    while len(samples) < 3 or (perf_counter() < deadline and len(samples) < 10_000):
        t0 = perf_counter()
        batch()
        samples.append((perf_counter() - t0) / calls)
    return statistics.median(samples) * 1e6


def measure(trs, text: str) -> dict[str, float]:
    term = rdp.parse_term(text, trs)
    twin = rdp.parse_term(text, trs)
    positions = rdp.positions_of(term)
    subterms = [rdp.subterm_at(term, pos) for pos in positions]
    pairs = [(rule.lhs, sub) for sub in subterms for rule in trs.rules]
    applied = [(sigma, rule.rhs) for sub in subterms for rule in trs.rules
               if (sigma := rdp.match(rule.lhs, sub)) is not None]
    if not applied:
        sigma = rdp.Substitution({v: term for v in trs.variables})
        applied = [(sigma, rule.rhs) for rule in trs.rules]
    match, replace_at, successors = rdp.match, rdp.replace_at, rdp.successors
    innermost = rdp.RelationMode.INNERMOST
    replacements = list(zip(positions, subterms))

    def match_all():
        for lhs, sub in pairs:
            match(lhs, sub)

    def apply_all():
        for sigma, rhs in applied:
            sigma.apply(rhs)

    def replace_all():
        for pos, sub in replacements:
            replace_at(term, pos, sub)

    return {
        "prim.match_us": _per_call_us(match_all, len(pairs)),
        "prim.apply_us": _per_call_us(apply_all, len(applied)),
        "prim.replace_at_us": _per_call_us(replace_all, len(replacements)),
        "prim.hash_us": _per_call_us(lambda: hash(term), 1),
        "prim.eq_us": _per_call_us(lambda: term == twin, 1),
        "prim.expand_us": _per_call_us(lambda: successors(trs, term, innermost), 1),
        "prim.term_size": float(len(positions)),
    }
