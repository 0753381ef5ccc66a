"""End-to-end gate: nine checks, one verdict line each.

Every test exercises one advertised capability at its stated budget and
appends a PASS/FAIL line to the terminal summary.  Budgets are wall
clock and generous on purpose, so only a real regression trips them.
"""

import json
import random
from time import perf_counter

from conftest import ACCEPTANCE_LINES
from rdp import (
    App,
    CallingContext,
    ChainWitness,
    DepPair,
    DepPairAlt,
    Op1,
    Op2,
    Pvs0Program,
    Rec,
    RelationMode,
    Substitution,
    Symbol,
    Vr,
    calling_contexts,
    canonical_pair,
    chain_from_loop,
    check_cc_dp_correspondence,
    check_chained,
    check_trace,
    chi_eval,
    dep_pairs_alt,
    derivation_from_chain,
    detect_innermost_loop,
    is_nr_normal_form,
    match,
    normalize,
    positions_of,
    replace_at,
    standard_dep_pairs,
    subterm_at,
    successors,
    to_standard,
    trs_of,
    unary_encoder,
    vars_of,
    verify_chain_prefix,
)
from rdp.cli import run_command
from rdp.rewriting import iter_successors

from helpers import (
    G2,
    H2,
    S1,
    X,
    Y,
    Z0,
    ack,
    ack_system,
    ap,
    fc,
    hg_system,
    loop_system,
    nat,
    random_looping_instance,
    random_pvs0_program,
)


def record(number: int, ok: bool, detail: str, elapsed: float, budget: float | None = None):
    if budget is not None and elapsed > budget:
        ok = False
        detail += f"; over budget ({elapsed:.2f}s > {budget:.0f}s)"
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail} ({elapsed:.2f}s)"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


# --- 1: dependency pair extraction -----------------------------------------


def test_01_dependency_pair_extraction(ack_trs):
    t0 = perf_counter()
    got = {canonical_pair(p) for p in standard_dep_pairs(ack_trs, dedup=True)}
    expected = {
        canonical_pair(DepPair(ack(ap(S1, X), ap(Z0)), ack(X, nat(1)))),
        canonical_pair(DepPair(ack(ap(S1, X), ap(S1, Y)), ack(X, ack(ap(S1, X), Y)))),
        canonical_pair(DepPair(ack(ap(S1, X), ap(S1, Y)), ack(ap(S1, X), Y))),
    }
    hg = hg_system()
    alts = dep_pairs_alt(hg)
    target = canonical_pair(DepPair(ap(H2, X, Y), ap(G2, X, Y)))
    sources = [dp for dp in alts if canonical_pair(to_standard(hg, dp)) == target]
    distinct = standard_dep_pairs(hg, dedup=True)
    elapsed = perf_counter() - t0
    ok = got == expected and len(alts) == 5 and len(sources) == 3 and len(distinct) == 3
    record(
        1,
        ok,
        f"3 Ackermann pairs, h/g pair from {len(sources)} of {len(alts)} sources",
        elapsed,
        budget=1.0,
    )


# --- 2: the published non-root chain link ----------------------------------


def test_02_published_chain_link(ack_trs):
    sigma1 = Substitution({X: nat(1), Y: ap(Z0)})
    sigma2 = Substitution({X: ap(Z0), Y: ack(nat(1), ap(Z0))})
    t0 = perf_counter()
    verdict = check_chained(
        ack_trs,
        DepPairAlt(2, ()),
        sigma1,
        DepPairAlt(2, ()),
        sigma2,
        innermost=False,
        fuel=10_000,
    )
    elapsed = perf_counter() - t0
    ok = (
        verdict.status == "verified"
        and verdict.trace is not None
        and verdict.trace.mode is RelationMode.NON_ROOT
        and all(step.position != () for step in verdict.trace.steps)
        and check_trace(ack_trs, verdict.trace)
    )
    steps = len(verdict.trace.steps) if verdict.trace else 0
    record(2, ok, f"non-root link verified in {steps} steps", elapsed, budget=5.0)


# --- 3: every verified chain yields a connected derivation -----------------

def _connected_derivation(trs, witness, fuel=2000) -> bool:
    links = derivation_from_chain(trs, witness, fuel)
    if len(links) != len(witness.entries) - 1:
        return False
    for i, (term, trace) in enumerate(links):
        if trace.mode is not RelationMode.INNERMOST:
            return False
        if trace.start != term or not trace.steps:
            return False
        if not check_trace(trs, trace):
            return False
        for current, step in zip(trace.terms(), trace.steps):
            if step.position not in positions_of(current):
                return False
        if i + 1 < len(links) and links[i + 1][0] != trace.end:
            return False
    return True


def test_03_chains_denote_derivations(ack_trs):
    t0 = perf_counter()
    corpus = []

    loop_trs = loop_system()
    cert = detect_innermost_loop(loop_trs, fc(), 100)
    corpus.append((loop_trs, chain_from_loop(loop_trs, cert, 5, 100)))

    corpus.append(
        (
            ack_trs,
            ChainWitness(
                (
                    (DepPairAlt(2, (2,)), Substitution({X: ap(Z0), Y: nat(1)})),
                    (DepPairAlt(2, (2,)), Substitution({X: ap(Z0), Y: ap(Z0)})),
                )
            ),
        )
    )

    rng = random.Random(1203)
    for _ in range(20):
        trs, start = random_looping_instance(rng)
        found = detect_innermost_loop(trs, start, 300)
        assert found is not None
        corpus.append((trs, chain_from_loop(trs, found, rng.randint(2, 5), 300)))

    failures = 0
    links = 0
    for trs, witness in corpus:
        verdict = verify_chain_prefix(trs, witness, innermost=True, fuel=2000)
        if verdict.status != "verified" or not _connected_derivation(trs, witness):
            failures += 1
        links += len(witness.entries) - 1
    elapsed = perf_counter() - t0
    record(
        3,
        failures == 0,
        f"{len(corpus)} witnesses, {links} derivation links, {failures} failures",
        elapsed,
    )


# --- 4: loop detection round-trips through chains --------------------------


def test_04_sufficiency_round_trip():
    trs = loop_system()
    t0 = perf_counter()
    cert = detect_innermost_loop(trs, fc(), 50)
    witness = chain_from_loop(trs, cert, 5, 50)
    verdict = verify_chain_prefix(trs, witness, innermost=True, fuel=50)
    links = derivation_from_chain(trs, witness, 50)
    again = chain_from_loop(trs, cert, 5, 50)
    elapsed = perf_counter() - t0
    ok = (
        cert is not None
        and len(witness.entries) == 5
        and verdict.status == "verified"
        and len(links) == 4
        and all(len(trace.steps) == 1 for _, trace in links)
        and again == witness
    )
    record(4, ok, "loop -> 5-entry chain -> derivation round-trip", elapsed, budget=1.0)


# --- 5: relation algebra on random instances -------------------------------

_CONSTS = (Symbol("c", 0), Symbol("d", 0))
_FUNCS = (Symbol("u", 1), Symbol("v", 1), Symbol("b", 2))


def _rand_term(rng, funcs, leaves, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(leaves)
    sym = rng.choice(funcs)
    return ap(sym, *(_rand_term(rng, funcs, leaves, depth - 1) for _ in range(sym.arity)))


def _random_instance(rng: random.Random):
    consts = tuple(rng.sample(_CONSTS, rng.randint(1, 2)))
    funcs = tuple(rng.sample(_FUNCS, rng.randint(1, 2)))
    const_apps = tuple(ap(c) for c in consts)
    pairs = []
    for _ in range(rng.randint(1, 3)):
        sym = rng.choice(funcs)
        args = tuple(
            _rand_term(rng, funcs, (X, Y) + const_apps, 1) for _ in range(sym.arity)
        )
        lhs = ap(sym, *args)
        lhs_vars = tuple(sorted(vars_of(lhs), key=lambda v: v.name))
        rhs = _rand_term(rng, funcs, const_apps + lhs_vars, rng.randint(0, 3))
        pairs.append((lhs, rhs))
    trs = trs_of(*pairs)
    term = _rand_term(rng, funcs, const_apps + (X, Y), rng.randint(0, 5))
    return trs, term, const_apps, funcs


def test_05_relation_algebra():
    rng = random.Random(500)
    t0 = perf_counter()
    instances = 0
    violations = 0

    def check(condition: bool):
        nonlocal violations
        if not condition:
            violations += 1

    for _ in range(500):
        trs, term, const_apps, funcs = _random_instance(rng)
        instances += 1
        full = successors(trs, term, RelationMode.FULL)
        non_root_results = [v for _, v in iter_successors(trs, term, RelationMode.NON_ROOT)]
        inner = successors(trs, term, RelationMode.INNERMOST)
        non_root = successors(trs, term, RelationMode.NON_ROOT)
        nri = successors(trs, term, RelationMode.NON_ROOT_INNERMOST)

        check(set(inner) <= set(full))
        check(set(nri) == set(inner) & set(non_root))
        for step in inner:
            check(is_nr_normal_form(trs, subterm_at(term, step.position)))
        if isinstance(term, App):
            for result in non_root_results:
                check(isinstance(result, App) and result.sym == term.sym)

        all_positions = positions_of(term)
        for pos in all_positions:
            check(replace_at(term, pos, subterm_at(term, pos)) == term)
        pos = rng.choice(all_positions)
        repl = _rand_term(rng, funcs, const_apps, 2)
        check(subterm_at(replace_at(term, pos, repl), pos) == repl)

        sigma = Substitution(
            {
                X: _rand_term(rng, funcs, const_apps, 2),
                Y: _rand_term(rng, funcs, const_apps, 2),
            }
        )
        instance = sigma.apply(term)
        found = match(term, instance)
        check(found is not None and found.apply(term) == instance)
        for pos in all_positions:
            check(sigma.apply(subterm_at(term, pos)) == subterm_at(instance, pos))

    elapsed = perf_counter() - t0
    record(
        5,
        instances == 500 and violations == 0,
        f"{instances} instances, {violations} violations",
        elapsed,
    )


# --- 6: three models of the same function agree ----------------------------


def _ack_direct(m: int, n: int) -> int:
    if m == 0:
        return n + 1
    if n == 0:
        return _ack_direct(m - 1, 1)
    return _ack_direct(m - 1, _ack_direct(m, n - 1))


def test_06_cross_model_oracle(ack_trs, ack_program):
    t0 = perf_counter()
    mismatches = 0
    cells = 0
    for m in range(3):
        for n in range(4):
            cells += 1
            value = _ack_direct(m, n)
            nf = normalize(
                ack_trs, ack(nat(m), nat(n)), RelationMode.INNERMOST, 10_000
            ).end
            chi = chi_eval(ack_program, ack_program.body, (m, n), 1000)
            if nf != nat(value) or chi != (value, 0):
                mismatches += 1
    anchors = (
        _ack_direct(2, 3) == 9
        and _ack_direct(1, 1) == 3
        and _ack_direct(0, 5) == 6
        and chi_eval(ack_program, ack_program.body, (0, 5), 1000) == (6, 0)
    )
    elapsed = perf_counter() - t0
    record(
        6,
        mismatches == 0 and cells == 12 and anchors,
        f"{cells} cells agree across rewriting, recursion, and evaluation",
        elapsed,
        budget=30.0,
    )


# --- 7: fuel semantics of the evaluator ------------------------------------


def test_07_evaluator_fuel_semantics():
    rng = random.Random(7)
    t0 = perf_counter()
    programs = 0
    violations = 0
    for _ in range(200):
        program = random_pvs0_program(rng)
        programs += 1
        inputs = [
            tuple(rng.randint(0, 3) for _ in range(program.width)) for _ in range(2)
        ]
        for value in inputs:
            try:
                if chi_eval(program, program.body, value, 0) is not None:
                    violations += 1
                settled = None
                for fuel in range(7):
                    first = chi_eval(program, program.body, value, fuel)
                    if first != chi_eval(program, program.body, value, fuel):
                        violations += 1
                    if settled is not None and first != settled:
                        violations += 1
                    if settled is None and first is not None:
                        settled = first
            except Exception:
                violations += 1

    bare = Pvs0Program(1, (0,), (1,), (), (), Vr())
    for dangling in (Op1(0, Vr()), Op2(5, Vr(), Vr()), Op1(-1, Vr())):
        if chi_eval(bare, dangling, (2,), 9) is not None:
            violations += 1
    elapsed = perf_counter() - t0
    record(
        7,
        programs == 200 and violations == 0,
        f"{programs} programs swept over fuels 0..6, {violations} violations",
        elapsed,
    )


# --- 8: calling contexts and their pair correspondence ---------------------


def test_08_calling_contexts(ack_trs, ack_program):
    t0 = perf_counter()
    contexts = calling_contexts(ack_program)
    m_zero = Op1(0, Vr())
    n_zero = Op1(1, Vr())
    expected = [
        CallingContext((3, 2), ((m_zero, False), (n_zero, True)), Op1(3, Vr())),
        CallingContext(
            (3, 3),
            ((m_zero, False), (n_zero, False)),
            Op2(0, Vr(), Rec(Op1(4, Vr()))),
        ),
        CallingContext((3, 3, 1, 2), ((m_zero, False), (n_zero, False)), Op1(4, Vr())),
    ]
    samples = [(m, n) for m in range(4) for n in range(4)]
    report = check_cc_dp_correspondence(
        ack_program,
        ack_trs,
        unary_encoder(ack_trs),
        [(0, DepPairAlt(1, ())), (2, DepPairAlt(2, (2,)))],
        samples,
        fuel=200,
    )
    elapsed = perf_counter() - t0
    ok = (
        contexts == expected
        and report["passed"]
        and all(len(p["samples"]) == 16 for p in report["pairs"])
    )
    record(8, ok, "3 contexts, both pairings pass on the 4x4 grid", elapsed, budget=1.0)


# --- 9: no uncertified verdicts --------------------------------------------


def test_09_honest_verdicts(tmp_path, capsys):
    path = tmp_path / "grow.trs"
    path.write_text("(VAR x)\n(RULES g(x) -> g(s(x)))\n")
    commands = [
        ["normalize", str(path), "--term", "g(x)", "--mode", "full"],
        ["normalize", str(path), "--term", "g(x)", "--mode", "innermost"],
        ["reach", str(path), "--from", "g(x)", "--to", "x"],
        ["loop", str(path), "--term", "g(x)"],
        ["mint", str(path), "--term", "g(x)"],
        ["loop-chain", str(path), "--term", "g(x)", "--length", "2"],
    ]
    t0 = perf_counter()
    dishonest = 0
    for argv in commands:
        code = run_command(argv + ["--json", "--fuel", "200"])
        report = json.loads(capsys.readouterr().out)
        if (
            code != 1
            or report["status"] not in ("fuel-exhausted", "not-found")
            or "fuel" not in report
        ):
            dishonest += 1
    elapsed = perf_counter() - t0
    record(
        9,
        dishonest == 0,
        f"{len(commands)} analysis commands all answer not-found/unknown",
        elapsed,
    )
