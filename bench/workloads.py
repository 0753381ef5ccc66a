"""The four workloads: seeded input generators and per-operation checks.

A workload writes its rewrite systems, programs and witnesses into a work
directory and returns a list of operations.  Each operation is one call to
its verdict, through ``rdp.cli.run_command`` when the command line can
express the input, and a check that compares the outcome with the known
answer from ``oracle``.  The seed draws the symbol and variable names (one
character each, so report sizes do not depend on it), the arrangement of
the inert contexts around the looping instances, the order of the PVS0
program's operators, the loop-chain lengths and the divergent program's
input.  Sizes, fuels, the mix of context symbols and the order of the
operations are fixed, so every seed costs the same work.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle
from oracle import nat

import rdp
import rdp.cli
from rdp import App, Signature, Symbol, Var

WORKLOADS = ("ack-normalize", "grow-search", "chain-certify", "pvs0-ack")

# Single-character names keep every report the same length for every seed.
_LETTERS = "abcdefghijklmnopqrtuvz"
_DIGITS = "0123456789"


@dataclass
class Raised:
    """An operation that raised instead of answering."""

    error: str


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[str, str] | None]
    """None when the outcome is the known answer, else (kind, detail) where
    kind is "failed" (an honest failure report or a crash) or "wrong"."""
    trs: Callable[[], Any]
    """The rewrite system the op's reported terms are written in."""


@dataclass
class Workload:
    name: str
    ops: list[Op]
    fixtures: list[tuple[str, str]]
    """(kind, path) of the files set-up parses: "trs" or "program"."""
    prim_fallback: tuple[Callable[[], Any], str] | None = None


def outcome_bytes(outcome: Any) -> int:
    """Bytes of JSON reports and certificates an outcome emitted."""
    if isinstance(outcome, tuple):
        return len(outcome[1].encode())
    if isinstance(outcome, dict):
        return sum(len(text.encode()) for text in outcome["json"])
    return 0


def outcome_texts(outcome: Any) -> list[str]:
    if isinstance(outcome, tuple):
        return [outcome[1]]
    if isinstance(outcome, dict):
        return outcome["json"]
    return []


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    generators = {
        "ack-normalize": _ack_normalize,
        "grow-search": _grow_search,
        "chain-certify": _chain_certify,
        "pvs0-ack": _pvs0_ack,
    }
    return generators[name](rng, workdir)


# --- running and judging command-line operations ------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = rdp.cli.run_command(argv)
    return code, out.getvalue() or err.getvalue()


def _cli_op(label: str, argv: list[str], code: int, fields: dict,
            trs: Callable[[], Any], deep: Callable[[dict], str | None] | None = None) -> Op:
    def check(outcome: Any) -> tuple[str, str] | None:
        if isinstance(outcome, Raised):
            return "failed", outcome.error
        got_code, text = outcome
        try:
            report = json.loads(text)
        except ValueError:
            return "wrong", f"exit {got_code}: {text.strip()[:200]}"
        status = report.get("status")
        if got_code != code or status != fields["status"]:
            honest = got_code == 1 and status == "failure" and "fuel" in report
            detail = f"exit {got_code}, {status} {report.get('detail', '')}".strip()
            return ("failed" if honest else "wrong"), detail
        for key, want in fields.items():
            if report.get(key) != want:
                return "wrong", f"{key} = {str(report.get(key))[:120]}, expected {str(want)[:120]}"
        if deep is not None:
            problem = deep(report)
            if problem:
                return "wrong", problem
        return None

    return Op(label, lambda: _cli(argv + ["--json"]), check, trs)


def _trs_loader(path: Path) -> Callable[[], Any]:
    cache: list = []

    def load():
        if not cache:
            cache.append(rdp.formats.parse_trs(path.read_text()))
        return cache[0]

    return load


def _names(rng: random.Random, keys: tuple[str, ...], zero: str | None = None) -> dict[str, str]:
    names = dict(zip(keys, rng.sample(_LETTERS, len(keys))))
    if zero is not None:
        names[zero] = rng.choice(_DIGITS)
    return names


def _ackermann_trs(n: dict[str, str]) -> str:
    a, s, z, x, y = n["a"], n["s"], n["0"], n["x"], n["y"]
    return (
        f"(VAR {x} {y})\n(RULES\n"
        f"  {a}({z}, {y}) -> {s}({y})\n"
        f"  {a}({s}({x}), {z}) -> {a}({x}, {s}({z}))\n"
        f"  {a}({s}({x}), {s}({y})) -> {a}({x}, {a}({s}({x}), {y}))\n)\n"
    )


# --- ack-normalize --------------------------------------------------------------

# Every a(m, n) up to a(3, 3): long single derivations over mid-sized terms.
ACK_GRID = [(0, n) for n in range(12)] + [(1, n) for n in range(23)] + \
           [(2, n) for n in range(11)] + [(3, n) for n in range(4)]
ACK_FUEL = 10_000


def _ack_normalize(rng: random.Random, workdir: Path) -> Workload:
    n = _names(rng, ("a", "s", "x", "y"), zero="0")
    path = workdir / "ackermann.trs"
    path.write_text(_ackermann_trs(n))
    trs = _trs_loader(path)
    a, s, z = n["a"], n["s"], n["0"]
    ops = []
    for m, k in ACK_GRID:
        term = f"{a}({nat(m, s, z)},{nat(k, s, z)})"
        value = nat(oracle.ackermann(m, k), s, z)
        steps = oracle.ackermann_steps(m, k)
        for mode in ("innermost", "full"):
            ops.append(_cli_op(
                f"normalize {mode} a({m},{k})",
                ["normalize", str(path), "--term", term, "--mode", mode, "--fuel", str(ACK_FUEL)],
                0,
                {"status": "normalized", "mode": mode, "fuel": ACK_FUEL,
                 "normal_form": value, "length": steps},
                trs,
                _normal_trace(term, value, steps, mode),
            ))
    return Workload("ack-normalize", ops, [("trs", str(path))])


def _normal_trace(start: str, end: str, steps: int, mode: str) -> Callable[[dict], str | None]:
    def deep(report: dict) -> str | None:
        trace = report.get("trace", {})
        got = trace.get("steps", [])
        if trace.get("start") != start or trace.get("mode") != mode or len(got) != steps:
            return "trace start, mode or length differs"
        if got[-1].get("term") != end:
            return "trace does not end in the normal form"
        return None

    return deep


# --- grow-search ------------------------------------------------------------------

# g(x) -> g(s(x)) has no normal form and no cycle: every answer is negative.
# normalize fuels of 200 and below stay under the depth (about 330 levels,
# 250 when traced) where the seed's recursive term routines fail; 450 and
# 600 cross it.
# The searches stay below it: at the seed a reach that crosses it costs
# about 4 s and a loop search over 30 s, which would crowd out the rest.
GROW_NORMALIZE_FUELS = (10, 25, 50, 100, 150, 200, 450, 600)
GROW_REACH_FUELS = {"full": (50, 100, 150, 200, 250, 300), "innermost": (20, 40, 60)}
GROW_LOOP_FUELS = (10, 25, 50, 75, 100)


def _grow_search(rng: random.Random, workdir: Path) -> Workload:
    n = _names(rng, ("g", "s", "x"))
    g, s, x = n["g"], n["s"], n["x"]
    path = workdir / "grow.trs"
    path.write_text(f"(VAR {x})\n(RULES {g}({x}) -> {g}({s}({x})))\n")
    trs = _trs_loader(path)
    start = f"{g}({x})"
    grown = lambda k: f"{g}({nat(k, s, x)})"  # noqa: E731
    ops = []
    for fuel in GROW_NORMALIZE_FUELS:
        for mode in ("full", "innermost"):
            ops.append(_cli_op(
                f"normalize {mode} fuel {fuel}",
                ["normalize", str(path), "--term", start, "--mode", mode, "--fuel", str(fuel)],
                1,
                {"status": "fuel-exhausted", "mode": mode, "fuel": fuel, "length": fuel,
                 "last": grown(fuel)},
                trs,
                _grow_trace(start, grown, x, s, fuel, mode),
            ))
    for mode, fuels in GROW_REACH_FUELS.items():
        for fuel in fuels:
            ops.append(_cli_op(
                f"reach {mode} fuel {fuel}",
                ["reach", str(path), "--from", start, "--to", x, "--mode", mode, "--fuel", str(fuel)],
                1, {"status": "not-found", "mode": mode, "fuel": fuel}, trs,
            ))
    for fuel in GROW_LOOP_FUELS:
        length = rng.randint(2, 4)
        for argv, fields in (
            (["loop", str(path), "--term", start], {"status": "not-found", "fuel": fuel}),
            (["mint", str(path), "--term", start], {"status": "not-found", "fuel": fuel}),
            (["loop-chain", str(path), "--term", start, "--length", str(length)],
             {"status": "not-found", "detail": "no-loop-certificate", "fuel": fuel}),
        ):
            ops.append(_cli_op(f"{argv[0]} fuel {fuel}", argv + ["--fuel", str(fuel)], 1, fields, trs))
    return Workload("grow-search", ops, [("trs", str(path))])


def _grow_trace(start: str, grown, x: str, s: str, fuel: int, mode: str):
    def deep(report: dict) -> str | None:
        trace = report.get("trace", {})
        got = trace.get("steps", [])
        if trace.get("start") != start or trace.get("mode") != mode or len(got) != fuel:
            return "trace start, mode or length differs"
        for i, step in enumerate(got):
            want = {"position": "ε", "rule_index": 0,
                    "substitution": {} if i == 0 else {x: nat(i, s, x)}, "term": grown(i + 1)}
            if step != want:
                return f"step {i} differs"
        return None

    return deep


# --- chain-certify ------------------------------------------------------------------

LOOP_SHAPES = ("self", "alternate", "swap")
LOOP_DEPTHS = (0, 4, 16, 48, 96)
LOOP_LENGTHS = (2, 4, 8, 12)
LOOP_FUEL = 300
DESCENDING = [(m, length) for m in range(4) for length in (2, 4, 8, 12)]
CHAIN_FUEL = 2000
LOOP_NAMES = {name: name for name in ("f", "d", "e", "sw", "w", "c", "x", "y")}


def _loop_instance(rng: random.Random, shape: str, depth: int, inert: bool, prefix: bool):
    """A criterion-3 looping system and a start term under an inert context.

    The context has ``depth`` levels, three in ten of them b(., c) and the
    rest w(.), in a seeded order.  With ``inert`` the system also has the
    rule m(x) -> x, and with ``prefix`` the start term is b(m(c), .).

    Returns the system (its signature extended by the context symbols, which
    no rule mentions) and the start term.
    """
    f, d, e, sw = Symbol("f", 1), Symbol("d", 1), Symbol("e", 1), Symbol("sw", 2)
    w, b, c, m = Symbol("w", 1), Symbol("b", 2), Symbol("c", 0), Symbol("m", 1)
    x, y = Var("x"), Var("y")
    cc = App(c, ())
    if shape == "self":
        rules = [(App(f, (x,)), App(f, (x,)))]
        start = App(f, (cc,))
    elif shape == "alternate":
        rules = [(App(d, (x,)), App(e, (x,))), (App(e, (x,)), App(d, (x,)))]
        start = App(d, (cc,))
    else:
        rules = [(App(sw, (x, y)), App(sw, (y, x)))]
        start = App(sw, (cc, App(w, (cc,))))
    if inert:
        rules.append((App(m, (x,)), x))
    wraps = [b] * round(0.3 * depth) + [w] * (depth - round(0.3 * depth))
    rng.shuffle(wraps)
    for wrap in wraps:
        start = App(w, (start,)) if wrap is w else App(b, (start, cc))
    if prefix:
        start = App(b, (App(m, (cc,)), start))
    base = rdp.trs_of(*rules)
    known = {sym.name for sym in base.signature}
    extra = tuple(sym for sym in (w, b, c, m) if sym.name not in known)
    trs = rdp.TRS(Signature(base.signature.symbols + extra), frozenset({x, y}), base.rules)
    return trs, start


def _certify(trs, start, k: int) -> dict:
    """Loop, chain, verification, derivation and a JSON round trip, in the library."""
    cert = rdp.detect_innermost_loop(trs, start, LOOP_FUEL)
    if cert is None:
        return {"cert": None, "json": []}
    witness = rdp.chain_from_loop(trs, cert, k, LOOP_FUEL)
    verdict = rdp.verify_chain_prefix(trs, witness, True, LOOP_FUEL)
    links = rdp.derivation_from_chain(trs, witness, LOOP_FUEL)
    witness_text = json.dumps(rdp.witness_to_json(witness))
    traces = [cert.trace] + [trace for _, trace in links]
    trace_texts = [json.dumps(rdp.trace_to_json(t)) for t in traces]
    return {
        "cert": cert,
        "verdict": verdict.status,
        "links": links,
        "json": [witness_text] + trace_texts,
        "witness_round_trip": rdp.parse_chain_witness(witness_text, trs) == witness,
        "traces_round_trip": [rdp.parse_trace(json.loads(t), trs) for t in trace_texts] == traces,
    }


def _certify_check(shape: str, k: int):
    want_witness = {"entries": oracle.loop_witness(shape, k, LOOP_NAMES)}
    want_terms = oracle.loop_denoted_terms(shape, k, LOOP_NAMES)

    def check(outcome: Any) -> tuple[str, str] | None:
        if isinstance(outcome, Raised):
            return "failed", outcome.error
        if outcome["cert"] is None:
            return "wrong", "no loop certificate"
        if len(outcome["cert"].trace.steps) != oracle.LOOP_CYCLE_LENGTH[shape]:
            return "wrong", "cycle length differs"
        if outcome["verdict"] != "verified":
            return "wrong", f"chain {outcome['verdict']}"
        if json.loads(outcome["json"][0]) != want_witness:
            return "wrong", "witness differs"
        links = outcome["links"]
        if len(links) != k - 1:
            return "wrong", "derivation has the wrong number of links"
        for i, (term, trace) in enumerate(links):
            rule = want_witness["entries"][i + 1]["rule"]
            if (rdp.term_to_str(term) != want_terms[i] or len(trace.steps) != 1
                    or trace.steps[0].rule_index != rule
                    or rdp.term_to_str(trace.end) != want_terms[i + 1]):
                return "wrong", f"derivation link {i} differs"
        if not (outcome["witness_round_trip"] and outcome["traces_round_trip"]):
            return "wrong", "JSON round trip changed the certificate"
        return None

    return check


def _chain_certify(rng: random.Random, workdir: Path) -> Workload:
    ops = []
    for shape in LOOP_SHAPES:
        for i, depth in enumerate(LOOP_DEPTHS):
            for j, k in enumerate(LOOP_LENGTHS):
                inert = j % 2 == 1
                trs, start = _loop_instance(rng, shape, depth, inert, inert and i % 2 == 0)
                ops.append(Op(f"certify {shape} depth {depth} k {k}",
                              lambda trs=trs, start=start, k=k: _certify(trs, start, k),
                              _certify_check(shape, k), lambda trs=trs: trs))

    n = _names(rng, ("a", "s", "x", "y"), zero="0")
    a, s, z, x, y = n["a"], n["s"], n["0"], n["x"], n["y"]
    trs_path = workdir / "ackermann.trs"
    trs_path.write_text(_ackermann_trs(n))
    trs = _trs_loader(trs_path)

    def witness_file(label: str, entries: list[dict]) -> str:
        path = workdir / f"{label}.json"
        path.write_text(json.dumps({"entries": entries}))
        return str(path)

    # The published link: pair (2, ε) with x = s(0), y = 0, then x = 0,
    # y = a(s(0), 0).  It is a non-root chain link; under --innermost the
    # second lhs instance a(s(0), s(a(s(0), 0))) is not nr-normal.
    link = witness_file("criterion2", [
        {"rule": 2, "position": "ε", "substitution": {x: nat(1, s, z), y: z}},
        {"rule": 2, "position": "ε", "substitution": {x: z, y: f"{a}({nat(1, s, z)},{z})"}},
    ])
    common = ["--fuel", str(CHAIN_FUEL)]
    ops.append(_cli_op("chain-verify criterion-2", ["chain-verify", str(trs_path), "--witness", link] + common,
                       0, {"status": "verified", "entries": 2, "innermost": False, "fuel": CHAIN_FUEL,
                           "traces": [oracle.criterion2_link_trace(a, s, z, x, y)]}, trs))
    ops.append(_cli_op("chain-verify --innermost criterion-2",
                       ["chain-verify", str(trs_path), "--witness", link, "--innermost"] + common,
                       1, {"status": "precondition-failed", "entries": 2, "innermost": True,
                           "fuel": CHAIN_FUEL, "traces": [], "failed_link": 0,
                           "reason": "second-lhs-instance-not-nr-normal"}, trs))
    ops.append(_cli_op("chain-derive criterion-2", ["chain-derive", str(trs_path), "--witness", link] + common,
                       1, {"status": "failure", "fuel": CHAIN_FUEL,
                           "detail": "witness is not innermost chained: precondition-failed "
                                     "(second-lhs-instance-not-nr-normal)"}, trs))

    for m, length in DESCENDING:
        chain = oracle.descending_chain(m, length)
        path = witness_file(f"descending-{m}-{length}", [
            {"rule": 2, "position": "2", "substitution": {x: nat(xv, s, z), y: nat(yv, s, z)}}
            for xv, yv in chain
        ])
        sx = lambda yv: f"{a}({nat(m + 1, s, z)},{nat(yv, s, z)})"  # noqa: E731
        for innermost in (False, True):
            mode = "non-root-innermost" if innermost else "non-root"
            ops.append(_cli_op(
                f"chain-verify{' --innermost' if innermost else ''} descending m {m} length {length}",
                ["chain-verify", str(trs_path), "--witness", path] + common + (["--innermost"] if innermost else []),
                0, {"status": "verified", "entries": length, "innermost": innermost, "fuel": CHAIN_FUEL,
                    "traces": [{"start": sx(yv), "mode": mode, "steps": []} for _, yv in chain[:-1]]},
                trs))
        terms = oracle.descending_denoted_terms(m, length, a, s, z)
        links = [
            {"term": terms[j], "trace": {"start": terms[j], "mode": "innermost", "steps": [{
                "position": ".".join(["2"] * (j + 1)), "rule_index": 2,
                "substitution": {x: nat(m, s, z), y: nat(chain[j + 1][1], s, z)},
                "term": terms[j + 1]}]}}
            for j in range(length - 1)
        ]
        ops.append(_cli_op(f"chain-derive descending m {m} length {length}",
                           ["chain-derive", str(trs_path), "--witness", path] + common,
                           0, {"status": "verified", "entries": length, "fuel": CHAIN_FUEL, "links": links},
                           trs))
    return Workload("chain-certify", ops, [("trs", str(trs_path))])


# --- pvs0-ack ------------------------------------------------------------------------

PVS0_CELLS = [(2, n) for n in range(13)] + [(3, n) for n in range(5)]
PVS0_FUEL = 10_000
DIVERGENT_FUELS = (10_000, 20_000, 40_000)
CC_DP_GRIDS = ((3, 3), (6, 6), (10, 10), (15, 15))
CC_DP_PAIRS = ("0:1@ε", "2:2@2")
CC_DP_FUEL = 200

# The Ackermann program: o1 = [m = 0?, n = 0?, (n + 1, 0), (m - 1, 1), (m, n - 1)],
# o2 = [(m - 1, second argument's first component)].
_ACK_O1 = [
    ["if", ["eq", ["comp", 0, 0], ["const", 0]], ["top"], ["bottom"]],
    ["if", ["eq", ["comp", 0, 1], ["const", 0]], ["top"], ["bottom"]],
    ["tuple", ["add", ["comp", 0, 1], ["const", 1]], ["const", 0]],
    ["if", ["lt", ["const", 0], ["comp", 0, 0]],
     ["tuple", ["monus", ["comp", 0, 0], ["const", 1]], ["const", 1]], ["bottom"]],
    ["if", ["lt", ["const", 0], ["comp", 0, 1]],
     ["tuple", ["comp", 0, 0], ["monus", ["comp", 0, 1], ["const", 1]]], ["bottom"]],
]
_ACK_O2 = [
    ["if", ["lt", ["const", 0], ["comp", 0, 0]],
     ["tuple", ["monus", ["comp", 0, 0], ["const", 1]], ["comp", 1, 0]], ["bottom"]],
]


def _ack_program(rng: random.Random) -> dict:
    """The Ackermann program with its unary operators stored in a seeded order."""
    order = list(range(len(_ACK_O1)))
    rng.shuffle(order)
    slot = {op: i for i, op in enumerate(order)}
    o1 = lambda op, arg: ["op1", slot[op], arg]  # noqa: E731
    vr = ["vr"]
    body = ["ite", o1(0, vr), o1(2, vr),
            ["ite", o1(1, vr), ["rec", o1(3, vr)],
             ["rec", ["op2", 0, vr, ["rec", o1(4, vr)]]]]]
    return {"width": 2, "false_val": [0, 0], "top_val": [1, 0],
            "o1": [_ACK_O1[op] for op in order], "o2": _ACK_O2, "body": body}


def _pvs0_ack(rng: random.Random, workdir: Path) -> Workload:
    program = workdir / "ackermann.pvs0.json"
    program.write_text(json.dumps(_ack_program(rng)))
    divergent = workdir / "divergent.pvs0.json"
    divergent.write_text(json.dumps({"width": 1, "false_val": [0], "top_val": [1],
                                     "o1": [], "o2": [], "body": ["rec", ["vr"]]}))
    n = _names(rng, ("a", "s", "x", "y"), zero="0")
    trs_path = workdir / "ackermann.trs"
    trs_path.write_text(_ackermann_trs(n))
    trs = _trs_loader(trs_path)
    ops = []
    for m, k in PVS0_CELLS:
        value = f"{m},{k}"
        ops.append(_cli_op(f"pvs0-eval ({value})",
                           ["pvs0-eval", str(program), "--input", value, "--fuel", str(PVS0_FUEL)],
                           0, {"status": "ok", "result": [oracle.ackermann(m, k), 0], "fuel": PVS0_FUEL}, trs))
        ops.append(_cli_op(f"pvs0-terminates ({value})",
                           ["pvs0-terminates", str(program), "--input", value, "--fuel", str(PVS0_FUEL)],
                           0, {"status": "terminates", "fuel_needed": oracle.pvs0_least_fuel(m, k),
                               "max_fuel": PVS0_FUEL}, trs))
    for fuel in DIVERGENT_FUELS:
        value = str(rng.randint(0, 9))
        ops.append(_cli_op(f"pvs0-eval divergent fuel {fuel}",
                           ["pvs0-eval", str(divergent), "--input", value, "--fuel", str(fuel)],
                           1, {"status": "undefined", "fuel": fuel}, trs))
        ops.append(_cli_op(f"pvs0-terminates divergent fuel {fuel}",
                           ["pvs0-terminates", str(divergent), "--input", value, "--fuel", str(fuel)],
                           1, {"status": "unknown-within-fuel", "fuel": fuel}, trs))
    for b1, b2 in CC_DP_GRIDS:
        samples = [(i, j) for i in range(b1 + 1) for j in range(b2 + 1)]
        pairs = [{"context": int(p[0]), "pair": {"rule": int(p[2]), "position": p[4:]},
                  "samples": oracle.cc_dp_rows(p, samples), "passed": True} for p in CC_DP_PAIRS]
        argv = ["cc-dp-check", str(program), str(trs_path)]
        for p in CC_DP_PAIRS:
            argv += ["--pair", p]
        argv += ["--grid", f"{b1},{b2}", "--root", n["a"], "--succ", n["s"], "--zero", n["0"],
                 "--fuel", str(CC_DP_FUEL)]
        ops.append(_cli_op(f"cc-dp-check grid {b1},{b2}", argv, 0,
                           {"status": "pass", "passed": True, "fuel": CC_DP_FUEL, "pairs": pairs}, trs))
    big = max(max(g) for g in CC_DP_GRIDS)
    fallback = f"{n['a']}({nat(big, n['s'], n['0'])},{nat(big, n['s'], n['0'])})"
    return Workload("pvs0-ack", ops, [("program", str(program)), ("program", str(divergent)),
                                      ("trs", str(trs_path))], prim_fallback=(trs, fallback))
