"""Command-line front end.

Every command reads its inputs from files and flags, prints one report
(text by default, JSON with --json; both carry the same content), and
exits 0 on a verified or successful outcome, 1 on a not-found, unknown,
or failed analysis, and 2 on unusable input.  Search budgets come from
--fuel, the RDP_FUEL environment variable, or the built-in default of
10000, in that order.  Every command resolves its budget once, before it
reads any input file, so a negative or malformed budget is unusable input
whatever else the command is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
from itertools import product
from pathlib import Path
from typing import Any, Callable

from . import formats
from .dependency_pairs import (
    ConstructionFailure,
    DepPairAlt,
    PreconditionFailed,
    chain_from_loop,
    dep_pairs_alt,
    detect_innermost_loop,
    find_mint_subterm,
    standard_dep_pairs,
    to_standard,
    verify_chain_prefix,
    derivation_from_chain,
)
from .pvs0 import (
    calling_contexts,
    check_cc_dp_correspondence,
    chi_eval,
    terminates_on,
    unary_encoder,
)
from .rewriting import (
    DEFAULT_FUEL,
    FuelExhausted,
    RelationMode,
    TRS,
    derives,
    normalize,
)
from .terms import format_position, parse_position, subterm_at, term_to_str

_MODES = {mode.value: mode for mode in RelationMode}


def _fuel(args: argparse.Namespace) -> int:
    """The search budget; a negative one is unusable input, 0 is a valid budget."""
    if args.fuel is not None:
        fuel, source = args.fuel, "--fuel"
    else:
        env = os.environ.get("RDP_FUEL")
        if not env:
            return DEFAULT_FUEL
        try:
            fuel, source = int(env), "RDP_FUEL"
        except ValueError:
            raise formats.ParseError(f"RDP_FUEL must be an integer, got {env!r}") from None
    if fuel < 0:
        raise formats.ParseError(f"{source} must not be negative, got {fuel}")
    return fuel


def _load_trs(path: str) -> TRS:
    return formats.parse_trs(Path(path).read_text())


def _on_eval_thread(fn: Callable[[], Any]) -> Any:
    """Run ``fn`` on a thread named ``rdp-eval`` and return its result.

    The evaluator needs no thread of its own; this one stays only because
    ``bench/test_bench.py`` asserts that its tracer sees ``rdp-eval``.
    """
    box: dict[str, Any] = {}

    def work() -> None:
        try:
            box["value"] = fn()
        except BaseException as err:
            box["error"] = err

    thread = threading.Thread(target=work, name="rdp-eval")
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]
    return box["value"]


# --- command handlers ------------------------------------------------------


def _cmd_dps(args: argparse.Namespace) -> tuple[dict, int]:
    trs = _load_trs(args.trs)
    alts = dep_pairs_alt(trs)
    pairs = []
    for dp in alts:
        std = to_standard(trs, dp)
        pairs.append(
            {
                "rule": dp.rule_index,
                "position": format_position(dp.position),
                "lhs": term_to_str(std.lhs),
                "rhs_sub": term_to_str(std.rhs_sub),
            }
        )
    report: dict = {"status": "ok", "count": len(alts), "pairs": pairs}
    if args.dedup:
        distinct = standard_dep_pairs(trs, dedup=True)
        report["distinct_count"] = len(distinct)
        report["distinct"] = [
            {"lhs": term_to_str(p.lhs), "rhs_sub": term_to_str(p.rhs_sub)}
            for p in distinct
        ]
    return report, 0


def _cmd_normalize(args: argparse.Namespace) -> tuple[dict, int]:
    trs = _load_trs(args.trs)
    term = formats.parse_term(args.term, trs)
    mode = _MODES[args.mode]
    try:
        trace = normalize(trs, term, mode, args.fuel)
    except FuelExhausted as err:
        return {
            "status": "fuel-exhausted",
            "mode": mode.value,
            "fuel": args.fuel,
            "length": len(err.trace.steps),
            "last": term_to_str(err.trace.end),
            "trace": formats.trace_to_json(err.trace),
        }, 1
    return {
        "status": "normalized",
        "mode": mode.value,
        "fuel": args.fuel,
        "normal_form": term_to_str(trace.end),
        "length": len(trace.steps),
        "trace": formats.trace_to_json(trace),
    }, 0


def _cmd_reach(args: argparse.Namespace) -> tuple[dict, int]:
    trs = _load_trs(args.trs)
    source = formats.parse_term(args.source, trs)
    target = formats.parse_term(args.target, trs)
    mode = _MODES[args.mode]
    trace = derives(trs, source, target, mode, args.fuel)
    if trace is None:
        return {"status": "not-found", "mode": mode.value, "fuel": args.fuel}, 1
    return {
        "status": "verified",
        "mode": mode.value,
        "fuel": args.fuel,
        "length": len(trace.steps),
        "trace": formats.trace_to_json(trace),
    }, 0


def _cmd_loop(args: argparse.Namespace) -> tuple[dict, int]:
    trs = _load_trs(args.trs)
    term = formats.parse_term(args.term, trs)
    cert = detect_innermost_loop(trs, term, args.fuel)
    if cert is None:
        return {"status": "not-found", "fuel": args.fuel}, 1
    return {
        "status": "loop-found",
        "fuel": args.fuel,
        "start": term_to_str(cert.trace.start),
        "length": len(cert.trace.steps),
        "trace": formats.trace_to_json(cert.trace),
    }, 0


def _cmd_mint(args: argparse.Namespace) -> tuple[dict, int]:
    trs = _load_trs(args.trs)
    term = formats.parse_term(args.term, trs)
    found = find_mint_subterm(trs, term, args.fuel)
    if found is None:
        return {"status": "not-found", "fuel": args.fuel}, 1
    pos, cert = found
    return {
        "status": "mint-found",
        "fuel": args.fuel,
        "position": format_position(pos),
        "subterm": term_to_str(subterm_at(term, pos)),
        "certificate": formats.trace_to_json(cert.trace),
    }, 0


def _cmd_chain_verify(args: argparse.Namespace) -> tuple[dict, int]:
    trs = _load_trs(args.trs)
    witness = formats.parse_chain_witness(Path(args.witness).read_text(), trs)
    verdict = verify_chain_prefix(trs, witness, args.innermost, args.fuel)
    report: dict = {
        "entries": len(witness.entries),
        "innermost": args.innermost,
        "fuel": args.fuel,
        "status": verdict.status,
        "traces": [formats.trace_to_json(t) for t in verdict.traces],
    }
    if verdict.status == "verified":
        return report, 0
    report["failed_link"] = verdict.failed_index
    if verdict.reason:
        report["reason"] = verdict.reason
    return report, 1


def _cmd_chain_derive(args: argparse.Namespace) -> tuple[dict, int]:
    trs = _load_trs(args.trs)
    witness = formats.parse_chain_witness(Path(args.witness).read_text(), trs)
    links = derivation_from_chain(trs, witness, args.fuel)
    return {
        "status": "verified",
        "entries": len(witness.entries),
        "fuel": args.fuel,
        "links": [
            {"term": term_to_str(term), "trace": formats.trace_to_json(trace)}
            for term, trace in links
        ],
    }, 0


def _cmd_loop_chain(args: argparse.Namespace) -> tuple[dict, int]:
    trs = _load_trs(args.trs)
    term = formats.parse_term(args.term, trs)
    cert = detect_innermost_loop(trs, term, args.fuel)
    if cert is None:
        return {"status": "not-found", "detail": "no-loop-certificate", "fuel": args.fuel}, 1
    witness = chain_from_loop(trs, cert, args.length, args.fuel)
    return {
        "status": "verified",
        "length": len(witness.entries),
        "fuel": args.fuel,
        "witness": formats.witness_to_json(witness),
    }, 0


def _cmd_pvs0_eval(args: argparse.Namespace) -> tuple[dict, int]:
    program = formats.parse_pvs0_program(Path(args.program).read_text())
    value = formats.parse_value(args.input)
    result = _on_eval_thread(lambda: chi_eval(program, program.body, value, args.fuel))
    if result is None:
        return {"status": "undefined", "fuel": args.fuel}, 1
    return {"status": "ok", "result": list(result), "fuel": args.fuel}, 0


def _cmd_pvs0_terminates(args: argparse.Namespace) -> tuple[dict, int]:
    program = formats.parse_pvs0_program(Path(args.program).read_text())
    value = formats.parse_value(args.input)
    needed = _on_eval_thread(lambda: terminates_on(program, value, args.fuel))
    if needed is None:
        return {"status": "unknown-within-fuel", "fuel": args.fuel}, 1
    return {"status": "terminates", "fuel_needed": needed, "max_fuel": args.fuel}, 0


def _cmd_pvs0_contexts(args: argparse.Namespace) -> tuple[dict, int]:
    program = formats.parse_pvs0_program(Path(args.program).read_text())
    contexts = calling_contexts(program)
    return {
        "status": "ok",
        "count": len(contexts),
        "contexts": [
            {
                "index": i,
                "path": format_position(ctx.path),
                "condition": [
                    {"guard": formats.pvs0_expr_to_str(g), "polarity": pol}
                    for g, pol in ctx.condition
                ],
                "actual": formats.pvs0_expr_to_str(ctx.actual),
            }
            for i, ctx in enumerate(contexts)
        ],
    }, 0


def _parse_pair_flag(text: str) -> tuple[int, DepPairAlt]:
    head, sep, pos_text = text.partition("@")
    if not sep:
        raise formats.ParseError(f"pair must look like CTX:RULE@POS, got {text!r}")
    ctx_text, sep, rule_text = head.partition(":")
    if not sep:
        raise formats.ParseError(f"pair must look like CTX:RULE@POS, got {text!r}")
    try:
        ctx_index = int(ctx_text)
        rule_index = int(rule_text)
    except ValueError:
        raise formats.ParseError(f"malformed pair {text!r}") from None
    return ctx_index, DepPairAlt(rule_index, parse_position(pos_text))


def _cmd_cc_dp_check(args: argparse.Namespace) -> tuple[dict, int]:
    program = formats.parse_pvs0_program(Path(args.program).read_text())
    trs = _load_trs(args.trs)
    pairs = [_parse_pair_flag(text) for text in args.pair]
    samples = [formats.parse_value(text) for text in args.sample]
    if args.grid:
        bounds = formats.parse_value(args.grid)
        samples.extend(product(*(range(b + 1) for b in bounds)))
    if not samples:
        raise formats.ParseError("no samples given; use --sample and/or --grid")
    encode = unary_encoder(trs, args.root, args.succ, args.zero)
    report = _on_eval_thread(
        lambda: check_cc_dp_correspondence(program, trs, encode, pairs, samples, args.fuel)
    )
    report["status"] = "pass" if report["passed"] else "fail"
    report["fuel"] = args.fuel
    return report, 0 if report["passed"] else 1


# --- dispatcher ------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdp",
        description="Term rewriting workbench: innermost reduction, dependency "
        "pairs, chain witnesses, loop certificates, and a small recursive "
        "functional language.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--json", action="store_true", help="emit the report as JSON")
        cmd.add_argument(
            "--fuel", type=int, default=None,
            help="search budget (default: RDP_FUEL or 10000)",
        )
        cmd.set_defaults(func=handler)
        return cmd

    cmd = add("dps", _cmd_dps, "list dependency pairs of a TRS")
    cmd.add_argument("trs")
    cmd.add_argument("--dedup", action="store_true",
                     help="also list standard pairs deduplicated up to renaming")

    cmd = add("normalize", _cmd_normalize, "reduce a term to a normal form")
    cmd.add_argument("trs")
    cmd.add_argument("--term", required=True)
    cmd.add_argument("--mode", choices=sorted(_MODES), default="full")

    cmd = add("reach", _cmd_reach, "search for a derivation between two terms")
    cmd.add_argument("trs")
    cmd.add_argument("--from", dest="source", required=True)
    cmd.add_argument("--to", dest="target", required=True)
    cmd.add_argument("--mode", choices=sorted(_MODES), default="full")

    cmd = add("loop", _cmd_loop, "search for an exact innermost cycle")
    cmd.add_argument("trs")
    cmd.add_argument("--term", required=True)

    cmd = add("mint", _cmd_mint, "locate a minimal certified-looping subterm")
    cmd.add_argument("trs")
    cmd.add_argument("--term", required=True)

    cmd = add("chain-verify", _cmd_chain_verify, "check the links of a chain witness")
    cmd.add_argument("trs")
    cmd.add_argument("--witness", required=True)
    cmd.add_argument("--innermost", action="store_true")

    cmd = add("chain-derive", _cmd_chain_derive,
              "build the derivation an innermost chain witness denotes")
    cmd.add_argument("trs")
    cmd.add_argument("--witness", required=True)

    cmd = add("loop-chain", _cmd_loop_chain,
              "extract a verified chain witness from an innermost cycle")
    cmd.add_argument("trs")
    cmd.add_argument("--term", required=True)
    cmd.add_argument("--length", type=int, required=True)

    cmd = add("pvs0-eval", _cmd_pvs0_eval, "evaluate a program on an input")
    cmd.add_argument("program")
    cmd.add_argument("--input", required=True)

    cmd = add("pvs0-terminates", _cmd_pvs0_terminates,
              "search for the least sufficient evaluation fuel")
    cmd.add_argument("program")
    cmd.add_argument("--input", required=True)

    cmd = add("pvs0-contexts", _cmd_pvs0_contexts, "list the calling contexts")
    cmd.add_argument("program")

    cmd = add("cc-dp-check", _cmd_cc_dp_check,
              "check calling-context / dependency-pair pairings on samples")
    cmd.add_argument("program")
    cmd.add_argument("trs")
    cmd.add_argument("--pair", action="append", default=[],
                     metavar="CTX:RULE@POS", required=True)
    cmd.add_argument("--sample", action="append", default=[], metavar="V1,V2,...")
    cmd.add_argument("--grid", default=None, metavar="B1,B2,...",
                     help="add all sample tuples with components up to the bounds")
    cmd.add_argument("--root", default=None,
                     help="encoding root symbol (default: the unique defined symbol)")
    cmd.add_argument("--succ", default="s")
    cmd.add_argument("--zero", default="0")

    return parser


def _render_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _render_text(obj: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict) and obj:
        lines = []
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_render_scalar(value)}")
        return "\n".join(lines)
    if isinstance(obj, list) and obj:
        lines = []
        for item in obj:
            if isinstance(item, (dict, list)) and item:
                rendered = _render_text(item, indent + 1).split("\n")
                lines.append(f"{pad}- {rendered[0].strip()}")
                lines.extend(rendered[1:])
            else:
                lines.append(f"{pad}- {_render_scalar(item)}")
        return "\n".join(lines)
    return f"{pad}{_render_scalar(obj)}"


def run_command(argv: list[str]) -> int:
    """Parse arguments, run one command, print its report, return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        args.fuel = _fuel(args)
        report, code = args.func(args)
    except (PreconditionFailed, ConstructionFailure, RecursionError) as err:
        detail = "recursion-depth-exceeded" if isinstance(err, RecursionError) else err.reason
        report, code = {"status": "failure", "detail": detail, "fuel": args.fuel}, 1
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2) if args.json else _render_text(report))
    return code


def main(argv: list[str] | None = None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
