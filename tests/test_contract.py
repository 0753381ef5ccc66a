"""The honest-verdict contract of the rewriting and PVS0 commands, run in process.

One derandomized hypothesis test draws a system, a term, a command, a mode,
a fuel and a chain length, runs ``cli.run_command`` on them and checks what
it printed against its exit code:

- exit 0: every printed trace or certificate reads back with
  ``parse_trace`` and replays with ``check_trace``; a loop's ``start`` is
  its trace's; ``dps`` pairs read back as the system's pairs; a witness
  reads back and verifies at the same fuel, and ``chain-verify
  --innermost`` and ``chain-derive`` on it exit 0 at that fuel with traces
  that replay, each derivation link's ``term`` its trace's ``start``;
- exit 1: the status is ``not-found``, ``fuel-exhausted`` or ``failure``
  with a construction reason, ``"fuel"`` echoes the budget, and a partial
  ``fuel-exhausted`` trace replays;
- exit 2: exactly one stderr line, under 1 KB;
- always: no exception escapes, a JSON report is what ``json.dumps`` with
  ``indent=2`` writes of it, and the report stays under a bound linear in
  the input size plus fuel times the largest right-hand side, which
  catches output exponential in the number of steps without a timer.

Terms are drawn over each system's own symbols, so they read.  A run other
than ``dps`` whose draw from 0..9 is 0 drops one character of its term,
which makes the term unreadable on purpose, and must exit 2.  Hypothesis
favours 0, so with hypothesis 6.155 that is 152 of the 800 runs: they exit
0 in 322 runs (40.25 %), 1 in 326 (40.75 %) and 2 in the 152 unreadable
ones (19 %).  A run whose last draw from 0..9 is 3, 78 of the 800, runs
once more as text, with no ``--json``: it must exit as the JSON run did,
with the same stderr.

A second derandomized test runs ``chain-verify``, with and without
``--innermost``, and ``chain-derive`` on witnesses drawn over the same
systems, chained or not, at fuels 0..40:

- exit 0: ``verified``, every printed trace reads back and replays, and
  each derivation link's ``term`` is its trace's ``start``;
- exit 1: only ``not-found``, ``precondition-failed`` or ``failure``, with
  the fuel; the traces ``chain-verify`` prints before a failed link replay;
- exit 2: exactly when an entry is no dependency pair, on one stderr line
  under 1 KB;
- always: a report is what ``json.dumps`` with ``indent=2`` writes of it.

With hypothesis 6.155 the 900 runs of its 300 witnesses exit 0 in 345
(38.33 %), 1 in 384 (42.67 %) and 2 in 171 (19 %), the 57 witnesses with
an entry that is no pair.

A third derandomized test runs ``pvs0-eval``, ``pvs0-terminates`` and
``pvs0-contexts`` on programs of the criterion-7 generator, written with
``oracle_program_to_json``, on inputs of the program's width and fuels
0..40:

- exit 0: ``ok`` carries a value of the program's width, the one
  ``chi_eval`` gives; ``terminates`` carries a ``fuel_needed`` no larger
  than ``max_fuel``, on which ``chi_eval`` is defined and below which it is
  not; ``count`` is the number of ``calling_contexts``;
- exit 1: only ``undefined`` or ``unknown-within-fuel``, with the fuel;
- exit 2: exactly one stderr line, under 1 KB;
- always: the report stays under a bound linear in the program's JSON,
  and is what ``json.dumps`` with ``indent=2`` writes of it.

An input whose draw from 0..9 is 0 is malformed or of the wrong width, and
must exit 2.  With hypothesis 6.155 the 600 runs exit 0 in 307 (51.17 %),
1 in 252 (42 %) and 2 in 41 (6.83 %), the unusable inputs.

Known defects are strict xfails on concrete inputs, each naming the
ROADMAP item whose mend flips it.

A last test reads the package's own source: the contract's "never a
``RecursionError``" is kept with explicit stacks, not with a raised
recursion limit, a larger thread stack or a handler that turns a depth
failure into bad input.
"""

import contextlib
import dataclasses
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdp
from rdp import (
    ChainWitness,
    FuelExhausted,
    LoopCertificate,
    RelationMode,
    check_certificate,
    check_trace,
    dep_pairs_alt,
    is_dep_pair_alt,
    match,
    normalize,
    to_standard,
    verify_chain_prefix,
)
from rdp.cli import run_command
from rdp.formats import (
    format_trs,
    parse_chain_witness,
    parse_term,
    parse_trace,
    parse_trs,
    parse_value,
    witness_to_json,
)
from rdp.pvs0 import Pvs0Program, Rec, Vr, calling_contexts, chi_eval
from rdp.terms import parse_position, subterm_at, term_to_str

from helpers import (
    NOT_PAIRS,
    X,
    Y,
    ack_system,
    detour_system,
    dup_system,
    eq_system,
    grow_system,
    growing_wrap_system,
    hg_system,
    loop_system,
    nest_system,
    oracle_program_to_json,
    random_pvs0_program,
    terms_over,
    witness_entries,
)

SYSTEMS = {
    "ack": ack_system,
    "loop": loop_system,
    "grow": grow_system,
    "nest": nest_system,
    "growing_wrap": growing_wrap_system,
    "detour": detour_system,
    "eq": eq_system,
}
KNOWN_DEFECTS = {"hg": hg_system, "dup": dup_system}  # item 9: shared terms print unshared
COMMANDS = ("normalize", "reach", "loop", "mint", "loop-chain", "dps")
# The reasons a fuel-bounded construction gives for a failure; a link that
# is not chained adds the link verdict's status after the colon.
CONSTRUCTION_REASONS = {
    "not-nr-normal",
    "no-root-rule",
    "no-mint-within-fuel",
    "mint-not-a-dependency-pair-position",
    "fuel-exhausted-normalizing",
    "lhs-instance-not-nr-normal",
    "no-loop-certificate",
    "derivation-replay-failed",
}
BYTES_PER_STEP_CHARACTER = 64  # the C of the output bound


@pytest.fixture(scope="module")
def systems(tmp_path_factory):
    """Each system by name as (its file, the system read back from it); every
    file declares x and y, the variables the drawn terms use."""
    folder = tmp_path_factory.mktemp("contract")
    out = {}
    for name, system in {**SYSTEMS, **KNOWN_DEFECTS}.items():
        trs = system()
        text = format_trs(dataclasses.replace(trs, variables=trs.variables | {X, Y}))
        path = folder / f"{name}.trs"
        path.write_text(text)
        out[name] = (str(path), parse_trs(text))
    return out


def _run(argv):
    """``run_command(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def _report(out):
    """The ``--json`` report ``out`` read back, after checking that it is
    what ``json.dumps`` with ``indent=2`` writes of it, with a newline."""
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
    return report


def _replays(trs, data, mode=None):
    """The printed trace ``data`` read back, after checking that it replays."""
    trace = parse_trace(data, trs)
    assert check_trace(trs, trace)
    assert mode is None or trace.mode == mode
    return trace


def _keeps_the_contract(
    path, trs, command, term, target, mode, fuel, length, unreadable=False, as_text=False
):
    """Run one command and check its output against the contract; a term
    ``unreadable`` on purpose must exit 2.  A run ``as_text`` is run once
    more without ``--json`` and must exit and fail the same way."""
    argv = [command, path, "--fuel", str(fuel)]
    if command == "reach":
        argv += ["--from", term, "--to", target, "--mode", mode.value]
    elif command != "dps":
        argv += ["--term", term]
    if command == "normalize":
        argv += ["--mode", mode.value]
    if command == "loop-chain":
        argv += ["--length", str(length)]
    code, out, err = _run(argv + ["--json"])
    assert code == 2 or not unreadable, code
    if as_text:
        text_code, text_out, text_err = _run(argv)
        assert (text_code, text_err) == (code, err)
        assert text_out == "" if code == 2 else text_out.startswith("status: ")

    size = len(term) + (len(target) if command == "reach" else 0)
    rhs = max(len(term_to_str(rule.rhs)) for rule in trs.rules)
    bound = BYTES_PER_STEP_CHARACTER * (fuel + 1) * (size + (fuel + 1) * rhs)
    assert len(out.encode()) <= bound, f"{len(out.encode())} bytes printed, bound {bound}"

    if code == 2:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert len(err.encode()) < 1024
        return
    assert err == ""
    report = _report(out)
    if command == "dps":
        assert (code, report["status"]) == (0, "ok")
        pairs = dep_pairs_alt(trs)
        assert report["count"] == len(pairs) == len(report["pairs"])
        for dp, printed in zip(pairs, report["pairs"]):
            std = to_standard(trs, dp)
            where = (printed["rule"], parse_position(printed["position"]))
            assert where == (dp.rule_index, dp.position)
            assert parse_term(printed["lhs"], trs) == std.lhs
            assert parse_term(printed["rhs_sub"], trs) == std.rhs_sub
        return
    assert report["fuel"] == fuel
    status = report["status"]
    if code == 1:
        assert status in ("not-found", "fuel-exhausted", "failure"), status
        if status == "failure":
            detail = report["detail"]
            assert detail in CONSTRUCTION_REASONS or detail.startswith("link-not-chained:"), detail
        if status == "fuel-exhausted":
            trace = _replays(trs, report["trace"], mode)
            assert len(trace.steps) == report["length"] == fuel
            assert term_to_str(trace.end) == report["last"]
        return
    assert code == 0, code
    start = parse_term(term, trs)
    if command == "normalize":
        assert status == "normalized"
        trace = _replays(trs, report["trace"], mode)
        assert trace.start == start and len(trace.steps) == report["length"] <= fuel
        assert term_to_str(trace.end) == report["normal_form"]
    elif command == "reach":
        assert status == "verified"
        trace = _replays(trs, report["trace"], mode)
        assert trace.start == start and trace.end == parse_term(target, trs)
    elif command == "loop":
        assert status == "loop-found"
        assert report["start"] == report["trace"]["start"]
        assert check_certificate(trs, LoopCertificate(_replays(trs, report["trace"])))
    elif command == "mint":
        assert status == "mint-found"
        assert check_certificate(trs, LoopCertificate(_replays(trs, report["certificate"])))
        subterm = subterm_at(start, parse_position(report["position"]))
        assert term_to_str(subterm) == report["subterm"]
    else:
        assert status == "verified" and report["length"] == length
        witness = parse_chain_witness(json.dumps(report["witness"]), trs)
        assert len(witness.entries) == length
        assert verify_chain_prefix(trs, witness, True, fuel).status == "verified"
        _derives_the_chain(path, trs, report["witness"], fuel, length)


def _derives_the_chain(path, trs, witness, fuel, length):
    """A printed witness verifies as an innermost chain through the CLI at the
    same fuel, and denotes derivations that replay from its links' terms."""
    witness_path = Path(f"{path}.witness.json")
    witness_path.write_text(json.dumps(witness))
    argv = [path, "--witness", str(witness_path), "--fuel", str(fuel), "--json"]
    code, out, err = _run(["chain-verify", *argv, "--innermost"])
    assert (code, err) == (0, "")
    report = _report(out)
    assert (report["status"], report["entries"]) == ("verified", length)
    for data in report["traces"]:
        _replays(trs, data)
    code, out, err = _run(["chain-derive", *argv])
    assert (code, err) == (0, "")
    report = _report(out)
    assert (report["status"], len(report["links"])) == ("verified", length - 1)
    for link in report["links"]:
        assert link["term"] == link["trace"]["start"]
        _replays(trs, link["trace"], RelationMode.INNERMOST)


def _reached(system, term, mode, steps):
    """The term ``steps`` steps along ``term``'s derivation under ``mode``, or its
    normal form if that comes first."""
    try:
        return normalize(system, term, mode, steps).end
    except FuelExhausted as err:
        return err.trace.end


@st.composite
def _runs(draw):
    """A run over the system's own symbols, whose term loses one character,
    and reads no more, when a draw from 0..9 is 0 (``dps`` reads no term)."""
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    command = draw(st.sampled_from(COMMANDS))
    system = SYSTEMS[name]()
    term = draw(terms_over(system.signature.symbols, with_c=False))
    mode = draw(st.sampled_from(list(RelationMode)))
    target = draw(
        st.one_of(
            st.integers(0, 6).map(lambda steps: _reached(system, term, mode, steps)),
            terms_over(system.signature.symbols, with_c=False),
        )
    )
    text = term_to_str(term)
    unreadable = command != "dps" and draw(st.integers(0, 9)) == 0
    if unreadable:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + text[at + 1 :]
    return (
        name,
        command,
        text,
        term_to_str(target),
        mode,
        draw(st.integers(0, 40)),
        draw(st.integers(1, 4)),
        unreadable,
        draw(st.integers(0, 9)) == 3,
    )


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(_runs())
def test_every_rewriting_command_keeps_the_contract(systems, run):
    name, *rest = run
    _keeps_the_contract(*systems[name], *rest)


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 9: terms a duplicating rule shares print unshared, "
    "in size exponential in the number of steps",
)
@pytest.mark.parametrize(
    "name, term, mode, fuel",
    [
        ("hg", "h(h(x,x),h(x,x))", RelationMode.FULL, 10),
        ("dup", "f(" * 14 + "x" + ")" * 14, RelationMode.INNERMOST, 14),
    ],
    ids=["hg", "dup"],
)
def test_a_duplicating_rule_prints_within_the_bound(systems, name, term, mode, fuel):
    _keeps_the_contract(*systems[name], "normalize", term, "", mode, fuel, 1)


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 4: the recursive term_to_str of the report's last "
    "term fails near 330 levels, and the answer is failure / recursion-depth-exceeded",
)
def test_a_deep_normalize_answers_fuel_exhausted(systems):
    _keeps_the_contract(*systems["grow"], "normalize", "g(x)", "", RelationMode.FULL, 400, 1)


# --- the chain-witness commands ----------------------------------------------


@pytest.fixture(scope="module")
def witness_path(tmp_path_factory):
    """The file each witness run writes its witness to."""
    return tmp_path_factory.mktemp("witness-contract") / "witness.json"


def _keeps_the_witness_contract(path, trs, witness_path, witness, fuel):
    """Run ``chain-verify``, with and without ``--innermost``, and
    ``chain-derive`` on ``witness`` and check each output against the
    contract; a witness with an entry that is no dependency pair must exit 2."""
    witness_path.write_text(json.dumps(witness_to_json(witness)))
    pairs_only = all(is_dep_pair_alt(trs, dp) for dp, _ in witness.entries)
    argv = [path, "--witness", str(witness_path), "--fuel", str(fuel), "--json"]
    for command in (["chain-verify"], ["chain-verify", "--innermost"], ["chain-derive"]):
        code, out, err = _run(command + argv)
        assert (code == 2) == (not pairs_only), (command, code)
        if code == 2:
            assert out == ""
            assert err.endswith("\n") and err.count("\n") == 1, err
            assert len(err.encode()) < 1024
            continue
        assert err == ""
        report = _report(out)
        assert report["fuel"] == fuel
        if code == 1:
            assert report["status"] in ("not-found", "precondition-failed", "failure"), report
        else:
            assert (code, report["status"], report["entries"]) == (0, "verified", len(witness))
        if command[0] == "chain-verify" and report["status"] != "failure":
            for data in report["traces"]:  # a failed link's prefix replays too
                _replays(trs, data)
        elif code == 0:
            assert len(report["links"]) == max(len(witness) - 1, 0)
            for link in report["links"]:
                assert link["term"] == link["trace"]["start"]
                _replays(trs, link["trace"], RelationMode.INNERMOST)


@st.composite
def _witness_runs(draw):
    """A witness of one to six entries over one system, with x and y bound to
    a few small terms over the system's own symbols, and a fuel.  Half of the
    witnesses are chained from their first entry on, for as long as the rhs
    subterm of the entry before, normalized below its root, is an instance
    of some pair's lhs; the entries after that stay as drawn.  When a draw
    from 0..4 is 0, one entry names one of ``NOT_PAIRS`` instead."""
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    system = SYSTEMS[name]()
    values = draw(
        st.lists(terms_over(system.signature.symbols, 4, with_c=False), min_size=1, max_size=3)
    )
    pairs = dep_pairs_alt(system)
    entries = draw(st.lists(witness_entries(values, pairs), min_size=1, max_size=6))
    if draw(st.booleans()):
        for i in range(1, len(entries)):
            dp, sigma = entries[i - 1]
            rhs_sub = subterm_at(system.rules[dp.rule_index].rhs, dp.position)
            reached = _reached(system, sigma.apply(rhs_sub), RelationMode.NON_ROOT_INNERMOST, 40)
            options = [
                (pair, found)
                for pair in pairs
                if (found := match(system.rules[pair.rule_index].lhs, reached)) is not None
            ]
            if not options:
                break
            entries[i] = draw(st.sampled_from(options))
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(entries) - 1))
        entries[i] = (draw(st.sampled_from(NOT_PAIRS)), entries[i][1])
    return name, ChainWitness(tuple(entries)), draw(st.integers(0, 40))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_witness_runs())
def test_every_chain_witness_command_keeps_the_contract(systems, witness_path, run):
    name, witness, fuel = run
    _keeps_the_witness_contract(*systems[name], witness_path, witness, fuel)


# --- the PVS0 commands -------------------------------------------------------

PVS0_COMMANDS = ("pvs0-eval", "pvs0-terminates", "pvs0-contexts")
BYTES_PER_PROGRAM_BYTE = 64  # the C of the PVS0 output bound


@pytest.fixture(scope="module")
def program_path(tmp_path_factory):
    """The file each PVS0 run writes its program to."""
    return tmp_path_factory.mktemp("pvs0-contract") / "program.json"


def _keeps_the_pvs0_contract(path, program, command, text, fuel, unusable=False):
    """Run one PVS0 command on ``program`` and check its output against the
    contract; an input ``unusable`` on purpose must exit 2."""
    data = json.dumps(oracle_program_to_json(program))
    path.write_text(data)
    argv = [command, str(path), "--fuel", str(fuel), "--json"]
    if command != "pvs0-contexts":
        argv += ["--input", text]
    code, out, err = _run(argv)
    assert code == 2 or not unusable, code
    bound = BYTES_PER_PROGRAM_BYTE * len(data)
    assert len(out.encode()) <= bound, f"{len(out.encode())} bytes printed, bound {bound}"
    if code == 2:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert len(err.encode()) < 1024
        return
    assert err == ""
    report = _report(out)
    if command == "pvs0-contexts":
        assert (code, report["status"]) == (0, "ok")
        assert report["count"] == len(calling_contexts(program)) == len(report["contexts"])
        return
    value = parse_value(text)
    if code == 1:
        want = "undefined" if command == "pvs0-eval" else "unknown-within-fuel"
        assert (report["status"], report["fuel"]) == (want, fuel)
        return
    assert code == 0, code
    if command == "pvs0-eval":
        assert (report["status"], report["fuel"]) == ("ok", fuel)
        result = report["result"]
        assert len(result) == program.width and all(v >= 0 for v in result)
        assert tuple(result) == chi_eval(program, program.body, value, fuel)
    else:
        assert (report["status"], report["max_fuel"]) == ("terminates", fuel)
        needed = report["fuel_needed"]
        assert 1 <= needed <= fuel
        assert chi_eval(program, program.body, value, needed) is not None
        assert chi_eval(program, program.body, value, needed - 1) is None


@st.composite
def _pvs0_runs(draw):
    """A run on a random program whose input, when a draw from 0..9 is 0, is
    malformed or of the wrong width (``pvs0-contexts`` reads no input)."""
    program = random_pvs0_program(random.Random(draw(st.integers(0, 2**32 - 1))))
    command = draw(st.sampled_from(PVS0_COMMANDS))
    width = program.width
    value = draw(st.lists(st.integers(0, 5), min_size=width, max_size=width))
    text = ",".join(map(str, value))
    unusable = command != "pvs0-contexts" and draw(st.integers(0, 9)) == 0
    if unusable:
        wrong = st.lists(st.integers(0, 5), min_size=1, max_size=3).filter(
            lambda v: len(v) != width
        )
        text = draw(
            st.one_of(
                wrong.map(lambda v: ",".join(map(str, v))),
                st.sampled_from(("", "x", "-1", "1,", "(", "1;2", f"{text},")),
            )
        )
    return program, command, text, draw(st.integers(0, 40)), unusable


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_pvs0_runs())
def test_every_pvs0_command_keeps_the_contract(program_path, run):
    _keeps_the_pvs0_contract(program_path, *run)


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 7: each context prints its actual parameter whole, so "
    "nested recs print in size quadratic in the body",
)
def test_nested_recs_list_their_contexts_within_the_bound(program_path):
    body = Vr()
    for _ in range(800):
        body = Rec(body)
    program = Pvs0Program(1, (0,), (1,), (), (), body)
    _keeps_the_pvs0_contract(program_path, program, "pvs0-contexts", "", 0)


def test_src_carries_no_depth_workaround():
    """No module of the package changes the recursion limit or the thread
    stack size, or carries the recursive readers' depth handler.

    Two depth handlers are left: the one in ``cli.py``, now only for the
    last term of a fuel-exhausted ``normalize``, which the recursive
    ``term_to_str`` still prints, and for a guard nested too deeply to
    evaluate; and in ``formats.py`` the one ``json.loads`` call, in
    ``_load_json``, which translates the JSON decoder's own depth limit.
    Traces, and every other term a report, a file or a repr shows, print on
    one explicit stack, ``terms._write``.  Terms, programs and guards
    are read, and programs evaluated, with explicit stacks; the other passes
    over PVS0 trees (repr among them), the minimal looping subterm search
    and the successor core's walk over the positions that may fire ride one
    walk without recursion, ``terms._walk``.
    """
    src = Path(rdp.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for name in ("setrecursionlimit", "stack_size", "_depth_is_bad_input"):
            assert name not in text, f"{path.name} names {name}"
        if path.name not in ("cli.py", "formats.py"):
            assert "RecursionError" not in text, f"{path.name} names RecursionError"
    where, function = [], None
    for line in (src / "formats.py").read_text().splitlines():
        if line.startswith("def "):
            function = line[len("def "):].split("(")[0]
        if "RecursionError" in line:
            where.append(function)
    assert where == ["_load_json"]
