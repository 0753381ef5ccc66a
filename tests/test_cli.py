import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdp
from rdp import cli
from rdp.cli import run_command

LOOP_TRS = "(VAR x)\n(RULES\n  f(x) -> f(x)\n  k -> c\n)\n"
GROW_TRS = "(VAR x)\n(RULES g(x) -> g(s(x)))\n"
HG_TRS = (
    "(VAR x y)\n(RULES\n"
    "  h(x,y) -> h(g(x,y),g(g(x,y),y))\n"
    "  h(x,y) -> g(x,y)\n"
    "  g(x,y) -> y\n)\n"
)
DEEP_TERM = "s(" * 2000 + "x" + ")" * 2000  # deeper than the term printer reaches
DEEP_TRS = f"(VAR x)\n(RULES g(x) -> {DEEP_TERM})\n"
# 1,000 levels: past the recursive term_to_str, which fails near 330.
DEEP_LHS = "f(" + "s(" * 1000 + "x" + ")" * 1001
DEEP_C = "s(" * 1000 + "c" + ")" * 1000
WRAP_TRS = "(VAR x)\n(RULES\n  f(x) -> f(x)\n  k -> w(s(c))\n)\n"
# JSON deeper than json.loads reads on every supported Python, 3.13 included.
DEEP_PROGRAM = (
    '{"width": 1, "false_val": [0], "top_val": [1], "body": '
    + '["rec", ' * 100_000 + '["vr"]' + "]" * 100_000 + "}"
)
DEEP_WITNESS = '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}"
LOOP_PROGRAM = '{"width": 1, "false_val": [0], "top_val": [1], "body": ["rec", ["vr"]]}'

INNER_ACK_WITNESS = {
    "entries": [
        {"rule": 2, "position": "2", "substitution": {"x": "0", "y": "s(0)"}},
        {"rule": 2, "position": "2", "substitution": {"x": "0", "y": "0"}},
    ]
}
# Ackermann chain witnesses for the pinned reports: six entries chained
# innermost, with a 5-step link and zero-step links; a middle entry whose lhs
# instance a(s(0),s(s(a(0,0)))) holds a redex; and a third link no non-root
# derivation reaches, a(s(0),s(s(0))) being normal below its root.
PINNED_WITNESSES = {
    "verified.json": [
        (1, "", {"x": "s(s(0))"}),
        (2, "", {"x": "s(0)", "y": "0"}),
        (2, "2", {"x": "0", "y": "s(s(0))"}),
        (2, "2", {"x": "0", "y": "s(0)"}),
        (2, "2", {"x": "0", "y": "0"}),
        (1, "", {"x": "0"}),
    ],
    "middle-not-nr-normal.json": [
        (1, "", {"x": "s(s(0))"}),
        (2, "", {"x": "s(0)", "y": "0"}),
        (2, "2", {"x": "0", "y": "s(a(0,0))"}),
        (2, "2", {"x": "0", "y": "s(0)"}),
    ],
    "third-link-not-found.json": [
        (1, "", {"x": "s(s(0))"}),
        (2, "", {"x": "s(0)", "y": "0"}),
        (2, "2", {"x": "0", "y": "s(s(0))"}),
        (1, "", {"x": "s(s(s(s(0))))"}),
    ],
}
ROOT_ACK_WITNESS = {
    "entries": [
        {"rule": 2, "position": "", "substitution": {"x": "s(0)", "y": "0"}},
        {"rule": 2, "position": "", "substitution": {"x": "0", "y": "a(s(0),0)"}},
    ]
}


@pytest.fixture()
def loop_trs_path(tmp_path):
    path = tmp_path / "loop.trs"
    path.write_text(LOOP_TRS)
    return str(path)


@pytest.fixture()
def grow_trs_path(tmp_path):
    path = tmp_path / "grow.trs"
    path.write_text(GROW_TRS)
    return str(path)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    code = run_command(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- dps -------------------------------------------------------------------


def test_dps_lists_pairs(capsys, ack_trs_path):
    code, report = run_json(capsys, ["dps", ack_trs_path])
    assert code == 0
    assert report["status"] == "ok"
    assert report["count"] == 3
    assert [(p["rule"], p["position"]) for p in report["pairs"]] == [
        (1, "ε"),
        (2, "ε"),
        (2, "2"),
    ]
    assert report["pairs"][2]["lhs"] == "a(s(x),s(y))"
    assert report["pairs"][2]["rhs_sub"] == "a(s(x),y)"


def test_dps_dedup(capsys, tmp_path):
    path = write_json(tmp_path, "hg.trs", HG_TRS)
    code, report = run_json(capsys, ["dps", path, "--dedup"])
    assert code == 0
    assert report["count"] == 5
    assert report["distinct_count"] == 3


# --- normalize and reach ---------------------------------------------------


def test_normalize_innermost(capsys, ack_trs_path):
    code, report = run_json(
        capsys,
        ["normalize", ack_trs_path, "--term", "a(s(0),s(0))", "--mode", "innermost"],
    )
    assert code == 0
    assert report["status"] == "normalized"
    assert report["normal_form"] == "s(s(s(0)))"
    assert report["length"] == 4


def test_normalize_text_rendering(capsys, ack_trs_path):
    code = run_command(
        ["normalize", ack_trs_path, "--term", "a(0,0)", "--mode", "innermost"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "status: normalized" in out
    assert "normal_form: s(0)" in out
    assert "steps:" in out


def test_normalize_fuel_exhausted(capsys, loop_trs_path):
    code, report = run_json(
        capsys, ["normalize", loop_trs_path, "--term", "f(c)", "--fuel", "7"]
    )
    assert code == 1
    assert report["status"] == "fuel-exhausted"
    assert report["length"] == 7
    assert report["last"] == "f(c)"


def test_normalize_deep_growth_is_an_honest_failure(capsys, grow_trs_path):
    """At fuel 450 the term outgrows the recursive printers; the report is
    still an exit-1 verdict with the fuel, and blames neither the fuel nor
    the user."""
    code = run_command(["normalize", grow_trs_path, "--term", "g(x)", "--fuel", "450", "--json"])
    out = capsys.readouterr().out
    assert code == 1
    assert "reduce the fuel" not in out
    report = json.loads(out)
    assert report["status"] in ("failure", "fuel-exhausted")
    assert report["fuel"] == 450


S_1000 = "s(" * 1000 + "0" + ")" * 1000  # 1,000 levels, built as text


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
@pytest.mark.parametrize(
    "system, term, normal_form, length",
    [
        ("ack", S_1000, S_1000, 0),
        ("ack", "a(0," + "s(" * 999 + "0" + ")" * 1000, S_1000, 1),
        ("grow", DEEP_TERM, DEEP_TERM, 0),
    ],
    ids=["ack-normal-form", "ack-one-step", "grow-normal-form"],
)
def test_a_deep_normal_form_prints(
    capsys, ack_trs_path, grow_trs_path, system, term, normal_form, length, as_json
):
    """``normal_form`` is the trace's last term, printed once with the trace,
    so a normal form past the recursive printer's 330 levels prints.  The
    expected texts are built as strings: pytest can hang formatting a
    ``RecursionError`` raised deep in a term."""
    path = {"ack": ack_trs_path, "grow": grow_trs_path}[system]
    code = run_command(["normalize", path, "--term", term] + (["--json"] if as_json else []))
    out = capsys.readouterr().out
    assert code == 0
    if as_json:
        report = json.loads(out)
        trace = report["trace"]
        assert (report["status"], report["length"]) == ("normalized", length)
        assert report["normal_form"] == normal_form
        assert (trace["steps"][-1]["term"] if trace["steps"] else trace["start"]) == normal_form
    else:
        lines = out.splitlines()
        assert lines[:2] == ["status: normalized", "mode: full"]
        assert f"normal_form: {normal_form}" in lines and f"length: {length}" in lines
        last = [line for line in lines if line.lstrip().startswith(("start: ", "term: "))][-1]
        assert last.split(": ", 1)[1] == normal_form


@pytest.mark.parametrize("mode", ["innermost", "full"])
def test_a_long_derivation_normalizes(capsys, ack_trs_path, mode):
    """a(3,4) takes 10,307 steps in innermost and in full mode.  Each
    command pauses the cyclic collector, which would otherwise walk every
    step and node the derivation keeps alive again and again."""
    code, report = run_json(
        capsys,
        ["normalize", ack_trs_path, "--term", "a(s(s(s(0))),s(s(s(s(0)))))",
         "--fuel", "20000", "--mode", mode],
    )
    assert code == 0
    assert (report["status"], report["length"]) == ("normalized", 10_307)
    assert report["normal_form"] == "s(" * 125 + "0" + ")" * 125


def test_reach_prints_a_derivation_deeper_than_the_recursive_printer(capsys, grow_trs_path):
    """The trace printer has no depth limit: a derivation that ends 401
    levels deep is verified and printed whole."""
    target = "g(" + "s(" * 400 + "x" + ")" * 401
    code, report = run_json(
        capsys, ["reach", grow_trs_path, "--from", "g(x)", "--to", target, "--fuel", "500"]
    )
    assert code == 0
    assert report["status"] == "verified"
    assert report["length"] == 400
    assert report["trace"]["steps"][-1]["term"] == target


def test_reach_verified_and_not_found(capsys, ack_trs_path):
    code, report = run_json(
        capsys,
        [
            "reach",
            ack_trs_path,
            "--from",
            "a(s(0),a(s(s(0)),0))",
            "--to",
            "a(s(0),s(a(s(0),0)))",
            "--mode",
            "non-root",
        ],
    )
    assert code == 0
    assert report["status"] == "verified"
    assert report["length"] > 0

    code, report = run_json(
        capsys, ["reach", ack_trs_path, "--from", "0", "--to", "s(0)", "--fuel", "50"]
    )
    assert code == 1
    assert report["status"] == "not-found"


DETOUR_TRS = (
    "(VAR x)\n(RULES\n  fork -> k(k(k(k(far))))\n  fork -> near\n  k(x) -> x\n"
    "  f(near) -> f(fork)\n  f(far) -> f(fork)\n)\n"
)
A_3_3 = "a(s(s(s(0))),s(s(s(0))))"


@pytest.mark.parametrize(
    "system, argv, exit_code, digest",
    [
        ("ack", ["normalize", "--term", A_3_3, "--mode", "innermost"], 0,
         "44c5c40e69b8d6ee23f494a047ebdf7d068c62e2e9fe5cc5cabff92254b8de96"),
        ("ack", ["normalize", "--term", A_3_3, "--mode", "full"], 0,
         "e2b487b4fc1c6abe274d66bea606ebcb8e82ae6c3627b1053be9b6e460c27c29"),
        ("ack", ["normalize", "--term", A_3_3, "--mode", "non-root"], 0,
         "9c3d0b45c1aafc0b911158bb73b18384da6ee0114717f733779238c479600c52"),
        ("ack", ["normalize", "--term", A_3_3, "--mode", "non-root-innermost"], 0,
         "e3c7ee96885fdcdaa6adfc18f1f01f475446b9606e11524f4dddbac7dec8d6da"),
        ("ack", ["normalize", "--term", A_3_3, "--mode", "innermost", "--fuel", "2000"], 1,
         "461c3b92e817ae83f21aa7c2dd3ce65f332ae751b84866dd48b94be2d9ffdef0"),
        ("grow", ["reach", "--from", "g(x)", "--to", "g(" + "s(" * 400 + "x" + ")" * 401,
                  "--fuel", "500"], 0,
         "d08e19f21d67022068209f03b8410a3f4b4dbd7e511049076f16a6961698a5c4"),
        ("detour", ["loop", "--term", "f(fork)"], 0,
         "c62d8094a47542255ff7be53c515a3cb05859b4034c020f95d34c00523383995"),
        ("detour", ["loop-chain", "--term", "f(fork)", "--length", "3"], 0,
         "3ca3a810756e51656d6c87e4efd7d0cb23af899ebdb8d9296743fe5739efb960"),
        ("pvs0+ack", ["cc-dp-check", "--pair", "0:1@ε", "--pair", "2:2@2", "--grid", "15,15",
                      "--fuel", "200"], 0,
         "6e2e3589a20fc82664addf0a9e12097f25cb7fd2df1b40d5661d8e2908042c66"),
        ("pvs0", ["pvs0-eval", "--input", "3,4"], 0,
         "d900ae8768d0d1c2bd424a72c90ed758706a51265dabb7756b7bdfa495681cd9"),
        ("pvs0", ["pvs0-terminates", "--input", "3,4"], 0,
         "d2cd13bef3cb2dde44d57935b15d645c240b2309faef1affa05e623bf9e344bc"),
        ("ack", ["chain-verify", "--witness", "verified.json", "--innermost"], 0,
         "766f2a78489befc10586904aef0c222111bc48eb9362baa6722e2d343ad7a425"),
        ("ack", ["chain-verify", "--witness", "middle-not-nr-normal.json", "--innermost"], 1,
         "245bb885a243be03b1775ea0009304fa38f1cafe7140cdd6359ebd3e14520a2c"),
        ("ack", ["chain-verify", "--witness", "third-link-not-found.json"], 1,
         "84f12155771193d5b284368f32e63ce25ee9e2f7d0f30cda6e34c6f5900eda62"),
        ("ack", ["chain-derive", "--witness", "verified.json"], 0,
         "83fb26bda3ae5c396adc8e0f6e4a4da081bed3d57ddade616c1fb00d62430651"),
    ],
    ids=["normalize-innermost", "normalize-full", "normalize-non-root",
         "normalize-non-root-innermost", "normalize-fuel-exhausted", "reach-400", "loop",
         "loop-chain", "cc-dp-check-15x15", "pvs0-eval-3-4", "pvs0-terminates-3-4",
         "chain-verify-innermost-verified", "chain-verify-innermost-middle-precondition",
         "chain-verify-non-root-not-found", "chain-derive"],
)
def test_a_pinned_report_prints_the_same_bytes(
    capsys, tmp_path, monkeypatch, ack_trs_path, grow_trs_path, ack_program_path,
    system, argv, exit_code, digest
):
    """The sha256 of fifteen ``--json`` reports, so that a printer, walk,
    encoder, evaluator or chain-check change that moves a byte fails here:
    among them the normalize walk in all four modes and on its
    fuel-exhausted path, whose exit code is 1, the PVS0 commands on the
    Ackermann program, and the chain commands on a verified witness and on
    witnesses that fail at a middle entry and at a later link.  A
    ``system`` names the files the command reads, joined by ``+``; an
    argument naming one of ``PINNED_WITNESSES`` is replaced by its file."""
    monkeypatch.delenv("RDP_FUEL", raising=False)
    (tmp_path / "detour.trs").write_text(DETOUR_TRS)
    path = {"ack": ack_trs_path, "grow": grow_trs_path, "detour": str(tmp_path / "detour.trs"),
            "pvs0": ack_program_path}
    for name, entries in PINNED_WITNESSES.items():
        path[name] = write_json(tmp_path, name, {"entries": [
            {"rule": rule, "position": pos, "substitution": sigma} for rule, pos, sigma in entries
        ]})
    files = [path[name] for name in system.split("+")]
    argv = [path.get(arg, arg) for arg in argv]
    code = run_command([argv[0], *files, *argv[1:], "--json"])
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "flags, code",
    [(["--json"], 0), ([], 0), (["--json", "--fuel", "2000"], 1)],
    ids=["json", "text", "fuel-exhausted"],
)
def test_a_closed_pipe_keeps_the_exit_code(ack_trs_path, flags, code):
    """A reader that stops after 100 bytes, as ``| head -c 100`` does,
    changes neither the verdict's exit code nor stderr.  Each report of
    a(3,3) is larger than a pipe holds, so the command is still writing it
    when the pipe closes."""
    env = {**os.environ, "PYTHONPATH": str(Path(rdp.__file__).parent.parent)}
    env.pop("RDP_FUEL", None)
    argv = ["normalize", ack_trs_path, "--term", A_3_3, "--mode", "innermost", *flags]
    proc = subprocess.Popen(
        [sys.executable, "-m", "rdp.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err.decode()) == (code, "")


# --- loop, mint, loop-chain ------------------------------------------------


def test_loop_found(capsys, loop_trs_path):
    code, report = run_json(capsys, ["loop", loop_trs_path, "--term", "f(c)"])
    assert code == 0
    assert report["status"] == "loop-found"
    assert report["start"] == "f(c)"
    assert report["length"] == 1


def test_loop_not_found_on_growing_system(capsys, grow_trs_path):
    code, report = run_json(
        capsys, ["loop", grow_trs_path, "--term", "g(x)", "--fuel", "50"]
    )
    assert code == 1
    assert report["status"] == "not-found"


def test_mint(capsys, loop_trs_path, grow_trs_path):
    code, report = run_json(capsys, ["mint", loop_trs_path, "--term", "f(c)"])
    assert code == 0
    assert report["status"] == "mint-found"
    assert report["position"] == "ε"
    assert report["subterm"] == "f(c)"

    code, report = run_json(
        capsys, ["mint", grow_trs_path, "--term", "g(x)", "--fuel", "50"]
    )
    assert code == 1


def test_loop_chain(capsys, loop_trs_path, grow_trs_path):
    code, report = run_json(
        capsys, ["loop-chain", loop_trs_path, "--term", "f(c)", "--length", "3"]
    )
    assert code == 0
    assert report["status"] == "verified"
    assert report["length"] == 3
    for entry in report["witness"]["entries"]:
        assert entry == {"rule": 0, "position": "ε", "substitution": {"x": "c"}}

    code, report = run_json(
        capsys,
        ["loop-chain", grow_trs_path, "--term", "g(x)", "--length", "2", "--fuel", "50"],
    )
    assert code == 1
    assert report["detail"] == "no-loop-certificate"


@pytest.mark.parametrize("length", ["0", "-1"])
@pytest.mark.parametrize("system, term", [("ack", "a(0,0)"), ("loop", "f(c)"), ("missing", "f(c)")])
def test_loop_chain_length_below_one_is_bad_input(
    capsys, tmp_path, ack_trs_path, loop_trs_path, system, term, length
):
    """A length below 1 is unusable input whether or not the term loops, and
    it is rejected before the system is read."""
    path = {"ack": ack_trs_path, "loop": loop_trs_path, "missing": str(tmp_path / "no.trs")}
    code = run_command(["loop-chain", path[system], "--term", term, "--length", length])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: chain length must be at least 1\n"


@pytest.mark.parametrize(
    "argv, fuel",
    [
        (["loop", "--term", "g(x)"], 10_000),
        (["mint", "--term", "g(x)"], 10_000),
        (["loop-chain", "--term", "g(x)", "--length", "2"], 10_000),
        (["reach", "--from", "g(x)", "--to", "x", "--fuel", "2000"], 2000),
        # 40,000 levels: one argv string is limited to 131,072 bytes on Linux.
        (["reach", "--from", "s(" * 40_000 + "x" + ")" * 40_000, "--to", "x"], 10_000),
    ],
)
def test_searches_on_growing_terms_answer_not_found(
    capsys, grow_trs_path, monkeypatch, argv, fuel
):
    """The search reaches terms thousands of levels deep and still gives an
    honest negative verdict, not a depth failure."""
    monkeypatch.delenv("RDP_FUEL", raising=False)
    code, report = run_json(capsys, [argv[0], grow_trs_path, *argv[1:]])
    assert (code, report["status"], report["fuel"]) == (1, "not-found", fuel)


@pytest.mark.parametrize(
    "argv, field, want",
    [
        (["loop", "--term", "w(" * 1000 + "f(c)" + ")" * 1000], ["start"],
         "w(" * 1000 + "f(c)" + ")" * 1000),
        (["mint", "--term", f"w(f({DEEP_C}))"], ["subterm"], f"f({DEEP_C})"),
        (["loop-chain", "--term", f"f({DEEP_C})", "--length", "2"],
         ["witness", "entries", 1, "substitution", "x"], DEEP_C),
        (["chain-derive", "--witness", "w.json"], ["links", 0, "term"], f"f({DEEP_C})"),
    ],
    ids=["loop", "mint", "loop-chain", "chain-derive"],
)
def test_a_report_prints_its_terms_at_any_depth(capsys, tmp_path, argv, field, want):
    """A term a report prints beside its traces is written on the traces'
    explicit stack, so 1,000 levels print: a loop's start, a minimal
    looping subterm, a witness binding and a derivation link's term."""
    (tmp_path / "s.trs").write_text(WRAP_TRS)
    write_json(tmp_path, "w.json", {"entries": [{"rule": 0, "substitution": {"x": DEEP_C}}] * 2})
    argv = [str(tmp_path / arg) if arg == "w.json" else arg for arg in argv]
    code, report = run_json(capsys, [argv[0], str(tmp_path / "s.trs"), *argv[1:]])
    assert code == 0
    for key in field:
        report = report[key]
    assert report == want


# --- chain witnesses -------------------------------------------------------


def test_chain_verify_innermost(capsys, ack_trs_path, tmp_path):
    witness = write_json(tmp_path, "w.json", INNER_ACK_WITNESS)
    code, report = run_json(
        capsys, ["chain-verify", ack_trs_path, "--witness", witness, "--innermost"]
    )
    assert code == 0
    assert report["status"] == "verified"
    assert report["entries"] == 2
    assert len(report["traces"]) == 1
    # The links read only lhs variables, so a binding outside its entry's rule
    # changes neither the verdict nor the traces.
    verdicts = []
    for extra in ({}, {"y": "0"}):
        entries = [
            {"rule": 1, "position": "", "substitution": {"x": "s(s(0))", **extra}},
            {"rule": 2, "position": "", "substitution": {"x": "s(0)", "y": "0"}},
            {"rule": 2, "position": "", "substitution": {"x": "0", "y": "s(s(0))"}},
        ]
        witness = write_json(tmp_path, "w.json", {"entries": entries})
        code, report = run_json(
            capsys, ["chain-verify", ack_trs_path, "--witness", witness, "--innermost"]
        )
        verdicts.append((code, report["status"], report["traces"]))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][:2] == (0, "verified")
    assert [len(trace["steps"]) for trace in verdicts[0][2]] == [0, 5]


def test_chain_verify_non_root(capsys, ack_trs_path, tmp_path):
    witness = write_json(tmp_path, "w.json", ROOT_ACK_WITNESS)
    code, report = run_json(
        capsys, ["chain-verify", ack_trs_path, "--witness", witness]
    )
    assert code == 0
    assert report["status"] == "verified"


def test_chain_verify_innermost_precondition(capsys, ack_trs_path, tmp_path):
    witness = write_json(tmp_path, "w.json", ROOT_ACK_WITNESS)
    code, report = run_json(
        capsys, ["chain-verify", ack_trs_path, "--witness", witness, "--innermost"]
    )
    assert code == 1
    assert report["status"] == "precondition-failed"
    assert report["failed_link"] == 0
    assert report["reason"] == "second-lhs-instance-not-nr-normal"


def test_chain_verify_rejects_bad_witness(capsys, ack_trs_path, tmp_path):
    witness = write_json(tmp_path, "w.json", {"entries": [{"rule": 0}]})
    code = run_command(["chain-verify", ack_trs_path, "--witness", witness])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_chain_derive(capsys, ack_trs_path, tmp_path):
    witness = write_json(tmp_path, "w.json", INNER_ACK_WITNESS)
    code, report = run_json(
        capsys, ["chain-derive", ack_trs_path, "--witness", witness]
    )
    assert code == 0
    assert report["status"] == "verified"
    assert len(report["links"]) == 1
    assert report["links"][0]["term"] == "a(0,a(s(0),s(0)))"
    steps = report["links"][0]["trace"]["steps"]
    assert [s["position"] for s in steps] == ["2"]


def test_chain_derive_failure(capsys, ack_trs_path, tmp_path):
    bad = {
        "entries": [
            {"rule": 1, "substitution": {"x": "0"}},
            {"rule": 1, "substitution": {"x": "0"}},
        ]
    }
    witness = write_json(tmp_path, "w.json", bad)
    code, report = run_json(
        capsys, ["chain-derive", ack_trs_path, "--witness", witness, "--fuel", "100"]
    )
    assert code == 1
    assert report["status"] == "failure"
    assert "not innermost chained" in report["detail"]


# --- pvs0 ------------------------------------------------------------------


def test_pvs0_eval(capsys, ack_program_path):
    code, report = run_json(
        capsys, ["pvs0-eval", ack_program_path, "--input", "2,3", "--fuel", "100"]
    )
    assert code == 0
    assert report["status"] == "ok"
    assert report["result"] == [9, 0]

    code, report = run_json(
        capsys, ["pvs0-eval", ack_program_path, "--input", "2,3", "--fuel", "5"]
    )
    assert code == 1
    assert report["status"] == "undefined"


def test_pvs0_eval_rejects_bad_input(capsys, ack_program_path, tmp_path):
    code = run_command(["pvs0-eval", ack_program_path, "--input", "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")

    path = tmp_path / "p.json"
    path.write_text('{"width": 1, "false_val": [0], "top_val": [1], "body": ["vr"], "o1": 5}')
    code = run_command(["pvs0-eval", str(path), "--input", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: malformed program: o1 must be a list, got 5\n"


@pytest.mark.parametrize(
    "field, value",
    [
        ("o1", {str(i): i for i in range(100_000)}),
        ("width", list(range(100_000))),
        ("false_val", list(range(100_000))),
        ("false_val", ["0"] * 100_000),
    ],
    ids=["o1-object", "width-list", "false_val-naturals", "false_val-strings"],
)
def test_pvs0_eval_error_abbreviates_an_oversized_field(capsys, tmp_path, field, value):
    """An error line echoes a program's field abbreviated, not whole."""
    program = {"width": 1, "false_val": [0], "top_val": [1], "body": ["vr"], field: value}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(program))
    code = run_command(["pvs0-eval", str(path), "--input", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "..." in captured.err
    assert len(captured.err.encode()) < 1024


def _witness(entry):
    return json.dumps({"entries": [entry]})


def _invents(n):
    names = [f"x{i}" for i in range(n)]
    return f"(VAR {' '.join(names)})\n(RULES a -> f({','.join(names)}))\n"


CHAIN_VERIFY = ["chain-verify", "ack.trs", "--witness", "w.json"]
CC_DP_CHECK = ["cc-dp-check", "ack.pvs0.json", "ack.trs", "--grid", "1,1"]
PVS0_EVAL = ["pvs0-eval", "p.json", "--input", "1"]


def _operator(guard):
    return json.dumps(
        {"width": 1, "false_val": [0], "top_val": [1], "body": ["op1", 0, ["vr"]], "o1": [guard]}
    )


@pytest.mark.parametrize(
    "files, argv, env",
    [
        ({"w.json": _witness({"rule": 1, "substitution": {"v" * 1_000_000: "0"}})},
         CHAIN_VERIFY, None),
        ({"w.json": _witness({"rule": 1, "substitution": {"x": "b" * 1_000_000}})},
         CHAIN_VERIFY, None),
        ({"w.json": _witness({"rule": 2, "position": ".".join(["1"] * 200_000)})},
         CHAIN_VERIFY, None),
        ({"w.json": _witness({"rule": 2, "position": "p" * 500_000})}, CHAIN_VERIFY, None),
        ({"s.trs": "(" + "S" * 500_000 + ")\n(RULES a -> a)\n"}, ["dps", "s.trs"], None),
        ({"s.trs": _invents(60_000)}, ["dps", "s.trs"], None),
        ({"p.json": _operator(["if", ["c" * 500_000, ["const", 0], ["const", 0]], ["top"], ["bottom"]])},
         PVS0_EVAL, None),
        ({"p.json": _operator(["tuple", ["comp", 10**3999, 0]])}, PVS0_EVAL, None),
        ({"p.json": _operator(["tuple", ["comp", 0, 10**3999]])}, PVS0_EVAL, None),
        ({"p.json": _operator(["tuple", ["comp", 0, -(10**3999)]])}, PVS0_EVAL, None),
        ({}, ["normalize", "ack.trs", "--term", "t" * 100_000], None),
        ({}, CC_DP_CHECK + ["--pair", "p" * 100_000], None),
        ({}, CC_DP_CHECK + ["--pair", "0:2@2", "--root", "r" * 100_000], None),
        ({}, ["pvs0-eval", "ack.pvs0.json", "--input", "9" * 100_000], None),
        ({}, ["pvs0-eval", "ack.pvs0.json", "--input", ",".join(["1"] * 50_000)], None),
        ({}, ["dps", "ack.trs"], "f" * 100_000),
        ({}, ["dps", "ack.trs", "--fuel", "-" + "9" * 4_000], None),
        ({}, ["dps", "ack.trs", "--fuel", "f" * 100_000], None),
        ({}, ["loop-chain", "ack.trs", "--term", "a(0,0)", "--length", "l" * 100_000], None),
        ({}, ["normalize", "ack.trs", "--term", "a(0,0)", "--mode", "m" * 100_000], None),
    ],
    ids=["witness-variable-name", "witness-identifier", "witness-long-position",
         "witness-malformed-position", "trs-section", "trs-invented-variables",
         "guard-comparison", "guard-argument-index", "guard-component-index",
         "guard-negative-component", "term", "pair", "root", "input", "input-width", "RDP_FUEL",
         "negative-fuel", "malformed-fuel", "malformed-length", "unknown-mode"],
)
def test_error_line_abbreviates_an_oversized_input(
    capsys, monkeypatch, tmp_path, ack_trs_path, ack_program_path, files, argv, env
):
    """An error line echoes a value read from a file, a flag or the
    environment abbreviated, not whole."""
    paths = {"ack.trs": ack_trs_path, "ack.pvs0.json": ack_program_path}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    if env is None:
        monkeypatch.delenv("RDP_FUEL", raising=False)
    else:
        monkeypatch.setenv("RDP_FUEL", env)
    code = run_command([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "..." in captured.err
    assert len(captured.err.encode()) < 1024


def test_error_line_abbreviates_an_oversized_path(capsys, tmp_path):
    """The operating system's error repeats the path it could not open: a path
    of 100,000 characters is cut, an ordinary one is printed whole."""
    code = run_command(["dps", str(tmp_path / ("p" * 100_000))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ") and captured.err.count("\n") == 1
    assert "..." in captured.err
    assert len(captured.err.encode()) < 1024
    missing = str(tmp_path / ("q" * 60 + ".trs"))
    code = run_command(["dps", missing])
    captured = capsys.readouterr()
    assert code == 2
    expected = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), missing)
    assert captured.err == f"error: {expected}\n"


@pytest.mark.parametrize(
    "argv, short",
    [(["c" * 100_000], ["normaliz"]), (["dps", "ack.trs", "y" * 100_000], ["dps", "ack.trs", "y"])],
    ids=["unknown-command", "unrecognized-arguments"],
)
def test_usage_error_line_abbreviates_oversized_argv(capsys, ack_trs_path, argv, short):
    """argparse echoes an unknown command name or unrecognized arguments
    whole; past 240 characters the line keeps both ends, under 1 KB, and a
    short message prints whole."""
    paths = {"ack.trs": ack_trs_path}
    code = run_command([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "..." in captured.err and captured.err.endswith(" (see rdp --help)\n")
    assert len(captured.err.encode()) < 1024
    code = run_command([paths.get(arg, arg) for arg in short])
    err = capsys.readouterr().err
    assert code == 2
    if short[0] == "dps":
        assert err == "error: unrecognized arguments: y (see rdp --help)\n"
    else:  # argparse's quoting of the choices varies across Python versions
        assert err.startswith("error: argument command: invalid choice: 'normaliz' (choose from ")
        assert "..." not in err and "pvs0-terminates" in err and "cc-dp-check" in err


def test_pvs0_terminates(capsys, ack_program_path):
    code, report = run_json(
        capsys, ["pvs0-terminates", ack_program_path, "--input", "(2,3)"]
    )
    assert code == 0
    assert report["status"] == "terminates"
    assert report["fuel_needed"] == 10


def test_pvs0_terminates_survives_deep_recursion(capsys, tmp_path):
    """A divergent program nests one ``rec`` per fuel unit until the fuel
    runs out; the report must come back as unknown, at any fuel."""
    path = write_json(tmp_path, "loop.pvs0.json", LOOP_PROGRAM)
    for fuel in ("5000", "100000"):
        code, report = run_json(
            capsys, ["pvs0-terminates", path, "--input", "0", "--fuel", fuel]
        )
        assert code == 1
        assert report == {"status": "unknown-within-fuel", "fuel": int(fuel)}


@pytest.mark.parametrize("depth", [9, 12])
def test_pvs0_nested_recs_answer_honestly_at_the_default_fuel(capsys, tmp_path, depth):
    """``rec^depth(vr)`` diverges with ``depth`` calls pending per fuel unit;
    at the default fuel that is undefined / unknown, not a crash."""
    body = '["vr"]'
    for _ in range(depth):
        body = f'["rec", {body}]'
    program = '{"width": 1, "false_val": [0], "top_val": [1], "body": ' + body + "}"
    path = write_json(tmp_path, "nested.pvs0.json", program)
    code, report = run_json(capsys, ["pvs0-eval", path, "--input", "1"])
    assert (code, report) == (1, {"status": "undefined", "fuel": 10000})
    code, report = run_json(capsys, ["pvs0-terminates", path, "--input", "1"])
    assert (code, report) == (1, {"status": "unknown-within-fuel", "fuel": 10000})


def test_pvs0_contexts(capsys, ack_program_path):
    code, report = run_json(capsys, ["pvs0-contexts", ack_program_path])
    assert code == 0
    assert report["count"] == 3
    paths = [ctx["path"] for ctx in report["contexts"]]
    assert paths == ["3.2", "3.3", "3.3.1.2"]
    last = report["contexts"][2]
    assert last["actual"] == "op1(4, vr)"
    assert last["condition"] == [
        {"guard": "op1(0, vr)", "polarity": False},
        {"guard": "op1(1, vr)", "polarity": False},
    ]


def test_cc_dp_check_pass(capsys, ack_program_path, ack_trs_path):
    code, report = run_json(
        capsys,
        [
            "cc-dp-check",
            ack_program_path,
            ack_trs_path,
            "--pair",
            "0:1@ε",
            "--pair",
            "2:2@2",
            "--grid",
            "2,2",
            "--fuel",
            "100",
        ],
    )
    assert code == 0
    assert report["status"] == "pass"
    assert len(report["pairs"]) == 2
    # The parser is built once per process; appended flags must not carry over.
    code, report = run_json(
        capsys,
        ["cc-dp-check", ack_program_path, ack_trs_path, "--pair", "0:1@ε", "--grid", "1,1"],
    )
    assert code == 0
    assert len(report["pairs"]) == 1


def test_cc_dp_check_fail(capsys, ack_program_path, ack_trs_path):
    code, report = run_json(
        capsys,
        [
            "cc-dp-check",
            ack_program_path,
            ack_trs_path,
            "--pair",
            "1:2@ε",
            "--sample",
            "1,1",
            "--sample",
            "2,1",
            "--fuel",
            "100",
        ],
    )
    assert code == 1
    assert report["status"] == "fail"


def test_cc_dp_check_usage_errors(capsys, ack_program_path, ack_trs_path):
    code = run_command(
        ["cc-dp-check", ack_program_path, ack_trs_path, "--pair", "0:1@ε"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "no samples" in captured.err

    code = run_command(
        ["cc-dp-check", ack_program_path, ack_trs_path, "--pair", "0-1", "--grid", "1,1"]
    )
    captured = capsys.readouterr()
    assert code == 2


# --- fuel resolution and usage ---------------------------------------------


def test_fuel_env_var(capsys, loop_trs_path, monkeypatch):
    monkeypatch.setenv("RDP_FUEL", "7")
    code, report = run_json(capsys, ["normalize", loop_trs_path, "--term", "f(c)"])
    assert code == 1
    assert report["fuel"] == 7
    assert report["length"] == 7


def test_fuel_flag_beats_env(capsys, loop_trs_path, monkeypatch):
    monkeypatch.setenv("RDP_FUEL", "7")
    code, report = run_json(
        capsys, ["normalize", loop_trs_path, "--term", "f(c)", "--fuel", "3"]
    )
    assert code == 1
    assert report["fuel"] == 3
    assert report["length"] == 3


def test_fuel_env_must_be_integer(capsys, loop_trs_path, grow_trs_path, monkeypatch):
    monkeypatch.setenv("RDP_FUEL", "lots")
    code = run_command(["normalize", loop_trs_path, "--term", "f(c)"])
    captured = capsys.readouterr()
    assert code == 2
    assert "RDP_FUEL" in captured.err
    monkeypatch.setenv("RDP_FUEL", "abc")
    code = run_command(["normalize", grow_trs_path, "--term", DEEP_TERM])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: RDP_FUEL") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--term", "g(x)"],
        ["loop", "--term", "g(x)"],
        ["reach", "--from", "g(x)", "--to", "x"],
        ["normalize", "--term", DEEP_TERM],
        ["dps"],
    ],
)
def test_negative_fuel_flag_is_bad_input(capsys, grow_trs_path, argv):
    code = run_command([argv[0], grow_trs_path, *argv[1:], "--fuel", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--fuel" in captured.err and "-3" in captured.err
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--term", "g(x)"],
        ["loop", "--term", "g(x)"],
        ["reach", "--from", "g(x)", "--to", "x"],
        ["normalize", "--term", DEEP_TERM],
    ],
)
def test_negative_fuel_env_is_bad_input(capsys, grow_trs_path, monkeypatch, argv):
    monkeypatch.setenv("RDP_FUEL", "-1")
    code = run_command([argv[0], grow_trs_path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "RDP_FUEL" in captured.err


def test_zero_fuel_is_a_budget(capsys, grow_trs_path, monkeypatch):
    code, report = run_json(capsys, ["normalize", grow_trs_path, "--term", "g(x)", "--fuel", "0"])
    assert (code, report["status"], report["fuel"], report["length"]) == (
        1, "fuel-exhausted", 0, 0)
    monkeypatch.setenv("RDP_FUEL", "0")
    code, report = run_json(capsys, ["reach", grow_trs_path, "--from", "g(x)", "--to", "x"])
    assert (code, report["status"], report["fuel"]) == (1, "not-found", 0)


def test_usage_errors(capsys, ack_trs_path):
    assert run_command([]) == 2
    capsys.readouterr()
    assert run_command(["dps"]) == 2
    capsys.readouterr()
    assert run_command(["normalize", ack_trs_path]) == 2
    capsys.readouterr()
    assert run_command(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0
    out = capsys.readouterr().out
    assert "dps" in out


def test_missing_file_is_a_usage_error(capsys):
    code = run_command(["dps", "/nonexistent/system.trs"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_malformed_trs_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.trs"
    path.write_text("(RULES f(x) -> )")
    code = run_command(["dps", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


TOO_DEEP = "error: nested too deeply to read\n"


@pytest.mark.parametrize(
    "files, argv, code, out, err",
    [
        (
            {"s.trs": GROW_TRS},
            ["normalize", "s.trs", "--term", f"g({DEEP_TERM})", "--fuel", "5"],
            1,
            "status: failure\ndetail: recursion-depth-exceeded\nfuel: 5\n",
            "",
        ),
        (
            {"s.trs": GROW_TRS},
            ["reach", "s.trs", "--from", DEEP_TERM, "--to", "x", "--fuel", "5"],
            1,
            "status: not-found\nmode: full\nfuel: 5\n",
            "",
        ),
        ({"s.trs": DEEP_TRS}, ["dps", "s.trs"], 0, "status: ok\ncount: 0\npairs: []\n", ""),
        (
            {"s.trs": f"(VAR x)\n(RULES {DEEP_LHS} -> f(x))\n"},
            ["dps", "s.trs"],
            0,
            f"status: ok\ncount: 1\npairs:\n  - rule: 0\n    position: ε\n    lhs: {DEEP_LHS}\n"
            "    rhs_sub: f(x)\n",
            "",
        ),
        ({"p.json": DEEP_PROGRAM}, ["pvs0-eval", "p.json", "--input", "1"], 2, "", TOO_DEEP),
        ({"p.json": DEEP_PROGRAM}, ["pvs0-terminates", "p.json", "--input", "1"], 2, "", TOO_DEEP),
        ({"p.json": DEEP_PROGRAM}, ["pvs0-contexts", "p.json"], 2, "", TOO_DEEP),
        (
            {"s.trs": LOOP_TRS, "w.json": DEEP_WITNESS},
            ["chain-verify", "s.trs", "--witness", "w.json"],
            2,
            "",
            TOO_DEEP,
        ),
    ],
    ids=["normalize", "reach", "dps", "dps-deep-lhs", "pvs0-eval", "pvs0-terminates",
         "pvs0-contexts", "chain-verify"],
)
def test_input_too_deep_to_read_is_bad_input(capsys, tmp_path, files, argv, code, out, err):
    """JSON nested deeper than its reader reaches is bad input.  Terms and
    systems are read at any depth and answered as usual; the normalize
    failure comes from the recursive printer of a fuel-exhausted run's
    ``last``, the one term depth limit left."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run_command([str(tmp_path / arg) if arg in files else arg for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == err


# --- the collector pause ---------------------------------------------------


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector on or off around the test, and as it was afterwards."""
    was = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was else gc.disable()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["normalize", "ack", "--term", "a(s(0),s(0))"], 0),
        (["normalize", "loop", "--term", "f(c)", "--fuel", "7"], 1),
        (["normalize", "grow", "--term", "g(x)"], 1),
        (["dps", "missing"], 2),
        (["normalize", "ack", "--term", "a(0,0)", "--mode", "sideways"], 2),
        (["--help"], 0),
    ],
    ids=["normalized", "fuel-exhausted", "recursion-depth-exceeded", "missing-file",
         "bad-mode", "help"],
)
def test_the_collector_is_left_as_it_was(
    capsys, collector, monkeypatch, tmp_path, ack_trs_path, loop_trs_path, grow_trs_path,
    argv, code,
):
    """A command pauses the cyclic collector and leaves it as it found it on
    every way out: exit 0, 1 and 2, and argparse's own exit for --help."""
    monkeypatch.delenv("RDP_FUEL", raising=False)
    paths = {"ack": ack_trs_path, "loop": loop_trs_path, "grow": grow_trs_path,
             "missing": str(tmp_path / "no.trs")}
    assert run_command([paths.get(arg, arg) for arg in argv] + ["--json"]) == code
    captured = capsys.readouterr()
    if argv[-1] == "g(x)":
        assert json.loads(captured.out)["detail"] == "recursion-depth-exceeded"
    assert gc.isenabled() is collector


def test_the_collector_is_left_as_it_was_when_a_handler_raises(
    capsys, collector, monkeypatch, ack_trs_path
):
    def boom(trs):
        raise RuntimeError("boom")

    monkeypatch.setattr("rdp.cli.dep_pairs_alt", boom)
    with pytest.raises(RuntimeError, match="boom"):
        run_command(["dps", ack_trs_path])
    assert gc.isenabled() is collector


def test_a_command_that_overlaps_another_leaves_the_collector_on(
    capsys, monkeypatch, tmp_path, ack_trs_path
):
    """Command B reads the collector's state while command A runs, and A ends
    before B acts on what it read.  B may lose the pause, but it must not
    switch the collector off for good: reading and switching are one step."""
    a_running, b_read, a_done = threading.Event(), threading.Event(), threading.Event()

    def handler_a(trs):
        a_running.set()
        b_read.wait(10)
        return []

    class Collector:  # the gc module, with B's read held open for A to end in
        enable, disable = staticmethod(gc.enable), staticmethod(gc.disable)

        @staticmethod
        def isenabled():
            enabled = gc.isenabled()
            if threading.current_thread() is threading.main_thread() and not b_read.is_set():
                b_read.set()
                a_done.wait(0.2)
            return enabled

    def command_a():
        run_command(["dps", ack_trs_path])
        a_done.set()

    monkeypatch.setattr("rdp.cli.dep_pairs_alt", handler_a)
    monkeypatch.setattr("rdp.cli.gc", Collector)
    was = gc.isenabled()
    gc.enable()
    try:
        thread = threading.Thread(target=command_a)
        thread.start()
        assert a_running.wait(10)
        assert run_command(["dps", str(tmp_path / "no.trs")]) == 2
        thread.join(10)
        assert not thread.is_alive() and a_done.is_set()
        assert gc.isenabled()
    finally:
        gc.enable() if was else gc.disable()
    capsys.readouterr()


def _cyclic_garbage(argv):
    """How many unreachable objects in cycles one command leaves behind."""
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        run_command(argv)
        return gc.collect()
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "loop", "--term", "f(c)"],
        ["reach", "grow", "--from", "g(x)", "--to", "x"],
        ["loop", "grow", "--term", "g(x)"],
        ["mint", "grow", "--term", "g(x)"],
        ["loop-chain", "grow", "--term", "g(x)", "--length", "2"],
        ["chain-verify", "ack", "--witness", "witness", "--innermost"],
        ["chain-derive", "ack", "--witness", "witness"],
        ["dps", "ack"],
        ["pvs0-eval", "program", "--input", "3,4"],
        ["pvs0-terminates", "program", "--input", "3,4"],
        ["pvs0-contexts", "program"],
        ["cc-dp-check", "program", "ack", "--pair", "0:1@ε", "--pair", "2:2@2", "--grid", "2,2"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_leaves_as_many_cycles_at_any_fuel(
    capsys, tmp_path, ack_trs_path, loop_trs_path, grow_trs_path, ack_program_path, argv
):
    """The collector pause is safe only while what a command builds is freed
    by reference counting: the cyclic garbage it leaves must not grow with
    the work that fuel buys.  (The searches on the growing system and the
    normalize on the looping one use up all their fuel.)"""
    paths = {"ack": ack_trs_path, "loop": loop_trs_path, "grow": grow_trs_path,
             "program": ack_program_path,
             "witness": write_json(tmp_path, "w.json", INNER_ACK_WITNESS)}
    argv = [paths.get(arg, arg) for arg in argv] + ["--json"]
    _cyclic_garbage(argv + ["--fuel", "10"])  # first-use caches are not per-command garbage
    small = _cyclic_garbage(argv + ["--fuel", "10"])
    large = _cyclic_garbage(argv + ["--fuel", "1000"])
    capsys.readouterr()
    assert large == small


# --- the report writer -------------------------------------------------------


class _Text(str):
    """A string that is not exactly a str, which json writes as one."""


class _Count(int):
    """As ``_Text``, for an int."""


_STRINGS = st.one_of(
    st.text(),
    st.text(alphabet='"\\\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600 ab'),
)
_SCALARS = st.one_of(
    _STRINGS,
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.booleans(),
    st.none(),
    st.floats(),
    st.builds(_Text, _STRINGS),
    st.builds(_Count, st.integers()),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, kids, max_size=4),
        st.dictionaries(st.one_of(_STRINGS, st.integers(), st.booleans(), st.none()), kids, max_size=3),
    ),
    max_leaves=24,
)


@settings(max_examples=1000, deadline=None)
@given(_VALUES)
def test_the_report_writer_is_json_dumps_with_indent_2(value):
    """Nested dicts, lists and tuples, empty ones too, strings with quotes,
    backslashes, control and non-ASCII characters, ints of any size, bools
    and None, and beside them what ``json`` writes another way (floats, dict
    keys that are no string, subclasses of str and int): the same bytes."""
    assert cli._json(value) == json.dumps(value, indent=2)


def test_the_report_writer_refuses_what_json_refuses():
    for value in ({"a": [1, object()]}, [{1j: 2}]):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli._json(value)
