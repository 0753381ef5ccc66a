import json

import pytest

from rdp.cli import run_command

LOOP_TRS = "(VAR x)\n(RULES\n  f(x) -> f(x)\n  k -> c\n)\n"
GROW_TRS = "(VAR x)\n(RULES g(x) -> g(s(x)))\n"
HG_TRS = (
    "(VAR x y)\n(RULES\n"
    "  h(x,y) -> h(g(x,y),g(g(x,y),y))\n"
    "  h(x,y) -> g(x,y)\n"
    "  g(x,y) -> y\n)\n"
)
DEEP_TERM = "s(" * 2000 + "x" + ")" * 2000  # deeper than the parser's recursion reaches
DEEP_TRS = f"(VAR x)\n(RULES g(x) -> {DEEP_TERM})\n"
# JSON deeper than the reader's recursion reaches
DEEP_PROGRAM = (
    '{"width": 1, "false_val": [0], "top_val": [1], "body": '
    + '["rec", ' * 3000 + '["vr"]' + "]" * 3000 + "}"
)
DEEP_WITNESS = '{"entries": ' + "[" * 5000 + "]" * 5000 + "}"
LOOP_PROGRAM = '{"width": 1, "false_val": [0], "top_val": [1], "body": ["rec", ["vr"]]}'

INNER_ACK_WITNESS = {
    "entries": [
        {"rule": 2, "position": "2", "substitution": {"x": "0", "y": "s(0)"}},
        {"rule": 2, "position": "2", "substitution": {"x": "0", "y": "0"}},
    ]
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


@pytest.mark.parametrize(
    "argv, fuel",
    [
        (["loop", "--term", "g(x)"], 10_000),
        (["mint", "--term", "g(x)"], 10_000),
        (["loop-chain", "--term", "g(x)", "--length", "2"], 10_000),
        (["reach", "--from", "g(x)", "--to", "x", "--fuel", "2000"], 2000),
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


@pytest.mark.parametrize(
    "files, argv",
    [
        ({"s.trs": GROW_TRS}, ["normalize", "s.trs", "--term", DEEP_TERM, "--fuel", "5"]),
        ({"s.trs": GROW_TRS}, ["reach", "s.trs", "--from", DEEP_TERM, "--to", "x", "--fuel", "5"]),
        ({"s.trs": DEEP_TRS}, ["dps", "s.trs"]),
        ({"p.json": DEEP_PROGRAM}, ["pvs0-eval", "p.json", "--input", "1"]),
        ({"p.json": DEEP_PROGRAM}, ["pvs0-terminates", "p.json", "--input", "1"]),
        ({"p.json": DEEP_PROGRAM}, ["pvs0-contexts", "p.json"]),
        (
            {"s.trs": LOOP_TRS, "w.json": DEEP_WITNESS},
            ["chain-verify", "s.trs", "--witness", "w.json"],
        ),
    ],
    ids=["normalize", "reach", "dps", "pvs0-eval", "pvs0-terminates", "pvs0-contexts",
         "chain-verify"],
)
def test_input_too_deep_to_read_is_bad_input(capsys, tmp_path, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = run_command([str(tmp_path / arg) if arg in files else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: nested too deeply to read\n"
