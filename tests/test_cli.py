import json
import subprocess
import sys
from pathlib import Path

import pytest

from cihom.catalog import UnknownExampleError, catalog_ids, run_example
from cihom.cli import main
from cihom.dsl import ParseError, parse_session
from cihom.fmodules import ModulePresentation
from reference import unparse_declarations

TWO_LINE_SCRIPT = """
ring R = quotient(field=f32003, vars=[x,y,z,u], degrees=[1,1,1,1], ideal=[x*y, z*u])
module M = coker(R, shifts=[0], matrix=[[y, u]])
"""


def test_parse_two_line_script():
    session = parse_session(TWO_LINE_SCRIPT)
    assert set(session.rings) == {"R"}
    assert set(session.modules) == {"M"}
    assert session.modules["M"].n_gens == 1


def test_parse_example_reference():
    session = parse_session("example 3.14")
    assert session.commands == [{"command": "example", "id": "3.14"}]


def test_parse_glued_ids():
    session = parse_session("example pre-3.4\nexample cor4.7-instance")
    assert [c["id"] for c in session.commands] == ["pre-3.4", "cor4.7-instance"]


def test_parse_error_dangling_comma():
    bad = TWO_LINE_SCRIPT + "module N = coker(R, shifts=[0], matrix=[[y,]])\n"
    with pytest.raises(ParseError) as err:
        parse_session(bad)
    assert "dangling comma" in str(err.value)


def test_parse_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_session("ring R = quotient(")
    assert err.value.line == 1


def test_undeclared_module_rejected():
    with pytest.raises(ParseError):
        parse_session(TWO_LINE_SCRIPT + "tor M N bound=2\n")


def test_catalog_ids_complete():
    assert set(catalog_ids()) == {"3.11", "3.13", "3.14", "pre-3.4", "4.4", "4.5",
                                  "4.19", "cor4.7-instance"}


def test_run_example_unknown():
    with pytest.raises(UnknownExampleError):
        run_example("nope")


def test_run_example_4_4_passes():
    report = run_example("4.4")
    assert report["pass"]
    assert all(c["ok"] for c in report["checks"])
    assert {c["provenance"] for c in report["checks"]} <= {"reference", "trivial", "derived"}


def test_cli_example_exit_code(capsys):
    rc = main(["--example", "4.4", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["field_tag"] == "f32003"
    assert doc["results"][0]["data"]["pass"] is True
    assert doc["tool_version"]


def test_cli_usage_error(capsys):
    assert main([]) == 2


def test_cli_unknown_example(capsys):
    assert main(["--example", "zzz"]) == 2


def test_cli_parse_error(tmp_path, capsys):
    script = tmp_path / "bad.ci"
    script.write_text("module M = coker(R)\n")
    assert main(["--script", str(script)]) == 2


def test_cli_script_runs_and_is_byte_stable(tmp_path, capsys):
    script = tmp_path / "s.ci"
    script.write_text(TWO_LINE_SCRIPT + "resolve M steps=4\ntor M M bound=2\n")
    rc1 = main(["--script", str(script), "--format", "json"])
    out1 = capsys.readouterr().out
    rc2 = main(["--script", str(script), "--format", "json"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    kinds = [r["kind"] for r in doc["results"]]
    assert kinds == ["resolve", "tor"]
    assert doc["results"][0]["data"]["betti"]["betti"][:3] == [1, 2, 3]


@pytest.mark.parametrize("command", ["resolve M steps=0", "betti M steps=0"])
def test_cli_steps_zero_is_parse_error(tmp_path, capsys, command):
    script = tmp_path / "z.ci"
    script.write_text(TWO_LINE_SCRIPT + command + "\n")
    assert main(["--script", str(script), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    column = command.index("steps") + 1
    assert captured.err.splitlines() == [
        f"cihom: parse error: line 4, column {column}: steps must be a positive integer"]


def test_cli_steps_flag_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--example", "4.4", "--steps", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, key, message", [
    ("tor M M bound=0", "bound", "bound must be a positive integer"),
    ("ext M M bound=-2", "bound", "bound must be a positive integer"),
    ("tor M M degree_bound=-1", "degree_bound", "degree_bound must be a non-negative integer"),
    ("check 4.3 on (M, bound=0)", "bound", "bound must be a positive integer"),
    ("check 4.3 on (M, degree_bound=-1)", "degree_bound",
     "degree_bound must be a non-negative integer"),
    ("search 3.6 with (ring=R, tor_bound=0)", "tor_bound", "tor_bound must be a positive integer"),
    ("search 3.6 with (ring=R, max_gens=0)", "max_gens", "max_gens must be a positive integer"),
    ("search 3.6 with (ring=R, max_deg=0)", "max_deg", "max_deg must be a positive integer"),
])
def test_cli_bad_bound_is_parse_error(tmp_path, capsys, command, key, message):
    _assert_parse_error_at_key(tmp_path, capsys, command, key, message)


def _assert_parse_error_at_key(tmp_path, capsys, command, key, message):
    script = tmp_path / "b.ci"
    script.write_text(TWO_LINE_SCRIPT + command + "\n")
    assert main(["--script", str(script), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    column = command.index(key + "=") + 1
    assert captured.err.splitlines() == [
        f"cihom: parse error: line 4, column {column}: {message}"]


@pytest.mark.parametrize("command, key, message", [
    ("resolve M over=bogus", "over", "over must be quotient or ambient"),
    ("tor M M side=bogus", "side", "side must be left or right"),
    ("ext M M side=right", "side", "unknown option 'side'"),
    ("search 3.6 with (ring=R, samples=2, bogus=3)", "bogus", "unknown option 'bogus'"),
    ("check 2.1 on (M, foo=3)", "foo", "unknown option 'foo'"),
    ("betti M window=5", "window", "unknown option 'window'"),
    ("profile M steps=1 over=ambient", "steps", "unknown option 'steps'"),
    ("pushforward M steps=2", "steps", "unknown option 'steps'"),
    ("betti M steps=3 over=ambient", "over", "unknown option 'over'"),
])
def test_cli_unread_option_is_parse_error(tmp_path, capsys, command, key, message):
    # an option no command reads, or a word outside its choices, fails at the key
    _assert_parse_error_at_key(tmp_path, capsys, command, key, message)


def test_cli_accepted_option_values_run(tmp_path, capsys):
    script = tmp_path / "ok.ci"
    script.write_text(TWO_LINE_SCRIPT + "resolve M steps=3 over=ambient\n"
                      "tor M M bound=1 side=right\ncheck 3.15 on (M, n=1, window=8)\n"
                      "check 4.11 on (M, n=1, w=0, window=8)\n")
    assert main(["--script", str(script), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][1]["data"]["tor_profile"]["resolved_side"] == "right"


_SHORT_WINDOW = "cihom: input error: betti window of length 3 is too short (need >= 4)"


@pytest.mark.parametrize("line, flags, message", [
    # '@' marks the token a parse error points at; it is not part of the script
    ("search 3.6 with (ring=R, @samples=abc)", [], "samples must be a positive integer"),
    ("search 3.6 with (ring=R, @samples=0)", [], "samples must be a positive integer"),
    ("search 3.6 with (ring=R, @seed=abc)", [], "seed must be a non-negative integer"),
    ("search 3.6 with (ring=R, @seed=-3)", [], "seed must be a non-negative integer"),
    ("search 3.6 with (ring=R, @ring=R)", [], "option 'ring' given twice"),
    ("check 2.2 on (M, @n=abc)", [], "n must be a non-negative integer"),
    ("check 4.11 on (M, @w=abc)", [], "w must be a non-negative integer"),
    ("check 2.4 on (M, @window=2)", [], "window must be an integer >= 3"),
    ("check 2.4 on (M, @window=-3)", [], "window must be an integer >= 3"),
    ("check 2.4 on (M, @window=abc)", [], "window must be an integer >= 3"),
    ("check 4.3 on (M, M, @M)", [], "check takes one or two modules"),
    ("tor M M bound=2 @bound=3", [], "option 'bound' given twice"),
    ("module Z = coker(R, shifts=[0,@])", [], "dangling comma in list"),
    ("ring P = quotient(field=f32003, vars=[x,@])", [], "dangling comma in list"),
    ("ring P = quotient(field=f32003 @vars=[x,y])", [], "expected ',', found 'vars'"),
    ("ring P = quotient(vars=[x,y], ideal=[x*y], field=@rational)", [],
     "declare field= before ideal=[] and minimal_primes=[]"),
    ("ring P = quotient(field=f32003, vars=[x,y], @degrees=[2,1], ideal=[x*y])", [],
     "degrees must be [1,...,1], one per variable: only the standard grading is supported"),
    ("betti M steps=2", [], _SHORT_WINDOW),
    ("betti M", ["--steps", "2"], _SHORT_WINDOW),
    ("betti M", ["--seed", "-5"], "cihom: error: argument --seed: must be an integer >= 0, got -5"),
    ("ring P = quotient(field=f32003, @vars=[x,x], ideal=[x])", [],
     "duplicate variable name 'x'"),
    ("search @9.9 with (ring=R, samples=1)", [],
     "unknown question id '9.9'; known: 3.17, 4.16, 4.18, 4.10, 3.6"),
    ("check 2.2 on (M, n=1, @w=1)", [], "statement 2.2 does not read option 'w'"),
    ("check 3.9 on (M, @n=1)", [], "statement 3.9 does not read option 'n'"),
    ("check 4.3 on (M, @M)", [], "statement 4.3 reads (M, M) and takes one module"),
    ("check 4.17 on (M, @M)", [], "statement 4.17 reads (M, M*) and takes one module"),
    ("ring P = quotient(field=f32003, vars=[x,y], ideal=[x*y], @ideal=[x^2])", [],
     "option 'ideal' given twice"),
    ("module Z = coker(R, shifts=[0], @shifts=[1], matrix=[[x]])", [],
     "option 'shifts' given twice"),
])
def test_cli_bad_input_exits_2(tmp_path, capsys, line, flags, message):
    script = tmp_path / "bad.ci"
    script.write_text(TWO_LINE_SCRIPT + line.replace("@", "") + "\n")
    try:
        rc = main(["--script", str(script), "--format", "json", *flags])
    except SystemExit as exc:  # argparse rejects a flag
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and "Traceback" not in captured.err
    if "@" in line:
        message = f"cihom: parse error: line 4, column {line.index('@') + 1}: {message}"
    assert captured.err.splitlines()[-1] == message


def test_cli_least_accepted_values_run(tmp_path, capsys):
    script = tmp_path / "least.ci"
    script.write_text(TWO_LINE_SCRIPT
                      + "ring P = quotient(field=f32003, vars=[x,y], degrees=[1,1], ideal=[x*y])\n"
                      "check 2.2 on (M, n=0)\ncheck 4.11 on (M, w=0)\n"
                      "check 2.4 on (M, window=3)\nbetti M steps=3\n"
                      "search 3.6 with (ring=R, samples=1, seed=0, max_gens=1, max_deg=1)\n")
    assert main(["--script", str(script), "--format", "json", "--seed", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["kind"] for r in doc["results"]] == ["check"] * 3 + ["betti", "search"]
    assert doc["results"][4]["data"]["config"]["seed"] == 0


def test_cli_zero_degree_bound_runs(tmp_path, capsys):
    script = tmp_path / "d0.ci"
    script.write_text(TWO_LINE_SCRIPT + "tor M M bound=1 degree_bound=0\n")
    assert main(["--script", str(script), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["data"]["tor_profile"]["degree_bound"] == 0


@pytest.mark.parametrize("flags", [["--tor-bound", "0"], ["--tor-bound", "-3"],
                                   ["--degree-bound", "-1"], ["--seed", "-5"]])
@pytest.mark.parametrize("source", [["--example", "4.5"], ["--script", "unread.ci"]])
def test_cli_bad_bound_flag_is_usage_error(capsys, flags, source):
    with pytest.raises(SystemExit) as exc:
        main(source + flags)
    assert exc.value.code == 2
    assert "must be an integer >=" in capsys.readouterr().err


def test_cli_explicit_steps_honoured(tmp_path, capsys):
    script = tmp_path / "s3.ci"
    script.write_text(TWO_LINE_SCRIPT + "resolve M steps=3\nbetti M steps=3\n")
    assert main(["--script", str(script), "--format", "json", "--steps", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for result in doc["results"]:
        assert result["data"]["betti"]["truncation"] == 3
        assert result["data"]["betti"]["betti"] == [1, 2, 3, 4]


def test_cli_check_command(tmp_path, capsys):
    script = tmp_path / "c.ci"
    script.write_text(TWO_LINE_SCRIPT + "check 4.3 on (M)\n")
    rc = main(["--script", str(script), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    rep = doc["results"][0]["data"]["theorem_reports"][0]
    assert rep["id"] == "4.3"


def test_cli_text_format(tmp_path, capsys):
    rc = main(["--example", "4.4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "example 4.4: PASS" in out


def test_cli_text_format_over_the_rationals(capsys):
    # The text report prints coefficients through the field's to_str; apart
    # from its header line it reads the same over the rationals as over f32003.
    for entry_id in ("4.4", "4.19"):
        assert main(["--example", entry_id]) == 0
        prime = capsys.readouterr().out.splitlines()
        assert main(["--example", entry_id, "--field", "rational"]) == 0
        rational = capsys.readouterr().out.splitlines()
        assert prime[0].endswith("field=f32003") and rational[0].endswith("field=rational")
        assert rational[1:] == prime[1:]
        assert f"example {entry_id}: PASS" in rational


def test_cli_env_default_format(monkeypatch, capsys):
    # the parser reads no environment: main reads CIHOM_FORMAT when --format
    # is absent
    monkeypatch.setenv("CIHOM_FORMAT", "json")
    from cihom.cli import build_arg_parser
    assert build_arg_parser().parse_args([]).format is None
    assert main(["--example", "4.4"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["title"] == "4.4"
    assert main(["--example", "4.4", "--format", "text"]) == 0
    assert not capsys.readouterr().out.startswith("{")


def test_cli_rejects_an_invalid_format_env(monkeypatch, capsys):
    # CIHOM_FORMAT takes the values --format takes; any other is a usage error
    monkeypatch.setenv("CIHOM_FORMAT", "xml")
    with pytest.raises(SystemExit) as stop:
        main(["--example", "4.4"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert "CIHOM_FORMAT: invalid choice: 'xml'" in captured.err
    assert captured.out == ""
    assert main(["--example", "4.4", "--format", "json"]) == 0


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    from cihom import cli
    built = []
    real = cli.build_arg_parser

    def counting():
        built.append(None)
        return real()

    monkeypatch.setattr(cli, "build_arg_parser", counting)
    cli._arg_parser.cache_clear()
    try:
        for fmt in ("json", "json", "text", "json", "text"):
            monkeypatch.setenv("CIHOM_FORMAT", fmt)
            assert main(["--example", "4.4"]) == 0
            assert capsys.readouterr().out.startswith("{") == (fmt == "json")
        assert len(built) == 1
    finally:
        cli._arg_parser.cache_clear()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cihom.cli", "--example", "4.4"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_cli_mismatch_exit_code(monkeypatch, capsys):
    # force a failing expectation through a stubbed catalog entry
    import cihom.catalog as cat

    def fake_runner(field, bounds):
        return {"checks": [{"name": "forced", "expected": 1, "actual": 2,
                            "ok": False, "provenance": "trivial"}]}

    monkeypatch.setitem(cat._ENTRIES, "stub", ("stub entry", fake_runner))
    rc = main(["--example", "stub", "--format", "json"])
    capsys.readouterr()
    assert rc == 1


def test_declaration_round_trip():
    src = TWO_LINE_SCRIPT + (
        "module N = coker(R, shifts=[0,0,0], matrix=[[0, u], [-z, x], [y, 0]])\n")
    s1 = parse_session(src)
    text = unparse_declarations(s1)
    s2 = parse_session(text)
    assert s1.rings["R"].describe() == s2.rings["R"].describe()
    for name in ("M", "N"):
        assert s1.modules[name].describe() == s2.modules[name].describe()


def test_text_tor_table(tmp_path, capsys):
    script = tmp_path / "t.ci"
    script.write_text(TWO_LINE_SCRIPT + "tor M M bound=2\n")
    rc = main(["--script", str(script)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Tor profile: M vs M" in out
    assert "vanishes" in out and "depth" in out


def test_empty_session_header_only(tmp_path, capsys):
    script = tmp_path / "e.ci"
    script.write_text(TWO_LINE_SCRIPT)
    rc = main(["--script", str(script)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("cihom ")


NODE_SCRIPT = """
ring P = quotient(field=f32003, vars=[x,y], degrees=[1,1], ideal=[x*y])
module M = coker(P, shifts=[0], matrix=[[x]])
module N = coker(P, shifts=[0], matrix=[[y]])
"""


def test_cli_check_rejects_parameters_the_statement_does_not_read(tmp_path, capsys):
    # 3.3 reads neither n nor w; both were once accepted and silently ignored
    script = tmp_path / "unread.ci"
    script.write_text(NODE_SCRIPT + "check 3.3 on (M, N, n=5, w=3, bound=4)\n")
    assert main(["--script", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "cihom: parse error: line 5, column 21: statement 3.3 does not read option 'n'"]


def test_cli_check_accepts_the_parameters_a_statement_reads(tmp_path, capsys):
    script = tmp_path / "read.ci"
    script.write_text(NODE_SCRIPT + "check 2.2 on (M, N, n=1, bound=4)\n"
                      "check 4.11 on (M, N, w=1, bound=4)\n")
    # Tor_1 vanishes here, so 4.11's run starts at n = 1 and every hypothesis
    # is met; the predecessor of the run is Tor_0 = M (x) N, of depth 0, so
    # the verdict is `holds` and the script exits 0.
    assert main(["--script", str(script), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(r["title"], r["data"]["theorem_reports"][0]["conclusion"]["verdict"])
            for r in doc["results"]] == [("2.2", "hypotheses-unmet"), ("4.11", "holds")]


def test_cli_term_code_range_is_a_guardrail(tmp_path, capsys):
    # a generator degree of 2^40 does not fit the Groebner engine's term codes
    script = tmp_path / "huge.ci"
    script.write_text(TWO_LINE_SCRIPT
                      + "module H = coker(R, shifts=[1099511627776], matrix=[[y, u]])\n"
                      + "resolve H steps=3\n")
    assert main(["--script", str(script)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("cihom: guardrail: shifted degree 1099511627")


def test_cli_hypothesis_missing_exit_code(tmp_path, capsys):
    script = tmp_path / "g.ci"
    script.write_text(TWO_LINE_SCRIPT
                      + "module K = coker(R, shifts=[0], matrix=[[x, y]])\n"
                      + "pushforward K\n")
    assert main(["--script", str(script)]) == 3


@pytest.mark.parametrize("example, script, code, message", [
    ("bogus", None, 2,
     "cihom: unknown example id 'bogus'; known: 3.11, 3.13, 3.14, pre-3.4, 4.4, 4.5, 4.19, "
     "cor4.7-instance"),
    (None, "check 9.99 on (M)\n", 2,
     "cihom: unknown statement id '9.99'; known: 2.1, 2.2, 2.3, 2.4, 2.6, 2.7, 2.8, 3.12.1, "
     "3.12.2, 3.15, 3.16, 3.3, 3.4, 3.7, 3.8, 3.9.1, 3.9.2, 4.1, 4.11, 4.12, 4.13, 4.14, "
     "4.15, 4.17, 4.20, 4.21, 4.22, 4.3, 4.6, 4.7, 4.8, 4.9"),
    (None, "quasilift M f=x\n", 2, "cihom: x is not a quotient generator of R"),
    (None, "module K = coker(R, shifts=[0], matrix=[[x, y]])\npushforward K\n", 3,
     "cihom: hypothesis missing: K has torsion: the biduality kernel has 1 minimal "
     "generator(s)"),
], ids=["unknown_example", "unknown_statement", "invalid_split", "torsion_input"])
def test_cli_error_ladder_exit_code_and_message(tmp_path, capsys, example, script, code,
                                                message):
    # each clause of main's error ladder maps its errors to one exit code and
    # one stderr line, whichever module raised them
    if example is not None:
        argv = ["--example", example]
    else:
        path = tmp_path / "ladder.ci"
        path.write_text(TWO_LINE_SCRIPT + script)
        argv = ["--script", str(path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


def test_cli_search_over_a_ring_without_variables_is_a_parse_error(tmp_path, capsys):
    # a search draws random modules from the ring's variables
    script = tmp_path / "k.ci"
    script.write_text("ring K = quotient(field=f32003, vars=[], ideal=[])\n"
                      "search 3.6 with (ring=K, samples=2)\n")
    assert main(["--script", str(script)]) == 2
    assert capsys.readouterr().err == ("cihom: parse error: line 2, column 18: ring 'K' "
                                       "has no variables to draw random modules from\n")


def test_cli_ext_command(tmp_path, capsys):
    script = tmp_path / "x.ci"
    script.write_text(TWO_LINE_SCRIPT + "ext M M bound=2\n")
    rc = main(["--script", str(script), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    entries = doc["results"][0]["data"]["entries"]
    assert [e["index"] for e in entries] == [1, 2]


def test_cli_search_command(tmp_path, capsys):
    script = tmp_path / "sr.ci"
    script.write_text(
        "ring R = quotient(field=f32003, vars=[x,y], degrees=[1,1], ideal=[x*y])\n"
        "search 3.17 with (ring=R, samples=3, seed=1)\n")
    rc = main(["--script", str(script), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    data = doc["results"][0]["data"]
    assert data["config"]["question"] == "3.17"
    assert len(data["findings"]) == 3


def test_cli_inhomogeneous_entry_is_input_error(tmp_path, capsys):
    script = tmp_path / "inh.ci"
    script.write_text(TWO_LINE_SCRIPT.replace("[[y, u]]", "[[y + x*x, u]]") + "resolve M steps=3\n")
    assert main(["--script", str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cihom: input error:") and "inhomogeneous" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("name, message", [
    ("mixed_degree_column.ci", "cihom: input error: entry (1,0) = y^2 has degree 2, not 1"),
    ("repeated_declaration_key.ci",
     "cihom: parse error: line 3, column 58: option 'ideal' given twice"),
])
def test_cli_bad_data_scripts_exit_2(name, message, capsys):
    # the checks raise explicitly, so they hold under python -O too
    script = Path(__file__).parent / "data" / name
    assert main(["--script", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


@pytest.mark.parametrize("command", ["resolve M", "check 2.1 on (M)"])
def test_cli_unit_ideal_is_input_error(command, tmp_path, capsys):
    script = tmp_path / "unit.ci"
    script.write_text("ring R = quotient(vars=[x,y], ideal=[1])\n"
                      "module M = coker(R, shifts=[0], matrix=[[x]])\n" + command + "\n")
    assert main(["--script", str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cihom: input error:") and "nonzero constant" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_wrong_minimal_primes_of_a_monomial_ideal_is_input_error(tmp_path, capsys):
    script = tmp_path / "primes.ci"
    script.write_text("ring R = quotient(vars=[x,y,w,z], ideal=[x*w], minimal_primes=[[x]])\n")
    assert main(["--script", str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cihom: input error:") and "minimal primes [(x)]" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_a_declared_prime_the_spot_check_disproves_is_input_error(tmp_path, capsys):
    script = tmp_path / "primes.ci"
    script.write_text("ring Q = quotient(vars=[x,y,w,z], ideal=[x*w - y*z], "
                      "minimal_primes=[[x]])\n")
    assert main(["--script", str(script)]) == 2
    err = capsys.readouterr().err
    assert err == ("cihom: input error: ring Q: declared minimal prime (x) fails its spot "
                   "check: the quotient generator x*w - y*z is not in it\n")


def test_cli_profile_after_eliminating_a_unit_that_shares_its_row(tmp_path, capsys):
    # U's unit entry 1 shares its row with y: eliminating it leaves
    # y*z - x*y = y*z (x*y = 0 in R), so U is coker[y*z], labels aside
    script = tmp_path / "unit.ci"
    script.write_text("ring R = quotient(field=f32003, vars=[x,y,z,u], ideal=[x*y, z*u])\n"
                      "module U = coker(R, shifts=[1,0], matrix=[[1, y], [x, y*z]])\n"
                      "module V = coker(R, shifts=[0], matrix=[[y*z]])\n"
                      "profile U\nprofile V\n")
    assert main(["--script", str(script), "--format", "json"]) == 0
    profiles = [r["data"] for r in json.loads(capsys.readouterr().out)["results"]]
    assert [p.pop("module") for p in profiles] == ["U", "V"]
    assert profiles[0] == profiles[1]


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_cli_quasilift_of_a_free_module_is_strict_json(capsys):
    # M1 = 0 has depth inf, which the document writes as "inf", not Infinity
    script = Path(__file__).parent / "data" / "quasilift_free.ci"
    assert main(["--script", str(script), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert doc["results"][0]["data"]["depth_check"] == {
        "depth_lift": 2, "depth_pushforward": "inf", "holds": True}


def test_cli_a_non_finite_float_in_the_document_is_internal_error(tmp_path, capsys,
                                                                   monkeypatch):
    monkeypatch.setattr(ModulePresentation, "module_profile",
                        lambda self: {"depth": float("inf")})
    script = tmp_path / "nan.ci"
    script.write_text(TWO_LINE_SCRIPT + "profile M\n")
    assert main(["--script", str(script), "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cihom: internal error: the document is not strict JSON")
    assert captured.err.count("\n") == 1


def test_cli_modules_over_different_rings_is_input_error(tmp_path, capsys):
    script = tmp_path / "rings.ci"
    script.write_text(TWO_LINE_SCRIPT
                      + "ring T = quotient(field=f32003, vars=[x,y], degrees=[1,1], ideal=[x*y])\n"
                      + "module K = coker(T, shifts=[0], matrix=[[x]])\n"
                      + "tor M K bound=1\n")
    assert main(["--script", str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cihom: input error:") and err.count("\n") == 1


@pytest.mark.parametrize("tag", ["f561", "f10000000000000000000000007"])
def test_cli_bad_field_is_input_error(tag, tmp_path, capsys):
    script = tmp_path / "field.ci"
    script.write_text(f"ring R = quotient(field={tag}, vars=[x,y], degrees=[1,1], ideal=[x*y])\n")
    assert main(["--script", str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cihom: input error:") and err.count("\n") == 1
    assert main(["--example", "4.4", "--field", tag]) == 2


def test_cli_invariant_error_in_a_tor_module_exits_4(monkeypatch, capsys):
    # Tor profiles are built when read; every read happens inside main's
    # error handling, so an invariant failure there never reaches emit_json.
    # The failure is in the generator half of the Tor subquotients only,
    # which 3.14 builds for its Tor_1 when it reads betti0: that entry lives
    # in more than one degree, so its count is not read off its Hilbert series.
    from cihom import homology
    from cihom.polynomials import InvariantError
    real = homology.minimal_cycles

    def broken(*args, **kwargs):
        if kwargs["label"].startswith("Tor"):
            raise InvariantError("subquotient broken")
        return real(*args, **kwargs)

    monkeypatch.setattr(homology, "minimal_cycles", broken)
    assert main(["--example", "3.14", "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "cihom: internal error: subquotient broken\n"
    assert captured.out == ""


def test_cli_invariant_error_in_a_tor_numerator_exits_4(monkeypatch, capsys):
    # Each Tor entry reads whether it vanishes off the Hilbert numerators of
    # two cokernels, from an untracked basis built on first read, still
    # inside main's error handling.
    from cihom import homology
    from cihom.polynomials import InvariantError

    def broken(*args, **kwargs):
        raise InvariantError("numerator broken")

    monkeypatch.setattr(homology, "relation_basis", broken)
    assert main(["--example", "3.11", "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "cihom: internal error: numerator broken\n"
    assert captured.out == ""


def test_cli_invariant_error_in_the_relations_of_a_tor_module_exits_4(monkeypatch, capsys):
    # A Tor entry builds the relations among its minimal cycles on the
    # first read of its presentation, still inside main's error handling;
    # 3.14 reads the depth of nonzero Tor entries of positive dimension.
    from cihom import homology
    from cihom.polynomials import InvariantError
    real = homology.MinimalCycles.presentation

    def broken(self):
        if self.label.startswith("Tor") and self.gen_degs:
            raise InvariantError("relations broken")
        return real(self)

    monkeypatch.setattr(homology.MinimalCycles, "presentation", broken)
    assert main(["--example", "3.14", "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "cihom: internal error: relations broken\n"
    assert captured.out == ""


def test_cli_invariant_error_exit_code(monkeypatch, capsys):
    import cihom.catalog as cat
    from cihom.polynomials import InvariantError

    def broken_runner(field, bounds):
        raise InvariantError("resolution did not close up")

    monkeypatch.setitem(cat._ENTRIES, "stub", ("stub entry", broken_runner))
    assert main(["--example", "stub"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "cihom: internal error: resolution did not close up\n"
    assert captured.out == ""
