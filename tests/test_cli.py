import json
import subprocess
import sys

import pytest

from conftest import CORPUS

EX25 = str(CORPUS / "ex_2_5.alg")
EX26 = str(CORPUS / "ex_2_6.alg")
EX68 = str(CORPUS / "ex_6_8.alg")
CHAIN = str(CORPUS / "ex_2_chain.alg")

COMMANDS = [
    ["validate", EX25],
    ["validate", EX25, "--json"],
    ["props", EX25],
    ["props", str(CORPUS / "ex_nonlinear_heyting.alg"), "--json"],
    ["enum", "into", EX25],
    ["enum", "vto", EX25],
    ["enum", "vto", EX25, "--json"],
    ["enum", "clo", EX25],
    ["enum", "ds", EX68],
    ["enum", "dsn", EX68],
    ["enum", "dsv", EX25, "--vto", "v1"],
    ["enum", "vto", EX26],
    ["enum", "hom", EX26],
    ["enum", "vthom", EX26, "--vto", "v10"],
    ["enum", "cong", EX68, "--json"],
    ["enum", "smarandache", EX68],
    ["enum", "svto", EX68, "--q", "Q"],
    ["quotient", EX68, "--ds", "H"],
    ["quotient", EX68, "--ds", "H", "--json"],
    ["lift", EX68, "--vto", "v4", "--ds", "H"],
    ["hedges", EX25, "--vto", "v2"],
    ["factor", EX26, "--map", "psi3", "--vto", "v10", "--ds", "T"],
    ["valuation", "check", EX25, "--valuation", "phi"],
    ["valuation", "compose", EX25, "--valuation", "phi", "--vto", "v2"],
    ["suite", CHAIN],
    ["suite", EX25, "--json"],
]


def run(args):
    return subprocess.run(
        [sys.executable, "-m", "psbck.cli", *args],
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("args", COMMANDS, ids=lambda a: "-".join(a[:2]))
def test_commands_succeed_and_are_deterministic(args):
    first = run(args)
    second = run(args)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == b""


def test_enum_vto_golden_text():
    out = run(["enum", "vto", EX25]).stdout.decode()
    assert out == (
        "vto maps on A (4):\n"
        "  1 a a a\n"
        "  1 a b a\n"
        "  1 a b c\n"
        "  1 a c c\n"
    )


def test_json_payloads_carry_schema():
    for args in ([ "enum", "vto", EX25, "--json"], ["props", EX25, "--json"]):
        payload = json.loads(run(args).stdout)
        assert payload["schema"] == 1


def test_validate_flags_axiom_failure(tmp_path):
    bad = (CORPUS / "ex_2_5.alg").read_text(encoding="utf-8").replace(
        "    1 a 1 c", "    1 c 1 c", 1
    )
    path = tmp_path / "bad.alg"
    path.write_text(bad, encoding="utf-8")
    res = run(["validate", str(path)])
    assert res.returncode == 1
    assert b"NOT CERTIFIED" in res.stdout


def test_parse_error_exits_2(tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text("algebra A\n  elements: 1\n", encoding="utf-8")
    res = run(["validate", str(path)])
    assert res.returncode == 2
    assert res.stderr.startswith(b"E_PARSE:")


def test_missing_file_exits_2():
    res = run(["props", str(CORPUS / "nope.alg")])
    assert res.returncode == 2
    assert b"cannot read" in res.stderr


def test_non_utf8_file_exits_2(tmp_path):
    path = tmp_path / "binary.alg"
    path.write_bytes(b"\xff\xfe")
    res = run(["props", str(path)])
    assert res.returncode == 2
    assert res.stderr.startswith(b"E_USAGE: cannot read ")
    assert b"Traceback" not in res.stderr


def test_unknown_map_exits_2():
    res = run(["enum", "vthom", EX26, "--vto", "v99"])
    assert res.returncode == 2
    assert b"no map named" in res.stderr


def test_factor_reports_a_map_that_is_not_very_true_after_the_usage_errors():
    base = ["factor", EX26, "--map", "psi3", "--vto", "v2"]
    res = run([*base, "--ds", "T"])
    assert res.returncode == 2
    assert res.stderr == b"E_MALFORMED: not a very true homomorphism: intertwine[a]\n"
    # an unknown --ds is reported first, whatever the map
    for args in (base, ["factor", EX26, "--map", "v10", "--vto", "v10"]):
        res = run([*args, "--ds", "nope"])
        assert res.returncode == 2
        assert res.stderr == b"E_USAGE: no subset named 'nope'\n"


def test_non_normal_quotient_exits_2():
    res = run(["quotient", EX25, "--ds", "D"])
    assert res.returncode == 2
    assert b"E_NOT_NORMAL" in res.stderr or b"normal" in res.stderr


def test_main_is_callable_in_process(capsys):
    from psbck.cli import main

    assert main(["enum", "vto", EX25]) == 0
    assert "vto maps on A (4):" in capsys.readouterr().out


def _props_raising(monkeypatch, exc):
    from psbck import classes
    from psbck.cli import main

    def boom(A):
        raise exc

    monkeypatch.setattr(classes, "classify", boom)
    return main(["props", EX25])


def test_internal_error_exits_3_with_one_line(monkeypatch, capsys):
    code = _props_raising(monkeypatch, RuntimeError("table\nlookup failed"))
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == "E_INTERNAL: RuntimeError: table lookup failed\n"


def test_well_definedness_failure_exits_3(monkeypatch, capsys):
    from psbck.errors import WellDefinednessFailure

    code = _props_raising(monkeypatch, WellDefinednessFailure("map disagrees"))
    assert code == 3
    assert capsys.readouterr().err == "E_NOT_WELL_DEFINED: map disagrees\n"


# The psbck modules a fresh interpreter holds after ``cli.main(argv)``: the
# CLI loads at start-up only what parsing and error reporting need, and each
# command the library modules it runs.  ``textfmt.parse``, which builds maps
# and valuations, loads their modules; ``validate`` diagnoses the raw blocks
# and loads neither.
START_UP = ["psbck", "psbck.algebra", "psbck.cli", "psbck.errors", "psbck.textfmt"]
PARSE = ["psbck.operators", "psbck.valuations"]
FOOTPRINTS = {
    "validate": (["validate", EX25], []),
    "enum-vto": (["enum", "vto", EX25], PARSE),
    "missing-file": (["validate", str(CORPUS / "nope.alg")], []),
    "enum-ds": (["enum", "ds", EX68], [*PARSE, "psbck.deduction"]),
    "enum-hom": (["enum", "hom", EX26], [*PARSE, "psbck.deduction", "psbck.morphisms"]),
    "props": (["props", EX25], [*PARSE, "psbck.classes", "psbck.deduction"]),
    "suite": (["suite", CHAIN],
              [*PARSE, "psbck.classes", "psbck.deduction", "psbck.morphisms",
               "psbck.suite"]),
}

FOOTPRINT_SCRIPT = """\
import contextlib, io, json, sys
from psbck.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m == "psbck" or m.startswith("psbck."))))
"""


@pytest.mark.parametrize("args,extra", FOOTPRINTS.values(), ids=FOOTPRINTS.keys())
def test_each_command_loads_only_the_modules_it_runs(args, extra):
    res = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, *args], capture_output=True, timeout=120
    )
    assert res.returncode == 0, res.stderr.decode()
    assert json.loads(res.stdout) == sorted(START_UP + extra)


@pytest.mark.parametrize("entry", ["1e5000", "1E999999999"])
def test_valuation_exponent_is_a_parse_error(tmp_path, entry):
    # Fraction would build 10**k in full: exit 3 past 4300 digits, a hang beyond
    path = tmp_path / "exp.alg"
    text = (CORPUS / "ex_2_chain.alg").read_text(encoding="utf-8")
    path.write_text(text + f"\nvaluation phi on A: 1=0 0={entry}\n", encoding="utf-8")
    res = run(["valuation", "check", str(path), "--valuation", "phi"])
    assert res.returncode == 2
    assert res.stdout == b""
    assert res.stderr.startswith(b"E_PARSE:")
    assert f"bad rational '{entry}'".encode() in res.stderr


def test_valuation_past_the_digit_limit_is_a_parse_error(tmp_path):
    # it parses as a Fraction, but past Python's 4300-digit limit it cannot be printed
    entry = "9" * 4200 + "." + "9" * 200
    path = tmp_path / "huge.alg"
    text = (CORPUS / "ex_2_chain.alg").read_text(encoding="utf-8")
    path.write_text(text + f"\nvaluation phi on A: 1=0 0={entry}\n", encoding="utf-8")
    res = run(["valuation", "check", str(path), "--valuation", "phi"])
    assert res.returncode == 2
    assert res.stdout == b""
    assert res.stderr.startswith(b"E_PARSE:")
    assert res.stderr.endswith(f"bad rational '{entry}'\n".encode())
