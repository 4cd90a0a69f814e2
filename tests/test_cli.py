from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import helpers
from catamerge.cli import main

EX1 = str(helpers.FIXTURES / "example1.cmg")
EX2 = str(helpers.FIXTURES / "example2.cmg")
UNDEFINED_FK = str(helpers.FIXTURES / "undefined_fk_query.cmg")


def test_check_clean_fixtures(capsys):
    assert main(["check", EX1]) == 0
    assert main(["check", EX2]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out


def test_check_dangling_fk_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.cmg"
    bad.write_text("schema S {\n entities A\n foreign_keys f : A -> Ghost\n}")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "Ghost" in err


def test_check_bad_extension_constraint_exits_one(tmp_path, capsys):
    text = (helpers.FIXTURES / "example1.cmg").read_text(encoding="utf-8")
    mutated = text.replace("p.timeseriesId = s.hasPropertySet.deviceId",
                           "p.timeseriesId = s.hasPropertySet.nope")
    bad = tmp_path / "bad.cmg"
    bad.write_text(mutated, encoding="utf-8")
    assert main(["check", str(bad)]) == 1
    assert "nope" in capsys.readouterr().err


def test_integrate_example1_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["integrate", EX1, "--out", str(out), "--trace"]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"combined.cmg", "saturated.cmg", "trace.log"} <= names
    assert "BRICK_Point.csv" in names
    point_csv = (out / "BRICK_Point.csv").read_text(encoding="utf-8")
    assert point_csv.count("\n") == 6  # header + five synthesized points
    assert "TUC.245.77.R240" in point_csv


def test_integrate_empty_sources(tmp_path):
    doc = """
schema A { entities X }
schema B { entities Y }
extension E { include A B }
"""
    f = tmp_path / "e.cmg"
    f.write_text(doc)
    assert main(["integrate", str(f), "--out", str(tmp_path / "o")]) == 0


def test_integrate_clash_exits_two(tmp_path, capsys):
    f = tmp_path / "clash.cmg"
    f.write_text(helpers.clash_fixture_text(), encoding="utf-8")
    code = main(["integrate", str(f), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "99.9" in capsys.readouterr().err


def test_integrate_exhaustion_exits_three(tmp_path, capsys):
    code = main(["integrate", EX2, "--out", str(tmp_path / "o"), "--max-rounds", "1"])
    assert code == 3


def test_max_rounds_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CATAMERGE_MAX_ROUNDS", "1")
    assert main(["integrate", EX2, "--out", str(tmp_path / "o")]) == 3
    monkeypatch.delenv("CATAMERGE_MAX_ROUNDS")
    assert main(["integrate", EX2, "--out", str(tmp_path / "o2")]) == 0


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_max_rounds_below_one_exits_one(tmp_path, capsys, value):
    code = main(["integrate", EX1, "--out", str(tmp_path / "o"), "--max-rounds", value])
    assert code == 1
    assert "--max-rounds" in _one_line_error(capsys)


def test_max_rounds_env_below_one_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CATAMERGE_MAX_ROUNDS", "0")
    assert main(["integrate", EX1, "--out", str(tmp_path / "o")]) == 1
    assert "CATAMERGE_MAX_ROUNDS" in _one_line_error(capsys)


def test_max_rounds_env_not_an_integer_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CATAMERGE_MAX_ROUNDS", "abc")
    assert main(["integrate", EX1, "--out", str(tmp_path / "o")]) == 1
    assert "CATAMERGE_MAX_ROUNDS" in _one_line_error(capsys)
    assert not (tmp_path / "o").exists()


def test_out_naming_a_file_exits_one(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["integrate", EX1, "--out", str(taken)]) == 1
    assert "taken" in _one_line_error(capsys)


@pytest.mark.parametrize("module", ["catamerge", "catamerge.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(helpers.FIXTURES.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", module, "check", EX1],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok:")


def test_query_tenant_billing_matches_table2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["query", EX2, "--query", "TenantBilling", "--out", str(out)]) == 0
    csv_text = (out / "query_TenantBilling.csv").read_text(encoding="utf-8")
    assert csv_text == helpers.TABLE2_CSV
    stdout = capsys.readouterr().out
    assert "Split AC Room 240" in stdout


def test_query_over_empty_instance_header_only(tmp_path):
    doc = """
schema A { entities X attributes n : X -> String }
extension E { include A }
query empty : E { from x : A_X attributes col -> x.n }
"""
    f = tmp_path / "q.cmg"
    f.write_text(doc)
    out = tmp_path / "out"
    assert main(["query", str(f), "--query", "empty", "--out", str(out)]) == 0
    assert (out / "query_empty.csv").read_text(encoding="utf-8") == "col\n"


def test_query_unknown_name_exits_one(tmp_path, capsys):
    assert main(["query", EX2, "--query", "nope", "--out", str(tmp_path / "o")]) == 1
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("query, message", [
    ("Q", "path evaluation hit an undefined foreign key"),
    ("W", "where-atom evaluation hit an undefined foreign key"),
])
def test_query_undefined_fk_exits_one(tmp_path, capsys, query, message):
    out = tmp_path / "out"
    assert main(["query", UNDEFINED_FK, "--query", query, "--out", str(out)]) == 1
    assert _one_line_error(capsys) == f"error: query '{query}': {message}\n"
    assert not (out / f"query_{query}.csv").exists()


def test_roundtrip_rec_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["roundtrip", EX2, "--schema", "REC", "--out", str(out)]) == 0
    text = (out / "roundtrip_REC.txt").read_text(encoding="utf-8")
    room_line = next(line for line in text.splitlines() if line.startswith("Room"))
    cells = room_line.split()
    assert cells == ["Room", "5", "5", "5", "0", "0"]


def test_roundtrip_untouched_table_zero_deltas(tmp_path):
    out = tmp_path / "out"
    assert main(["roundtrip", EX1, "--schema", "IFC", "--out", str(out)]) == 0
    text = (out / "roundtrip_IFC.txt").read_text(encoding="utf-8")
    pset = next(line for line in text.splitlines() if line.startswith("PropertySet"))
    assert pset.split() == ["PropertySet", "5", "5", "0", "0", "0"]


def test_roundtrip_unknown_schema_exits_one(tmp_path, capsys):
    assert main(["roundtrip", EX2, "--schema", "Nope", "--out", str(tmp_path / "o")]) == 1


def test_rerun_produces_byte_identical_artifacts(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["integrate", EX2, "--out", str(out), "--trace"]) == 0
    for path in sorted(out_a.iterdir()):
        assert (out_b / path.name).read_bytes() == path.read_bytes()


def test_inputs_not_mutated(tmp_path):
    before = (helpers.FIXTURES / "example2.cmg").read_bytes()
    assert main(["integrate", EX2, "--out", str(tmp_path / "o")]) == 0
    assert (helpers.FIXTURES / "example2.cmg").read_bytes() == before


def test_multiple_extensions_require_flag(tmp_path, capsys):
    doc = """
schema A { entities X }
extension E1 { include A }
extension E2 { include A }
"""
    f = tmp_path / "multi.cmg"
    f.write_text(doc)
    assert main(["integrate", str(f), "--out", str(tmp_path / "o")]) == 1
    assert main(["integrate", str(f), "--extension", "E1", "--out", str(tmp_path / "o")]) == 0


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.cmg")]) == 1


def test_non_utf8_file_exits_one(tmp_path, capsys):
    binary = tmp_path / "bin.cmg"
    binary.write_bytes(b"\xff\xfe")
    assert main(["check", str(binary)]) == 1
    err = _one_line_error(capsys)
    assert err.startswith(f"error: cannot read {binary}: not valid UTF-8 (")
    assert main(["integrate", str(binary), "--out", str(tmp_path / "o")]) == 1
    assert "not valid UTF-8" in _one_line_error(capsys)


def test_integrate_artifacts_reparse_cleanly(tmp_path):
    out = tmp_path / "out"
    assert main(["integrate", EX2, "--out", str(out)]) == 0
    from catamerge.parser import Document, SourceDocument, parse_document

    env = Document()
    for name in ("combined.cmg", "saturated.cmg"):
        text = (out / name).read_text(encoding="utf-8")
        parse_document(SourceDocument(name, text), env)
    assert env.ok, [str(d) for d in env.diagnostics]
    assert "CombinedThreeWay" in env.schemas
    sat = next(iter(env.instances.values()))
    assert len(sat.carrier("Location")) == 5


_FUZZ_NAME = st.sampled_from([None] * 6 + ["Combined", "CombinedThreeWay", "TenantBilling", "q",
                                         "IFC", "REC", "E", "Q", "W", "S", "nope", ""])
# The flags each subcommand accepts; others reach it only through ``extra``.
_FUZZ_ACCEPTS = {
    "check": (),
    "integrate": ("-e", "--max-rounds", "--trace", "--out"),
    "query": ("-e", "--max-rounds", "-q", "--out"),
    "roundtrip": ("-e", "--max-rounds", "-s", "--out"),
    "bogus": (),
}


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["check", "integrate", "query", "roundtrip", "bogus"]),
    files=st.lists(st.sampled_from(["ex1", "ex2", "clash", "undefined_fk", "missing", "dir",
                                    "binary"]),
                   min_size=1, max_size=2),
    extension=_FUZZ_NAME,
    query=_FUZZ_NAME,
    schema=_FUZZ_NAME,
    max_rounds=st.sampled_from([None] * 6 + ["-1", "0", "1", "2", "abc", ""]),
    env_rounds=st.sampled_from([None] * 6 + ["0", "1", "abc"]),
    trace=st.booleans(),
    extra=st.sampled_from([[]] * 8 + [["--bogus"], ["--help"], ["-e"], ["--"], ["-q", "q"],
                                      ["-s", "IFC"], ["--trace"], ["--out"]]),
)
def test_cli_arguments_fuzz_never_traceback(tmp_path, capsys, monkeypatch, command, files,
                                            extension, query, schema, max_rounds, env_rounds,
                                            trace, extra):
    """Any argument list exits 0, 1, 2 or 3 and prints no traceback."""
    binary = tmp_path / "bin.cmg"
    binary.write_bytes(b"\xff\xfe")
    clash = tmp_path / "clash.cmg"
    clash.write_text(helpers.clash_fixture_text(), encoding="utf-8")
    paths = {"ex1": EX1, "ex2": EX2, "clash": str(clash), "undefined_fk": UNDEFINED_FK,
             "missing": str(tmp_path / "absent.cmg"), "dir": str(tmp_path), "binary": str(binary)}
    values = {"-e": extension, "--max-rounds": max_rounds, "-q": query, "-s": schema,
              "--out": str(tmp_path / "out")}
    argv = [command] + [paths[f] for f in files]
    for flag in _FUZZ_ACCEPTS[command]:
        if flag == "--trace":
            argv += ["--trace"] if trace else []
        elif values[flag] is not None:
            argv += [flag, values[flag]]
    argv += extra
    if env_rounds is None:
        monkeypatch.delenv("CATAMERGE_MAX_ROUNDS", raising=False)
    else:
        monkeypatch.setenv("CATAMERGE_MAX_ROUNDS", env_rounds)
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in {0, 1, 2, 3}, argv
    assert "Traceback" not in err, argv
