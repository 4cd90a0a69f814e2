from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import helpers
from catamerge import instances_same_data, print_canonical
from catamerge.cli import entry, main
from catamerge.parser import Document, SourceDocument, parse_document

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


def test_check_integer_literal_too_long_exits_one(tmp_path, capsys):
    bad = tmp_path / "big.cmg"
    row = "    row r { n = " + "7" * 5000 + " }"
    bad.write_text(f"schema S {{ entities X attributes n : X -> Int }}\ninstance i : S {{\n  entity X {{\n{row}\n  }}\n}}\n")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:4:17: error: integer literal too long" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["null.x", "true.y", "false . z"])
def test_check_keyword_value_with_a_dot_exits_one(tmp_path, capsys, value):
    """A keyword value followed by a dot is one diagnostic at the dot, not
    a dotted row reference."""
    bad = tmp_path / "dot.cmg"
    row = f"    row r {{ a = {value} }}"
    bad.write_text(f"schema S {{ entities X attributes a : X -> String }}\ninstance i : S {{\n  entity X {{\n{row}\n  }}\n}}\n")
    assert main(["check", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == [f"{bad}:4:{row.index('.') + 1}: error: expected '}}', found '.'"]
    assert out == ""


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


def test_integrate_warns_of_pending_constraints(tmp_path, capsys):
    doc = """
schema S {
  entities X Y
  attributes c : X -> Int  b : Y -> Int
}
instance i : S { entity X { row x1 { } } }
extension E {
  include S
  constraints
    forall x : X -> x.c = x.c
    forall x : X -> exists y : Y , y.b = add(x.c, 1)
}
"""
    f = tmp_path / "p.cmg"
    f.write_text(doc)
    assert main(["integrate", str(f), "--out", str(tmp_path / "o"), "--trace"]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: constraint(s) 2 left a match pending at the fixpoint "
        "(a function argument stayed unknown); check_model reports them violated"
    ]
    assert "saturated after 1 round(s)" in captured.out
    assert (tmp_path / "o" / "trace.log").read_text(encoding="utf-8") == ""
    assert main(["integrate", EX1, "--out", str(tmp_path / "o1")]) == 0
    assert capsys.readouterr().err == ""


ARITHMETIC_DOC = """
schema S {{
  entities X
  attributes a : X -> {type}  b : X -> {type}
}}
instance i : S {{ entity X {{ row x1 {{ a = {a} }} }} }}
extension E {{
  include S
  constraints
    forall x : X -> x.b = {function}
}}
"""


@pytest.mark.parametrize("type_, a, function", [
    ("Int", "7" * 3000, "mul(x.a, x.a)"),  # 6,000 digits: more than str writes
    ("Double", "1" + "0" * 200 + ".0", "mul(x.a, x.a)"),  # overflows to inf
    ("Int", "5", "div(x.a, 0)"),
], ids=["int-too-long", "double-overflow", "division-by-zero"])
def test_integrate_leaves_an_undefined_result_pending(tmp_path, capsys, type_, a, function):
    """A built-in whose result no literal holds is undefined, as a division
    by zero is: the run exits 0, warns of an undefined result rather than
    an unknown argument, leaves ``b`` unset, and its output checks."""
    f = tmp_path / "u.cmg"
    f.write_text(ARITHMETIC_DOC.format(type=type_, a=a, function=function))
    out = tmp_path / "o"
    assert main(["integrate", str(f), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "warning: constraint(s) 1 left a match pending at the fixpoint "
        "(a function result is undefined); check_model reports them violated"
    ]
    assert "b =" not in (out / "saturated.cmg").read_text(encoding="utf-8")
    assert main(["check", str(out / "combined.cmg"), str(out / "saturated.cmg")]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_pending_warning_names_each_reason(tmp_path, capsys):
    """One warning per reason, each listing its constraints."""
    doc = """
schema S {
  entities X
  attributes a : X -> Int  b : X -> Int  c : X -> Int
}
instance i : S { entity X { row x1 { a = 5 } } }
extension E {
  include S
  constraints
    forall x : X -> x.b = add(x.c, 1)
    forall x : X -> x.b = div(x.a, 0)
    forall x : X -> x.c = add(div(x.a, 0), 1)
}
"""
    f = tmp_path / "r.cmg"
    f.write_text(doc)
    assert main(["integrate", str(f), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: constraint(s) 1 left a match pending at the fixpoint "
        "(a function argument stayed unknown); check_model reports them violated",
        "warning: constraint(s) 2, 3 left a match pending at the fixpoint "
        "(a function result is undefined); check_model reports them violated",
    ]


CUT_SHORT_DOC = """
schema S {{
  entities X Y Z
  foreign_keys h : X -> Z  g : Y -> Z
  attributes b : Z -> Int  a : {y} -> Int
}}
instance I : S {{ entity Z {{ row z1 {{ {z1} }} }}  entity X {{ row x1 {{ h = z1 }} }} }}
extension E {{ include S constraints
  forall x : X -> exists y : {y} , {conclusion} }}
"""


@pytest.mark.parametrize("y, z1, conclusion, reason", [
    ("Y", "", "y.g = x.h and y.a = add(y.g.b, 1)", "a function argument stayed unknown"),
    ("Y", "b = 5", "y.g = x.h and y.a = div(y.g.b, 0)", "a function result is undefined"),
    ("Z", "", "y = x.h and y.a = add(y.b, 1)", "a function argument stayed unknown"),
], ids=["through-fk", "undefined-result", "pinned"])
def test_a_firing_cut_short_mints_once(tmp_path, capsys, y, z1, conclusion, reason):
    """The guard accepts these rules, and a function the firing reads only
    after it mints stays unknown or undefined: the retry reuses the witness,
    so the chase saturates in round 2 with the rule pending."""
    f = tmp_path / "m.cmg"
    f.write_text(CUT_SHORT_DOC.format(y=y, z1=z1, conclusion=conclusion))
    out = tmp_path / "o"
    assert main(["integrate", str(f), "--out", str(out), "--trace", "--max-rounds", "50"]) == 0
    captured = capsys.readouterr()
    assert "saturated after 2 round(s)" in captured.out
    assert captured.err.splitlines() == [
        f"warning: constraint(s) 1 left a match pending at the fixpoint ({reason}); "
        "check_model reports them violated"
    ]
    assert (out / "trace.log").read_text(encoding="utf-8").count("created(") == 1


def test_integrate_clash_exits_two(tmp_path, capsys):
    f = tmp_path / "clash.cmg"
    f.write_text(helpers.clash_fixture_text(), encoding="utf-8")
    code = main(["integrate", str(f), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "99.9" in capsys.readouterr().err
    f.write_text("""
schema S { entities X attributes a : X -> Int }
instance i : S { entity X { row x1 { a = 5 } } }
extension E { include S constraints forall x : X -> add(x.a, 1) = 3 }
""", encoding="utf-8")
    assert main(["integrate", str(f), "--out", str(tmp_path / "o")]) == 2
    assert "constant clash on conclusion: 6 != 3" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("query", "--query", "TenantBilling"),
    ("roundtrip", "--schema", "IFC"),
])
def test_query_and_roundtrip_exit_two_on_a_clash(tmp_path, capsys, command, flag, value):
    f = tmp_path / "clash.cmg"
    f.write_text(helpers.clash_fixture_text(), encoding="utf-8")
    out = tmp_path / "o"
    assert main([command, str(f), flag, value, "--out", str(out)]) == 2
    out_text, err = capsys.readouterr()
    assert err.startswith("unsatisfiable: ") and "99.9" in err and out_text == ""
    assert not out.exists()


def test_integrate_not_weakly_acyclic_exits_one(tmp_path, capsys):
    f = tmp_path / "cycle.cmg"
    f.write_text("""
schema A { entities X Y foreign_keys g : Y -> X }
extension E { include A constraints forall x : A_X -> exists y : A_Y , y.g = x }
""", encoding="utf-8")
    assert main(["integrate", str(f), "--out", str(tmp_path / "o")]) == 1
    assert _one_line_error(capsys).startswith(
        "error: constraint set is not weakly acyclic (cycle: A_Y.g -> A_X.exists); "
    )


def test_integrate_exhaustion_exits_three(tmp_path, capsys):
    code = main(["integrate", EX2, "--out", str(tmp_path / "o"), "--max-rounds", "1"])
    assert code == 3


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_max_rounds_below_one_exits_one(tmp_path, capsys, value):
    code = main(["integrate", EX1, "--out", str(tmp_path / "o"), "--max-rounds", value])
    assert code == 1
    assert "--max-rounds" in _one_line_error(capsys)


def test_max_rounds_not_an_integer_exits_one(tmp_path, capsys):
    code = main(["integrate", EX1, "--out", str(tmp_path / "o"), "--max-rounds", "ten"])
    assert code == 1
    assert "invalid integer 'ten'" in _one_line_error(capsys)


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


@pytest.mark.parametrize("argv, code", [(["check", EX1], 0), (["check"], 1)])
def test_entry_exits_with_the_status_of_main(monkeypatch, capsys, argv, code):
    """The console script's ``entry`` runs ``main`` on ``sys.argv`` and
    exits with its status."""
    monkeypatch.setattr(sys, "argv", ["catamerge", *argv])
    with pytest.raises(SystemExit) as exit_:
        entry()
    assert exit_.value.code == code
    assert capsys.readouterr().out.startswith("ok:") == (code == 0)


def test_query_tenant_billing_matches_table2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["query", EX2, "--query", "TenantBilling", "--out", str(out)]) == 0
    csv_text = (out / "query_TenantBilling.csv").read_text(encoding="utf-8")
    assert csv_text == helpers.TABLE2_CSV
    stdout = capsys.readouterr().out
    assert "Split AC Room 240" in stdout


def test_query_glues_its_extension_once(tmp_path, monkeypatch, capsys):
    """The extension block glues the parts of its extension once and checks
    each included schema once; the query block and the command reuse that
    glue."""
    calls: list[str] = []
    for module in ("catamerge.integrate", "catamerge.parser", "catamerge.cli"):
        for name in ("combine_schemas", "validate_schema"):
            original = getattr(sys.modules[module], name, None)
            if original is not None:
                def counted(*args, _name=name, _original=original):
                    calls.append(_name)
                    return _original(*args)
                monkeypatch.setattr(sys.modules[module], name, counted)
    assert main(["query", EX2, "-q", "TenantBilling", "--out", str(tmp_path / "out")]) == 0
    assert (calls.count("combine_schemas"), calls.count("validate_schema")) == (1, 3)
    assert "Split AC Room 240" in capsys.readouterr().out


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


# Per command on a fixture: the exit code, the first 16 hex digits of the
# sha256 of stdout, stderr, and per file the command writes, the sha256 prefix
# of its bytes. Recorded from the CLI; the output directory reads ``<out>``.
_CLI_OUTPUTS = {
    "example1 integrate --trace": (0, "a07db4e917099d81", "", {
        "BRICK_Meter.csv": "e787060400d823c6",
        "BRICK_Point.csv": "da594cf9c8195265",
        "BRICK_SetPoint.csv": "1b00ef2e3a794de3",
        "BRICK_Zone.csv": "81d178ccd4e01143",
        "Equipment.csv": "a9d80c0ebb35ab98",
        "IFC_IfcSensor.csv": "0a89edcd282802cd",
        "IFC_PropertySet.csv": "20aa19af175fad59",
        "Location.csv": "086f1b65d6e8eaff",
        "combined.cmg": "935bf9b634e1b306",
        "saturated.cmg": "cadf9756c2cf73b3",
        "trace.log": "106aca4115cac529",
    }),
    "example1 roundtrip -s IFC": (0, "840c33577c6dfb06", "", {
        "roundtrip_IFC.txt": "840c33577c6dfb06",
    }),
    "example1 query -q q": (0, "d1fddaf06c190aa1", "", {
        "query_q.csv": "67f7229f6f32d323",
    }),
    "example1 query -q nope": (1, "e3b0c44298fc1c14", "error: unknown query 'nope'\n", {}),
    "example1 roundtrip -s NOPE": (
        1, "e3b0c44298fc1c14",
        "error: schema 'NOPE' is not included in extension 'Combined'\n", {},
    ),
    "example2 integrate --trace": (0, "a07db4e917099d81", "", {
        "BRICK_Meter.csv": "ac0d0898f4ddeeb5",
        "BRICK_Point.csv": "5d4bd02aca93f0f2",
        "BRICK_SetPoint.csv": "0bbfd57fcacd8e7f",
        "BRICK_Zone.csv": "8a85d7d9b97c321f",
        "Equipment.csv": "c34be06f191833bf",
        "IFC_IfcSensor.csv": "0a89edcd282802cd",
        "IFC_PropertySet.csv": "20aa19af175fad59",
        "Location.csv": "b2060f1faaf0fb12",
        "REC_Lease.csv": "5048812935e3eae7",
        "REC_Person.csv": "5731c32e0f330bf0",
        "combined.cmg": "e174f5278d07092a",
        "saturated.cmg": "ef5e30a5a6217482",
        "trace.log": "e8d1d6b3d1aa0b03",
    }),
    "example2 roundtrip -s IFC": (0, "39823d0d3a81045f", "", {
        "roundtrip_IFC.txt": "39823d0d3a81045f",
    }),
    "example2 query -q TenantBilling": (0, "346a2d8472d7b6da", "", {
        "query_TenantBilling.csv": "b3ceee2ebf3cbecc",
    }),
    "example2 query -q nope": (1, "e3b0c44298fc1c14", "error: unknown query 'nope'\n", {}),
    "example2 roundtrip -s NOPE": (
        1, "e3b0c44298fc1c14",
        "error: schema 'NOPE' is not included in extension 'CombinedThreeWay'\n", {},
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(_CLI_OUTPUTS))
def test_cli_outputs_are_pinned(tmp_path, capsys, case):
    """Every byte a command writes, prints and returns on the fixtures."""
    fixture, command, *flags = case.split()
    out = tmp_path / "out"
    code = main([command, str(helpers.FIXTURES / f"{fixture}.cmg"), "--out", str(out), *flags])
    stdout, stderr = (text.replace(str(out), "<out>") for text in capsys.readouterr())
    files = {p.name: _digest(p.read_bytes()) for p in sorted(out.iterdir())} if out.exists() else {}
    assert (code, _digest(stdout.encode()), stderr, files) == _CLI_OUTPUTS[case]


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


def test_query_on_another_extension_exits_one(tmp_path, capsys):
    f = tmp_path / "multi.cmg"
    f.write_text("""
schema A { entities X }
extension E1 { include A }
extension E2 { include A }
query Q : E1 { from x : A_X }
""", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["query", str(f), "-q", "Q", "-e", "E2", "--out", str(out)]) == 1
    assert _one_line_error(capsys) == "error: query 'Q' targets extension 'E1', not 'E2'\n"
    assert not out.exists()
    assert main(["query", str(f), "-q", "Q", "-e", "E1", "--out", str(out)]) == 0


@pytest.mark.parametrize("text, message", [
    ("extension E { }",
     "1:11: error: invalid extension E: E: an extension must include at least one schema"),
    ("schema A { entities X }\nextension A { include A }",
     "2:11: error: invalid extension A: A: extension name collides with an included schema"),
    ("schema A { entities X attributes B_f : X -> Int  f : X -> Int }\n"
     "schema B { entities Y attributes f : Y -> Int }\n"
     "extension E { include A B identify A.X = B.Y }",
     "3:11: error: member 'B_f' of combined entity 'X' is ambiguous even after prefixing"),
])
def test_check_malformed_extension_exits_one(tmp_path, capsys, text, message):
    f = tmp_path / "ext.cmg"
    f.write_text(text + "\n", encoding="utf-8")
    assert main(["check", str(f)]) == 1
    out, err = capsys.readouterr()
    assert err == f"{f}:{message}\n" and out == ""


def test_two_instances_over_one_schema_exit_one(tmp_path, capsys):
    f = tmp_path / "two.cmg"
    f.write_text("""
schema S { entities X }
instance a : S { }
instance b : S { }
extension E { include S }
""", encoding="utf-8")
    assert main(["integrate", str(f), "--out", str(tmp_path / "o")]) == 1
    assert _one_line_error(capsys) == "error: multiple instances over schema 'S' (a, b)\n"


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
    env = Document()
    for name in ("combined.cmg", "saturated.cmg"):
        text = (out / name).read_text(encoding="utf-8")
        parse_document(SourceDocument(name, text), env)
    assert env.ok, [str(d) for d in env.diagnostics]
    assert "CombinedThreeWay" in env.schemas
    sat = next(iter(env.instances.values()))
    assert len(sat.carrier("Location")) == 5


_KEYWORD_IDS_DOC = """
schema S {
  entities A B
  foreign_keys f : B -> A
  attributes k : A -> String
}
instance i : S {
  entity A { row "a.row" { k = "x" } row "entity" { k = "y" } row "x.null" { } }
  entity B { row b1 { f = "a.row" } row b2 { f = "entity" } row b3 { f = "x.null" } }
}
extension E { include S }
"""


def test_row_ids_with_keyword_parts_print_quoted_and_parse_back(tmp_path, capsys):
    """A row id with a keyword as a part is quoted wherever it is printed:
    as a row of the source, and as ``S.entity`` after Σ in saturated.cmg."""
    env = helpers.load_text(_KEYWORD_IDS_DOC)
    printed = print_canonical(env.instances["i"])
    for quoted in ('"a.row"', '"entity"', '"x.null"'):
        assert f"row {quoted} " in printed and f"f = {quoted} " in printed
    again = Document(schemas=dict(env.schemas))
    parse_document(SourceDocument("printed.cmg", printed), again)
    assert again.ok, [str(d) for d in again.diagnostics]
    assert instances_same_data(again.instances["i"], env.instances["i"])

    doc, out = tmp_path / "ids.cmg", tmp_path / "out"
    doc.write_text(_KEYWORD_IDS_DOC, encoding="utf-8")
    assert main(["integrate", str(doc), "--out", str(out)]) == 0
    assert 'row "S.entity" ' in (out / "saturated.cmg").read_text(encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(out / "combined.cmg"), str(out / "saturated.cmg")]) == 0
    assert capsys.readouterr().err == ""


_NESTED_EXISTENTIAL_DOC = """schema S {
  entities A
  attributes a : A -> Int
}
extension E {
  include S
  constraints
    forall x : A where add(y.a, 1) = x.a -> exists y : A , y.a = x.a
}
"""
_QUERY_BLOCK = "query Q : E {\n  from x : S_A\n  attributes v -> x.a\n}\n"


@pytest.mark.parametrize("query", ["", _QUERY_BLOCK], ids=["extension", "with-query"])
@pytest.mark.parametrize("command", ["check", "integrate"])
def test_existential_inside_a_premise_term_exits_one(tmp_path, capsys, command, query):
    """An existential read inside a function of the premise is reported at
    the variable, so the extension is refused before any combined schema is
    built from it, and a query over it gets a diagnostic, not a traceback."""
    doc = tmp_path / "nested.cmg"
    doc.write_text(_NESTED_EXISTENTIAL_DOC + query, encoding="utf-8")
    argv = [command, str(doc)] + (["--out", str(tmp_path / "out")] if command == "integrate" else [])
    capsys.readouterr()
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == f"{doc}:8:28: error: premise mentions an existential variable"
    assert all(line.startswith(f"{doc}:") and ": error: " in line for line in lines), lines
    assert not (tmp_path / "out").exists()


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
    trace=st.booleans(),
    extra=st.sampled_from([[]] * 8 + [["--bogus"], ["--help"], ["-e"], ["--"], ["-q", "q"],
                                      ["-s", "IFC"], ["--trace"], ["--out"]]),
    undefined_fk_query=st.sampled_from([None] * 4 + ["Q", "W"]),
)
def test_cli_arguments_fuzz_never_traceback(tmp_path, capsys, command, files,
                                            extension, query, schema, max_rounds,
                                            trace, extra, undefined_fk_query):
    """Any argument list exits 0, 1, 2 or 3 and prints no traceback. A third
    of the runs query ``Q`` or ``W`` of undefined_fk_query.cmg, whose
    evaluation reaches an unset foreign key; random argument lists seldom
    get that far."""
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
    if undefined_fk_query is not None:
        argv = ["query", UNDEFINED_FK, "-q", undefined_fk_query, "--out", str(tmp_path / "out")]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in {0, 1, 2, 3}, argv
    assert "Traceback" not in err, argv


# Extreme literals: the longest Int a literal holds and one digit more, the
# largest Double and one past the float range, and small and signed values.
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
_LARGEST = str(int(sys.float_info.max)) + ".0"
_INTS = st.sampled_from(["0", "1", "-1", "7", "9" * _DIGITS, "-" + "9" * _DIGITS,
                         "9" * (_DIGITS + 1), str(2**64)])
_DOUBLES = st.sampled_from(["0.0", "2.5", "-0.5", "0.000001", _LARGEST, "-" + _LARGEST,
                            "1" + "0" * 400 + ".0"])
# Row ids that need quotes or have a keyword as a part.
_ROW_IDS = st.sampled_from(["a.row", "entity", "x.null", "from", "x.true.y", "plain", "a.b",
                            "two words", 'q"uote', "back\\slash", "new\nline", "_9", "9a"])
_RULES = (
    "forall x : X -> x.b = mul(x.a, x.a)",
    "forall x : X -> x.b = add(x.a, {int})",
    "forall x : X -> x.b = div(x.a, {int})",
    "forall x : X where x.a > {int} -> x.b = sub(x.a, {int})",
    "forall x : X -> x.e = mul(x.d, x.d)",
    "forall x : X -> x.e = div(x.d, {double})",
    "forall x : X -> x.e = add(x.d, {double})",
    "forall p q : X where p.k = q.k -> p = q",
    "forall x : X -> x.g.v = x.b",
    "forall x : X -> exists y : Y , y.v = x.a",
)
_SCHEMA_DOC = """schema S {
  entities X Y
  foreign_keys g : X -> Y
  attributes a : X -> Int  b : X -> Int  d : X -> Double  e : X -> Double
    k : X -> String  v : Y -> Int
}
"""


def _id_literal(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _maybe(values: st.SearchStrategy) -> st.SearchStrategy:
    """A member's value: absent, null or one of ``values``."""
    return st.one_of(st.none(), st.just("null"), values)


def _row(draw, name: str, members: dict[str, st.SearchStrategy]) -> str:
    bindings = [f"{m} = {v}" for m, s in members.items() if (v := draw(s)) is not None]
    return f"row {_id_literal(name)} {{ {' '.join(bindings)} }}"


@st.composite
def _arithmetic_documents(draw) -> str:
    """A source with rows named by ``_ROW_IDS`` and an extension whose rules
    compute over ``_INTS`` and ``_DOUBLES``."""
    ys = draw(st.lists(_ROW_IDS, max_size=3, unique=True))
    targets = st.sampled_from([None] + [_id_literal(y) for y in ys])
    x_members = {"a": _maybe(_INTS), "d": _maybe(_DOUBLES),
                 "k": _maybe(st.sampled_from(['"p"', '"q"'])), "g": targets}
    x_rows = [_row(draw, x, x_members)
              for x in draw(st.lists(_ROW_IDS, min_size=1, max_size=4, unique=True))]
    y_rows = [_row(draw, y, {"v": _maybe(_INTS)}) for y in ys]
    rules = [
        draw(st.sampled_from(_RULES)).format(int=draw(_INTS), double=draw(_DOUBLES))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return (
        _SCHEMA_DOC
        + f"instance i : S {{\n  entity X {{ {' '.join(x_rows)} }}\n"
        + f"  entity Y {{ {' '.join(y_rows)} }}\n}}\n"
        + "extension E {\n  include S\n  constraints\n    " + "\n    ".join(rules) + "\n}\n"
    )


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_arithmetic_documents())
def test_integrate_outputs_parse_back_on_generated_documents(tmp_path, capsys, text):
    """``integrate`` on any generated document exits 0, 1, 2 or 3 with no
    traceback; on 0 its ``combined.cmg`` and ``saturated.cmg`` parse back
    with no diagnostic, and reprinting the parsed instance gives
    ``saturated.cmg`` byte for byte."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    doc, out = work / "doc.cmg", work / "out"
    doc.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main(["integrate", str(doc), "--out", str(out)])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in capsys.readouterr().err
    if code != 0:
        return
    env = Document()
    for name in ("combined.cmg", "saturated.cmg"):
        parse_document(SourceDocument(name, (out / name).read_text(encoding="utf-8")), env)
    assert [str(d) for d in env.diagnostics] == []
    (saturated,) = env.instances.values()
    assert print_canonical(saturated) == (out / "saturated.cmg").read_text(encoding="utf-8")
