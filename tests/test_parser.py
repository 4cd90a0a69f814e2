from __future__ import annotations

import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from catamerge import (
    CombinedSchema,
    Const,
    classify_constraint,
    combine_schemas,
    instances_same_data,
    new_instance,
    parse_constraint,
    parse_extension,
    parse_instance,
    parse_query,
    parse_schema,
    print_canonical,
)
from catamerge import parser as parser_module
from catamerge.generators import scaled_example1_document
from catamerge.parser import Document, SourceDocument, parse_document, tokenize
from catamerge.schema import Cmp, Constraint, Eq, ExtensionSpec, Path, PathApp, Schema
from catamerge.typeside import BaseType, normalize_double

IFC_TEXT = """\
schema IFC {
  entities IfcSpace IfcSensor IfcDistributionElement PropertySet
  foreign_keys
    hasPropertySet : IfcSensor -> PropertySet
    sensorAttachedTo : IfcSensor -> IfcDistributionElement
    elementInSpace : IfcDistributionElement -> IfcSpace
  attributes
    spaceName : IfcSpace -> String
    spaceArea : IfcSpace -> Double
}
"""


def errors(diags):
    return [d for d in diags if d.severity == "error"]


def test_parse_ifc_schema_four_entities():
    schema, diags = parse_schema(SourceDocument("ifc.cmg", IFC_TEXT))
    assert not errors(diags)
    assert len(schema.entities) == 4
    assert schema.fk("IfcSensor", "sensorAttachedTo").target == "IfcDistributionElement"
    assert schema.attr("IfcSpace", "spaceArea").type is BaseType.DOUBLE


def test_parse_empty_schema():
    schema, diags = parse_schema(SourceDocument("e.cmg", "schema Empty { }"))
    assert not errors(diags)
    assert schema.entities == ()


def test_line_starts_wait_for_a_diagnostic():
    doc = SourceDocument("ifc.cmg", IFC_TEXT)
    _, diags = parse_schema(doc)
    assert not diags and "_line_starts" not in doc.__dict__


@pytest.mark.parametrize("state", [{"glued": {}}, {"refused_extensions": set()}])
def test_document_keeps_its_parser_state_to_itself(state):
    with pytest.raises(TypeError):
        Document(**state)


def test_dangling_fk_diagnostic_points_at_ghost_token():
    text = "schema S {\n  entities A\n  foreign_keys\n    f : A -> Ghost\n}"
    _, diags = parse_schema(SourceDocument("bad.cmg", text))
    errs = errors(diags)
    assert len(errs) == 1
    assert "Ghost" in errs[0].message
    assert errs[0].line == 4
    # the column lands inside the token `Ghost`
    ghost_col = text.splitlines()[3].index("Ghost") + 1
    assert errs[0].column == ghost_col


def test_parse_constraint_sensor_point_rule(example1):
    _, combined, _ = example1
    text = (
        "forall s : IFC_IfcSensor p : BRICK_Point where p = s.sensorAttachedTo.hasPoint "
        "-> p.timeseriesId = s.hasPropertySet.deviceId"
    )
    c, diags = parse_constraint(text, combined.schema)
    assert not errors(diags)
    assert classify_constraint(c) == "EGD"
    assert len(c.universals) == 2 and not c.existentials


def test_parse_constraint_levenshtein_premise(example2):
    _, combined, _ = example2
    text = (
        'forall l : REC_Lease where levenshtein(l.leasee.personName, "Vacant") > 0 '
        "-> l.leaseOf.isPartOf.hasPoint.setPointValue = 22"
    )
    c, diags = parse_constraint(text, combined.schema)
    assert not errors(diags)
    assert isinstance(c.premise[0], Cmp) and c.premise[0].op == ">"
    # the integer literal promotes to the Double attribute type
    concl = c.conclusion[0]
    assert concl.right.type is BaseType.DOUBLE and concl.right.value == 22.0


def test_parse_constraint_trivial_identity():
    schema = Schema("S", ("E",))
    c, diags = parse_constraint("forall x : E -> x = x", schema)
    assert not errors(diags)
    assert classify_constraint(c) == "EGD"


def test_parse_constraint_unbound_variable():
    schema = Schema("S", ("E",))
    c, diags = parse_constraint("forall x : E -> y = x", schema)
    assert c is None
    assert any("unbound variable 'y'" in d.message for d in errors(diags))


def test_parse_constraint_predicate_in_conclusion_rejected(example2):
    _, combined, _ = example2
    text = "forall l1 l2 : Location -> l1.spaceArea > l2.spaceArea"
    c, diags = parse_constraint(text, combined.schema)
    assert c is None
    assert any("conclusion" in d.message for d in errors(diags))


def test_parse_constraint_ill_typed_equation(example2):
    _, combined, _ = example2
    text = "forall l : Location -> l.spaceName = l.spaceArea"
    c, diags = parse_constraint(text, combined.schema)
    assert c is None
    assert any("String" in d.message and "Double" in d.message for d in errors(diags))


def test_parse_instance_fig4_counts(example1):
    env, _, _ = example1
    inst = env.instances["ifc_model"]
    assert len(inst.elements("IfcSpace")) == 5
    total = sum(len(inst.elements(e)) for e in inst.schema.entities)
    assert total == 20


def test_parse_instance_all_entities_empty():
    text = IFC_TEXT + "\ninstance empty : IFC { }"
    env = helpers.load_text(text)
    inst = env.instances["empty"]
    assert all(not inst.elements(e) for e in inst.schema.entities)


def test_parse_instance_type_mismatch_diagnostic():
    text = IFC_TEXT + '\ninstance i : IFC { entity IfcSpace { row r { spaceArea = "big" } } }'
    env = parse_document(SourceDocument("bad.cmg", text))
    errs = errors(env.diagnostics)
    assert len(errs) == 1
    assert "spaceArea" in errs[0].message and "Double" in errs[0].message


def test_parse_instance_undeclared_row_reference():
    text = IFC_TEXT + "\ninstance i : IFC { entity IfcSensor { row s { hasPropertySet = nope } } }"
    env = parse_document(SourceDocument("bad.cmg", text))
    assert any("nope" in d.message for d in errors(env.diagnostics))


def test_parse_extension_example1(example1):
    env, _, _ = example1
    ext = env.extensions["Combined"]
    assert len(ext.identifications) == 2
    assert len(ext.constraints) == 2


def test_parse_extension_single_schema_degenerate():
    text = IFC_TEXT + "\nextension Solo { include IFC }"
    env = helpers.load_text(text)
    combined = combine_schemas(env.extensions["Solo"])
    assert set(combined.schema.entities) == {
        "IFC_IfcSpace", "IFC_IfcSensor", "IFC_IfcDistributionElement", "IFC_PropertySet"
    }


def test_parse_extension_example2(example2):
    env, _, _ = example2
    ext = env.extensions["CombinedThreeWay"]
    assert len(ext.schemas) == 3
    assert len(ext.identifications) == 3
    assert len(ext.constraints) == 6


def test_parse_extension_unknown_entity_in_identification():
    text = IFC_TEXT + "\nextension X { include IFC identify IFC.Nope = IFC.IfcSpace }"
    env = parse_document(SourceDocument("bad.cmg", text))
    assert any("Nope" in d.message for d in errors(env.diagnostics))


def test_parse_extension_same_schema_identification_rejected():
    text = IFC_TEXT + "\nextension X { include IFC identify IFC.IfcSpace = IFC.IfcSensor }"
    env = parse_document(SourceDocument("bad.cmg", text))
    assert any("one schema" in d.message for d in errors(env.diagnostics))


def test_parse_query_listing_shapes(example1, example2):
    env1, _, _ = example1
    q1 = env1.queries["q"]
    assert [v for v, _ in q1.bindings] == ["e"]
    assert len(q1.projections) == 3
    env2, _, _ = example2
    q2 = env2.queries["TenantBilling"]
    assert [v for v, _ in q2.bindings] == ["lease", "meter"]
    assert len(q2.wheres) == 1
    assert len(q2.projections) == 7


def test_parse_query_empty_from_is_error(example1):
    _, combined, _ = example1
    text = "query bad : Combined { from attributes x -> e.hasLocation.spaceName }"
    q, diags = parse_query(SourceDocument("bad.cmg", text), combined)
    assert q is None
    assert errors(diags)


def test_parse_query_unbound_variable(example1):
    _, combined, _ = example1
    text = "query bad : Combined { from e : Equipment attributes x -> z.hasLocation.spaceName }"
    q, diags = parse_query(SourceDocument("bad.cmg", text), combined)
    assert q is None
    assert any("unbound" in d.message for d in errors(diags))


def test_every_row_id_prints_as_the_parser_reads_it():
    """The printer writes an id bare only where the parser reads it bare, a
    plain or dotted name with no keyword as a part, and quotes any other."""
    parts = ["a", "row", "rowx", "_9", "9a", "null", "entity", "", "a b", "true"]
    names = sorted({".".join(c) for k in (1, 2, 3) for c in itertools.product(parts, repeat=k)})
    schema = Schema("S", ("X",))
    inst = new_instance(schema, "i")
    for name in names:
        inst.add_element("X", name)
    printed = print_canonical(inst)
    assert "row a.rowx { }" in printed and 'row "a.row" { }' in printed
    again, diags = parse_instance(SourceDocument("ids.cmg", printed), schema)
    assert not diags and [e.name for e in again.elements("X")] == names


def test_query_over_an_invalid_extension_is_a_diagnostic():
    """``parse_document`` also reads queries over extensions built through
    the API; one whose combined schema is invalid gives a diagnostic at its
    name in the query header."""
    env = helpers.load_text("schema S { entities A attributes a : A -> Int }")
    y_a, x_a = (PathApp(var, Path("S_A", (), "a")) for var in "yx")
    bad = Constraint((("x", "S_A"),), (Eq(y_a, x_a),), (("y", "S_A"),), (Eq(y_a, x_a),))
    env.extensions["E"] = ExtensionSpec("E", (env.schemas["S"],), (), (bad,))
    parse_document(SourceDocument("q.cmg", "query Q : E { from x : S_A attributes v -> x.a }"), env)
    (diag,) = errors(env.diagnostics)
    assert (diag.line, diag.column) == (1, 11)
    assert diag.message.startswith("combined schema for E is invalid")
    assert "Q" not in env.queries


_REFUSED_EXTENSIONS = {
    "unknown schema": "extension E { include S Ghost }",
    "combine fails": "extension E { include S S_A }",
    "bad constraint": "extension E { include S constraints forall x : S_X where x.a = nope -> x.a = 1 }",
    "syntax error": "extension E { include S constraints forall x : X -> }",
}


def test_query_over_a_refused_extension_gets_no_second_diagnostic():
    """An extension block that is reported and refused is not unknown to a
    query naming it, even in a later file; an undeclared one still is."""
    # S.A_X and S_A.X would both be named S_A_X in a combined schema
    schemas = "schema S { entities X A_X attributes a : X -> Int }\nschema S_A { entities X }\n"
    query = "query Q : {} {{ from x : S_X attributes a -> x.a }}"
    for kind, extension in _REFUSED_EXTENSIONS.items():
        env = parse_document(SourceDocument("e.cmg", schemas + extension))
        reported = [d.message for d in errors(env.diagnostics)]
        assert len(reported) == 1 and "E" not in env.extensions, (kind, reported)
        parse_document(SourceDocument("q.cmg", query.format("E")), env)
        assert [d.message for d in errors(env.diagnostics)] == reported, kind
        parse_document(SourceDocument("q2.cmg", query.format("F")), env)
        assert errors(env.diagnostics)[-1].message == "unknown extension 'F'", kind


_DIAG_SCHEMA = """\
schema S {
  entities X Y
  foreign_keys f : X -> Y
  attributes a : X -> Int  d : X -> Double  s : X -> String  b : Y -> Int
}
"""
_DEEP_TERM = "add(" * 101 + "1" + ", 1)" * 101


def _diag_context() -> tuple[Schema, CombinedSchema]:
    env = helpers.load_text(_DIAG_SCHEMA + "extension E { include S }")
    return env.schemas["S"], combine_schemas(env.extensions["E"])


def _diagnostics_of(entry: str, text: str) -> list[tuple[str, int, int]]:
    schema, combined = _diag_context()
    doc = SourceDocument("t.cmg", text)
    if entry == "document":
        diags = parse_document(doc).diagnostics
    elif entry == "constraint":
        diags = parse_constraint(text, schema)[1]
    elif entry == "query":
        diags = parse_query(doc, combined)[1]
    elif entry == "schema":
        diags = parse_schema(doc)[1]
    elif entry == "instance":
        diags = parse_instance(doc, schema)[1]
    else:
        diags = parse_extension(doc, {"S": schema})[1]
    return [(d.message, d.line, d.column) for d in diags]


# (entry point, input text, its exact diagnostics as (message, line, column));
# constraints resolve over _DIAG_SCHEMA's S and queries over the extension E
# that includes only S, so a bare X names S_X
_DIAGNOSTICS = [
    ("document", "schema S { bogus }",
     [("expected a schema section or '}', found 'bogus'", 1, 12)]),
    ("document", "schema S { entities A A }", [("duplicate entity name 'A'", 1, 23)]),
    ("document", "schema S { entities A foreign_keys f : A -> A f : A -> A }",
     [("duplicate member name 'f' on entity 'A'", 1, 47)]),
    ("document", "schema S { entities A attributes a : A -> Int a : A -> String }",
     [("duplicate member name 'a' on entity 'A'", 1, 47)]),
    ("constraint", "forall x : X where x.a = 1 and x.zz = 2 -> x = x",
     [("'zz' is not a foreign key or attribute of entity 'X'", 1, 34)]),
    ("constraint", "forall : X -> x = x", [("expected a variable binder", 1, 8)]),
    ("constraint", "forall x : X where x.a -> x = x",
     [("expected a comparison operator, found '->'", 1, 24)]),
    ("constraint", f"forall x : X -> x.a = {_DEEP_TERM}", [("term nesting too deep", 1, 427)]),
    ("constraint", "forall x x : X -> x = x", [("variable 'x' bound twice", 1, 10)]),
    ("constraint", "forall x : X -> exists x : Y , x = x", [("variable 'x' bound twice", 1, 24)]),
    ("query", "query Q : E { from x : X x : Y }", [("variable 'x' bound twice", 1, 26)]),
    ("document", _DIAG_SCHEMA + "schema T { entities X }\n"
     "extension E { include S T constraints forall x : X -> x = x }",
     [("entity name 'X' is ambiguous in the combined schema", 7, 50)]),
    ("constraint", "forall x y : X where x < y -> x = y",
     [("predicate '<' compares base-typed terms only", 1, 24)]),
    ("constraint", "forall x : X where x.s < x.s -> x = x",
     [("predicate '<' is undefined on (String, String)", 1, 24)]),
    ("constraint", "forall x : X -> x.a = foo(x.a)", [("unknown built-in function 'foo'", 1, 23)]),
    ("constraint", "forall x : X -> x.a = add(x, 1)",
     [("function arguments must be base-typed", 1, 27)]),
    ("constraint", "forall x : X -> x.a = add(x.s, x.a)",
     [("no signature add(String, Int) among built-ins", 1, 23)]),
    # the Int literal was promoted before the lookup failed
    ("constraint", "forall x : X -> x.d = add(x.s, 1)",
     [("no signature add(String, Double) among built-ins", 1, 23)]),
    ("constraint", "forall x : X -> x.a.b = 1", [("cannot continue a path past attribute 'a'", 1, 21)]),
    ("document", _DIAG_SCHEMA + "extension E { include S S }", [("schema 'S' included twice", 6, 25)]),
    ("query", "query Q : Other { from x : X }", [("query targets 'Other', expected 'E'", 1, 11)]),
    ("query", "schema Z { }", [("expected a query block", 1, 1)]),
    ("query", "query Q : E { from x : X where x.a < 1 }",
     [("query where-atoms are equalities only", 1, 36)]),
    ("query", "query Q : E { from x : X attributes c -> x }",
     [("projections must be attribute-valued", 1, 42)]),
    ("query", "query Q : E { from x : X attributes c -> x.a c -> x.d }",
     [("duplicate output column 'c'", 1, 46)]),
    ("schema", "", [("no schema block found", 1, 1)]),
    ("instance", "", [("no instance block found", 1, 1)]),
    ("extension", "", [("no extension block found", 1, 1)]),
    ("query", "", [("no query block found", 1, 1)]),
    ("constraint", "forall x : X -> x = x extra", [("trailing input after constraint", 1, 23)]),
    ("constraint", "forall x : X -> ", [("expected a term, found 'end of input'", 1, 17)]),
]


def test_every_parser_diagnostic_is_pinned():
    """Each input gives exactly these diagnostics, in order, at these
    positions, through its entry point."""
    for entry, text, expected in _DIAGNOSTICS:
        assert _diagnostics_of(entry, text) == expected, (entry, text[-60:])


def test_int_literal_arguments_promote_only_without_an_exact_signature():
    schema, _ = _diag_context()
    c, diags = parse_constraint("forall x : X where 1 = x.d -> x.d = add(x.d, 1)", schema)
    assert not diags
    (premise,) = c.premise
    assert premise.left == Const(BaseType.DOUBLE, 1.0)
    (conclusion,) = c.conclusion
    call = conclusion.right
    assert call.fn.arg_types == (BaseType.DOUBLE, BaseType.DOUBLE)
    assert call.args[1] == Const(BaseType.DOUBLE, 1.0)
    c, diags = parse_constraint("forall x : X -> x.a = add(x.a, 1)", schema)
    assert not diags
    assert c.conclusion[0].right.args[1] == Const(BaseType.INT, 1)


def test_roundtrip_schema_instance_extension_query(example2):
    env, combined, _ = example2
    brick = env.schemas["BRICK"]
    s2, diags = parse_schema(SourceDocument("rt", print_canonical(brick)))
    assert not errors(diags) and s2 == brick

    inst = env.instances["brick_model"]
    i2, diags = parse_instance(SourceDocument("rt", print_canonical(inst)), brick)
    assert not errors(diags) and instances_same_data(i2, inst)

    ext = env.extensions["CombinedThreeWay"]
    e2, diags = parse_extension(
        SourceDocument("rt", print_canonical(ext)), dict(env.schemas)
    )
    assert not errors(diags) and e2 == ext

    q = env.queries["TenantBilling"]
    q2, diags = parse_query(SourceDocument("rt", print_canonical(q)), combined)
    assert not errors(diags) and q2 == q


def test_print_empty_schema():
    text = print_canonical(Schema("Empty"))
    assert text.split() == ["schema", "Empty", "{", "}"]


def test_print_canonical_refuses_other_values():
    for value in (1, "schema S { }", None):
        with pytest.raises(TypeError, match=f"cannot print {type(value).__name__}"):
            print_canonical(value)


def test_parse_is_deterministic():
    text = helpers.clash_fixture_text()
    a = parse_document(SourceDocument("x.cmg", text))
    b = parse_document(SourceDocument("x.cmg", text))
    assert [str(d) for d in a.diagnostics] == [str(d) for d in b.diagnostics]
    assert list(a.schemas) == list(b.schemas)
    assert a.extensions["CombinedThreeWay"] == b.extensions["CombinedThreeWay"]


def test_parser_totality_on_random_bytes_small():
    rng = random.Random(99)
    for i in range(2000):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
        parse_document(SourceDocument(f"fuzz{i}", data.decode("latin-1")))


def test_parser_totality_on_mutated_fixture():
    base = (helpers.FIXTURES / "example2.cmg").read_text(encoding="utf-8")
    rng = random.Random(17)
    for i in range(300):
        pos = rng.randrange(len(base))
        text = base[:pos] + chr(rng.randrange(32, 127)) + base[pos + 1 :]
        parse_document(SourceDocument(f"mut{i}", text))


def test_diagnostic_positions_always_inside_document():
    rng = random.Random(5)
    for i in range(500):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
        text = data.decode("latin-1")
        doc = SourceDocument(f"f{i}", text)
        env = parse_document(doc)
        lines = text.split("\n")
        for d in env.diagnostics:
            assert 1 <= d.line <= max(1, len(lines))
            assert d.column >= 1


def test_negative_int_and_bool_literals_roundtrip():
    text = """
schema S {
  entities X
  attributes n : X -> Int  flag : X -> Bool  t : X -> Double
}
instance i : S {
  entity X { row r { n = -5 flag = true t = -2.5 } }
}
"""
    env = helpers.load_text(text)
    inst = env.instances["i"]
    r = inst.element_named("X", "r")
    assert inst.get_attr(r, "n").value == -5
    assert inst.get_attr(r, "flag").value is True
    assert inst.get_attr(r, "t").value == -2.5
    from catamerge import print_canonical, parse_instance, instances_same_data
    from catamerge.parser import SourceDocument

    rt, diags = parse_instance(SourceDocument("rt", print_canonical(inst)), env.schemas["S"])
    assert not errors(diags) and instances_same_data(rt, inst)


def _shape(tok) -> tuple:
    return (tok.kind, tok.text, tok.pos, tok.value, type(tok.value))


def _decoded_row(tok) -> tuple:
    """A row token's decoded id and bindings, with each literal's Python type."""
    row_id, id_pos, bindings = tok.value
    out = [
        (member, member_pos, kind, value, type(getattr(value, "value", value)), at)
        for member, member_pos, kind, value, at in bindings
    ]
    return row_id, id_pos, out


_ORACLE_LITERALS = {
    "true": BaseType.BOOL, "false": BaseType.BOOL, "string": BaseType.STRING,
    "int": BaseType.INT, "double": BaseType.DOUBLE,
}


def _oracle_row(oracle: list, i: int) -> tuple[tuple, int]:
    """The row that the oracle's tokens from its ``row`` keyword at index
    ``i`` form, in ``_decoded_row``'s shape, and the index past its ``}``.
    Fails when those tokens do not form a well-formed row."""

    def take(*kinds: str):
        nonlocal i
        tok = oracle[i]
        assert tok.kind in kinds, (tok, kinds)
        i += 1
        return tok

    def name() -> tuple[str, int]:  # a dotted row id or ref, joined as _parse_row_id joins it
        first = take("ident")
        text = first.text
        while oracle[i].kind == ".":
            take(".")
            text += "." + take("ident").text
        return text, first.pos

    take("row")
    if oracle[i].kind == "string":
        tok = take("string")
        row_id = (tok.value, tok.pos)
    else:
        row_id = name()
    take("{")
    bindings = []
    while oracle[i].kind != "}":
        member = take("ident")
        take("=")
        if oracle[i].kind == "ident":
            ref, at = name()
            bindings.append((member.text, member.pos, "ref", ref, str, at))
            continue
        tok = take("null", *_ORACLE_LITERALS)
        if tok.kind == "null":
            bindings.append((member.text, member.pos, "null", None, type(None), tok.pos))
        else:
            value = tok.kind == "true" if tok.kind in ("true", "false") else tok.value
            const = Const(_ORACLE_LITERALS[tok.kind], value)
            bindings.append((member.text, member.pos, "lit", const, type(value), tok.pos))
    take("}")
    return (*row_id, bindings), i


def _assert_tokens_match_oracle(text: str) -> list[tuple]:
    """Each token of ``text`` with the oracle's tokens it stands for. Outside
    rows the two tokenizers agree token by token: kind, text, offset, value
    and its type. A ``row`` token with a decoded value stands for the
    oracle's tokens from its ``row`` keyword to the row's ``}``, which must
    form that row: the same id, members and values, each with the same kind,
    value, type and offset. The diagnostics are equal."""
    doc = SourceDocument("t.cmg", text)
    diags: list = []
    oracle_diags: list = []
    tokens = tokenize(doc, diags)
    oracle = helpers.oracle_tokenize(doc, oracle_diags)
    pairs, i = [], 0
    for tok in tokens:
        if tok.kind == "row" and tok.value is not None:
            assert (tok.text, tok.pos) == (oracle[i].text, oracle[i].pos), (text, tok)
            row, end = _oracle_row(oracle, i)
            assert _decoded_row(tok) == row, text
            pairs.append((tok, oracle[i:end]))
            i = end
        else:
            assert _shape(tok) == _shape(oracle[i]), text
            pairs.append((tok, [oracle[i]]))
            i += 1
    assert i == len(oracle), text
    assert diags == oracle_diags, text
    return pairs


def _assert_token_positions(text: str) -> list:
    doc = SourceDocument("t.cmg", text)
    pairs = _assert_tokens_match_oracle(text)
    for tok, spanned in pairs:
        for want in spanned:
            assert (want.line, want.column) == doc.position(want.pos), (text, tok, want)
    return [tok for tok, _ in pairs]


def test_token_positions_match_random_access_position():
    for name in ("example1.cmg", "example2.cmg"):
        text = (helpers.FIXTURES / name).read_text(encoding="utf-8")
        tokens = _assert_token_positions(text)
        assert SourceDocument(name, text).position(tokens[-1].pos)[0] > 50
    hand_made = [
        "",
        "x",
        "schema S {}",
        "schema S {\r\n  entities A\r\n}\r\n",
        "\tschema\tS\t{\n\t\tentities\tA\n\t}",
        "\n\n\n",
        "a\n\nb # comment\n  c",
        '"open\nx "closed" @ -1.5 -> <=',
    ]
    for text in hand_made:
        tokens = _assert_token_positions(text)
        assert tokens[-1].kind == "eof" and tokens[-1].pos == len(text)
    doc = SourceDocument("t.cmg", "x\r\ny")
    assert [(t.pos, *doc.position(t.pos)) for t in _assert_token_positions(doc.text)] == [
        (0, 1, 1), (3, 2, 1), (4, 2, 2)
    ]


def _fuzz_texts(count: int) -> list[str]:
    """The first ``count`` inputs of the acceptance fuzz."""
    rng = random.Random(0xC0FFEE)
    return [
        bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64))).decode("latin-1")
        for _ in range(count)
    ]


def test_cursor_diagnostics_equal_binary_search(monkeypatch):
    """The inputs of the acceptance fuzz give the same parser diagnostics
    whether the tokens come from the compiled pattern, positioned by a binary
    search per diagnostic, or from the oracle's character loop, positioned
    by a forward scan over every token."""
    texts = _fuzz_texts(2000)

    def diagnostics() -> list[list[str]]:
        return [
            [str(d) for d in parse_document(SourceDocument(f"fuzz{i}", t)).diagnostics]
            for i, t in enumerate(texts)
        ]

    pattern = diagnostics()
    monkeypatch.setattr(parser_module, "tokenize", helpers.oracle_tokenize)
    assert pattern == diagnostics()
    assert any(":2:" in d for ds in pattern for d in ds)


def test_tokens_match_oracle_on_fixtures_and_fuzz():
    for name in ("example1.cmg", "example2.cmg"):
        _assert_tokens_match_oracle((helpers.FIXTURES / name).read_text(encoding="utf-8"))
    for text in _fuzz_texts(2000):
        _assert_tokens_match_oracle(text)


def test_tokens_match_oracle_on_edge_cases():
    cases = [
        "x # a comment at the end with no newline",
        "#",
        'a "line one\\\nline two" b',  # a backslash escapes the newline
        '"ends with a backslash \\',
        "\\",
        '"\\"',
        "1.", "1.5.3", "-", "- 1", "-1", "-1.5", "->", "1->2", "x.1", "1.e",
        '"\\n\\t\\"\\\\\\q"',
        '"open\r\n"',
        "\x0b\x0c\u00a0é٣",
    ]
    for text in cases:
        _assert_tokens_match_oracle(text)


_TOKEN_ALPHABET = '"\\#-0123456789.><={}():,\r\n\t abcxyzAZ_éß٣\u00a0\u2028😀'


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_TOKEN_ALPHABET, max_size=80))
def test_tokens_match_oracle_on_text(text):
    _assert_tokens_match_oracle(text)


# ---------------------------------------------------------------------------
# Rows: one token when well formed, the token path when not

_ROW_SCHEMA = """\
schema S {
  entities X Y
  foreign_keys f : X -> Y
  attributes n : X -> Int  d : X -> Double  s : X -> String  b : X -> Bool
}
"""
_ROW_GAPS = ["", " ", "  ", "\n", "\t", "\r\n", " # a comment\n", "#x = 1 row }\n", " #\n\n "]
# Per member, values of its type; then members and values that are broken
# or do not fit the schema
_ROW_VALUES = {
    "n": ["1", "-1", "007", "-0", "null"],
    "d": ["1.5", "-1.5", "2", "0.25", "null"],
    "s": ['"s"', '"a\\"b"', '"\\n\\t\\q"', '"x\\\\"', '"1.5"', '"a\\\nb"', '"\\\n zz = 1"', "null"],
    "b": ["true", "false", "null"],
    "f": ["y1", '"y 2"', "a.b", "a . b", "a.#c\n b", "null"],
}
_ROW_WILD_MEMBERS = ["zz", "n2", "_", "row", "null", "true", "entity", "1"]
_ROW_WILD_VALUES = [
    "1.", "1.5.3", "- 1", "-", "1e5", "12b", "truex", "nullx", "y1.z", "y1.", "zz",
    '"open', '"line\nbreak"', "row", "entity", "{", "}", "=", "null.x", "true.y", "false . z",
]
_ROW_WILD_IDS = ["x1", "row", "null", "entity", "1", "a.", "a.1", "a..b", '"open']
_ROW_MUTATIONS = ' \n\t#"\\.={}-019abnrowtuelfy_é'


def _random_row(rng: random.Random, k: int) -> str:
    """Row ``k`` of a document: well formed and fitting the schema, but one
    piece in ten is drawn from the wild lists."""
    gap = lambda: rng.choice(_ROW_GAPS)  # noqa: E731
    wild = lambda: rng.random() < 0.1  # noqa: E731
    ids = [f"x{k}", f"x{k}.b", f"x{k} . b", f"x{k} #c\n. b", f'"quoted {k}"', f'"esc\\" {k}"']
    bindings = []
    for member in rng.sample(sorted(_ROW_VALUES), rng.randrange(4)):
        value = rng.choice(_ROW_VALUES[member])
        if wild():
            member = rng.choice(_ROW_WILD_MEMBERS + list(_ROW_VALUES))
        if wild():
            value = rng.choice(_ROW_WILD_VALUES + [v for vs in _ROW_VALUES.values() for v in vs])
        bindings.append(f"{gap()}{member}{gap()}={gap()}{value}")
    row_id = rng.choice(_ROW_WILD_IDS if wild() else ids)
    return f"row{gap() or ' '}{row_id}{gap()}{{{''.join(bindings)}{gap()}}}"


def _mutated(rng: random.Random, row: str) -> str:
    at = rng.randrange(len(row) + 1)
    edit = rng.randrange(3)
    if edit == 0:  # insert one character
        return row[:at] + rng.choice(_ROW_MUTATIONS) + row[at:]
    if edit == 1:  # delete one character
        return row[:at] + row[at + 1:]
    return row[:at] + rng.choice(_ROW_MUTATIONS) + row[at + 1:]  # replace one


def _row_document(rows: list[str]) -> str:
    targets = 'row y1 { } row "y 2" { } row a.b { }'
    return f"{_ROW_SCHEMA}instance i : S {{\n  entity Y {{ {targets} }}\n  entity X {{ {' '.join(rows)} }}\n}}\n"


def _parse_outcome(text: str) -> tuple:
    env = parse_document(SourceDocument("rows.cmg", text))
    names = {
        name: {e: [elem.name for elem in inst.elements(e)] for e in inst.schema.entities}
        for name, inst in env.instances.items()
    }
    return [str(d) for d in env.diagnostics], names, env.instances


def _assert_rows_parse_as_oracle(
    monkeypatch, texts: list[str], owner=parser_module, name="tokenize", replacement=helpers.oracle_tokenize
) -> list[tuple]:
    """The diagnostics, element names and instances of ``texts`` are those
    with ``replacement`` patched in as ``owner.name``; returns them."""
    outcomes = [_parse_outcome(text) for text in texts]
    with monkeypatch.context() as patched:
        patched.setattr(owner, name, replacement)
        oracle = [_parse_outcome(text) for text in texts]
    for text, (diags, names, insts), (want_diags, want_names, want_insts) in zip(texts, outcomes, oracle):
        assert diags == want_diags, text
        assert names == want_names, text
        assert all(instances_same_data(insts[n], want_insts[n]) for n in insts), text
    return outcomes


def _row_fuzz_texts() -> list[str]:
    """Row-shaped text, mostly well formed, and the same text with one
    character inserted, deleted or replaced."""
    rng = random.Random(0x20C5)
    texts = []
    for _ in range(800):
        rows = [_random_row(rng, k) for k in range(rng.randrange(1, 4))]
        texts.append(_row_document(rows))
        rows[-1] = _mutated(rng, rows[-1])
        texts.append(_row_document(rows))
    return texts


def test_rows_parse_as_the_token_path(monkeypatch):
    """The row fuzz gives the same diagnostics, instances and element names
    whether a well-formed row is read as one token or, under the oracle
    tokenizer, token by token."""
    texts = _row_fuzz_texts()
    for text in texts:
        _assert_tokens_match_oracle(text)
    _assert_rows_parse_as_oracle(monkeypatch, texts)
    rows = [t for text in texts for t in tokenize(SourceDocument("t", text), []) if t.kind == "row"]
    decoded = sum(t.value is not None for t in rows)
    assert 0.6 * len(rows) < decoded < len(rows)  # both paths run, the row path mostly


def test_rows_parse_as_the_token_path_on_hand_made_rows(monkeypatch):
    rows = [
        "row x1 { n = 12b = 3 }",  # an int ends where a word starts: n = 12 and b = 3
        "row x1 { n = 1 } row x1 { n = 2 }",  # a duplicate row id
        "row x1 { n = -1 d = 1.5 s = \"a\\\"b\\n\" b = false f = y1 }",
        "row x1 { s = \"a\\\nb\" n = 5 }",  # a backslash escapes the newline after it
        "row x1 { s = \"\\\n zz = 1\" }",
        "row x1 { d = 1. }",
        "row x1 { n = 1.5 }",
        "row x1 { d = 2 }",  # an int promoted to Double
        "row x1 { f = \"y 2\" }",  # a quoted fk target
        "row x1 { f = a . b }",  # a dotted fk target with spaces
        "row x1 { f = a # comment\n .b }",
        "row x1 { f = null }",
        "row x1 { f = 3 }",
        "row x1 { f = nope }",
        "row x1 { n = y1 }",
        "row x1 { zz = 1 }",
        "row x1 { n = \"unterminated }\n}",
        "row x1 { n = " + "9" * 5000 + " }",
        "row row { }",
        "row x1 { row = 1 }",
        "row x1 { f = a.row }",  # a keyword as a part of a dotted name
        "row a . null { }",
        "row x1 { n = " + "9" * 5000 + " entity = 1 }",  # reported once, by the token path
        "row x1 { n = true }",
        "rowx1 { }",
        "row\"q\"{n=1}",
        "row x1 { s = null.x }",  # a keyword then a dot: the walk stops there
        "row x1 { b = true.y }",
        "row x1 { b = false . z }",
    ]
    texts = [_row_document([row]) for row in rows]
    for text in texts:
        _assert_tokens_match_oracle(text)
    _assert_rows_parse_as_oracle(monkeypatch, texts)


# Rows that bind a member twice, in one row or in two rows of one id
_REPEATED_MEMBER_ROWS = {
    "row x1 { n = 1 n = null }": [],
    "row x1 { n = null n = 1 }": [],
    "row x1 { n = 1 n = 2 }": ["conflicting re-assignment of attribute 'n' on x1: 1 vs 2"],
    "row x1 { d = 2 d = 2.0 }": [],
    "row x1 { f = y1 f = y1 }": [],
    'row x1 { f = y1 f = "y 2" }': ["conflicting re-assignment of foreign key 'f' on x1"],
    "row x1 { f = null f = y1 f = y1 f = a.b }": [
        "foreign key 'f' expects a row id", "conflicting re-assignment of foreign key 'f' on x1"],
    "row x1 { s = \"a\" } row x1 { s = \"a\" s = \"b\" }": [
        "duplicate element id 'x1' in entity 'X'",
        "conflicting re-assignment of attribute 's' on x1: 'a' vs 'b'"],
    "row x1 { n = 1 } row x1 { f = y1 } row x1 { n = 2 f = y1 }": [
        "duplicate element id 'x1' in entity 'X'", "duplicate element id 'x1' in entity 'X'",
        "conflicting re-assignment of attribute 'n' on x1: 1 vs 2"],
}


def test_rows_build_as_the_per_binding_oracle(monkeypatch):
    """Each row folded into one write gives the diagnostics (message, line
    and column), element order and instances of the first build, which
    wrote each binding through ``set_fk`` / ``set_attr``: on the row fuzz
    and on rows that bind a member twice."""
    repeated = [_row_document([row]) for row in _REPEATED_MEMBER_ROWS]
    for text, messages in zip(repeated, _REPEATED_MEMBER_ROWS.values()):
        diagnostics = parse_document(SourceDocument("rows.cmg", text)).diagnostics
        assert [d.message for d in diagnostics] == messages, text
    texts = _row_fuzz_texts() + repeated
    outcomes = _assert_rows_parse_as_oracle(
        monkeypatch, texts, parser_module._Parser, "parse_instance_block",
        helpers.oracle_parse_instance_block,
    )
    accepted = sum(bool(insts) for _, _, insts in outcomes)
    assert 0.3 * len(texts) < accepted < len(texts)


_ROW_PIECES = st.sampled_from(
    ["row", " ", "\n", "#c\n", "{", "}", "=", ".", "x1", "n", "d", "s", "f", "y1", "a", "b",
     "1", "-1", "1.5", "1.", '"q"', '"e\\"', '"\\\n"', "null", "true", "entity"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROW_PIECES, max_size=24))
def test_row_shaped_text_tokenizes_as_the_oracle(pieces):
    _assert_tokens_match_oracle("row x1 {" + "".join(pieces))
    _assert_tokens_match_oracle("".join(pieces))


def test_well_formed_rows_are_single_tokens():
    texts = [
        (helpers.FIXTURES / "example1.cmg").read_text(encoding="utf-8"),
        (helpers.FIXTURES / "example2.cmg").read_text(encoding="utf-8"),
        scaled_example1_document(20),
        helpers.deep_chain_document(10, 3),
    ]
    rng = random.Random(7)
    for _ in range(40):
        schema = helpers.random_schema(rng)
        texts.append(print_canonical(schema) + print_canonical(helpers.random_instance(rng, schema)))
    for text in texts:
        rows = [t for t in tokenize(SourceDocument("t.cmg", text), []) if t.kind == "row"]
        assert all(t.value is not None for t in rows), text
    assert sum(text.count("row ") for text in texts) > 500


def test_integer_literal_too_long_is_a_diagnostic(monkeypatch):
    """Past the interpreter's limit, 4,300 digits by default, ``int()``
    raises; the parser reports the literal instead, on the row path, on the
    token path and in a constraint."""
    too_long, longest = "9" * 4301, "-" + "9" * 4300
    texts = [
        _row_document([f"row x1 {{ n = {too_long} }}"]),
        _row_document([f"row x1 {{ n = {too_long} zz }}"]),  # malformed: the token path
        _ROW_SCHEMA.replace("}\n", f"  constraints forall x : X where x.n = {too_long} -> x.n = 1\n}}\n"),
    ]
    for text in texts:
        diags = [str(d) for d in parse_document(SourceDocument("big.cmg", text)).diagnostics]
        line, col = SourceDocument("big.cmg", text).position(text.index(too_long))
        assert diags[0] == f"big.cmg:{line}:{col}: error: integer literal too long", text
        _assert_tokens_match_oracle(text)
    _assert_rows_parse_as_oracle(monkeypatch, texts)
    env = parse_document(SourceDocument("ok.cmg", _row_document([f"row x1 {{ n = {longest} }}"])))
    inst = env.instances["i"]
    assert env.ok and inst.get_attr(inst.element_named("X", "x1"), "n").value == int(longest)


def test_integer_literal_limit_is_the_interpreters(monkeypatch):
    """The parser asks ``int()`` rather than assuming its limit: under a
    lower one, a literal of 1,000 digits is too long on both paths."""
    text = _row_document([f"row x1 {{ n = {'9' * 1000} }}", f"row x2 {{ n = {'9' * 1000} zz }}"])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        diags = [d.message for d in parse_document(SourceDocument("big.cmg", text)).diagnostics]
        _assert_tokens_match_oracle(text)
        _assert_rows_parse_as_oracle(monkeypatch, [text])
    finally:
        sys.set_int_max_str_digits(limit)
    assert diags[:2] == ["integer literal too long"] * 2
    assert parse_document(SourceDocument("big.cmg", text.replace(" zz", ""))).ok


def test_double_literal_out_of_range_is_a_diagnostic(monkeypatch):
    """A Double literal past the float range would read as ``inf``, which
    prints as a name; the parser reports it at the literal instead, on the
    row path, on the token path and in a constraint, and reads an Int
    literal past that range, given where a Double goes, as an Int."""
    huge, tiny = "9" * 400 + ".5", "-" + "9" * 400 + ".0"
    texts = [
        _row_document([f"row x1 {{ d = {huge} }}"]),
        _row_document([f"row x1 {{ d = {tiny} zz }}"]),  # malformed: the token path
        _ROW_SCHEMA.replace("}\n", f"  constraints forall x : X where x.d = {huge} -> x.n = 1\n}}\n"),
    ]
    for text in texts:
        diags = [str(d) for d in parse_document(SourceDocument("big.cmg", text)).diagnostics]
        literal = huge if huge in text else tiny
        line, col = SourceDocument("big.cmg", text).position(text.index(literal))
        assert diags[0] == f"big.cmg:{line}:{col}: error: double literal out of range", text
        _assert_tokens_match_oracle(text)
    _assert_rows_parse_as_oracle(monkeypatch, texts)
    big_int = "9" * 400
    diags = [d.message for d in parse_document(
        SourceDocument("big.cmg", _row_document([f"row x1 {{ d = {big_int} }}"]))
    ).diagnostics]
    assert diags == ["attribute 'd' has type Double, got Int"]
    constraint = _ROW_SCHEMA.replace("}\n", f"  constraints forall x : X where x.d = {big_int} -> x.n = 1\n}}\n")
    assert not parse_document(SourceDocument("big.cmg", constraint)).ok


def test_printed_doubles_parse_back():
    """``repr`` writes an exponent for large and small doubles; the printer
    writes the same digits positionally, so that the parser reads them."""
    largest = str(int(sys.float_info.max)) + ".0"
    values = [largest, "-" + largest, "1" + "0" * 20 + ".0", "12345678901234567.5", "0.000001", "-0.00005", "2.5"]
    rows = [f"row x{k} {{ d = {value} }}" for k, value in enumerate(values)]
    env = helpers.load_text(_row_document(rows))
    inst = env.instances["i"]
    printed = print_canonical(inst)
    assert "e" not in "".join(line.split("d = ")[1] for line in printed.splitlines() if "d = " in line)
    again, diags = parse_instance(SourceDocument("rt", printed), env.schemas["S"])
    assert not errors(diags) and instances_same_data(again, inst)
    assert [again.get_attr(x, "d").value for x in again.elements("X")] == [
        normalize_double(float(value)) for value in values
    ]


def test_malformed_rows_with_long_skips_parse_in_linear_time():
    """Each skip inside the row pattern is atomic: a row that fails after a
    long run of spaces and comments is not retried on every way to split
    that run, which would take time exponential in its length. The comments
    hold nothing a name or a value could match."""
    spaces = " " * 20_000
    comments = "# !~?\n" * 2_000
    rows = [
        f"row a{spaces}.{comments}{spaces}1 {{ n = 1 }}",  # a number after the dot
        f"row a {{ n ={spaces}{comments} }}",  # no value
        f"row a {{ f = y{spaces}.{comments}{spaces} }}",  # a dot with no part after it
        f"row a {{ n = 1{spaces}{comments}= 2 }}",  # no member
        f"row a {{{comments}{spaces}n{spaces}{comments}= 1 {comments} . }}",  # a stray dot
    ]
    for row in rows:
        text = _row_document([row])
        start = time.perf_counter()
        env = parse_document(SourceDocument("long.cmg", text))
        assert time.perf_counter() - start < 1.0
        assert not env.ok
