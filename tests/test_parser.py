from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import helpers
from catamerge import (
    classify_constraint,
    combine_schemas,
    instances_same_data,
    parse_constraint,
    parse_extension,
    parse_instance,
    parse_query,
    parse_schema,
    print_canonical,
)
from catamerge import parser as parser_module
from catamerge.parser import SourceDocument, parse_document, tokenize
from catamerge.schema import Cmp, Schema
from catamerge.typeside import BaseType

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


def _assert_token_positions(text: str) -> list:
    doc = SourceDocument("t.cmg", text)
    tokens = tokenize(doc, [])
    expected = helpers.oracle_tokenize(doc, [])
    assert len(tokens) == len(expected), text
    for tok, want in zip(tokens, expected):
        assert tok.pos == want.pos, (text, tok, want)
        assert (want.line, want.column) == doc.position(tok.pos), (text, tok, want)
    return tokens


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


def _assert_tokens_match_oracle(text: str) -> None:
    doc = SourceDocument("t.cmg", text)
    diags: list = []
    oracle_diags: list = []
    got = [(t.kind, t.text, t.pos, t.value, type(t.value)) for t in tokenize(doc, diags)]
    want = [
        (t.kind, t.text, t.pos, t.value, type(t.value))
        for t in helpers.oracle_tokenize(doc, oracle_diags)
    ]
    assert got == want, text
    assert diags == oracle_diags, text


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
