from __future__ import annotations

import dataclasses
import random
import re

import pytest

import helpers
from catamerge import (
    Constraint,
    Path,
    Schema,
    SchemaError,
    chase,
    check_weak_acyclicity,
    classify_constraint,
    compose_paths,
    validate_schema,
)
from catamerge.instance import Const, new_instance
from catamerge.schema import (
    Attribute,
    Cmp,
    Eq,
    ExtensionSpec,
    ForeignKey,
    FunApp,
    PathApp,
    Var,
    path_codomain,
)
from catamerge.typeside import BaseType, resolve_function


def brick_schema():
    env = helpers.load_fixture("example1.cmg")
    return env.schemas["BRICK"]


def test_validate_brick_schema_clean():
    report = validate_schema(brick_schema())
    assert report.ok
    assert report.issues == []


def test_validate_dangling_fk_target_names_ghost():
    s = Schema("S", ("A",), (ForeignKey("f", "A", "Ghost"),))
    report = validate_schema(s)
    assert len(report.issues) == 1
    assert "Ghost" in report.issues[0].message


def test_validate_duplicate_attribute_names():
    s = Schema(
        "S",
        ("A",),
        (),
        (Attribute("name", "A", BaseType.STRING), Attribute("name", "A", BaseType.INT)),
    )
    report = validate_schema(s)
    assert len(report.issues) == 1
    assert "duplicate" in report.issues[0].message


def test_validate_fk_attr_shared_namespace():
    s = Schema(
        "S",
        ("A", "B"),
        (ForeignKey("x", "A", "B"),),
        (Attribute("x", "A", BaseType.STRING),),
    )
    assert not validate_schema(s).ok


def test_schema_takes_only_its_data():
    """The lookup tables are derived from the members: neither fields nor
    arguments, and a ``replace`` copy builds its own."""
    assert [f.name for f in dataclasses.fields(Schema)] == [
        "name", "entities", "foreign_keys", "attributes", "constraints",
    ]
    with pytest.raises(TypeError):
        Schema("S", attr_rank={})
    fk, attr = ForeignKey("f", "A", "B"), Attribute("a", "A", BaseType.INT)
    rule = Constraint((("x", "A"),), (), (), (Eq(Var("x"), Var("x")),))
    copy = dataclasses.replace(Schema("S", ("A", "B"), (fk,), (attr,)), constraints=(rule,))
    assert (copy.fk("A", "f"), copy.attr("A", "a"), copy.fks_of("A"), copy.attrs_of("A")) == (
        fk, attr, (fk,), (attr,)
    )
    assert copy.attr_rank == {("A", "a"): 0}


def test_compose_equipment_location_area(example1):
    _, combined, _ = example1
    schema = combined.schema
    p = Path("Equipment", ("hasLocation",))
    q = Path("Location", (), "spaceArea")
    composed = compose_paths(p, q, schema)
    assert composed == Path("Equipment", ("hasLocation",), "spaceArea")
    assert path_codomain(composed, schema) is BaseType.DOUBLE


def test_compose_with_identity_is_noop():
    brick = brick_schema()
    p = Path("Equipment", ("hasLocation",))
    assert compose_paths(p, Path("Location"), brick) == p
    assert compose_paths(Path("Equipment"), p, brick) == p


def test_compose_lease_style_chain():
    env = helpers.load_fixture("example2.cmg")
    combined = __import__("catamerge").combine_schemas(env.extensions["CombinedThreeWay"])
    schema = combined.schema
    p = Path("REC_Lease", ("leaseOf",))
    q = Path("Location", ("isPartOf", "hasPoint"))
    composed = compose_paths(p, q, schema)
    assert composed.fks == ("leaseOf", "isPartOf", "hasPoint")
    assert path_codomain(composed, schema) == "BRICK_SetPoint"


def test_compose_rejects_mismatched_entities():
    brick = brick_schema()
    p = Path("Equipment", ("hasPoint",))  # lands on Point
    q = Path("Location", ("isPartOf",))
    with pytest.raises(SchemaError) as err:
        compose_paths(p, q, brick)
    assert "Point" in str(err.value) and "Location" in str(err.value)


def test_compose_rejects_attribute_prefix():
    brick = brick_schema()
    p = Path("Equipment", (), "equipmentName")
    with pytest.raises(SchemaError):
        compose_paths(p, Path("Location"), brick)


def test_compose_associativity_on_random_paths():
    brick = brick_schema()
    rng = random.Random(7)
    found = 0
    for _ in range(600):
        root = rng.choice(brick.entities)
        segments = []
        current = root
        for _ in range(3):
            fks = []
            for _ in range(rng.randint(1, 2)):
                options = brick.fks_of(current)
                if not options:
                    break
                fk = rng.choice(options)
                fks.append(fk.name)
                current = fk.target
            if not fks:
                break
            segments.append(fks)
        if len(segments) != 3:
            continue
        found += 1
        starts = [root]
        for seg in segments[:-1]:
            s = starts[-1]
            for name in seg:
                s = brick.fk(s, name).target
            starts.append(s)
        p, q, r = (
            Path(starts[0], tuple(segments[0])),
            Path(starts[1], tuple(segments[1])),
            Path(starts[2], tuple(segments[2])),
        )
        left = compose_paths(compose_paths(p, q, brick), r, brick)
        right = compose_paths(p, compose_paths(q, r, brick), brick)
        assert left == right
    assert found > 50


def test_classify_example_constraints():
    env = helpers.load_fixture("example2.cmg")
    cs = env.extensions["CombinedThreeWay"].constraints
    # name-unification and area-copy rules are equality-generating
    assert classify_constraint(cs[0]) == "EGD"
    assert classify_constraint(cs[2]) == "EGD"
    tgd = Constraint(
        universals=(("e", "Equipment"),),
        premise=(),
        existentials=(("p", "Point"),),
        conclusion=(Eq(PathApp("e", Path("Equipment", ("hasPoint",))), Var("p")),),
    )
    assert classify_constraint(tgd) == "TGD"


def test_classify_stable_under_premise_reordering():
    env = helpers.load_fixture("example2.cmg")
    for c in env.extensions["CombinedThreeWay"].constraints:
        reordered = Constraint(c.universals, tuple(reversed(c.premise)), c.existentials, c.conclusion)
        assert classify_constraint(reordered) == classify_constraint(c)


def test_weak_acyclicity_example1_matches_hand_built_graph(example1):
    _, combined, _ = example1
    result = check_weak_acyclicity(list(combined.schema.constraints), combined.schema)
    assert result.acyclic
    assert result.witness is None
    # Hand-derived dependency edges for the two commissioning rules: the
    # spatial alignment touches hasLocation/elementInSpace, the device-tag
    # rule walks sensorAttachedTo then hasPoint and reads hasPropertySet.
    got = {(e.source, e.target, e.via) for e in result.edges}
    expected = {
        ("Equipment", "Location", "hasLocation"),
        ("Equipment", "Location", "elementInSpace"),
        ("IFC_IfcSensor", "Equipment", "sensorAttachedTo"),
        ("Equipment", "BRICK_Point", "hasPoint"),
        ("IFC_IfcSensor", "IFC_PropertySet", "hasPropertySet"),
    }
    assert got == expected
    assert all(e.existential for e in result.edges)
    # independent cycle search over the same edges
    assert not helpers.oracle_has_existential_cycle(
        [(e.source, e.target, e.existential) for e in result.edges]
    )


def test_weak_acyclicity_empty_set_on_random_schemas():
    rng = random.Random(11)
    for _ in range(25):
        schema = helpers.random_schema(rng)
        assert check_weak_acyclicity([], schema).acyclic


def test_weak_acyclicity_self_feeding_tgd():
    schema = Schema("S", ("E",), (ForeignKey("next", "E", "E"),))
    c = Constraint(
        universals=(("e", "E"),),
        premise=(),
        existentials=(("e2", "E"),),
        conclusion=(Eq(PathApp("e", Path("E", ("next",))), Var("e2")),),
    )
    result = check_weak_acyclicity([c], schema)
    assert not result.acyclic
    assert result.witness, "a witnessing cycle is reported"
    assert any(e.existential for e in result.witness)


def test_weak_acyclicity_agrees_with_oracle_on_random_sets():
    rng = random.Random(23)
    for _ in range(150):
        schema = helpers.random_schema(rng)
        constraints = helpers.random_constraints(rng, schema, rng.randint(1, 4))
        if not constraints:
            continue
        result = check_weak_acyclicity(constraints, schema)
        oracle = helpers.oracle_has_existential_cycle(
            [(e.source, e.target, e.existential) for e in result.edges]
        )
        assert result.acyclic == (not oracle)


def test_validation_fuzz_mutated_declarations():
    base = brick_schema()
    rng = random.Random(41)
    for _ in range(120):
        entities = list(base.entities)
        fks = list(base.foreign_keys)
        attrs = list(base.attributes)
        mutation = rng.randrange(4)
        if mutation == 0:
            i = rng.randrange(len(fks))
            fks[i] = ForeignKey(fks[i].name, fks[i].source, "Ghost" + str(rng.randrange(3)))
        elif mutation == 1:
            i = rng.randrange(len(attrs))
            j = rng.randrange(len(attrs))
            attrs[i] = Attribute(attrs[j].name, attrs[j].source, attrs[i].type)
        elif mutation == 2:
            entities.append(rng.choice(entities))
        else:
            i = rng.randrange(len(fks))
            fks[i] = ForeignKey(fks[i].name, "Nowhere", fks[i].target)
        mutated = Schema(base.name, tuple(entities), tuple(fks), tuple(attrs))
        report = validate_schema(mutated)
        if mutated == base:
            assert report.ok
        else:
            assert not report.ok


# -- the conclusion plan against the per-firing analysis ------------------------

def _conclusion_shape(c: Constraint) -> tuple:
    return c.plan.enforce, c.plan.defer, c.plan.stuck


def test_conclusion_plan_agrees_with_oracle_on_fixtures(example1, example2):
    for _, combined, _ in (example1, example2):
        for c in combined.schema.constraints:
            assert _conclusion_shape(c) == helpers.oracle_conclusion_shape(c)


def test_conclusion_plan_agrees_with_oracle_on_random_function_sides():
    rng = random.Random(11)
    seen = set()
    for k in range(300):
        c = helpers.random_function_side_constraint(rng)
        enforce, defer, stuck = _conclusion_shape(c)
        assert (enforce, defer, stuck) == helpers.oracle_conclusion_shape(c), k
        # the firing's decision too, with x.b and x.c each null or set
        inst = new_instance(helpers.FUNCTION_SIDE_SCHEMA)
        x = inst.add_element("X", "x1")
        for attr in ("b", "c"):
            if rng.random() < 0.5:
                inst.set_attr(x, attr, Const(BaseType.INT, rng.randint(0, 3)))
        oracle_defers = helpers.oracle_defers(inst, c, {"x": x})
        assert helpers.plan_defers(inst, c, {"x": x}) == oracle_defers, k
        functions = [side for eq in c.conclusion for side in (eq.left, eq.right)
                     if isinstance(side, FunApp)]
        seen.add((
            stuck,
            oracle_defers,
            bool(defer),
            any(t not in functions for t in defer),  # read through an existential
            tuple(eq for eq, _ in enforce) != c.conclusion,
        ))
    for field in range(5):
        assert {s[field] for s in seen} == {False, True}, field


# -- the API door: hand-built schemas and constraints ---------------------------

ST, INT = BaseType.STRING, BaseType.INT
DOOR = Schema(
    "S", ("X", "Y"), (ForeignKey("f", "X", "Y"),), (Attribute("k", "X", ST), Attribute("n", "X", INT))
)
X_K, X_N, X_F = (PathApp("x", Path("X", fks, attr)) for fks, attr in (((), "k"), ((), "n"), (("f",), None)))
ADD = resolve_function("add", (INT, INT))


def _rule(conclusion, premise=(), universals=(("x", "X"),), existentials=()) -> Constraint:
    return Constraint(universals, premise, existentials, conclusion)


@pytest.mark.parametrize("c, message", [
    (_rule((Eq(PathApp("x", Path("X", ("g",))), X_F),)), "'g' is not a foreign key of entity 'X'"),
    (_rule((Eq(PathApp("x", Path("X", ("f",), "k")), X_K),)), "'k' is not an attribute of entity 'Y'"),
    (_rule((Eq(Var("z"), Var("x")),)), "unbound variable 'z'"),
    (_rule((Eq(PathApp("z", Path("X", (), "k")), X_K),)), "unbound variable 'z'"),
    (_rule((Eq(PathApp("x", Path("Y")), X_F),)), "variable 'x' has entity 'X', but path starts at 'Y'"),
    (_rule((Eq(FunApp(ADD, (Var("x"), X_N)), X_N),)), "function argument 'Var(name='x')' is entity-typed"),
    (_rule((Eq("x", Var("x")),)), "unknown term 'x'"),
    (_rule((), universals=(("x", "X"), ("x", "Y"))), "variable 'x' bound twice"),
    (_rule((), universals=(("x", "Z"),)), "binder 'x' ranges over unknown entity 'Z'"),
    (_rule((Eq(X_F, Var("y")),), premise=(Eq(X_F, Var("y")),), existentials=(("y", "Y"),)),
     "premise mentions existential variables"),
    (_rule((Eq(X_K, X_N),)), "equation relates 'String' with 'Int'"),
    (_rule((), premise=(Cmp("<", X_F, X_F),)), "predicate atoms compare base-typed terms only"),
    (_rule((), premise=(Cmp("<", X_K, X_N),)), "predicate '<' undefined on (String, Int)"),
    (_rule((Cmp("<", X_N, X_N),)), "predicates may not appear in conclusions"),
], ids=["path fk", "path attribute", "unbound variable", "unbound path variable", "path off its variable",
        "entity argument", "unknown term", "bound twice", "unknown entity", "existential in premise",
        "sorts differ", "entity comparison", "undefined predicate", "predicate in conclusion"])
def test_chase_refuses_an_ill_typed_constraint(c, message):
    """The parser types every constraint it reads; the chase types one that a
    caller builds, and refuses it with ``check_constraint``'s message."""
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        chase(new_instance(DOOR), [c])


def test_path_codomain_refuses_an_unknown_root():
    """A binder's entity is checked before its path, so only a caller of
    ``path_codomain`` or ``compose_paths`` meets an unknown root."""
    with pytest.raises(SchemaError, match="^path root 'Z' is not an entity$"):
        path_codomain(Path("Z", (), "k"), DOOR)
    with pytest.raises(SchemaError, match="^path root 'Z' is not an entity$"):
        compose_paths(Path("Z"), Path("X"), DOOR)


@pytest.mark.parametrize("schema, issues", [
    (Schema("S", ("X",), (ForeignKey("f", "X", "X"), ForeignKey("f", "X", "X"))),
     ["f: duplicate member name on entity 'X'"]),
    (Schema("S", ("X",), (), (Attribute("a", "Ghost", ST),)),
     ["a: attribute source 'Ghost' is not a declared entity"]),
    (Schema("S", ("X",), (), (Attribute("a", "X", "Text"),)),
     ["a: attribute codomain 'Text' is not a base type"]),
    (Schema("S", ("X",), constraints=(_rule(()), _rule((), universals=(("x", "Z"),)))),
     ["constraint #2: binder 'x' ranges over unknown entity 'Z'"]),
], ids=["duplicate fk", "attribute on no entity", "not a base type", "ill-typed constraint"])
def test_validate_schema_reports(schema, issues):
    assert [str(issue) for issue in validate_schema(schema).issues] == issues


def test_schema_named_refuses_a_schema_not_included():
    ext = ExtensionSpec("E", (DOOR,), ())
    assert ext.schema_named("S") is DOOR
    with pytest.raises(SchemaError, match="^extension E does not include schema 'T'$"):
        ext.schema_named("T")


def test_weak_acyclicity_refuses_an_unknown_foreign_key():
    """The guard reads foreign keys from the schema; a constraint that no
    ``check_constraint`` has typed may name one it does not have."""
    c = _rule((Eq(PathApp("x", Path("X", ("g",))), X_F),))
    with pytest.raises(SchemaError, match="^'g' is not a foreign key of 'X'$"):
        check_weak_acyclicity([c], DOOR)
