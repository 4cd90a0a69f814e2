from __future__ import annotations

import itertools
import random
from contextlib import nullcontext

import pytest

import helpers
from catamerge import (
    CatamergeError,
    ConstantClash,
    Instance,
    InstanceError,
    UNDEFINED,
    chase,
    check_model,
    delta_project,
    eval_path,
    evaluate,
    explain,
    instance_csvs,
    new_instance,
    print_canonical,
    result_table_csv,
    roundtrip_report,
    sigma_insert,
    verify_universality,
)
from catamerge.generators import scaled_example1_document
from catamerge.instance import (
    ElementId,
    NullRef,
    VirtualElem,
    _join_key,
    eval_term,
    instances_same_data,
    values_equal,
)
from catamerge.integrate import combine_schemas
from catamerge.parser import SourceDocument, parse_document
from catamerge.schema import Attribute, Const, ForeignKey, Path, PathApp, Schema
from catamerge.typeside import BaseType


def test_new_instance_brick_all_entities_empty(example1):
    env, _, _ = example1
    inst = new_instance(env.schemas["BRICK"])
    assert all(inst.elements(e) == [] for e in inst.schema.entities)


def test_new_instance_empty_schema():
    inst = new_instance(Schema("Empty"))
    assert inst.schema.entities == ()


def test_instances_are_independent(example1):
    env, _, _ = example1
    a = new_instance(env.schemas["BRICK"])
    b = new_instance(env.schemas["BRICK"])
    a.add_element("Zone", "z1")
    assert b.elements("Zone") == []


def test_builder_fig4_instance(example1):
    env, _, _ = example1
    ifc = env.schemas["IFC"]
    inst = new_instance(ifc)
    tags = ["R240", "R260", "R200", "R440", "R460"]
    for i, tag in enumerate(tags, start=1):
        sp = inst.add_element("IfcSpace", f"sp_{i}")
        el = inst.add_element("IfcDistributionElement", f"el_{i}")
        sn = inst.add_element("IfcSensor", f"sn_{i}")
        ps = inst.add_element("PropertySet", f"ps_{i}")
        inst.set_attr(sp, "spaceName", Const(BaseType.STRING, f"Room {tag[1:]}"))
        inst.set_fk(el, "elementInSpace", sp)
        inst.set_fk(sn, "sensorAttachedTo", el)
        inst.set_fk(sn, "hasPropertySet", ps)
        inst.set_attr(ps, "deviceId", Const(BaseType.STRING, f"TUC.245.77.{tag}"))
    total = sum(len(inst.elements(e)) for e in ifc.entities)
    assert total == 20
    assert inst.get_attr(
        inst.element_named("PropertySet", "ps_1"), "deviceId"
    ) == Const(BaseType.STRING, "TUC.245.77.R240")


def test_set_attr_null_stores_labelled_null(example2):
    env, _, _ = example2
    brick = env.schemas["BRICK"]
    inst = new_instance(brick)
    sp = inst.add_element("SetPoint", "sp1")
    inst.set_attr(sp, "setPointValue", None)
    # the cell keeps its own labelled null, unobserved: it reads as the
    # cell's own name, and the read enters no name
    value = inst.get_attr(sp, "setPointValue")
    assert value == NullRef(sp, "setPointValue") and helpers.unobserved(inst, value)
    assert len(inst._null_parent) == 0 and not inst._rows[sp]


def test_set_fk_wrong_target_entity(example1):
    env, _, _ = example1
    brick = env.schemas["BRICK"]
    inst = new_instance(brick)
    eq = inst.add_element("Equipment", "e1")
    zn = inst.add_element("Zone", "z1")
    with pytest.raises(InstanceError):
        inst.set_fk(eq, "hasPoint", zn)


def test_set_attr_conflicting_reassignment(example1):
    env, _, _ = example1
    inst = new_instance(env.schemas["IFC"])
    sp = inst.add_element("IfcSpace", "r")
    inst.set_attr(sp, "spaceArea", Const(BaseType.DOUBLE, 18.68))
    inst.set_attr(sp, "spaceArea", Const(BaseType.DOUBLE, 18.68))  # same value: fine
    with pytest.raises(InstanceError):
        inst.set_attr(sp, "spaceArea", Const(BaseType.DOUBLE, 17.12))


def test_set_attr_anchors_a_unified_null_in_either_order():
    schema = Schema("U", ("E",), (), (Attribute("a", "E", BaseType.INT),))
    one = Const(BaseType.INT, 1)
    for set_first in (True, False):
        inst = new_instance(schema)
        e, f = inst.add_element("E", "e"), inst.add_element("E", "f")
        if set_first:
            inst.set_attr(e, "a", one)
        inst.union_attrs(e, "a", f, "a")
        if not set_first:
            inst.set_attr(e, "a", one)
        assert inst.get_attr(f, "a") == one, set_first
        # the builder's errors stay, now for every cell of the class
        inst.set_attr(f, "a", one)
        with pytest.raises(InstanceError, match="conflicting re-assignment"):
            inst.set_attr(f, "a", Const(BaseType.INT, 2))
        with pytest.raises(InstanceError, match="has type"):
            inst.set_attr(f, "a", Const(BaseType.STRING, "1"))


def test_eval_path_device_id_after_chase(example1_saturated):
    _, combined, _, result = example1_saturated
    sat = result.instance
    sensor = sat.element_named("IFC_IfcSensor", "IFC.sn_1")
    path = Path("IFC_IfcSensor", ("sensorAttachedTo", "hasPoint"), "timeseriesId")
    assert eval_path(sat, sensor, path) == Const(BaseType.STRING, "TUC.245.77.R240")


def test_eval_path_identity_and_undefined(example1):
    _, _, pre = example1
    elem = pre.element_named("Equipment", "IFC.el_1")
    assert eval_path(pre, elem, Path("Equipment")) == elem
    # hasLocation is only assigned by the chase
    assert eval_path(pre, elem, Path("Equipment", ("hasLocation",))) is UNDEFINED


def test_eval_path_entity_mismatch(example1):
    _, _, pre = example1
    elem = pre.element_named("Equipment", "IFC.el_1")
    with pytest.raises(InstanceError):
        eval_path(pre, elem, Path("Location"))


def test_merge_unifies_location_attributes(example2):
    _, _, pre = example2
    brick_loc = pre.element_named("Location", "BRICK.loc_1")
    ifc_space = pre.element_named("Location", "IFC.sp_1")
    report = pre.copy().merge_elements(brick_loc, ifc_space)
    assert report.changed
    merged = pre.copy()
    merged.merge_elements(brick_loc, ifc_space)
    root = merged.find(brick_loc)
    assert merged.get_attr(root, "spaceName") == Const(BaseType.STRING, "Room 240")
    assert merged.get_attr(root, "spaceArea") == Const(BaseType.DOUBLE, 18.68)
    assert merged.get_attr(root, "locationName") == Const(BaseType.STRING, "Room 240")


def test_merge_self_is_noop(example2):
    _, _, pre = example2
    inst = pre.copy()
    elem = inst.element_named("Location", "BRICK.loc_1")
    report = inst.merge_elements(elem, elem)
    assert not report.changed and report.pairs == []


def test_merge_conflicting_areas_clashes(example2):
    env, _, _ = example2
    inst = new_instance(env.schemas["IFC"])
    a = inst.add_element("IfcSpace", "a")
    b = inst.add_element("IfcSpace", "b")
    for elem, area in ((a, 18.68), (b, 17.12)):
        inst.set_attr(elem, "spaceName", Const(BaseType.STRING, "Room 240"))
        inst.set_attr(elem, "spaceArea", Const(BaseType.DOUBLE, area))
    with pytest.raises(ConstantClash) as err:
        inst.merge_elements(a, b)
    assert err.value.attribute == "spaceArea"
    assert {err.value.first, err.value.second} == {18.68, 17.12}


def test_merge_requires_same_entity(example2):
    _, _, pre = example2
    inst = pre.copy()
    a = inst.element_named("Location", "IFC.sp_1")
    b = inst.element_named("REC_Lease", "REC.ls_1")
    with pytest.raises(InstanceError):
        inst.merge_elements(a, b)


def test_merge_random_sequences_match_naive_partition(example2):
    _, _, pre = example2
    rng = random.Random(3)
    elems = pre.elements("Location")
    # avoid constant clashes: merge only same-room elements across sources
    groups = {}
    for e in elems:
        groups.setdefault(e.name.split("_")[-1], []).append(e)
    for trial in range(20):
        inst = pre.copy()
        naive: dict = {e: {e} for e in elems}
        pairs = []
        for _ in range(rng.randint(1, 6)):
            room = rng.choice(list(groups))
            a, b = rng.sample(groups[room], 2) if len(groups[room]) >= 2 else (None, None)
            if a is None:
                continue
            pairs.append((a, b))
        for a, b in pairs:
            inst.carrier("Location")  # fill the cache the merge must drop
            inst.merge_elements(a, b)
            assert inst.carrier("Location") == helpers.oracle_carrier(inst, "Location")
            union = naive[a] | naive[b]
            for m in union:
                naive[m] = union
        # reflexive, symmetric, transitive closure agrees with the union-find
        for x, y in itertools.combinations(elems, 2):
            assert inst.same(x, y) == (y in naive[x])
        inst.carrier("Location")
        inst.add_element("Location", f"added_{trial}")
        assert inst.carrier("Location") == helpers.oracle_carrier(inst, "Location")


def test_merge_congruence_closure(example2):
    _, _, pre = example2
    inst = pre.copy()
    # merging two rooms' locations must clash their areas... pick consistent
    # case instead: merge IFC and BRICK location of one room, then check the
    # isPartOf image is shared by both original handles.
    a = inst.element_named("Location", "IFC.sp_3")
    b = inst.element_named("Location", "BRICK.loc_3")
    inst.merge_elements(a, b)
    assert inst.get_fk(a, "isPartOf") == inst.get_fk(b, "isPartOf")
    assert inst.same(a, b)


def test_congruence_propagates_through_shared_fk(example1):
    env, _, _ = example1
    brick = env.schemas["BRICK"]
    inst = new_instance(brick)
    e1 = inst.add_element("Equipment", "e1")
    e2 = inst.add_element("Equipment", "e2")
    p1 = inst.add_element("Point", "p1")
    p2 = inst.add_element("Point", "p2")
    inst.set_fk(e1, "hasPoint", p1)
    inst.set_fk(e2, "hasPoint", p2)
    inst.merge_elements(e1, e2)
    assert inst.same(p1, p2), "congruence merges the shared foreign-key images"


def test_eval_path_composes(example2_saturated):
    _, combined, _, result = example2_saturated
    sat = result.instance
    lease = sat.element_named("REC_Lease", "REC.ls_2")
    p = Path("REC_Lease", ("leaseOf",))
    q = Path("Location", ("isPartOf",), None)
    via_steps = eval_path(sat, eval_path(sat, lease, p), q)
    direct = eval_path(sat, lease, Path("REC_Lease", ("leaseOf", "isPartOf")))
    assert via_steps == direct


def test_check_model_example1_satisfied(example1_saturated):
    _, combined, _, result = example1_saturated
    report = check_model(result.instance, list(combined.schema.constraints))
    assert report.ok


def test_check_model_vacuous_on_empty_instance(example1):
    _, combined, _ = example1
    empty = new_instance(combined.schema)
    report = check_model(empty, list(combined.schema.constraints))
    assert report.ok


def test_check_model_prechase_violates_device_rule(example1):
    _, combined, pre = example1
    report = check_model(pre, list(combined.schema.constraints))
    assert not report.ok
    violated = report.violations()
    # both rules are unsatisfied before the chase; the device-tag rule (#2)
    # has five premise matches, one per sensor, and reports the first
    by_index = {v.index: v for v in violated}
    assert 2 in by_index
    witness = by_index[2].witness
    assert witness is not None and witness["s"] == "IFC.sn_1"


def test_check_model_order_independent(example1):
    _, combined, pre = example1
    cs = list(combined.schema.constraints)
    fwd = check_model(pre, cs)
    rev = check_model(pre, list(reversed(cs)))
    fwd_map = {id(c.constraint): c.satisfied for c in fwd.checks}
    rev_map = {id(c.constraint): c.satisfied for c in rev.checks}
    assert fwd_map == rev_map


def test_null_class_cannot_anchor_two_constants(example2):
    _, _, pre = example2
    inst = pre.copy()
    sp = inst.element_named("BRICK_SetPoint", "BRICK.stp_1")
    assert inst.assign_attr(sp, "setPointValue", Const(BaseType.DOUBLE, 22.0))
    with pytest.raises(ConstantClash):
        inst.assign_attr(sp, "setPointValue", Const(BaseType.DOUBLE, 26.0))


def test_frozen_instance_rejects_mutation(example1_saturated):
    _, _, _, result = example1_saturated
    with pytest.raises(InstanceError):
        result.instance.add_element("BRICK_Zone", "zz")


def test_copy_is_detached(example2):
    _, _, pre = example2
    inst = pre.copy()
    a = inst.element_named("Location", "IFC.sp_1")
    b = inst.element_named("Location", "BRICK.loc_1")
    inst.merge_elements(a, b)
    assert not pre.same(a, b)
    assert instances_same_data(pre, pre.copy())


def _identity_instances(example1_saturated, example2_saturated):
    """Both fixtures before and after saturation, and 200 seeded random
    weakly acyclic cases before and after their chase."""
    out = []
    for _, _, pre, result in (example1_saturated, example2_saturated):
        out += [pre, result.instance]
    rng = random.Random(31)
    for _ in range(200):
        _, inst, constraints = helpers.random_weakly_acyclic_case(rng)
        out += [inst, chase(inst, constraints).instance]
    return out


def test_identity_agrees_with_oracles(example1_saturated, example2_saturated):
    """export_id is the root's name, element_named a dict lookup and carrier
    sorted by root name; each must agree with the scanning oracles."""
    shapes = set()
    for inst in _identity_instances(example1_saturated, example2_saturated):
        for entity in inst.schema.entities:
            for elem in inst.elements(entity):
                assert inst.export_id(elem) == helpers.oracle_export_id(inst, elem)
                found = inst.element_named(entity, elem.name)
                assert found is helpers.oracle_element_named(inst, entity, elem.name) is elem
                members = inst.members(elem)
                if len(members) > 1:
                    shapes.add((any(m.fresh for m in members), all(m.fresh for m in members)))
            assert inst.carrier(entity) == helpers.oracle_carrier(inst, entity)
            assert inst.element_named(entity, "no such row") is None
            assert helpers.oracle_element_named(inst, entity, "no such row") is None
        assert inst.element_named("NoSuchEntity", "x") is None
    # Merged classes of user rows only, and of user rows with fresh ones.
    assert {(False, False), (True, False)} <= shapes


def test_copy_has_its_own_name_index(example2):
    _, _, pre = example2
    before = pre.elements("Location")
    inst = pre.copy()
    added = inst.add_element("Location", "copy_only")
    assert inst.element_named("Location", "copy_only") is added
    assert pre.element_named("Location", "copy_only") is None
    assert pre.elements("Location") == before
    assert [inst.element_named("Location", e.name) for e in before] == before


def test_element_id_equals_no_other_value_kind():
    """Join keys of different value kinds stay apart, so an element never
    lands in the bucket of a virtual element, constant or null."""
    inst = new_instance(Schema("S", ("E",), (), (Attribute("a", "E", BaseType.STRING),)), "ids")
    elem = inst.add_element("E", "a")
    others = [
        VirtualElem(elem, ()),
        VirtualElem(elem, ("a",)),
        Const("E", "a"),
        Const(BaseType.STRING, "a"),
        NullRef(elem, "a"),
        NullRef(ElementId("E", "a", True), "a"),
    ]
    for other in others:
        assert elem != other and other != elem
    values = [elem] + others[:4] + [inst.get_attr(elem, "a")]
    keys = [_join_key(inst, v) for v in values]
    assert all(a != b for a, b in itertools.combinations(keys, 2))
    assert ElementId("E", "a") == elem and hash(ElementId("E", "a")) == hash(elem)
    assert ElementId("E", "a", True) != elem


def test_carrier_is_a_new_list_per_call_and_per_copy(example2):
    _, _, pre = example2
    inst = pre.copy()
    first = inst.carrier("Location")
    expected = list(first)
    first.clear()
    assert inst.carrier("Location") == expected
    copy = inst.copy()
    a = copy.element_named("Location", "IFC.sp_1")
    b = copy.element_named("Location", "BRICK.loc_1")
    copy.merge_elements(a, b)
    assert inst.carrier("Location") == expected
    assert copy.carrier("Location") == helpers.oracle_carrier(copy, "Location") != expected
    with pytest.raises(InstanceError, match="is not an entity"):
        inst.carrier("NoSuchEntity")


def test_member_tables_agree_with_scans(example1_saturated, example2_saturated):
    schemas = [combined.schema for _, combined, _, _ in (example1_saturated, example2_saturated)]
    schemas += [inst.schema for inst in _identity_instances(example1_saturated, example2_saturated)]
    for schema in schemas:
        for entity in schema.entities + ("NoSuchEntity",):
            assert schema.fks_of(entity) == tuple(helpers.oracle_fks_of(schema, entity))
            assert schema.attrs_of(entity) == tuple(helpers.oracle_attrs_of(schema, entity))


def test_find_roots_unknown_and_equal_ids(example2):
    _, _, pre = example2
    inst = pre.copy()
    with pytest.raises(InstanceError, match="unknown element"):
        inst.find(ElementId("Location", "no such row"))
    a = inst.element_named("Location", "IFC.sp_2")
    b = inst.element_named("Location", "BRICK.loc_2")
    assert inst.find(a) is a
    assert inst.find(ElementId(a.entity, a.name)) is a
    inst.merge_elements(a, b)
    root = inst.find(b)
    for stored in (a, b):
        equal = ElementId(stored.entity, stored.name, stored.fresh)
        assert equal is not stored
        assert inst.find(equal) == root == inst.find(stored)
    (merged_away,) = {a, b} - {root}
    with pytest.raises(InstanceError, match="is not a class root"):
        inst.row(merged_away)
    equal_root = ElementId(root.entity, root.name, root.fresh)
    assert inst.row(equal_root) is inst.row(root)


def test_get_attr_reads_null_classes_and_anchors():
    attrs = (Attribute("a", "E", BaseType.INT), Attribute("b", "E", BaseType.INT))
    schema = Schema("S", ("E",), (), attrs)
    inst = new_instance(schema, "nulls")
    e = inst.add_element("E", "e")
    f = inst.add_element("E", "f")

    # before any union each cell reads as its own name, and no read enters one
    for elem in (e, f):
        for attr in ("a", "b"):
            value = inst.get_attr(elem, attr)
            assert value == NullRef(elem, attr) and helpers.unobserved(inst, value)
    assert len(inst._null_parent) == 0
    inst.union_attrs(e, "a", f, "b")
    inst.union_attrs(f, "b", e, "b")
    names = len(inst._null_parent)
    for elem, attr in ((e, "a"), (e, "b"), (f, "b")):
        name = inst._rows[elem][attr]
        assert inst.get_attr(elem, attr) == inst.null_find(name)
    merged = inst.get_attr(e, "a")
    assert inst.get_attr(e, "b") == inst.get_attr(f, "b") == merged != inst.get_attr(f, "a")
    assert inst.get_attr(f, "a") == NullRef(f, "a") and helpers.unobserved(inst, NullRef(f, "a"))
    inst.assign_attr(f, "b", Const(BaseType.INT, 7))
    for elem, attr in ((e, "a"), (e, "b"), (f, "b")):
        assert inst.get_attr(elem, attr) == Const(BaseType.INT, 7)
    assert inst.get_attr(f, "a") == NullRef(f, "a") and helpers.unobserved(inst, NullRef(f, "a"))
    assert len(inst._null_parent) == names


@pytest.mark.parametrize("fixture", ["example1_saturated", "example2_saturated"])
def test_reading_a_saturation_lists_each_entity_once(request, monkeypatch, fixture):
    """``carrier`` is the only reader of ``elements`` in the engine; its
    cache means every downstream stage shares one build per entity."""
    env, combined, _, result = request.getfixturevalue(fixture)
    sat = result.instance.copy().freeze()  # a cold carrier cache
    calls: dict = {}
    elements = Instance.elements

    def counting(self, entity):
        calls[self, entity] = calls.get((self, entity), 0) + 1
        return elements(self, entity)

    monkeypatch.setattr(Instance, "elements", counting)
    assert check_model(sat, combined.schema.constraints).ok
    for q in env.queries.values():
        evaluate(q, sat)
        explain(q, sat)
    for source in combined.extension.schemas:
        delta_project(combined, sat, source)
    print_canonical(sat)
    instance_csvs(sat)
    assert calls and max(calls.values()) == 1


def test_unknown_attribute_names_the_attribute_and_entity():
    schema = Schema("S", ("E",), (), (Attribute("a", "E", BaseType.INT),))
    inst = new_instance(schema)
    e = inst.add_element("E", "e")
    inst.set_attr(e, "a", Const(BaseType.INT, 1))
    unknown = "'nope' is not an attribute of entity 'E'"
    with pytest.raises(InstanceError, match=unknown):
        inst.get_attr(e, "nope")
    with pytest.raises(InstanceError, match=unknown):
        inst.assign_attr(e, "nope", Const(BaseType.INT, 1))
    for args in ((e, "a", e, "nope"), (e, "nope", e, "a")):
        with pytest.raises(InstanceError, match=unknown):
            inst.union_attrs(*args)
    assert inst.get_attr(e, "a") == Const(BaseType.INT, 1)


def _fk_and_attr_schema() -> Schema:
    return Schema("S", ("E",), (ForeignKey("f", "E", "E"),), (Attribute("a", "E", BaseType.INT),))


def test_member_kind_guards():
    """A foreign key and an attribute share one row per class, so each
    member-kind check refuses the other kind's name, and a refused name
    writes nothing."""
    inst = new_instance(_fk_and_attr_schema())
    x, y = inst.add_element("E", "x"), inst.add_element("E", "y")
    not_attr = "'f' is not an attribute of entity 'E'"
    not_fk = "'a' is not a foreign key of entity 'E'"
    for state in ("unset", "set"):
        if state == "set":
            inst.set_fk(x, "f", y)
            inst.set_attr(x, "a", Const(BaseType.INT, 1))
        before = (dict(inst.row(x)), dict(inst._null_parent), dict(inst._null_anchor))
        with pytest.raises(InstanceError, match=not_attr):
            inst.get_attr(x, "f")
        with pytest.raises(InstanceError, match=not_attr):
            inst.assign_attr(x, "f", Const(BaseType.INT, 2))
        with pytest.raises(InstanceError, match=not_attr):
            inst.union_attrs(x, "f", x, "a")
        assert inst.get_fk(x, "a") is None
        with pytest.raises(InstanceError, match=not_fk):
            inst.define_fk(x, "a", y)
        with pytest.raises(InstanceError, match=not_fk):
            inst.set_fk(x, "a", y)
        # the first cell is a valid one, which a refused call leaves as it was
        with pytest.raises(InstanceError, match=not_attr):
            inst.union_attrs(x, "a", x, "f")
        with pytest.raises(InstanceError, match="'nope' is not an attribute of entity 'E'"):
            inst.union_attrs(x, "a", y, "nope")
        assert (dict(inst.row(x)), dict(inst._null_parent), dict(inst._null_anchor)) == before
    with pytest.raises(InstanceError, match="'nope' is not a foreign key of entity 'E'"):
        inst.define_fk(x, "nope", y)
    assert inst.get_fk(x, "f") == y and inst.get_attr(x, "a") == Const(BaseType.INT, 1)


def test_an_instance_refuses_a_member_name_of_both_kinds():
    schema = Schema("S", ("E",), (ForeignKey("m", "E", "E"),), (Attribute("m", "E", BaseType.INT),))
    with pytest.raises(InstanceError, match="'m' is a foreign key and an attribute of 'E'"):
        Instance(schema)


def test_builders_refuse_unknown_entities_and_foreign_keys():
    inst = new_instance(_fk_and_attr_schema())
    with pytest.raises(InstanceError, match="'Nope' is not an entity of schema S"):
        inst.add_element("Nope", "x")
    x = inst.add_element("E", "x")
    with pytest.raises(InstanceError, match="'g' is not a foreign key of entity 'E'"):
        inst.set_fk(x, "g", x)
    assert inst.elements("E") == [x] and not inst.row(x)


def test_undefined_is_falsy_and_a_path_step_from_a_non_element_is_undefined():
    assert repr(UNDEFINED) == "UNDEFINED" and not UNDEFINED
    inst = new_instance(_fk_and_attr_schema())
    x = inst.add_element("E", "x")
    inst.set_fk(x, "f", x)
    term = PathApp("v", Path("E", ("f", "f"), "a"))
    assert eval_term(inst, {"v": x}, term) == NullRef(x, "a")
    for bound in (Const(BaseType.INT, 1), NullRef(x, "a"), UNDEFINED):
        for virtual in (False, True):
            assert eval_term(inst, {"v": bound}, term, virtual=virtual) is UNDEFINED


def test_fully_set_rows_mint_no_null():
    env = parse_document(SourceDocument("scaled", scaled_example1_document(50)))
    sources = {"IFC": env.instances["ifc_model"], "BRICK": env.instances["brick_model"]}
    combined = combine_schemas(env.extensions["Combined"])
    pre = sigma_insert(combined, sources)
    for inst in (*sources.values(), pre):
        assert len(inst._null_parent) == 0, inst.name
    # a read of an unset cell returns the cell's own name and enters no null
    (equipment, *_) = pre.carrier("Equipment")
    first = pre.get_attr(equipment, "equipmentName")
    assert first == NullRef(equipment, "equipmentName") and helpers.unobserved(pre, first)
    assert pre.get_attr(equipment, "equipmentName") == first
    assert len(pre._null_parent) == 0


def _cell_state(inst: Instance) -> tuple:
    """What a write to a cell or a null label would change."""
    cells = {root: dict(row) for root, row in inst._rows.items()}
    return cells, dict(inst._null_parent), dict(inst._null_anchor)


@pytest.mark.parametrize("pipeline", [helpers.example1_pipeline, helpers.example2_pipeline])
def test_reads_never_write(pipeline):
    """Every public read of a frozen saturation, of the sources it came from
    and of its projections leaves their cells and null labels as they were;
    so do ``get_attr`` and ``row`` on the unfrozen result of Σ."""
    env, combined, pre = pipeline()
    constraints = list(combined.schema.constraints)
    sat = helpers.saturate(pre, constraints).instance
    other = helpers.saturate(pre, constraints[::-1]).instance
    assert sat.frozen and not pre.frozen
    sources = {inst.schema.name: inst for inst in env.instances.values()}
    projections = {s.name: delta_project(combined, sat, s) for s in combined.extension.schemas}
    instances = [pre, sat, other, *sources.values(), *projections.values()]
    before = [_cell_state(inst) for inst in instances]
    unobserved = 0
    for inst in instances:
        for entity in inst.schema.entities:
            for root in inst.carrier(entity):
                inst.row(root)
    for inst in (pre, sat):
        schema = inst.schema
        for entity in schema.entities:
            for root in inst.carrier(entity):
                cells = inst.row(root)
                for attr in schema.attrs_of(entity):
                    value = inst.get_attr(root, attr.name)
                    unobserved += helpers.unobserved(inst, value)
                    stored = cells.get(attr.name)
                    expected = NullRef(root, attr.name) if stored is None else inst.resolve_value(stored)
                    assert value == expected
                    assert eval_path(inst, root, Path(entity, (), attr.name)) == value
                for fk in schema.fks_of(entity):
                    for attr in schema.attrs_of(schema.fk(entity, fk.name).target):
                        eval_path(inst, root, Path(entity, (fk.name,), attr.name))
    assert check_model(sat, constraints).ok
    for q in env.queries.values():
        evaluate(q, sat)
        explain(q, sat)
    print_canonical(sat)
    instance_csvs(sat)
    for name, source in sources.items():
        delta_project(combined, sat, source.schema)
        roundtrip_report(source, projections[name])
    assert instances_same_data(sat, other) and verify_universality(sat, other).isomorphic
    assert [_cell_state(inst) for inst in instances] == before
    assert unobserved > 0


def _outputs(pipeline):
    env, combined, pre = pipeline()
    result = helpers.saturate(pre, combined.schema.constraints)
    sat = result.instance
    checks = [c.satisfied for c in check_model(sat, combined.schema.constraints).checks]
    csvs = {name: result_table_csv(evaluate(q, sat)) for name, q in env.queries.items()}
    return pre, sat, (result.status, result.trace.render(), checks, csvs, helpers.value_classes(sat))


def test_lazy_cells_agree_with_eager_nulls_on_fixtures():
    for pipeline in (helpers.example1_pipeline, helpers.example2_pipeline):
        lazy_pre, lazy, lazy_out = _outputs(pipeline)
        with helpers.eager_nulls():
            eager_pre, eager, eager_out = _outputs(pipeline)
        assert len(lazy_pre._null_parent) < len(eager_pre._null_parent)
        assert lazy_out == eager_out
        assert instances_same_data(lazy_pre, eager_pre) and instances_same_data(lazy, eager)


def test_lazy_cells_agree_with_eager_nulls_on_random_chases():
    clashes = 0
    for seed, constants in itertools.product(range(200), (False, True)):
        runs = []
        for mode in (nullcontext(), helpers.eager_nulls()):
            with mode:
                _, pre, constraints = helpers.random_weakly_acyclic_case(random.Random(seed), constants)
                result = chase(pre, constraints)
            if result.instance is None:  # a clash: only the chase's account of it
                runs.append((result, (result.status, result.trace.render(), str(result.clash))))
                continue
            checks = [c.satisfied for c in check_model(result.instance, constraints).checks]
            runs.append((result, (result.status, result.trace.render(), checks,
                                  helpers.value_classes(result.instance))))
        (lazy, lazy_out), (eager, eager_out) = runs
        assert lazy_out == eager_out, (seed, constants)
        if lazy.instance is None:
            clashes += 1
        else:
            assert instances_same_data(lazy.instance, eager.instance), (seed, constants)
    assert clashes > 0


_OPS_SCHEMA = Schema(
    "Ops",
    ("A", "B"),
    (ForeignKey("f", "A", "B"),),
    tuple(Attribute(name, name[0].upper(), BaseType.INT) for name in ("a0", "a1", "a2", "b0", "b1")),
)


def _random_ops(rng: random.Random, count: int) -> list[tuple[str, tuple]]:
    """Builder and saturation calls on ``_OPS_SCHEMA``, sometimes on an
    attribute the entity lacks; every element is added before it is used."""
    elements: dict[str, list[ElementId]] = {"A": [], "B": []}
    ops: list[tuple[str, tuple]] = []

    def cell():
        entity = rng.choice([e for e in elements if elements[e]])
        attrs = [a.name for a in _OPS_SCHEMA.attrs_of(entity)] + ["nope"] * (rng.random() < 0.05)
        return rng.choice(elements[entity]), rng.choice(attrs)

    def constant():
        return Const(BaseType.INT, rng.randrange(3))

    for k in range(count):
        kind = rng.randrange(7) if elements["A"] and elements["B"] else 0
        if kind == 0:
            entity = rng.choice("AB")
            elements[entity].append(ElementId(entity, f"{entity.lower()}{k}"))
            ops.append(("add_element", (entity, f"{entity.lower()}{k}")))
        elif kind == 1:
            ops.append(("set_fk", (rng.choice(elements["A"]), "f", rng.choice(elements["B"]))))
        elif kind == 2:
            ops.append(("set_attr", (*cell(), rng.choice([None, constant()]))))
        elif kind == 3:
            ops.append(("assign_attr", (*cell(), constant())))
        elif kind == 4:
            ops.append(("union_attrs", (*cell(), *cell())))
        elif kind == 5:
            entity = rng.choice("AB")
            ops.append(("merge_elements", (rng.choice(elements[entity]), rng.choice(elements[entity]))))
        else:
            ops.append(("get_attr", cell()))
    return ops


def _apply(inst: Instance, ops: list[tuple[str, tuple]]) -> list:
    """Each call's result, a null or an unobserved cell as "null", or the
    error it raised."""
    out = []
    for name, args in ops:
        try:
            result = getattr(inst, name)(*args)
        except CatamergeError as exc:
            result = (type(exc).__name__, str(exc))
        out.append("null" if isinstance(result, NullRef) else result)
    return out


def test_lazy_cells_agree_with_eager_nulls_on_random_calls():
    outcomes = set()
    for seed in range(300):
        ops = _random_ops(random.Random(seed), 40)
        lazy = new_instance(_OPS_SCHEMA)
        lazy_out = _apply(lazy, ops)
        with helpers.eager_nulls():
            eager = new_instance(_OPS_SCHEMA)
            eager_out = _apply(eager, ops)
        assert lazy_out == eager_out, seed
        assert helpers.value_classes(lazy) == helpers.value_classes(eager), seed
        outcomes.update(type(r).__name__ if not isinstance(r, tuple) else r[0] for r in lazy_out)
    # constants, nulls, merges and both kinds of error all occur
    assert {"Const", "str", "MergeReport", "InstanceError", "ConstantClash"} <= outcomes, outcomes


def _assert_observed_cells(inst: Instance) -> None:
    """``observed_cells`` equals a scan of the carrier's cells, and a copy,
    which rebuilds the lists from the cells, gives the same."""
    copy = inst.copy()
    for entity in inst.schema.entities:
        for attr in inst.schema.attrs_of(entity):
            roots, index = inst.observed_cells(entity, attr.name)
            cells = {r: inst.get_attr(r, attr.name) for r in inst.carrier(entity)}
            want_roots = [r for r, value in cells.items() if not helpers.unobserved(inst, value)]
            want_index: dict = {}
            for root in want_roots:
                want_index.setdefault(_join_key(inst, cells[root]), []).append(root)
            assert (roots, index) == (want_roots, want_index)
            assert copy.observed_cells(entity, attr.name) == (roots, index)


def test_observed_cells_follow_every_change():
    """Built before a change and kept current by it, or rebuilt after it,
    the observed lists and their index match the cells after Σ's row copy,
    builder writes, reads, anchoring, unions, merges and new elements."""
    rng = random.Random(21)
    for _ in range(60):
        combined, sources = helpers.random_migration_case(rng)
        inst = sigma_insert(combined, sources)
        schema = inst.schema
        _assert_observed_cells(inst)
        try:
            for k in range(15):
                entity = rng.choice(schema.entities)
                elems, attrs = inst.carrier(entity), schema.attrs_of(entity)
                op = rng.randrange(6)
                if op == 0 or not elems:
                    inst.add_element(entity, f"{entity}!{k}", fresh=True)
                elif op == 1:
                    inst.merge_elements(rng.choice(elems), rng.choice(elems))
                elif attrs:
                    elem, attr = rng.choice(elems), rng.choice(attrs)
                    choices = (0, 1) if attr.type is BaseType.INT else "xy"
                    value = Const(attr.type, rng.choice(choices))
                    if op == 2:
                        inst.assign_attr(elem, attr.name, value)
                    elif op == 3:
                        inst.union_attrs(elem, attr.name, rng.choice(elems), attr.name)
                    elif op == 4:
                        inst.get_attr(elem, attr.name)
                    else:
                        inst.set_attr(elem, attr.name, value)
                _assert_observed_cells(inst)
        except (ConstantClash, InstanceError):
            continue  # a clash or a builder conflict ends the case


def test_join_keys_are_equal_exactly_when_values_are():
    """Both directions of the ``_join_key`` contract, over every pair of
    values that elements, virtual elements, constants, shared and anchored
    nulls and unobserved cells read as."""
    rng = random.Random(22)
    for _ in range(40):
        inst, _ = helpers.random_join_case(rng)
        elems = [e for entity in inst.schema.entities for e in inst.elements(entity)]
        values = list(elems) + [VirtualElem(e, ("g",)) for e in elems if e.entity == "X"]
        values += [inst.get_attr(e, a.name) for e in elems for a in inst.schema.attrs_of(e.entity)]
        values += [Const(BaseType.STRING, "p"), Const(BaseType.INT, 1), Const(BaseType.DOUBLE, 1.0)]
        values.append(UNDEFINED)
        assert any(helpers.unobserved(inst, v) for v in values)
        for a, b in itertools.product(values, repeat=2):
            ka, kb = _join_key(inst, a), _join_key(inst, b)
            assert values_equal(inst, a, b) == (ka is not None and ka == kb), (a, b)


def _comparison_cases() -> tuple[list[tuple[Instance, Instance]], list[Instance]]:
    """Pairs to compare, and the inputs to compare with their mutated copies:
    both fixtures' sources, Σ results, saturations in both constraint orders
    and projections, and 200 random weakly acyclic inputs and saturations,
    each drawn without and with constants. A source and the Σ result are
    also paired, which are over schemas with different entities."""
    pairs, inputs = [], []
    for pipeline in (helpers.example1_pipeline, helpers.example2_pipeline):
        env, combined, pre = pipeline()
        cs = list(combined.schema.constraints)
        fwd, rev = chase(pre, cs).instance, chase(pre, cs[::-1]).instance
        sources = {inst.schema.name: inst for inst in env.instances.values()}
        pairs += [(fwd, rev), (rev, fwd), (fwd, pre)]
        inputs += [*sources.values(), pre, fwd, rev]
        for s in combined.extension.schemas:
            projected = delta_project(combined, fwd, s)
            pairs += [(projected, delta_project(combined, rev, s)), (projected, sources[s.name]),
                      (sources[s.name], pre)]
            inputs.append(projected)
    for seed, constants in itertools.product(range(200), (False, True)):
        _, pre, cs = helpers.random_weakly_acyclic_case(random.Random(seed), constants)
        inputs.append(pre)
        fwd, rev = chase(pre, cs).instance, chase(pre, cs[::-1]).instance
        if fwd is not None and rev is not None:
            pairs += [(fwd, rev), (fwd, pre)]
            inputs.append(fwd)
    return pairs, inputs


def test_instances_same_data_agrees_with_the_loop_oracle():
    """The comparison by export-id mapping and ``_is_homomorphic`` gives the
    first per-entity loop's verdict; an input equals its copy and differs
    from each of its mutated copies."""
    pairs, inputs = _comparison_cases()
    verdicts = set()
    for a, b in pairs:
        got = instances_same_data(a, b)
        assert got == helpers.oracle_instances_same_data(a, b), (a.name, b.name)
        verdicts.add(got)
    mutated = 0
    for inst in inputs:
        assert instances_same_data(inst, inst.copy())
        assert helpers.oracle_instances_same_data(inst, inst.copy())
        for other in helpers.mutated_copies(inst):
            for a, b in ((inst, other), (other, inst)):
                assert not instances_same_data(a, b) and not helpers.oracle_instances_same_data(a, b)
            mutated += 1
    assert verdicts == {True, False} and mutated > 300, (verdicts, mutated)


def test_no_entered_null_is_named_by_an_unobserved_cell():
    """The invariant of ``helpers.check_null_names`` holds after every chase
    of both fixtures, of random weakly acyclic and join cases, and after Σ
    and Δ, so an unobserved cell's name equals only reads of that cell."""
    live = 0
    for pipeline in (helpers.example1_pipeline, helpers.example2_pipeline):
        env, combined, pre = pipeline()
        cs = list(combined.schema.constraints)
        insts = [*env.instances.values(), pre]
        for order in (cs, cs[::-1]):
            sat = chase(pre, order).instance
            insts += [sat, *(delta_project(combined, sat, s) for s in combined.extension.schemas)]
        live += sum(map(helpers.check_null_names, insts))
    for seed in range(200):
        _, pre, cs = helpers.random_weakly_acyclic_case(random.Random(seed))
        live += helpers.check_null_names(pre)
        if (sat := chase(pre, cs).instance) is not None:
            live += helpers.check_null_names(sat)
    rng = random.Random(25)
    for _ in range(300):
        pre, cs = helpers.random_join_case(rng)
        if (sat := chase(pre, cs).instance) is not None:
            live += helpers.check_null_names(sat)
    for _ in range(60):
        combined, sources = helpers.random_migration_case(rng)
        pre = sigma_insert(combined, sources)
        sat = helpers.random_chase_like(rng, pre)
        projections = [delta_project(combined, sat, s) for s in combined.extension.schemas]
        live += sum(map(helpers.check_null_names, [*sources.values(), pre, sat, *projections]))
    assert live > 1000, live

