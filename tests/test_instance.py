from __future__ import annotations

import itertools
import random

import pytest

import helpers
from catamerge import (
    ConstantClash,
    InstanceError,
    UNDEFINED,
    chase,
    check_model,
    eval_path,
    new_instance,
)
from catamerge.instance import ElementId, NullRef, VirtualElem, _join_key, instances_same_data
from catamerge.schema import Attribute, Const, Path, Schema
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
    value = inst.get_attr(sp, "setPointValue")
    assert isinstance(value, NullRef)


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
            inst.merge_elements(a, b)
            union = naive[a] | naive[b]
            for m in union:
                naive[m] = union
        # reflexive, symmetric, transitive closure agrees with the union-find
        for x, y in itertools.combinations(elems, 2):
            assert inst.same(x, y) == (y in naive[x])


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
        NullRef("a"),
        NullRef("E:a"),
    ]
    for other in others:
        assert elem != other and other != elem
    values = [elem] + others[:4] + [inst.get_attr(elem, "a")]
    keys = [_join_key(inst, v) for v in values]
    assert all(a != b for a, b in itertools.combinations(keys, 2))
    assert ElementId("E", "a") == elem and hash(ElementId("E", "a")) == hash(elem)
    assert ElementId("E", "a", True) != elem
