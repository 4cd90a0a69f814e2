from __future__ import annotations

import random
import re
from collections import Counter

import pytest

import helpers
from catamerge import (
    IdentificationCollision,
    SchemaError,
    chase,
    combine_schemas,
    delta_project,
    evaluate,
    instance_csvs,
    instances_same_data,
    new_instance,
    print_canonical,
    result_table_csv,
    roundtrip_report,
    sigma_insert,
    validate_extension,
    validate_schema,
)
from catamerge.schema import (
    Attribute,
    Constraint,
    Eq,
    ExtensionSpec,
    ForeignKey,
    Identification,
    Path,
    PathApp,
    Schema,
)
from catamerge.generators import scaled_example1_document
from catamerge.instance import NullRef
from catamerge.integrate import TableDelta
from catamerge.printer import render_constraint
from catamerge.schema import Const
from catamerge.typeside import BaseType


def test_combined_example1_equipment_signature(example1):
    _, combined, _ = example1
    schema = combined.schema
    attrs = {a.name for a in schema.attrs_of("Equipment")}
    assert attrs == {
        "equipmentName", "equipmentType", "equipmentIdentifier", "elementName", "elementType"
    }
    fks = {fk.name: fk.target for fk in schema.fks_of("Equipment")}
    assert fks["hasLocation"] == "Location"
    assert fks["elementInSpace"] == "Location"
    assert fks["hasPoint"] == "BRICK_Point"
    assert fks["feeds"] == "BRICK_Zone"


def test_combined_example2_location_signature(example2):
    _, combined, _ = example2
    attrs = [a.name for a in combined.schema.attrs_of("Location")]
    assert attrs == ["spaceName", "spaceArea", "locationName", "roomName", "roomArea"]


def test_combined_prefixes_non_identified_entities(example2):
    _, combined, _ = example2
    assert set(combined.schema.entities) == {
        "Location", "Equipment", "IFC_IfcSensor", "IFC_PropertySet", "BRICK_Point",
        "BRICK_Zone", "BRICK_Meter", "BRICK_SetPoint", "REC_Person", "REC_Lease",
    }


def test_combined_schema_is_valid(example1, example2):
    for _, combined, _ in (example1, example2):
        assert validate_schema(combined.schema).ok


def test_provenance_total_and_injective(example2):
    env, combined, _ = example2
    ext = env.extensions["CombinedThreeWay"]
    for s in ext.schemas:
        seen_entities = set()
        for e in s.entities:
            mapped = combined.combined_entity(s.name, e)
            assert mapped in combined.schema.entities
            seen_entities.add((e, mapped))
            member_images = set()
            for fk in s.fks_of(e):
                name = combined.combined_member(s.name, e, fk.name)
                assert combined.schema.fk(mapped, name) is not None
                member_images.add(name)
            for attr in s.attrs_of(e):
                name = combined.combined_member(s.name, e, attr.name)
                assert combined.schema.attr(mapped, name) is not None
                member_images.add(name)
            assert len(member_images) == len(s.fks_of(e)) + len(s.attrs_of(e))


def test_member_collision_disambiguated_by_prefix():
    a = Schema("A", ("X",), (), (Attribute("name", "X", BaseType.STRING),))
    b = Schema("B", ("Y",), (), (Attribute("name", "Y", BaseType.INT),))
    ext = ExtensionSpec("C", (a, b), (Identification("A", "X", "B", "Y"),))
    combined = combine_schemas(ext)
    attrs = {x.name for x in combined.schema.attrs_of("X")}
    assert attrs == {"A_name", "B_name"}


def test_identification_collision_on_ambiguous_entity_names():
    a = Schema("A", ("X", "Z"))
    b = Schema("B", ("Y", "Z"))
    # two separate classes would both be named Z
    ext = ExtensionSpec(
        "C", (a, b),
        (Identification("A", "X", "B", "Z"), Identification("A", "Z", "B", "Y")),
    )
    # both classes are first-mentioned under the bare name "Z"
    a2 = Schema("A", ("Z", "W"))
    b2 = Schema("B", ("Z", "Q"))
    ext2 = ExtensionSpec(
        "C", (a2, b2),
        (Identification("A", "Z", "B", "Q"), Identification("B", "Z", "A", "W")),
    )
    with pytest.raises(IdentificationCollision):
        combine_schemas(ext2)
    combine_schemas(ext)  # the unambiguous arrangement is accepted


def test_same_schema_identification_rejected():
    a = Schema("A", ("X", "Y"))
    ext = ExtensionSpec("C", (a,), (Identification("A", "X", "A", "Y"),))
    report = validate_extension(ext)
    assert not report.ok
    with pytest.raises(SchemaError):
        combine_schemas(ext)


def test_source_constraints_are_imported():
    from catamerge.parser import SourceDocument, parse_document

    text = """
schema A {
  entities X Y
  foreign_keys f : X -> Y  g : X -> Y
  constraints
    forall x : X -> x.f = x.g
}
extension E { include A }
"""
    env = parse_document(SourceDocument("t", text))
    assert env.ok, [str(d) for d in env.diagnostics]
    combined = combine_schemas(env.extensions["E"])
    assert len(combined.schema.constraints) == 1
    c = combined.schema.constraints[0]
    assert c.universals == (("x", "A_X"),)


def test_sigma_example2_counts(example2):
    _, combined, pre = example2
    counts = {e: len(pre.carrier(e)) for e in combined.schema.entities}
    assert counts["Location"] == 15  # 5 spaces + 5 locations + 5 rooms, pre-merge
    assert counts["Equipment"] == 10
    assert sum(counts.values()) == 61


def test_sigma_empty_sources(example1):
    env, combined, _ = example1
    pre = sigma_insert(combined, {})
    assert all(not pre.carrier(e) for e in combined.schema.entities)


def test_sigma_example1_is_relabelled_ifc(example1):
    env, combined, pre = example1
    ifc = env.instances["ifc_model"]
    for entity in ifc.schema.entities:
        combined_entity = combined.combined_entity("IFC", entity)
        got = [pre.export_id(r) for r in pre.carrier(combined_entity)]
        want = [f"IFC.{ifc.export_id(r)}" for r in ifc.carrier(entity)]
        assert got == want


def test_sigma_preserves_cardinalities(example2):
    env, combined, pre = example2
    ext = env.extensions["CombinedThreeWay"]
    sources = {
        "IFC": env.instances["ifc_model"],
        "BRICK": env.instances["brick_model"],
        "REC": env.instances["rec_model"],
    }
    for combined_entity, members in combined.class_members.items():
        expected = sum(len(sources[s].carrier(e)) for s, e in members)
        assert len(pre.carrier(combined_entity)) == expected


def test_delta_example2_rec_room_areas(example2_saturated):
    env, combined, _, result = example2_saturated
    rec = delta_project(combined, result.instance, env.schemas["REC"])
    rooms = {rec.export_id(r): rec.get_attr(r, "roomArea") for r in rec.carrier("Room")}
    assert rooms == {
        "rm_1": Const(BaseType.DOUBLE, 18.68),
        "rm_2": Const(BaseType.DOUBLE, 17.12),
        "rm_3": Const(BaseType.DOUBLE, 18.32),
        "rm_4": Const(BaseType.DOUBLE, 18.68),
        "rm_5": Const(BaseType.DOUBLE, 17.12),
    }


def test_delta_untouched_property_sets(example1_saturated):
    env, combined, _, result = example1_saturated
    ifc = delta_project(combined, result.instance, env.schemas["IFC"])
    original = env.instances["ifc_model"]
    got = {(ifc.export_id(r), str(ifc.get_attr(r, "deviceId"))) for r in ifc.carrier("PropertySet")}
    want = {
        (original.export_id(r), str(original.get_attr(r, "deviceId")))
        for r in original.carrier("PropertySet")
    }
    assert got == want


def test_delta_example1_brick_projection(example1_saturated):
    env, combined, _, result = example1_saturated
    brick = delta_project(combined, result.instance, env.schemas["BRICK"])
    assert len(brick.carrier("Equipment")) == 5
    assert len(brick.carrier("Location")) == 5
    points = brick.carrier("Point")
    assert len(points) == 5
    ids = sorted(str(brick.get_attr(p, "timeseriesId").value) for p in points)
    assert ids == [
        "TUC.245.77.R200", "TUC.245.77.R240", "TUC.245.77.R260",
        "TUC.245.77.R440", "TUC.245.77.R460",
    ]
    assert not brick.carrier("Zone") and not brick.carrier("Meter")


def test_delta_sigma_identity_without_identifications(example2):
    env, _, _ = example2
    ext = env.extensions["CombinedThreeWay"]
    bare = ExtensionSpec("Bare", ext.schemas, (), ())
    combined = combine_schemas(bare)
    sources = {
        "IFC": env.instances["ifc_model"],
        "BRICK": env.instances["brick_model"],
        "REC": env.instances["rec_model"],
    }
    pre = sigma_insert(combined, sources)  # empty constraint set: chase is a no-op
    for name, source in sources.items():
        recovered = delta_project(combined, pre, ext.schema_named(name))
        assert instances_same_data(recovered, source)


def test_roundtrip_rec_gains_room_areas(example2_saturated):
    env, combined, _, result = example2_saturated
    rec = delta_project(combined, result.instance, env.schemas["REC"])
    report = roundtrip_report(env.instances["rec_model"], rec)
    room = report.table("Room")
    assert room.attributes_gained == 5
    assert room.attributes_lost == 0
    assert room.rows_in == room.rows_recovered == 5


def test_roundtrip_identical_instances_all_zero(example2):
    env, _, _ = example2
    original = env.instances["rec_model"]
    report = roundtrip_report(original, original)
    for table in report.tables:
        assert table.attributes_gained == 0
        assert table.attributes_lost == 0
        assert table.new_rows == 0
        assert table.rows_recovered == table.rows_in


def test_roundtrip_brick_example1_new_rows(example1_saturated):
    env, combined, _, result = example1_saturated
    brick = delta_project(combined, result.instance, env.schemas["BRICK"])
    report = roundtrip_report(env.instances["brick_model"], brick)
    populated = {t.entity: t for t in report.tables}
    assert populated["Equipment"].new_rows == 5
    assert populated["Location"].new_rows == 5
    assert populated["Point"].new_rows == 5
    assert populated["Zone"].new_rows == 0
    assert populated["Meter"].new_rows == 0
    assert populated["SetPoint"].new_rows == 0


def test_roundtrip_ifc_example1_loses_nothing(example1_saturated):
    env, combined, _, result = example1_saturated
    ifc = delta_project(combined, result.instance, env.schemas["IFC"])
    report = roundtrip_report(env.instances["ifc_model"], ifc)
    for table in report.tables:
        assert table.attributes_lost == 0
        assert table.rows_recovered == table.rows_in


def test_homomorphism_into_recovery(example2_saturated):
    """Every source instance maps structure-preservingly into its recovery."""
    env, combined, _, result = example2_saturated
    for schema_name, inst_name in (("IFC", "ifc_model"), ("BRICK", "brick_model"), ("REC", "rec_model")):
        source = env.instances[inst_name]
        target_schema = env.schemas[schema_name]
        recovered = delta_project(combined, result.instance, target_schema)
        mapping = {}
        for entity in target_schema.entities:
            rec_by_id = {recovered.export_id(r): r for r in recovered.carrier(entity)}
            for root in source.carrier(entity):
                assert source.export_id(root) in rec_by_id, "row lost in round trip"
                mapping[root] = rec_by_id[source.export_id(root)]
        for root, image in mapping.items():
            for fk in target_schema.fks_of(root.entity):
                src_target = source.get_fk(root, fk.name)
                if src_target is None:
                    continue
                rec_target = recovered.get_fk(image, fk.name)
                assert rec_target is not None
                assert mapping[source.find(src_target)] == recovered.find(rec_target)
            for attr in target_schema.attrs_of(root.entity):
                value = source.get_attr(root, attr.name)
                if isinstance(value, Const):
                    assert recovered.get_attr(image, attr.name) == value


def test_roundtrip_render_shape(example2_saturated):
    env, combined, _, result = example2_saturated
    rec = delta_project(combined, result.instance, env.schemas["REC"])
    text = roundtrip_report(env.instances["rec_model"], rec).render()
    lines = text.strip().splitlines()
    assert lines[0].split() == ["table", "rows_in", "rows_recovered", "gained", "lost", "new_rows"]
    assert len(lines) == 4  # header + Person/Lease/Room


_MERGING_RULE = """
schema A {
  entities X Y
  attributes a : X -> Int  b : X -> Int  c : Y -> Int
}
instance src : A {
  entity X {
    row p { a = 1 }
    row q { a = 1 b = 2 }
  }
  entity Y {
    row y { c = 3 }
  }
}
extension E {
  include A
  constraints
    forall x1 x2 : X where x1.a = x2.a -> x1 = x2
}
"""


def test_roundtrip_counts_a_merged_away_row_as_lost():
    """A rule merges q into p, so q is not recovered and both its
    constants are lost, while p gains q's b."""
    env = helpers.load_text(_MERGING_RULE)
    combined = combine_schemas(env.extensions["E"])
    source = env.instances["src"]
    sat = chase(sigma_insert(combined, {"A": source}), list(combined.schema.constraints)).instance
    recovered = delta_project(combined, sat, source.schema)
    report = roundtrip_report(source, recovered)
    assert report.table("X") == TableDelta(
        "X", rows_in=2, rows_recovered=1, attributes_gained=1, attributes_lost=2, new_rows=0
    )
    assert report.table("Y") == TableDelta("Y", rows_in=1, rows_recovered=1)
    assert roundtrip_report(recovered, source).table("X") == TableDelta(
        "X", rows_in=1, rows_recovered=1, attributes_lost=1, new_rows=1
    )
    with pytest.raises(KeyError, match="Z"):
        report.table("Z")
    with pytest.raises(SchemaError, match="round-trip instances must share a schema"):
        roundtrip_report(source, sat)


def test_sigma_preserves_null_sharing():
    """Two cells sharing one null class in a source stay linked after sigma."""
    from catamerge.parser import SourceDocument, parse_document

    text = """
schema A {
  entities X
  attributes p : X -> String  q : X -> String
}
extension E { include A }
"""
    env = parse_document(SourceDocument("t", text))
    assert env.ok
    schema = env.schemas["A"]
    source = new_instance(schema, "src")
    x = source.add_element("X", "x1")
    y = source.add_element("X", "x2")
    source.union_attrs(x, "p", y, "q")
    combined = combine_schemas(env.extensions["E"])
    pre = sigma_insert(combined, {"A": source})
    cx = pre.element_named("A_X", "A.x1")
    cy = pre.element_named("A_X", "A.x2")
    # anchoring one cell now determines the other
    pre.assign_attr(cx, "p", Const(BaseType.STRING, "shared"))
    assert pre.get_attr(cy, "q") == Const(BaseType.STRING, "shared")
    assert not isinstance(pre.get_attr(cy, "p"), Const)


def _example2_outputs() -> tuple[dict[str, tuple[int, int]], tuple]:
    """Labels per source before and after sigma_insert, and every output of
    the example 2 pipeline as text."""
    env = helpers.load_fixture("example2.cmg")
    sources = {name: env.instances[f"{name.lower()}_model"] for name in ("IFC", "BRICK", "REC")}
    before = {name: len(src._null_parent) for name, src in sources.items()}
    combined = combine_schemas(env.extensions["CombinedThreeWay"])
    pre = sigma_insert(combined, sources)
    labels = {name: (before[name], len(src._null_parent)) for name, src in sources.items()}
    result = chase(pre, list(combined.schema.constraints))
    sat = result.instance
    outputs = (
        print_canonical(pre),
        result.trace.render(),
        print_canonical(sat),
        instance_csvs(sat),
        {name: result_table_csv(evaluate(q, sat)) for name, q in env.queries.items()},
        {s.name: print_canonical(delta_project(combined, sat, s)) for s in combined.extension.schemas},
        {s.name: roundtrip_report(sources[s.name], delta_project(combined, sat, s)).render()
         for s in combined.extension.schemas},
    )
    return labels, outputs


def test_sigma_reads_source_cells_without_minting():
    labels, outputs = _example2_outputs()
    assert all(before == after for before, after in labels.values()), labels
    assert labels["BRICK"] == (0, 0) and labels["REC"] == (0, 0)
    # with every source cell observed, each holding its own null from the
    # start, the combined instance and every output are the same
    with helpers.eager_nulls():
        eager_labels, eager_outputs = _example2_outputs()
    assert eager_labels["REC"][0] > 0
    assert outputs == eager_outputs


def _roundtrip_reports(text: str, extension: str) -> tuple[dict[str, tuple], dict[str, str]]:
    """Labels of each source and of its projection before and after its
    round-trip report, and the rendered reports."""
    env = helpers.load_text(text)
    combined = combine_schemas(env.extensions[extension])
    sources = {inst.schema.name: inst for inst in env.instances.values()}
    sat = chase(sigma_insert(combined, sources), list(combined.schema.constraints)).instance
    labels, reports = {}, {}
    for s in combined.extension.schemas:
        recovered = delta_project(combined, sat, s)
        before = (len(sources[s.name]._null_parent), len(recovered._null_parent))
        reports[s.name] = roundtrip_report(sources[s.name], recovered).render()
        labels[s.name] = (before, (len(sources[s.name]._null_parent), len(recovered._null_parent)))
    return labels, reports


def test_roundtrip_report_reads_both_instances_without_minting():
    cases = [
        ((helpers.FIXTURES / "example1.cmg").read_text(encoding="utf-8"), "Combined"),
        ((helpers.FIXTURES / "example2.cmg").read_text(encoding="utf-8"), "CombinedThreeWay"),
        (scaled_example1_document(50), "Combined"),
    ]
    for text, extension in cases:
        labels, reports = _roundtrip_reports(text, extension)
        assert all(before == after for before, after in labels.values()), labels
        # with every cell observed, each holding its own null from the start,
        # the reports are the same
        with helpers.eager_nulls():
            _, eager_reports = _roundtrip_reports(text, extension)
        assert reports == eager_reports


def _printed_saturation(name: str, extension: str) -> tuple[int, int, tuple]:
    """Labels of a fixture's saturated instance before and after it is
    printed, tabled and projected, and those outputs."""
    env = helpers.load_fixture(name)
    combined = combine_schemas(env.extensions[extension])
    sources = {inst.schema.name: inst for inst in env.instances.values()}
    sat = chase(sigma_insert(combined, sources), list(combined.schema.constraints)).instance
    before = len(sat._null_parent)
    outputs = (
        print_canonical(sat),
        instance_csvs(sat),
        {s.name: print_canonical(delta_project(combined, sat, s)) for s in combined.extension.schemas},
    )
    return before, len(sat._null_parent), outputs


def test_printing_and_projection_read_without_minting():
    for name, extension in (("example1.cmg", "Combined"), ("example2.cmg", "CombinedThreeWay")):
        before, after, outputs = _printed_saturation(name, extension)
        assert before == after
        # with every cell observed, each holding its own null from the start,
        # the outputs are the same
        with helpers.eager_nulls():
            _, _, eager_outputs = _printed_saturation(name, extension)
        assert outputs == eager_outputs


def _entered_nulls(inst) -> list:
    """The value of each cell that holds an entered null, in carrier order."""
    return [
        value
        for entity in inst.schema.entities
        for root in inst.carrier(entity)
        for attr in inst.schema.attrs_of(entity)
        if isinstance(value := inst.get_attr(root, attr.name), NullRef)
        and not helpers.unobserved(inst, value)
    ]


def _null_classes(inst) -> int:
    return len(set(_entered_nulls(inst)))


def _assert_same_migration(new, old) -> None:
    assert instances_same_data(new, old)
    assert [new.elements(e) for e in new.schema.entities] == [old.elements(e) for e in old.schema.entities]
    assert new.origins == old.origins
    assert _null_classes(new) == _null_classes(old)


def test_migrations_match_the_oracles_on_fixtures(example1_saturated, example2_saturated):
    for env, combined, _, result in (example1_saturated, example2_saturated):
        sources = {inst.schema.name: inst for inst in env.instances.values()}
        _assert_same_migration(
            sigma_insert(combined, sources), helpers.oracle_sigma_insert(combined, sources)
        )
        for s in combined.extension.schemas:
            _assert_same_migration(
                delta_project(combined, result.instance, s),
                helpers.oracle_delta_project(combined, result.instance, s),
            )


def test_migrations_match_the_oracles_on_random_sources():
    shapes = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        combined, sources = helpers.random_migration_case(rng)
        pre = sigma_insert(combined, sources)
        _assert_same_migration(pre, helpers.oracle_sigma_insert(combined, sources))
        sat = helpers.random_chase_like(rng, pre)
        for s in combined.extension.schemas:
            _assert_same_migration(
                delta_project(combined, sat, s), helpers.oracle_delta_project(combined, sat, s)
            )
        for src in sources.values():
            schema = src.schema
            roots = [(e, r) for e in schema.entities for r in src.carrier(e)]
            shapes["empty entity"] += any(not src.elements(e) for e in schema.entities)
            shapes["fresh element"] += any(r.fresh for _, r in roots)
            shapes["unset fk"] += any(
                src.get_fk(r, fk.name) is None for e, r in roots for fk in schema.fks_of(e)
            )
            shapes["shared null"] += _null_classes(src) < len(_entered_nulls(src))
            shapes["merged class"] += any(len(src.members(r)) > 1 for _, r in roots)
    assert min(shapes.values()) >= 20 and len(shapes) == 5, shapes


def _pipeline_outputs(env, combined, sat) -> tuple[list, list]:
    """A document's sources, Σ, saturation and projections, and each source
    paired with its projection both ways and with itself."""
    sources = {inst.schema.name: inst for inst in env.instances.values()}
    projections = {s.name: delta_project(combined, sat, s) for s in combined.extension.schemas}
    insts = [*sources.values(), sigma_insert(combined, sources), sat, *projections.values()]
    pairs = [
        pair
        for name, source in sources.items()
        for pair in ((source, projections[name]), (projections[name], source), (source, source))
    ]
    return insts, pairs


def _shapes(inst) -> set[str]:
    stored = [v for row in inst._rows.values() for v in row.values() if isinstance(v, NullRef)]
    resolved = [inst.resolve_value(v) for v in stored]
    nulls = [v for v in resolved if isinstance(v, NullRef)]
    roots = [r for e in inst.schema.entities for r in inst.carrier(e)]
    return {
        shape
        for shape, present in (
            ("merged class", any(len(inst.members(r)) > 1 for r in roots)),
            ("fresh element", any(r.fresh for r in roots)),
            ("anchored null", len(nulls) < len(resolved)),
            ("unified null", len(set(nulls)) < len(nulls)),
        )
        if present
    }


def test_outputs_match_the_per_cell_oracles(example1_saturated, example2_saturated):
    """``print_canonical``, ``instance_csvs`` and ``roundtrip_report``, which
    read each class's stored row once, give the output of the oracles that
    read each cell through ``get_attr``, frozen or not."""
    insts, pairs = [], []
    for env, combined, _, result in (example1_saturated, example2_saturated):
        more_insts, more_pairs = _pipeline_outputs(env, combined, result.instance)
        insts += more_insts
        pairs += more_pairs
    env = helpers.load_text(scaled_example1_document(50), "scaled50.cmg")
    combined = combine_schemas(env.extensions["Combined"])
    pre = sigma_insert(combined, {i.schema.name: i for i in env.instances.values()})
    sat = helpers.saturate(pre, combined.schema.constraints).instance
    more_insts, more_pairs = _pipeline_outputs(env, combined, sat)
    insts += more_insts
    pairs += more_pairs
    shapes = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        combined, sources = helpers.random_migration_case(rng)
        sat = helpers.random_chase_like(rng, sigma_insert(combined, sources))
        for inst in (sat, sat.copy()):
            insts.append(inst)
            for s in combined.extension.schemas:
                projected = delta_project(combined, inst, s)
                insts.append(projected)
                if s.name in sources:
                    pairs += [(sources[s.name], projected), (projected, sources[s.name])]
        shapes.update(_shapes(sat))
    for seed in range(200):
        _, pre, cs = helpers.random_weakly_acyclic_case(random.Random(seed), constants=True)
        sat = chase(pre, cs).instance
        if sat is not None:
            insts += [sat, sat.copy()]
            pairs += [(pre, sat), (sat, pre)]
            shapes.update(_shapes(sat))
    for inst in insts:
        assert print_canonical(inst) == helpers.oracle_print_instance(inst)
        assert instance_csvs(inst) == helpers.oracle_instance_csvs(inst)
    deltas = Counter()
    for original, recovered in pairs:
        report = roundtrip_report(original, recovered)
        assert report == helpers.oracle_roundtrip_report(original, recovered)
        for t in report.tables:
            deltas.update(
                {"gained": t.attributes_gained, "lost": t.attributes_lost, "new": t.new_rows}
            )
    assert min(shapes.values()) >= 20 and len(shapes) == 4, shapes
    assert min(deltas.values()) > 0 and len(deltas) == 3, deltas


_EXTRA_ATTRIBUTE = """
schema A {
  entities X
  attributes a : X -> Int
}
extension E { include A }
"""


def test_sigma_rejects_a_source_over_a_same_named_schema():
    env = helpers.load_text(_EXTRA_ATTRIBUTE)
    combined = combine_schemas(env.extensions["E"])
    wider = Schema(
        "A", ("X",), (), (Attribute("a", "X", BaseType.INT), Attribute("b", "X", BaseType.INT))
    )
    source = new_instance(wider, "src")
    x = source.add_element("X", "x1")
    source.set_attr(x, "a", Const(BaseType.INT, 1))
    source.set_attr(x, "b", Const(BaseType.INT, 2))
    with pytest.raises(SchemaError, match="expected the schema 'A'"):
        sigma_insert(combined, {"A": source})
    # the cell-by-cell copy compared the names only, and lost b
    copied = helpers.oracle_sigma_insert(combined, {"A": source})
    assert [a.name for a in copied.schema.attrs_of("A_X")] == ["a"]


def test_delta_rejects_an_instance_over_another_schema(example1_saturated, example2_saturated):
    env, combined, pre, result = example1_saturated
    ifc = env.schemas["IFC"]
    with pytest.raises(SchemaError, match="not the combined schema"):
        delta_project(combined, env.instances["ifc_model"], ifc)
    _, other, _, other_result = example2_saturated
    with pytest.raises(SchemaError, match="not the combined schema"):
        delta_project(combined, other_result.instance, ifc)
    narrower = Schema("IFC", ifc.entities, ifc.foreign_keys, ifc.attributes[1:])
    with pytest.raises(SchemaError, match="not part of extension"):
        delta_project(combined, result.instance, narrower)
    delta_project(combined, pre, ifc)  # any instance over the combined schema


@pytest.mark.parametrize("schemas, identifications, name, message", [
    (("A", "A"), (), "E", "an extension may include each schema once"),
    ((), (), "E", "an extension must include at least one schema"),
    (("A",), (), "A", "extension name collides with an included schema"),
    (("A",), (("Z", "X", "A", "X"),), "E", "identification references unknown schema 'Z'"),
    (("A", "B"), (("A", "Nope", "B", "Y"),), "E", "identification references unknown entity 'A.Nope'"),
])
def test_validate_extension_reports_each_malformed_extension(schemas, identifications, name, message):
    """The parser refuses these before it builds an extension; a caller
    that builds one itself gets the same refusal from ``combine_schemas``."""
    by_name = {"A": Schema("A", ("X",)), "B": Schema("B", ("Y",))}
    ext = ExtensionSpec(
        name, tuple(by_name[s] for s in schemas), tuple(Identification(*i) for i in identifications)
    )
    assert [issue.message for issue in validate_extension(ext).issues] == [message]
    with pytest.raises(SchemaError, match=f"^invalid extension {name}: {name}: {message}$"):
        combine_schemas(ext)


ST = BaseType.STRING


@pytest.mark.parametrize("part, issue", [
    (Schema("A", ("X",), (ForeignKey("f", "X", "Ghost"),)),
     "A.f: foreign key target 'Ghost' is not a declared entity"),
    (Schema("A", ("X",), (), (Attribute("a", "Ghost", ST),)),
     "A.a: attribute source 'Ghost' is not a declared entity"),
    (Schema("A", ("X", "X")), "A.X: duplicate entity name"),
    (Schema("A", ("X",), (ForeignKey("n", "X", "X"),), (Attribute("n", "X", ST),)),
     "A.n: duplicate member name on entity 'X'"),
], ids=["dangling fk", "attribute on no entity", "duplicate entity", "fk and attribute share a name"])
def test_combine_checks_each_included_schema(part, issue):
    """``combine_schemas`` checks the schemas it glues, not only the glued
    result: an ill-formed part is refused with its own issue, named under
    its schema, before gluing can raise a ``KeyError``, drop the attribute
    or report the fault as an identification or prefixing problem."""
    ext = ExtensionSpec("E", (part, Schema("B", ("Y",))), (Identification("A", "X", "B", "Y"),))
    assert [str(i) for i in validate_extension(ext).issues] == [issue]
    with pytest.raises(SchemaError, match=f"^invalid extension E: {re.escape(issue)}$"):
        combine_schemas(ext)


def test_combine_checks_bridge_constraints_against_the_glued_schema():
    """After gluing, only the extension's own constraints are type-checked,
    each numbered after the imported source constraints."""
    k = PathApp("x", Path("X", (), "k"))
    own, bridge = (Constraint((("x", "X"),), (), (), (Eq(k, Const(ST, v)),)) for v in "ab")
    bad = Constraint((("x", "X"),), (), (), (Eq(k, Const(BaseType.INT, 1)),))
    a = Schema("A", ("X",), (), (Attribute("k", "X", ST),), (own,))
    parts, glue = (a, Schema("B", ("Y",))), (Identification("A", "X", "B", "Y"),)
    assert combine_schemas(ExtensionSpec("E", parts, glue, (bridge,))).schema.constraints == (own, bridge)
    message = "combined schema for E is invalid: constraint #3: equation relates 'String' with 'Int'"
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        combine_schemas(ExtensionSpec("E", parts, glue, (bridge, bad)))


def test_glued_schemas_are_well_formed_by_construction():
    """``combine_schemas`` does not check the glued schema again: from parts
    that ``validate_schema`` passes, it passes too, imported source
    constraints included. 300 random gluings of two or three schemas, with
    random identifications and each part carrying random constraints."""
    rng = random.Random(25)
    glued = Counter()
    for _ in range(300):
        parts = []
        for k in range(rng.randint(2, 3)):
            s = helpers.random_schema(rng)
            cs = helpers.random_constraints(rng, s, rng.randint(0, 3))
            parts.append(Schema(f"S{k}", s.entities, s.foreign_keys, s.attributes, tuple(cs)))
        idents = []
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(parts, 2)
            idents.append(Identification(a.name, rng.choice(a.entities), b.name, rng.choice(b.entities)))
        ext = ExtensionSpec("M", tuple(parts), tuple(idents))
        assert validate_extension(ext).ok
        try:
            combined = combine_schemas(ext)
        except (SchemaError, IdentificationCollision) as err:
            glued[type(err).__name__] += 1
            continue
        assert validate_schema(combined.schema).ok
        glued["constraints" if combined.schema.constraints else "none"] += 1
    assert glued["constraints"] > 100 and glued["none"] > 0, glued


def test_source_constraints_rename_every_kind_of_term():
    """A source constraint's premise, attribute paths, variables, constants
    and functions all come through the import, under the combined names."""
    from catamerge.parser import SourceDocument, parse_document

    text = """
schema A {
  entities X
  foreign_keys f : X -> X
  attributes name : X -> String  n : X -> Int
  constraints
    forall x y : X where x.f = y and x.name = "a" and x.n > 3 -> x.n = add(y.n, 1)
}
schema B { entities Y attributes name : Y -> String }
extension E { include A B identify A.X = B.Y }
"""
    env = parse_document(SourceDocument("t", text))
    assert env.ok, [str(d) for d in env.diagnostics]
    combined = combine_schemas(env.extensions["E"])
    (c,) = combined.schema.constraints
    assert render_constraint(c) == (
        'forall x y : X where x.f = y and x.A_name = "a" and x.n > 3 -> x.n = add(y.n, 1)'
    )


def test_transitive_same_schema_identification_rejected():
    a = Schema("A", ("X", "Z"))
    b = Schema("B", ("Y",))
    ext = ExtensionSpec(
        "C", (a, b), (Identification("A", "X", "B", "Y"), Identification("B", "Y", "A", "Z"))
    )
    with pytest.raises(SchemaError, match="two entities of schema 'A'"):
        combine_schemas(ext)
    from catamerge.parser import SourceDocument, parse_document

    text = """
schema A { entities X Z }
schema B { entities Y }
extension E { include A B identify A.X = B.Y identify B.Y = A.Z }
"""
    env = parse_document(SourceDocument("t", text))
    assert [d.message for d in env.diagnostics] == [
        "identifications in extension E merge two entities of schema 'A'; "
        "same-schema identifications are rejected"
    ]
