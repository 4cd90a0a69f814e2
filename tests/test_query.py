from __future__ import annotations

import helpers
from catamerge import evaluate, explain, new_instance
from catamerge.printer import aligned_table, result_table_csv
from catamerge.query import QuerySpec
from catamerge.schema import Const, Eq, Path, PathApp, Var
from catamerge.typeside import BaseType


def test_listing1_reproduces_table1(example1_saturated):
    env, _, _, result = example1_saturated
    table = evaluate(env.queries["q"], result.instance)
    assert result_table_csv(table) == helpers.TABLE1_CSV


def test_listing2_reproduces_table2(example2_saturated):
    env, _, _, result = example2_saturated
    table = evaluate(env.queries["TenantBilling"], result.instance)
    assert result_table_csv(table) == helpers.TABLE2_CSV


def test_tautological_where_is_no_filter(example1_saturated):
    env, _, _, result = example1_saturated
    q = env.queries["q"]
    with_where = QuerySpec(
        q.name, q.extension, q.bindings,
        (Eq(Var("e"), Var("e")),) + q.wheres, q.projections,
    )
    assert evaluate(with_where, result.instance).rows == evaluate(q, result.instance).rows


def test_oracle_equivalence_on_fixture_queries(example1_saturated, example2_saturated):
    for env, _, _, result in (example1_saturated, example2_saturated):
        for q in env.queries.values():
            got = sorted(evaluate(q, result.instance).rows)
            want = sorted(helpers.oracle_evaluate(q, result.instance))
            assert got == want


def test_oracle_equivalence_with_extra_wheres(example2_saturated):
    env, _, _, result = example2_saturated
    q = env.queries["TenantBilling"]
    variants = [
        QuerySpec(q.name, q.extension, q.bindings, (), q.projections),  # full product
        QuerySpec(
            q.name, q.extension, q.bindings,
            q.wheres + (
                Eq(
                    PathApp("lease", Path("REC_Lease", ("leasee",), "personName")),
                    Const(BaseType.STRING, "Person B"),
                ),
            ),
            q.projections,
        ),
    ]
    for variant in variants:
        got = sorted(evaluate(variant, result.instance).rows)
        want = sorted(helpers.oracle_evaluate(variant, result.instance))
        assert got == want
    assert len(evaluate(variants[0], result.instance).rows) == 25
    assert len(evaluate(variants[1], result.instance).rows) == 1


def test_monotone_under_new_elements(example2_saturated):
    env, _, _, result = example2_saturated
    q = env.queries["TenantBilling"]
    before = evaluate(q, result.instance).rows
    grown = result.instance.copy()
    meter = grown.add_element("BRICK_Meter", "extra_meter")
    grown.set_fk(meter, "hasLocation", grown.element_named("Location", "IFC.sp_1"))
    grown.set_attr(meter, "energyConsumption", Const(BaseType.DOUBLE, 99.9))
    after = evaluate(q, grown).rows
    assert set(before) < set(after)
    assert len(after) == len(before) + 1


def test_determinism_byte_identical(example2_saturated):
    env, _, _, result = example2_saturated
    q = env.queries["TenantBilling"]
    a = result_table_csv(evaluate(q, result.instance))
    b = result_table_csv(evaluate(q, result.instance))
    assert a == b


def test_rows_ordered_by_canonical_binding_ids(example2_saturated):
    env, _, _, result = example2_saturated
    table = evaluate(env.queries["TenantBilling"], result.instance)
    names = [row[0] for row in table.rows]
    assert names == ["Vacant", "Person B", "Person C", "Person D", "Person E"]


def test_canonical_representative_transparency(example2_saturated):
    env, _, _, result = example2_saturated
    sat = result.instance
    # the three Location members of one class resolve to one row of results
    roots = {sat.find(sat.element_named("Location", name))
             for name in ("IFC.sp_1", "BRICK.loc_1", "REC.rm_1")}
    assert len(roots) == 1


def test_explain_listing2_plan(example2_saturated):
    env, _, _, result = example2_saturated
    plan = explain(env.queries["TenantBilling"], result.instance)
    assert [(v, e, n) for v, e, n in plan.bindings] == [
        ("lease", "REC_Lease", 5),
        ("meter", "BRICK_Meter", 5),
    ]
    assert plan.product_size == 25
    assert plan.filters[0][1] == 5
    assert plan.result_rows == 5
    assert not plan.empty
    rendered = plan.render()
    assert "cross product: 25" in rendered and "-> 5 tuples" in rendered


def test_explain_single_binding_no_join(example1_saturated):
    env, _, _, result = example1_saturated
    plan = explain(env.queries["q"], result.instance)
    assert len(plan.bindings) == 1
    assert plan.filters == []
    assert plan.result_rows == 5


def test_explain_contradictory_where_flags_empty(example2_saturated):
    env, _, _, result = example2_saturated
    q = env.queries["TenantBilling"]
    name_path = PathApp("lease", Path("REC_Lease", ("leasee",), "personName"))
    contradictory = QuerySpec(
        q.name, q.extension, q.bindings,
        (
            Eq(name_path, Const(BaseType.STRING, "Person B")),
            Eq(name_path, Const(BaseType.STRING, "Person C")),
        ),
        q.projections,
    )
    plan = explain(contradictory, result.instance)
    # counted in partial (lease) tuples, in the order the filters run
    assert plan.filters == [
        ('lease.leasee.personName = "Person B"', 1),
        ('lease.leasee.personName = "Person C"', 0),
    ]
    assert plan.empty
    assert "empty result" in plan.render()
    assert evaluate(contradictory, result.instance).rows == []


def test_explain_result_rows_match_evaluate(example1_saturated, example2_saturated):
    for env, _, _, result in (example1_saturated, example2_saturated):
        for q in env.queries.values():
            plan = explain(q, result.instance)
            assert plan.result_rows == len(evaluate(q, result.instance).rows)


def test_query_over_empty_instance(example1):
    env, combined, _ = example1
    empty = new_instance(combined.schema)
    table = evaluate(env.queries["q"], empty)
    assert table.rows == []
    assert result_table_csv(table).splitlines() == [
        "IFC_spaceName,IFC_spaceArea,BRICK_timeseriesId"
    ]


def test_aligned_table_shape(example1_saturated):
    env, _, _, result = example1_saturated
    text = aligned_table(evaluate(env.queries["q"], result.instance))
    lines = text.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("IFC_spaceName")
    assert "Room 240" in lines[1]
