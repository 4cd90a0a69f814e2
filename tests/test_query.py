from __future__ import annotations

import random

import pytest

import catamerge.instance
import catamerge.query
import helpers
from catamerge import combine_schemas, evaluate, explain, new_instance, sigma_insert
from catamerge.errors import QueryError
from catamerge.instance import eval_term
from catamerge.printer import aligned_table, render_term, result_table_csv
from catamerge.query import QuerySpec, _render_cell
from catamerge.schema import Attribute, Const, Eq, ForeignKey, Path, PathApp, Schema, Var
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
            got = evaluate(q, result.instance).rows
            assert got == helpers.oracle_evaluate(q, result.instance)
            _assert_agrees_with_oracle(q, result.instance)


def _extra_where_variants(q: QuerySpec) -> list[QuerySpec]:
    return [
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


def test_oracle_equivalence_with_extra_wheres(example2_saturated):
    env, _, _, result = example2_saturated
    variants = _extra_where_variants(env.queries["TenantBilling"])
    for variant in variants:
        got = evaluate(variant, result.instance).rows
        assert got == helpers.oracle_evaluate(variant, result.instance)
        _assert_agrees_with_oracle(variant, result.instance)
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


# ---------------------------------------------------------------------------
# Indexed descent against the nested-loop oracle

def _outcome(run):
    """``run()``, or the QueryError class when it raises one."""
    try:
        return run()
    except QueryError:
        return QueryError


def _oracle_rows(q: QuerySpec, sat) -> list[tuple[str, ...]]:
    rows: list[tuple[str, ...]] = []
    helpers.oracle_descend(q, sat, lambda env: rows.append(
        tuple(_render_cell(sat, eval_term(sat, env, t)) for _, t in q.projections)
    ))
    return rows


def _oracle_plan(q: QuerySpec, sat) -> tuple[list[tuple[str, int]], int]:
    tuples: list[None] = []
    filters = helpers.oracle_descend(q, sat, lambda env: tuples.append(None))
    rendered = [(f"{render_term(a.left)} = {render_term(a.right)}", n) for a, n in filters]
    return rendered, len(tuples)


def _plan(q: QuerySpec, sat) -> tuple[list[tuple[str, int]], int]:
    plan = explain(q, sat)
    return plan.filters, plan.result_rows


def _assert_agrees_with_oracle(q: QuerySpec, sat):
    """Ordered rows, filter counts, result rows and whether QueryError is
    raised all agree with ``helpers.oracle_descend``; returns both outcomes."""
    rows = _outcome(lambda: evaluate(q, sat).rows)
    plan = _outcome(lambda: _plan(q, sat))
    assert rows == _outcome(lambda: _oracle_rows(q, sat)), q
    assert plan == _outcome(lambda: _oracle_plan(q, sat)), q
    return rows, plan


_LEASE_ROOM = PathApp("lease", Path("REC_Lease", ("leaseOf",)))
_METER_ROOM = PathApp("meter", Path("BRICK_Meter", ("hasLocation",)))
_METER_ENERGY = PathApp("meter", Path("BRICK_Meter", (), "energyConsumption"))


def test_descent_probes_only_a_stage_first_atom(example2_saturated):
    env, _, _, result = example2_saturated
    q = env.queries["TenantBilling"]
    # the join atom is second at the meter position, so that position scans
    scan_first = QuerySpec(
        q.name, q.extension, q.bindings,
        (Eq(_METER_ENERGY, _METER_ENERGY), Eq(_METER_ROOM, _LEASE_ROOM)), q.projections,
    )
    rows, (filters, _) = _assert_agrees_with_oracle(scan_first, result.instance)
    assert filters == [
        ("meter.energyConsumption = meter.energyConsumption", 25),
        ("meter.hasLocation = lease.leaseOf", 5),
    ]
    assert rows == evaluate(q, result.instance).rows


def test_descent_constant_side_probe(example2_saturated):
    env, _, _, result = example2_saturated
    q = env.queries["TenantBilling"]
    energy = Eq(Const(BaseType.DOUBLE, 132.4), _METER_ENERGY)
    pinned = QuerySpec(q.name, q.extension, q.bindings, (energy, Eq(_LEASE_ROOM, _METER_ROOM)),
                       q.projections)
    rows, (filters, result_rows) = _assert_agrees_with_oracle(pinned, result.instance)
    assert filters == [("132.4 = meter.energyConsumption", 5), ("lease.leaseOf = meter.hasLocation", 1)]
    assert [row[0] for row in rows] == ["Person B"] and result_rows == 1


def test_descent_three_binding_chain(example2_saturated):
    env, _, _, result = example2_saturated
    q = env.queries["TenantBilling"]
    chain = QuerySpec(
        q.name, q.extension,
        (("lease", "REC_Lease"), ("loc", "Location"), ("meter", "BRICK_Meter")),
        (Eq(Var("loc"), _LEASE_ROOM), Eq(_METER_ROOM, Var("loc"))),
        q.projections,
    )
    rows, (filters, _) = _assert_agrees_with_oracle(chain, result.instance)
    assert filters == [("loc = lease.leaseOf", 5), ("meter.hasLocation = loc", 5)]
    assert rows == evaluate(q, result.instance).rows


_XY = Schema(
    "S", ("X", "Y"), (ForeignKey("f", "X", "Y"),),
    (Attribute("xn", "X", BaseType.STRING), Attribute("yn", "Y", BaseType.STRING)),
)
_X_F = PathApp("x", Path("X", ("f",)))
_X_NAME = PathApp("x", Path("X", (), "xn"))
_Y_NAME = PathApp("y", Path("Y", (), "yn"))


def _xy_instance(xs: dict[str, str | None], ys: list[str], named: bool = True):
    """X rows mapped to the Y row their ``f`` names (None leaves it unset).
    ``xn`` and ``yn`` hold the row's name, or with ``named=False`` each
    its own labelled null."""
    inst = new_instance(_XY, "xy")
    for entity, rows in (("Y", ys), ("X", list(xs))):
        for row in rows:
            elem = inst.add_element(entity, row)
            if named:
                inst.set_attr(elem, f"{entity.lower()}n", Const(BaseType.STRING, row))
    for x, target in xs.items():
        if target is not None:
            inst.set_fk(inst.element_named("X", x), "f", inst.element_named("Y", target))
    return inst


def _xy_query(bindings, wheres) -> QuerySpec:
    return QuerySpec("J", "S", bindings, wheres, (("x", _X_NAME), ("y", _Y_NAME)))


_OTHER_SIDE_ON_X = _xy_query((("x", "X"), ("y", "Y")), (Eq(_X_F, Var("y")),))
_PROBE_SIDE_ON_X = _xy_query((("y", "Y"), ("x", "X")), (Eq(_X_F, Var("y")),))


@pytest.mark.parametrize(
    "q, xs, ys, want",
    [
        # the other side x.f is undefined for x1
        (_OTHER_SIDE_ON_X, {"x1": None, "x2": "y1"}, ["y1"], QueryError),
        (_OTHER_SIDE_ON_X, {"x1": None}, [], []),  # probed carrier empty
        # the probe side x.f is undefined on an element of the probed carrier
        (_PROBE_SIDE_ON_X, {"x1": None, "x2": "y1"}, ["y1"], QueryError),
        (_PROBE_SIDE_ON_X, {"x1": None}, [], []),  # probe position never reached
        # x1 and x3 share a bucket
        (_PROBE_SIDE_ON_X, {"x1": "y1", "x2": "y2", "x3": "y1"}, ["y1", "y2"],
         [("x1", "y1"), ("x3", "y1"), ("x2", "y2")]),
    ],
)
def test_descent_undefined_join_values(q, xs, ys, want):
    rows, plan = _assert_agrees_with_oracle(q, _xy_instance(xs, ys))
    assert rows == want
    assert (plan is QueryError) == (want is QueryError)


def test_descent_null_attribute_join():
    q = _xy_query((("x", "X"), ("y", "Y")), (Eq(_X_NAME, _Y_NAME),))
    inst = _xy_instance({"x1": None, "x2": None}, ["y1", "y2"], named=False)
    assert _assert_agrees_with_oracle(q, inst) == ([], ([("x.xn = y.yn", 0)], 0))
    el = inst.element_named
    inst.union_attrs(el("X", "x2"), "xn", el("Y", "y1"), "yn")
    inst.union_attrs(el("X", "x1"), "xn", el("Y", "y2"), "yn")
    assert _assert_agrees_with_oracle(q, inst) == ([("-", "-")] * 2, ([("x.xn = y.yn", 2)], 2))


def _terms_of(schema: Schema, var: str, entity: str) -> list[tuple[object, str]]:
    """Terms over one variable with their sorts: the variable, its one- and
    two-step foreign-key paths, and the attributes at the end of each."""
    paths = [((), entity)]
    for fk in schema.fks_of(entity):
        paths.append(((fk.name,), fk.target))
        paths.extend(((fk.name, g.name), g.target) for g in schema.fks_of(fk.target))
    terms: list[tuple[object, str]] = [(Var(var), entity)]
    for fks, target in paths:
        if fks:
            terms.append((PathApp(var, Path(entity, fks)), target))
        terms.extend((PathApp(var, Path(entity, fks, a.name)), "String")
                     for a in schema.attrs_of(target))
    return terms


def _random_join_query(rng: random.Random, schema: Schema, size: int) -> QuerySpec:
    bindings = tuple((f"v{i}", rng.choice(schema.entities)) for i in range(size))
    terms = [_terms_of(schema, var, entity) for var, entity in bindings]
    wheres = []
    for j in range(1, size):
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(j)
            pairs = [(a, b) for a, sa in terms[i] for b, sb in terms[j] if sa == sb]
            if pairs:
                a, b = rng.choice(pairs)
                wheres.append(Eq(a, b) if rng.random() < 0.5 else Eq(b, a))
    rng.shuffle(wheres)
    direct = [t for ts in terms for t, sort in ts
              if sort == "String" and not t.path.fks]
    columns = rng.sample(direct, min(2, len(direct)))
    return QuerySpec("R", "random", bindings, tuple(wheres),
                     tuple((f"c{k}", t) for k, t in enumerate(columns)))


def _anchor_nulls(rng: random.Random, sat):
    """A copy with every labelled null anchored to one of three constants,
    so attribute joins meet buckets of several rows and rows differ."""
    out = sat.copy()
    for entity in out.schema.entities:
        for elem in out.carrier(entity):
            for attr in out.schema.attrs_of(entity):
                if not isinstance(out.get_attr(elem, attr.name), Const):
                    out.assign_attr(elem, attr.name, Const(BaseType.STRING, rng.choice("abc")))
    return out


def test_descent_agrees_with_oracle_on_random_joins():
    rng = random.Random(0x5EED)
    outcomes = {"rows": 0, "empty": 0, "raised": 0}
    for _ in range(120):
        schema, pre, constraints = helpers.random_weakly_acyclic_case(rng)
        sat = helpers.saturate(pre, constraints).instance
        if rng.random() < 0.5:
            sat = _anchor_nulls(rng, sat)
        for size in (2, 3):
            q = _random_join_query(rng, schema, size)
            rows, _ = _assert_agrees_with_oracle(q, sat)
            key = "raised" if rows is QueryError else "rows" if rows else "empty"
            outcomes[key] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_join_work_grows_linearly(monkeypatch):
    """Term evaluations of evaluate plus explain on ``where x.f = y``, counted
    at n and 4n rows per side: a nested loop over both carriers would grow
    them about 16-fold."""
    q = _xy_query((("x", "X"), ("y", "Y")), (Eq(_X_F, Var("y")),))

    def evaluations(n: int) -> int:
        inst = _xy_instance({f"x{i}": f"y{i * 7 % n}" for i in range(n)},
                            [f"y{i}" for i in range(n)])
        calls = 0
        original = catamerge.instance.eval_term

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(catamerge.instance, "eval_term", counting)
            m.setattr(catamerge.query, "eval_term", counting)
            assert len(evaluate(q, inst).rows) == n
            assert explain(q, inst).result_rows == n
        return calls

    small, large = evaluations(20), evaluations(80)
    assert large <= 5 * small, (small, large)


def test_undefined_fk_in_query_raises_query_error():
    env = helpers.load_fixture("undefined_fk_query.cmg")
    combined = combine_schemas(env.extensions["E"])
    pre = sigma_insert(combined, {"S": env.instances["data"]})
    sat = helpers.saturate(pre, combined.schema.constraints).instance
    with pytest.raises(QueryError, match="path evaluation hit an undefined foreign key"):
        evaluate(env.queries["Q"], sat)
    with pytest.raises(QueryError, match="where-atom evaluation hit an undefined foreign key"):
        evaluate(env.queries["W"], sat)
    with pytest.raises(QueryError, match="where-atom evaluation hit an undefined foreign key"):
        explain(env.queries["W"], sat)
    # a plan never evaluates the projections, so Q's plan is well defined
    assert explain(env.queries["Q"], sat).result_rows == 2
