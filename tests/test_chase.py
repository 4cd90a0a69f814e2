from __future__ import annotations

import random

import pytest

import helpers
from catamerge import (
    ChaseConfig,
    ChasePreconditionError,
    Instance,
    chase,
    check_model,
    combine_schemas,
    fire_once,
    instances_same_data,
    new_instance,
    sigma_insert,
    verify_universality,
)
from catamerge.chase import EXHAUSTED, FAILED, SATURATED, MergePair, replay
import catamerge.instance
from catamerge.instance import conclusion_satisfied, enumerate_matches
from catamerge.schema import (
    Attribute,
    Cmp,
    Const,
    Constraint,
    Eq,
    ForeignKey,
    FunApp,
    PathApp,
    Path,
    Schema,
    Var,
    _term_vars,
    constraint_pinned_vars,
)
from catamerge.typeside import BaseType


def test_example1_creates_five_point_connections(example1_saturated):
    _, combined, pre, result = example1_saturated
    sat = result.instance
    assert result.status == SATURATED
    points = sat.carrier("BRICK_Point")
    assert len(points) == 5
    assert all(p.fresh for p in points)
    ids = sorted(str(sat.get_attr(p, "timeseriesId").value) for p in points)
    assert ids == sorted(
        f"TUC.245.77.{tag}" for tag in ("R240", "R260", "R200", "R440", "R460")
    )
    # every equipment now reaches its point
    for e in sat.carrier("Equipment"):
        assert sat.get_fk(e, "hasPoint") is not None
        assert sat.get_fk(e, "hasLocation") is not None


def test_chase_with_no_constraints_is_identity(example2):
    _, _, pre = example2
    result = chase(pre, [])
    assert result.status == SATURATED
    assert result.trace.entries == []
    assert instances_same_data(result.instance, pre)
    # the input instance is never mutated
    assert not pre.frozen


def test_example2_location_collapse_and_setpoints(example2_saturated):
    _, combined, _, result = example2_saturated
    sat = result.instance
    locations = sat.carrier("Location")
    assert len(locations) == 5
    assert all(len(sat.members(root)) == 3 for root in locations)
    setpoints = {
        sat.export_id(root): sat.get_attr(root, "setPointValue")
        for root in sat.carrier("BRICK_SetPoint")
    }
    assert setpoints["BRICK.stp_1"] == Const(BaseType.DOUBLE, 26.0)
    for stp in ("BRICK.stp_2", "BRICK.stp_3", "BRICK.stp_4", "BRICK.stp_5"):
        assert setpoints[stp] == Const(BaseType.DOUBLE, 22.0)


def test_fire_once_occupied_lease_sets_22(example2):
    _, combined, pre = example2
    inst = pre.copy()
    cs = combined.schema.constraints
    # merge the three Location copies of room 260 so the setpoint path exists
    inst.merge_elements(
        inst.element_named("Location", "IFC.sp_2"),
        inst.element_named("Location", "BRICK.loc_2"),
    )
    inst.merge_elements(
        inst.element_named("Location", "IFC.sp_2"),
        inst.element_named("Location", "REC.rm_2"),
    )
    occupied_rule = cs[3]
    lease = inst.element_named("REC_Lease", "REC.ls_2")
    entry = fire_once(inst, occupied_rule, {"l": lease})
    assert entry is not None
    stp = inst.element_named("BRICK_SetPoint", "BRICK.stp_2")
    assert inst.get_attr(stp, "setPointValue") == Const(BaseType.DOUBLE, 22.0)
    # second firing with the same assignment is a no-op
    assert fire_once(inst, occupied_rule, {"l": lease}) is None


def test_fire_once_vacant_lease_sets_26(example2):
    _, combined, pre = example2
    inst = pre.copy()
    cs = combined.schema.constraints
    inst.merge_elements(
        inst.element_named("Location", "IFC.sp_1"),
        inst.element_named("Location", "BRICK.loc_1"),
    )
    inst.merge_elements(
        inst.element_named("Location", "IFC.sp_1"),
        inst.element_named("Location", "REC.rm_1"),
    )
    vacant_rule = cs[4]
    occupied_rule = cs[3]
    lease = inst.element_named("REC_Lease", "REC.ls_1")
    # the levenshtein premise is false on the vacant lease
    assert not list(
        env for env in enumerate_matches(inst, occupied_rule)
        if inst.same(env["l"], lease)
    )
    entry = fire_once(inst, vacant_rule, {"l": lease})
    assert entry is not None
    stp = inst.element_named("BRICK_SetPoint", "BRICK.stp_1")
    assert inst.get_attr(stp, "setPointValue") == Const(BaseType.DOUBLE, 26.0)


def test_chase_trace_replays_exactly(example2):
    _, combined, pre = example2
    result = chase(pre, list(combined.schema.constraints))
    replayed = replay(pre, result.trace)
    assert instances_same_data(replayed, result.instance)


def test_chase_deterministic_traces(example2):
    _, combined, pre = example2
    cs = list(combined.schema.constraints)
    a = chase(pre, cs)
    b = chase(pre, cs)
    assert a.trace.render() == b.trace.render()
    assert a.trace.render() != ""


def test_chase_traces_match_golden(example1, example2):
    for name, (_, combined, pre) in (("example1", example1), ("example2", example2)):
        trace = chase(pre, list(combined.schema.constraints)).trace.render()
        assert trace.encode("utf-8") == (helpers.FIXTURES / f"{name}.trace").read_bytes()


def _matcher_cases() -> list[tuple[Instance, Constraint]]:
    """Premises whose pins chain, chain out of order or form a cycle, then
    predicates over a mix of constants and labelled nulls."""
    schema = Schema(
        "P",
        ("E",),
        (ForeignKey("f", "E", "E"), ForeignKey("g", "E", "E")),
        (Attribute("n", "E", BaseType.STRING),),
    )
    inst = helpers.random_instance(random.Random(5), schema, max_elements=6)
    for elem in inst.elements("E")[::2]:
        inst.set_attr(elem, "n", Const(BaseType.STRING, elem.name))

    def f(v: str) -> PathApp:
        return PathApp(v, Path("E", ("f",)))

    def g(v: str) -> PathApp:
        return PathApp(v, Path("E", ("g",)))

    def n(v: str) -> PathApp:
        return PathApp(v, Path("E", (), "n"))

    universals = (("a", "E"), ("b", "E"), ("c", "E"))
    premises = [
        (Eq(Var("b"), f("a")), Eq(Var("c"), g("b"))),  # in order: both pinned
        (Eq(Var("c"), g("b")), Eq(Var("b"), f("a"))),  # out of order: c demoted
        (Eq(Var("a"), f("b")), Eq(Var("b"), g("a"))),  # cycle: a demoted
        (Eq(g("c"), Var("b")), Eq(Var("a"), Var("c"))),
        (Cmp("<", n("a"), n("b")),),
        (Eq(Var("b"), f("a")), Cmp(">=", n("b"), Const(BaseType.STRING, "e_2"))),
    ]
    return [
        (inst, Constraint(universals, premise, (), (Eq(Var("a"), Var("b")),)))
        for premise in premises
    ]


def _differential_cases(example1_saturated, example2_saturated) -> list[tuple[Instance, Constraint]]:
    """Both fixtures' constraints over their pre-chase and saturated
    instances, and 200 seeded random weakly acyclic cases, before and after
    their chase."""
    cases = []
    for _, combined, pre, result in (example1_saturated, example2_saturated):
        for inst in (pre, result.instance):
            cases.extend((inst, c) for c in combined.schema.constraints)
    rng = random.Random(31)
    for _ in range(200):
        _, inst, constraints = helpers.random_weakly_acyclic_case(rng)
        saturated = chase(inst, constraints).instance
        cases.extend((i, c) for c in constraints for i in (inst, saturated))
    return cases


def test_enumerate_matches_agrees_with_oracle(example1_saturated, example2_saturated):
    cases = _matcher_cases() + _differential_cases(example1_saturated, example2_saturated)
    for inst, c in cases:
        got = [list(env.items()) for env in enumerate_matches(inst, c)]
        want = [list(env.items()) for env in helpers.oracle_matches(inst, c)]
        assert got == want


def _join_instance() -> Instance:
    """Elements whose attributes and foreign keys exercise each kind of join
    key: equal constants, unified nulls, a null against a constant, Int
    against Double, and undefined foreign keys inside one merged class."""
    s, i, d = BaseType.STRING, BaseType.INT, BaseType.DOUBLE
    schema = Schema(
        "J",
        ("E",),
        (ForeignKey("f", "E", "E"),),
        (Attribute("s", "E", s), Attribute("t", "E", s), Attribute("i", "E", i),
         Attribute("d", "E", d)),
    )
    inst = new_instance(schema, "joins")
    e = [inst.add_element("E", f"e{k}") for k in range(8)]
    inst.set_attr(e[0], "s", Const(s, "a"))
    inst.set_attr(e[1], "t", Const(s, "a"))
    inst.union_attrs(e[2], "s", e[3], "t")
    inst.set_attr(e[4], "s", Const(s, "b"))
    inst.set_attr(e[0], "i", Const(i, 1))
    inst.set_attr(e[1], "d", Const(d, 1.0))
    inst.set_fk(e[6], "f", e[0])
    inst.set_fk(e[7], "f", e[0])
    inst.merge_elements(e[4], e[5])
    return inst


def _join_premise(universals: str, *atoms) -> Constraint:
    return Constraint(
        tuple((v, "E") for v in universals), tuple(atoms), (), (Eq(Var("x"), Var("x")),)
    )


def _attr(v: str, name: str) -> PathApp:
    return PathApp(v, Path("E", (), name))


def test_enumerate_matches_joins_agree_with_oracle():
    from catamerge.typeside import resolve_function

    inst = _join_instance()
    concat = resolve_function("concat", (BaseType.STRING, BaseType.STRING))
    empty = Const(BaseType.STRING, "")
    fx, fy = PathApp("x", Path("E", ("f",))), PathApp("y", Path("E", ("f",)))
    cases = [
        # equal constants match, and so do nulls unified into one class;
        # e4's constant "b" meets only nulls and matches nothing
        (_join_premise("xy", Eq(_attr("x", "s"), _attr("y", "t"))),
         [("e0", "e1"), ("e2", "e3")]),
        # Int 1 against Double 1.0
        (_join_premise("xy", Eq(_attr("x", "i"), _attr("y", "d"))), []),
        # undefined foreign keys meet only within one class
        (_join_premise("xy", Eq(fx, fy)),
         [(x, x) for x in ("e0", "e1", "e2", "e3", "e4")]
         + [(x, y) for x in ("e6", "e7") for y in ("e6", "e7")]),
        # a constant, and a function application, as the other side
        (_join_premise("x", Eq(Const(BaseType.STRING, "a"), _attr("x", "s"))), [("e0",)]),
        (_join_premise("xy", Eq(_attr("y", "t"), FunApp(concat, (_attr("x", "s"), empty)))),
         [("e0", "e1")]),
        # three enumerated variables, two join atoms
        (_join_premise("xyz", Eq(_attr("x", "s"), _attr("y", "t")),
                       Eq(_attr("z", "s"), _attr("y", "t"))),
         [("e0", "e1", "e0"), ("e2", "e3", "e2")]),
    ]
    for c, want in cases:
        # every variable after the first probes; a lone one probes the constant
        probes = [step.probe is not None for step in c.plan.premise]
        assert probes == [len(probes) == 1] + [True] * (len(probes) - 1)
        got = [list(env.items()) for env in enumerate_matches(inst, c)]
        assert got == [list(env.items()) for env in helpers.oracle_matches(inst, c)]
        assert [tuple(elem.name for _, elem in env) for env in got] == want, c


def _witness_cases() -> list[tuple[Instance, Constraint]]:
    """Conclusions whose existentials are pinned in a chain, in the chain's
    reverse order, through undefined foreign keys and onto merged classes,
    one existential that no equation pins, and one ill-typed pin."""
    st = BaseType.STRING
    schema = Schema(
        "W",
        ("X", "Y", "Z"),
        (ForeignKey("f", "X", "Y"), ForeignKey("g", "Y", "Z")),
        (Attribute("xname", "X", st), Attribute("yname", "Y", st)),
    )
    inst = new_instance(schema, "witness")
    zs = [inst.add_element("Z", f"z{k}") for k in range(3)]
    ys = [inst.add_element("Y", f"y{k}") for k in range(6)]
    xs = [inst.add_element("X", f"x{k}") for k in range(8)]
    for k, y in enumerate(ys[:4]):
        inst.set_fk(y, "g", zs[k % 3])
    for x, y in zip(xs[:6], ys):
        inst.set_fk(x, "f", y)
    for k, x in enumerate(xs):
        inst.set_attr(x, "xname", Const(st, f"n{k % 4}"))
    for k, y in enumerate(ys[:3]):
        inst.set_attr(y, "yname", Const(st, f"n{k}"))
    inst.merge_elements(ys[4], ys[1])
    inst.merge_elements(ys[5], ys[3])

    f, g = PathApp("x", Path("X", ("f",))), PathApp("y", Path("Y", ("g",)))
    y, z = ("y", "Y"), ("z", "Z")
    conclusions = [
        ((y, z), (Eq(f, Var("y")), Eq(g, Var("z")))),
        ((y, z), (Eq(g, Var("z")), Eq(f, Var("y")))),
        ((z, y), (Eq(Var("z"), g), Eq(Var("y"), f))),
        ((y,), (Eq(PathApp("y", Path("Y", (), "yname")), PathApp("x", Path("X", (), "xname"))),)),
        ((z,), (Eq(PathApp("x", Path("X", ("f", "g"))), Var("z")),)),
        # ill-typed: a Z pinned into a Y, which the scan never matches
        ((y,), (Eq(PathApp("x", Path("X", ("f", "g"))), Var("y")),)),
    ]
    return [(inst, Constraint((("x", "X"),), (), ex, concl)) for ex, concl in conclusions]


def test_conclusion_satisfied_agrees_with_oracle(example1_saturated, example2_saturated):
    witness_cases = _witness_cases()
    pins = [[step.pin is not None for step in c.plan.conclusion] for _, c in witness_cases]
    assert pins == [[True, True]] * 3 + [[False], [True], [True]]
    cases = witness_cases + _differential_cases(example1_saturated, example2_saturated)
    outcomes: set[tuple[bool, bool]] = set()
    for inst, c in cases:
        for env in enumerate_matches(inst, c):
            got = conclusion_satisfied(inst, c, env)
            assert got == helpers.oracle_conclusion_satisfied(inst, c, env), (c, env)
            outcomes.add((bool(c.existentials), got))
    assert len(outcomes) == 4
    seen = [{conclusion_satisfied(inst, c, env) for env in enumerate_matches(inst, c)}
            for inst, c in witness_cases]
    assert seen == [{False, True}] * 5 + [{False}]


def _existential_case(n: int) -> tuple[Instance, list[Constraint]]:
    """2n X rows, f set on every other one; n Y rows."""
    schema = Schema("S", ("X", "Y"), (ForeignKey("f", "X", "Y"),), ())
    inst = new_instance(schema, "existential")
    ys = [inst.add_element("Y", f"y{k:03d}") for k in range(n)]
    for k in range(2 * n):
        x = inst.add_element("X", f"x{k:03d}")
        if k % 2 == 0:
            inst.set_fk(x, "f", ys[k // 2])
    rule = Constraint(
        (("x", "X"),), (), (("y", "Y"),), (Eq(PathApp("x", Path("X", ("f",))), Var("y")),)
    )
    return inst, [rule]


def _name_join_case(n: int) -> tuple[Instance, list[Constraint]]:
    """n Locations named by spaceName and n by roomName, paired by name."""
    st = BaseType.STRING
    schema = Schema(
        "L", ("Location",), (),
        (Attribute("spaceName", "Location", st), Attribute("roomName", "Location", st)),
    )
    inst = new_instance(schema, "locations")
    for k in range(n):
        for attr in ("spaceName", "roomName"):
            elem = inst.add_element("Location", f"{attr}{k:03d}")
            inst.set_attr(elem, attr, Const(st, f"Room {k}"))
    rule = Constraint(
        (("l1", "Location"), ("l2", "Location")),
        (Eq(PathApp("l1", Path("Location", (), "spaceName")),
            PathApp("l2", Path("Location", (), "roomName"))),),
        (),
        (Eq(Var("l1"), Var("l2")),),
    )
    return inst, [rule]


@pytest.mark.parametrize("build", [_existential_case, _name_join_case])
def test_matching_work_grows_linearly(monkeypatch, build):
    """Term evaluations in chase plus check_model, counted at n and 4n: a
    carrier scan per match would grow them about 16-fold."""
    def evaluations(n: int) -> int:
        calls = 0
        original = catamerge.instance.eval_term

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        pre, constraints = build(n)
        with monkeypatch.context() as m:
            m.setattr(catamerge.instance, "eval_term", counting)
            result = chase(pre, constraints)
            assert result.saturated and check_model(result.instance, constraints).ok
        return calls

    small, large = evaluations(20), evaluations(80)
    assert large <= 5 * small, (small, large)


def test_pinned_vars_depend_only_on_earlier_pins(example1, example2):
    constraints = [c for _, c in _matcher_cases()]
    for _, combined, _ in (example1, example2):
        constraints.extend(combined.schema.constraints)
    for c in constraints:
        earlier: set[str] = set()
        pinned = constraint_pinned_vars(c)
        for name, atom in pinned.items():
            other = atom.right if isinstance(atom.left, Var) and atom.left.name == name else atom.left
            assert _term_vars(other) & pinned.keys() <= earlier, (c, name)
            earlier.add(name)
    assert [list(constraint_pinned_vars(c)) for c in constraints[:4]] == [
        ["b", "c"], ["b"], ["b"], ["b", "a"],
    ]


def test_chase_soundness_on_examples(example1_saturated, example2_saturated):
    for _, combined, _, result in (example1_saturated, example2_saturated):
        report = check_model(result.instance, list(combined.schema.constraints))
        assert report.ok


def test_merges_are_monotone(example2_saturated):
    _, _, _, result = example2_saturated
    sat = result.instance
    for entry in result.trace.entries:
        for m in entry.mutations:
            if isinstance(m, MergePair):
                a = sat.element_named(m.a.entity, m.a.name)
                b = sat.element_named(m.b.entity, m.b.name)
                assert sat.same(a, b), "a merged pair stays merged"


def test_reversed_constraint_order_isomorphic(example1, example2):
    for _, combined, pre in (example1, example2):
        cs = list(combined.schema.constraints)
        fwd = chase(pre, cs)
        rev = chase(pre, list(reversed(cs)))
        assert fwd.status == rev.status == SATURATED
        outcome = verify_universality(fwd.instance, rev.instance)
        assert outcome.isomorphic, outcome.reason


def test_universality_reflexive(example2_saturated):
    _, _, _, result = example2_saturated
    assert verify_universality(result.instance, result.instance).isomorphic


def test_universality_detects_extra_element(example2_saturated):
    _, _, pre, result = example2_saturated
    bigger = result.instance.copy()
    bigger.add_element("BRICK_Zone", "extra_zone")
    outcome = verify_universality(result.instance, bigger)
    assert not outcome.isomorphic
    assert "BRICK_Zone" in (outcome.reason or "")


def test_constant_clash_aborts_with_deterministic_prefix():
    env = helpers.load_text(helpers.clash_fixture_text(), "clash.cmg")
    combined = combine_schemas(env.extensions["CombinedThreeWay"])
    pre = sigma_insert(
        combined,
        {
            "IFC": env.instances["ifc_model"],
            "BRICK": env.instances["brick_model"],
            "REC": env.instances["rec_model"],
        },
    )
    first = chase(pre, list(combined.schema.constraints))
    second = chase(pre, list(combined.schema.constraints))
    assert first.status == FAILED
    assert first.clash is not None and "99.9" in str(first.clash)
    assert first.trace.render() == second.trace.render()
    assert instances_same_data(replay(pre, first.trace), replay(pre, second.trace))


def test_exhaustion_reported(example2):
    _, combined, pre = example2
    result = chase(pre, list(combined.schema.constraints), ChaseConfig(max_rounds=1))
    assert result.status == EXHAUSTED
    assert result.rounds == 1


def test_weak_acyclicity_guard_blocks_cyclic_sets():
    schema = Schema("S", ("E",), (ForeignKey("next", "E", "E"),))
    c = Constraint(
        universals=(("e", "E"),),
        premise=(),
        existentials=(("e2", "E"),),
        conclusion=(Eq(PathApp("e", Path("E", ("next",))), Var("e2")),),
    )
    inst = new_instance(schema)
    inst.add_element("E", "seed")
    with pytest.raises(ChasePreconditionError):
        chase(inst, [c])
    # opting out of the guard falls back to the round budget
    result = chase(inst, [c], ChaseConfig(max_rounds=5, require_weak_acyclicity=False))
    assert result.status == EXHAUSTED


def test_chase_saturates_random_weakly_acyclic_sets():
    rng = random.Random(2024)
    for _ in range(40):
        schema, inst, constraints = helpers.random_weakly_acyclic_case(rng)
        result = chase(inst, constraints)
        assert result.status == SATURATED, schema.name
        report = check_model(result.instance, constraints)
        assert report.ok


def test_scaled_fixture_uses_identical_extension_text():
    from catamerge.generators import EXAMPLE1_EXTENSION_TEXT, scaled_example1_document

    fixture = (helpers.FIXTURES / "example1.cmg").read_text(encoding="utf-8")
    assert EXAMPLE1_EXTENSION_TEXT in fixture
    assert EXAMPLE1_EXTENSION_TEXT in scaled_example1_document(50)


def test_scaling_fifty_rooms():
    from catamerge.generators import scaled_example1_document
    from catamerge.query import evaluate

    env = helpers.load_text(scaled_example1_document(50), "scaled50.cmg")
    combined = combine_schemas(env.extensions["Combined"])
    pre = sigma_insert(
        combined,
        {"IFC": env.instances["ifc_model"], "BRICK": env.instances["brick_model"]},
    )
    result = chase(pre, list(combined.schema.constraints))
    assert result.status == SATURATED
    table = evaluate(env.queries["q"], result.instance)
    assert len(table.rows) == 50
    assert all(
        row[2] == f"TUC.245.77.R{i:03d}" for i, row in enumerate(table.rows, start=1)
    )


def test_function_term_in_conclusion_anchors_value():
    text = """
schema P {
  entities Person
  attributes first : Person -> String  last : Person -> String  full : Person -> String
}
extension E {
  include P
  constraints
    forall x : Person -> x.full = concat(x.first, x.last)
}
"""
    env = helpers.load_text(text)
    combined = combine_schemas(env.extensions["E"])
    inst = new_instance(combined.schema)
    p = inst.add_element("P_Person", "p1")
    inst.set_attr(p, "first", Const(BaseType.STRING, "Ada "))
    inst.set_attr(p, "last", Const(BaseType.STRING, "L."))
    result = chase(inst, list(combined.schema.constraints))
    assert result.status == SATURATED
    elem = result.instance.element_named("P_Person", "p1")
    assert result.instance.get_attr(elem, "full") == Const(BaseType.STRING, "Ada L.")
    # with an unknown argument the equation stays pending, not crashing
    inst2 = new_instance(combined.schema)
    inst2.add_element("P_Person", "p2")
    result2 = chase(inst2, list(combined.schema.constraints))
    assert result2.status == SATURATED


def test_chase_config_validates_round_budget():
    with pytest.raises(ValueError):
        ChaseConfig(max_rounds=0)
    assert ChaseConfig(max_rounds=1).max_rounds == 1
