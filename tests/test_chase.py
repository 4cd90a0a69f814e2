from __future__ import annotations

import dataclasses
import importlib
import random
from collections import Counter

import pytest

import helpers
from catamerge import (
    ChaseConfig,
    ChasePreconditionError,
    Instance,
    chase,
    check_model,
    check_weak_acyclicity,
    combine_schemas,
    fire_once,
    instances_same_data,
    new_instance,
    print_canonical,
    sigma_insert,
    verify_universality,
)
from catamerge.chase import EXHAUSTED, FAILED, SATURATED, MergePair, premise_reads, replay
import catamerge.instance
from catamerge.instance import (
    CREATED,
    DEFINED,
    MERGED,
    NULLS,
    NullRef,
    VirtualElem,
    conclusion_satisfied,
    enumerate_matches,
    values_equal,
)
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


def test_chase_trace_replays_exactly(example1, example2):
    created = []
    for _, combined, pre in (example1, example2):
        result = chase(pre, list(combined.schema.constraints))
        replayed = replay(pre, result.trace)
        assert instances_same_data(replayed, result.instance)
        created.append(result.trace.render().count("created("))
    assert created[0] == 5  # example 1 synthesizes its points


def test_replay_refuses_a_trace_over_other_elements(example1_saturated):
    """A trace names the elements it changes; replayed onto an instance
    that lacks them, it fails instead of changing some other element."""
    _, _, pre, result = example1_saturated
    with pytest.raises(ChasePreconditionError, match="trace references unknown element"):
        replay(new_instance(pre.schema), result.trace)


SELF_POINTING_DOC = """
schema S {
  entities X Y
  foreign_keys f : X -> Y  g : Y -> Y
}
instance i : S { entity X { row x { } } }
extension E {
  include S
  constraints
    forall x : X -> x.f = x.f.g
}
"""


def test_a_side_that_sets_the_other_sides_key_merges_into_it():
    """Both sides of ``x.f = x.f.g`` end in an unset foreign key, and the
    right one sets ``x.f`` to a fresh ``Y`` on its way. The left side, read
    again, is then that ``Y``, and its ``g`` is defined to point to itself:
    no second witness is minted and none is merged away. The guard rejects
    the rule (cycle ``S_Y.g``), so this chase runs without it."""
    env = helpers.load_text(SELF_POINTING_DOC)
    combined = combine_schemas(env.extensions["E"])
    pre = sigma_insert(combined, {"S": env.instances["i"]})
    cs = list(combined.schema.constraints)
    with pytest.raises(ChasePreconditionError, match=r"cycle: S_Y\.g"):
        chase(pre, cs)
    result = chase(pre, cs, ChaseConfig(require_weak_acyclicity=False))
    assert result.saturated and check_model(result.instance, cs).ok
    assert result.trace.render() == (
        "round 1: c1 @ x=S.x -> created(S_Y:S_Y!1.0); defined(S.x.f, S_Y!1.0); "
        "defined(S_Y!1.0.g, S_Y!1.0)\n"
    )
    assert instances_same_data(replay(pre, result.trace), result.instance)


def test_two_sides_ending_in_one_unset_key_set_it_once():
    """Both sides of ``y.h = y.h`` are one entity-sorted term, so the
    equation holds everywhere: the plan neither checks nor enforces it, and a
    fresh ``y`` witnesses the rule with its ``y.h`` unset. Both sides of
    ``y.h.m = y.h.m`` read ``m`` through the one unset ``y.h``, which is
    UNDEFINED until set, so a fresh witness sets it, once. ``x.f = x.f``
    holds as it stands, on virtual elements, so a firing for ``x.k = "a"``
    sets no key for it."""
    env = helpers.load_text("""
schema S {
  entities X Y Z
  foreign_keys f : X -> Y  h : Y -> Z
  attributes k : X -> String  m : Z -> String
}
instance i : S { entity X { row x { } } }
extension E { include S  constraints forall x : X -> exists y : Y , y.h = y.h }
extension F { include S  constraints forall x : X -> x.f = x.f and x.k = "a" }
extension G { include S  constraints forall x : X -> exists y : Y , y.h.m = y.h.m }
""")
    traces, checked = [], []
    for name in ("E", "F", "G"):
        combined = combine_schemas(env.extensions[name])
        pre = sigma_insert(combined, {"S": env.instances["i"]})
        cs = list(combined.schema.constraints)
        plan = cs[0].plan
        checked.append((len(plan.witness_checks), len(plan.enforce)))
        result = chase(pre, cs)
        assert result.saturated and check_model(result.instance, cs).ok
        traces.append(result.trace.render())
    assert checked == [(0, 0), (1, 1), (1, 1)]
    assert traces == [
        "round 1: c1 @ x=S.x,y=S_Y!1.0 -> created(S_Y:S_Y!1.0)\n",
        "round 1: c1 @ x=S.x -> assigned(S.x.k, a)\n",
        "round 1: c1 @ x=S.x,y=S_Y!1.0 -> created(S_Y:S_Y!1.0); created(S_Z:S_Z!1.1); "
        "defined(S_Y!1.0.h, S_Z!1.1)\n",
    ]


def test_an_equation_that_holds_merges_nothing_when_a_witness_is_minted():
    """``x.f = x.g`` holds, both keys reaching ``z``, but with ``Y`` empty no
    ``y`` witnesses the conclusion, so the firing mints one and enforces
    the equation on one class: no merge."""
    env = helpers.load_text("""
schema S {
  entities X Y Z
  foreign_keys f : X -> Z  g : X -> Z
}
instance i : S { entity Z { row z { } } entity X { row x { f = z g = z } } }
extension E { include S  constraints forall x : X -> exists y : Y , x.f = x.g }
""")
    combined = combine_schemas(env.extensions["E"])
    pre = sigma_insert(combined, {"S": env.instances["i"]})
    cs = list(combined.schema.constraints)
    result = chase(pre, cs)
    assert result.saturated and check_model(result.instance, cs).ok
    assert result.trace.render() == "round 1: c1 @ x=S.x,y=S_Y!1.0 -> created(S_Y:S_Y!1.0)\n"


def test_an_equation_left_out_of_the_plan_still_counts_as_one_of_several():
    """The plan leaves ``y.h = y.h`` out of ``enforce``, but the conclusion
    still has two equations, and it fails only for want of a ``y``. Both
    sides of ``x.f.g = x.k.g`` are the one unset ``z.g``, so it holds on
    virtual elements and the firing mints ``y`` and sets no key."""
    env = helpers.load_text("""
schema S {
  entities X Y Z W
  foreign_keys f : X -> Z  k : X -> Z  g : Z -> W  h : Y -> Z
}
instance i : S { entity Z { row z { } } entity X { row x { f = z k = z } } }
extension E { include S  constraints forall x : X -> exists y : Y , y.h = y.h and x.f.g = x.k.g }
""")
    combined = combine_schemas(env.extensions["E"])
    pre = sigma_insert(combined, {"S": env.instances["i"]})
    cs = list(combined.schema.constraints)
    assert len(cs[0].plan.enforce) == 1
    result = chase(pre, cs)
    assert result.saturated and check_model(result.instance, cs).ok
    assert result.trace.render() == "round 1: c1 @ x=S.x,y=S_Y!1.0 -> created(S_Y:S_Y!1.0)\n"


def test_an_identity_path_in_a_conclusion_is_its_variable():
    """The parser writes an empty path as its variable, but ``PathApp`` over
    an identity path is a well-typed term too; as a conclusion side it is
    the variable's class, so the chase merges as with the variable."""
    st = BaseType.STRING
    schema = Schema("S", ("X",), (), (Attribute("k", "X", st),))
    inst = new_instance(schema)
    for name, key in (("x1", "a"), ("x2", "a"), ("x3", "b")):
        inst.set_attr(inst.add_element("X", name), "k", Const(st, key))
    k = lambda v: PathApp(v, Path("X", (), "k"))  # noqa: E731

    def rule(side) -> Constraint:
        return Constraint((("x", "X"), ("y", "X")), (Eq(k("x"), k("y")),), (), (Eq(side, Var("y")),))

    traces = [chase(inst, [rule(side)]).trace.render() for side in (PathApp("x", Path("X")), Var("x"))]
    assert traces[0] == traces[1] == "round 1: c1 @ x=x1,y=x1 -> merged(x1, x2)\n"


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
        (Eq(Var("c"), g("b")), Eq(Var("b"), f("a"))),  # out of order: both pinned
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


SAME_CELL_DOC = """
schema S {
  entities L
  attributes k : L -> String  m : L -> Int
}
instance i : S { entity L { row a { k = "x" } row b { } } }
extension E {
  include S
  constraints
    forall p q : L where p.k = q.k -> p.m = 1
}
"""


def test_same_attribute_join_matches_an_unobserved_cell_with_itself():
    """``p.k = q.k`` holds for ``p = q = b`` although ``b.k`` is unset: both
    sides read the one cell. So ``b`` gets ``m = 1`` like ``a``."""
    env = helpers.load_text(SAME_CELL_DOC)
    combined = combine_schemas(env.extensions["E"])
    pre = sigma_insert(combined, {"S": env.instances["i"]})
    (rule,) = combined.schema.constraints
    matches = list(enumerate_matches(pre, rule))
    assert [(m["p"].name, m["q"].name) for m in matches] == [("S.a", "S.a"), ("S.b", "S.b")]
    sat = helpers.saturate(pre, [rule]).instance
    one = Const(BaseType.INT, 1)
    assert [sat.get_attr(m["p"], "m") for m in matches] == [one, one]
    assert check_model(sat, [rule]).ok


def test_fk_join_matches_pairs_that_share_an_unset_target():
    """``p.g.k = q.g.k`` holds for every pair whose ``g`` reaches the same
    unset ``k``: ``p1`` and ``p2`` both point to ``y1``."""
    st = BaseType.STRING
    schema = Schema("F", ("X", "Y"), (ForeignKey("g", "X", "Y"),), (Attribute("k", "Y", st),))
    inst = new_instance(schema, "shared")
    y1, y2 = inst.add_element("Y", "y1"), inst.add_element("Y", "y2")
    p1, p2, p3 = (inst.add_element("X", f"p{i}") for i in (1, 2, 3))
    inst.set_fk(p1, "g", y1)
    inst.set_fk(p2, "g", y1)
    inst.set_fk(p3, "g", y2)
    inst.set_attr(y2, "k", Const(st, "z"))
    gk = lambda v: PathApp(v, Path("X", ("g",), "k"))  # noqa: E731
    rule = Constraint(
        (("p", "X"), ("q", "X")), (Eq(gk("p"), gk("q")),), (), (Eq(Var("p"), Var("q")),)
    )
    pairs = [(m["p"].name, m["q"].name) for m in enumerate_matches(inst, rule)]
    assert pairs == [("p1", "p1"), ("p1", "p2"), ("p2", "p1"), ("p2", "p2"), ("p3", "p3")]
    assert pairs == [(m["p"].name, m["q"].name) for m in helpers.oracle_binder_matches(inst, rule)]
    sat = helpers.saturate(inst, [rule]).instance
    assert sat.same(p1, p2) and not sat.same(p1, p3)


def _binder_oracle_cases() -> list[tuple[Instance, Constraint]]:
    """Both fixtures and the many-schema shape at k = 5, 10 and 20, before
    and after their chase, and 300 seeded ``random_join_case``s, each also
    after its chase when that saturates."""
    cases = []
    pipelines = [helpers.example1_pipeline(), helpers.example2_pipeline()]
    instances = [(pre, list(combined.schema.constraints)) for _, combined, pre in pipelines]
    instances += [helpers.many_schemas_case(k, 50) for k in (5, 10, 20)]
    rng = random.Random(16)
    instances += [helpers.random_join_case(rng) for _ in range(300)]
    for pre, constraints in instances:
        result = helpers.saturate(pre, constraints)
        for inst in (pre, result.instance) if result.saturated else (pre,):
            cases.extend((inst, c) for c in constraints)
    return cases


def test_enumerate_matches_agrees_with_binder_oracle():
    """The observed-cell indexes and walks give the per-binder pool
    matcher's matches in its order, and the corpus reaches both kinds of
    match an unobserved cell makes."""
    self_pairs = through_fks = 0
    for inst, c in _binder_oracle_cases():
        got = [list(env.items()) for env in enumerate_matches(inst, c)]
        assert got == [list(env.items()) for env in helpers.oracle_binder_matches(inst, c)], c
        left = c.premise[0].left if c.premise else Var(c.universals[0][0])
        for env in map(dict, got):
            # a match made by an unobserved cell, read on both sides
            if helpers.unobserved(inst, catamerge.instance.eval_term(inst, env, left)):
                if left.path.fks:
                    through_fks += 1
                else:
                    self_pairs += 1
    assert self_pairs > 50 and through_fks > 50, (self_pairs, through_fks)


def test_chase_agrees_with_binder_oracle_on_join_cases(monkeypatch):
    """Traces, statuses and pending constraints are those of a chase whose
    matches come from the per-binder pool matcher."""
    rng = random.Random(17)
    cases = [helpers.random_join_case(rng) for _ in range(300)]
    got = [chase(inst, cs) for inst, cs in cases]
    monkeypatch.setattr(importlib.import_module("catamerge.chase"), "enumerate_matches",
                        helpers.oracle_binder_matches)
    want = [chase(inst, cs) for inst, cs in cases]
    assert {r.status for r in got} == {SATURATED, FAILED}
    def outcome(r):
        return r.status, r.rounds, r.pending, r.trace.render()

    assert list(map(outcome, got)) == list(map(outcome, want))


def test_join_cases_agree_with_oracles():
    """300 seeded ``random_join_case``s, before and after the chase: the
    matches are those of the oracle that checks every premise atom again,
    and ``conclusion_satisfied`` gives the oracle's answer on each. Among
    the rules are the pinned premises ``q = p.g``, alone and with a check
    ``q.a = r.b`` that reads ``q``; the pin decides its own equation, so it
    is no check. The seeds reach the lone pin with pins to elements and to
    virtual ones, and the check both passing and failing; a virtual pin
    reads no attribute, so it never passes the check."""
    rng = random.Random(24)
    seen: set[tuple[int, bool]] = set()
    checked = []  # per instance and checked shape: (matches, tuples (p, r))
    answers = set()
    for _ in range(300):
        pre, constraints = helpers.random_join_case(rng)
        result = helpers.saturate(pre, constraints)
        for c in constraints:
            if c.plan.pins:
                assert [step.var for step in c.plan.pins] == ["q"] and c.plan.checks == c.premise[1:]
            for inst in (pre, result.instance) if result.saturated else (pre,):
                got = list(enumerate_matches(inst, c))
                assert [list(env.items()) for env in got] == [
                    list(env.items()) for env in helpers.oracle_matches(inst, c)], c
                for env in got:
                    answer = conclusion_satisfied(inst, c, env)
                    assert answer == helpers.oracle_conclusion_satisfied(inst, c, env), (c, env)
                    answers.add(answer)
                if c.plan.pins:
                    seen.update((len(c.premise), isinstance(env["q"], VirtualElem)) for env in got)
                if len(c.plan.pins) == 1 and len(c.premise) == 2:
                    checked.append((len(got), len(inst.carrier("X")) ** 2))
    assert seen == {(1, False), (1, True), (2, False)} and answers == {False, True}
    assert any(0 < got < tuples for got, tuples in checked)


def test_join_reads_mint_no_null():
    """Index builds, probes and premise checks read cells without minting:
    the many-schema chase mints no null, and neither does ``check_model``
    on a saturation."""
    pre, constraints = helpers.many_schemas_case(5, 20)
    result = helpers.saturate(pre, constraints)
    sat = result.instance
    assert result.saturated and len(sat._null_parent) == len(pre._null_parent) == 0
    _, combined, pre2 = helpers.example2_pipeline()
    sat2 = helpers.saturate(pre2, combined.schema.constraints).instance
    before = len(sat2._null_parent)
    assert check_model(sat2, list(combined.schema.constraints)).ok
    assert len(sat2._null_parent) == before


def test_index_reads_grow_linearly_in_schemas(monkeypatch):
    """The elements read to build hash indexes and walks, in chase plus
    check_model of the many-schema shape at m = 50: each rule used to scan
    the whole combined carrier (x4 per doubling of k); shared indexes over
    observed cells read each cell once per round."""
    def reads(k: int) -> int:
        count = 0
        Instance = catamerge.instance.Instance
        observed_cells, pool = Instance.observed_cells, catamerge.instance._Binder._pool

        def counting_cells(self, entity, attr):
            nonlocal count
            built = (entity, attr) not in self._indexes
            roots, index = observed_cells(self, entity, attr)
            count += len(roots) if built else 0
            return roots, index

        def counting_pool(self, step):
            nonlocal count
            if step.observed is None:
                count += len(self.inst.carrier(step.entity))
            return pool(self, step)

        pre, constraints = helpers.many_schemas_case(k, 50)
        with monkeypatch.context() as m:
            m.setattr(Instance, "observed_cells", counting_cells)
            m.setattr(catamerge.instance._Binder, "_pool", counting_pool)
            result = chase(pre, constraints)
            assert result.saturated and check_model(result.instance, constraints).ok
        return count

    counts = [reads(k) for k in (5, 10, 20)]
    assert all(b <= 2.2 * a for a, b in zip(counts, counts[1:])), counts


def _witness_cases() -> list[tuple[Instance, Constraint]]:
    """Conclusions whose existentials are pinned in a chain, in the chain's
    reverse order, through undefined foreign keys and onto merged classes,
    one existential that no equation pins, one ill-typed pin, and a pin
    after a scanned existential, also over a copy with a ``Y`` whose ``g``
    is unset."""
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
        # y is scanned, then z pinned by y's g
        ((y, z), (Eq(PathApp("y", Path("Y", (), "yname")), PathApp("x", Path("X", (), "xname"))),
                  Eq(Var("z"), g))),
    ]
    cases = [(inst, Constraint((("x", "X"),), (), ex, concl)) for ex, concl in conclusions]
    unset = inst.copy()
    unset.set_attr(unset.add_element("Y", "y6"), "yname", Const(st, "n3"))
    return cases + [(unset, cases[-1][1])]


def test_conclusion_satisfied_agrees_with_oracle(example1_saturated, example2_saturated):
    witness_cases = _witness_cases()
    pins = [[step.pin is not None for step in c.plan.conclusion] for _, c in witness_cases]
    assert pins == [[True, True]] * 3 + [[False], [True], [True]] + [[False, True]] * 2
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
    assert seen == [{False, True}] * 5 + [{False}] + [{False, True}] * 2


def test_conclusion_without_existentials_builds_no_binder(
    monkeypatch, example1_saturated, example2_saturated
):
    """A constraint with no existential has its conclusion checked on the
    match itself: no ``_Binder`` is built, and the answers are the oracle's."""
    cases = _differential_cases(example1_saturated, example2_saturated)
    matches = [(inst, c, env) for inst, c in cases if not c.existentials
               for env in enumerate_matches(inst, c)]
    _assert_oracle_answers_without_a_binder(monkeypatch, matches)


def test_pinned_conclusion_builds_no_binder(
    monkeypatch, example1_saturated, example2_saturated
):
    """A conclusion whose existentials are all pinned is solved from the
    pins directly: no ``_Binder`` is built, the equations a pin decides are
    not checked again, and the answers are the oracle's."""
    cases = _witness_cases() + _differential_cases(example1_saturated, example2_saturated)
    pinned = [(inst, c) for inst, c in cases
              if c.existentials and all(step.pin is not None for step in c.plan.conclusion)]
    assert all(len(c.plan.witness_checks) < len(c.conclusion) for _, c in pinned)
    matches = [(inst, c, env) for inst, c in pinned for env in enumerate_matches(inst, c)]
    _assert_oracle_answers_without_a_binder(monkeypatch, matches)


def _assert_oracle_answers_without_a_binder(monkeypatch, matches) -> None:
    """``conclusion_satisfied`` on each (instance, constraint, match) builds
    no ``_Binder``, gives the oracle's answers, and gives both answers."""
    def no_binder(*args, **kwargs):
        raise AssertionError("a _Binder was built")

    monkeypatch.setattr(catamerge.instance, "_Binder", no_binder)
    got = [conclusion_satisfied(inst, c, env) for inst, c, env in matches]
    assert got == [helpers.oracle_conclusion_satisfied(inst, c, env) for inst, c, env in matches]
    assert set(got) == {False, True}


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
        pinned = {step.var for step in c.plan.pins}
        earlier: set[str] = set()
        for step in c.plan.pins:
            assert _term_vars(step.pin) & pinned <= earlier, (c, step.var)
            earlier.add(step.var)
    assert [[step.var for step in c.plan.pins] for c in constraints[:4]] == [
        ["b", "c"], ["b", "c"], ["b"], ["b", "a"],
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


def _order_invariant(pre: Instance, constraints: list[Constraint], orders) -> str:
    """The status of the chase under ``constraints``, after checking that each
    other order gives it too, with the trace of ``oracle_chase`` under that
    order, and on saturation a model that the trace replays to and that is
    isomorphic to the first."""
    base = helpers.saturate(pre, constraints)
    for order in orders:
        other = helpers.saturate(pre, order)
        assert other.status == base.status, order
        assert other.trace.render() == helpers.oracle_chase(pre, order).trace.render()
        if base.saturated:
            assert check_model(other.instance, constraints).ok
            assert instances_same_data(replay(pre, other.trace), other.instance)
            outcome = verify_universality(base.instance, other.instance)
            assert outcome.isomorphic, outcome.reason
    return base.status


def _shuffles(rng: random.Random, constraints: list[Constraint]) -> list[list[Constraint]]:
    return [rng.sample(constraints, len(constraints)) for _ in range(3)]


def test_reversed_constraint_order_isomorphic(example1, example2):
    """The chase gives the same status whatever the constraint order, the
    trace of the naive round loop under that order and, on saturation, a
    model that the trace replays to, the same one up to isomorphism. Checked
    under the reversed order of both fixtures and under 3 seeded shuffles of
    the order of both fixtures, 200 ``random_join_case``s and 200 weakly
    acyclic cases without and with constants."""
    rng = random.Random(25)
    for _, combined, pre in (example1, example2):
        cs = list(combined.schema.constraints)
        assert _order_invariant(pre, cs, [cs[::-1], *_shuffles(rng, cs)]) == SATURATED
    statuses = [Counter(_order_invariant(pre, cs, _shuffles(rng, cs))
                        for pre, cs in (helpers.random_join_case(rng) for _ in range(200)))]
    for constants in (False, True):
        cases = (helpers.random_weakly_acyclic_case(random.Random(seed), constants) for seed in range(200))
        statuses.append(Counter(_order_invariant(pre, cs, _shuffles(rng, cs)) for _, pre, cs in cases))
    assert [set(counts) for counts in statuses] == [{SATURATED, FAILED}, {SATURATED}, {SATURATED, FAILED}]


def _outputs(pre: Instance, constraints: list[Constraint]) -> tuple[str, str]:
    """The chase's trace, and its saturation as ``print_canonical`` writes it
    (the status when it does not saturate)."""
    result = helpers.saturate(pre, constraints)
    return result.trace.render(), print_canonical(result.instance) if result.saturated else result.status


def _classes(inst: Instance) -> list[list[str]]:
    return [[m.name for m in inst.members(root)] for entity in inst.schema.entities
            for root in inst.carrier(entity)]


def test_row_order_changes_no_output_byte(example1, example2):
    """The trace and the printed saturation do not depend on the order of
    the input rows: both fixtures with their row lines shuffled under 3
    seeds, and 200 weakly acyclic cases without and with constants and 200
    ``random_join_case``s, with each entity's elements added in reverse
    (``helpers.rows_reversed``, which keeps the classes, foreign keys,
    constants and null classes)."""
    for pipeline, (_, combined, pre) in ((helpers.example1_pipeline, example1),
                                         (helpers.example2_pipeline, example2)):
        expected = _outputs(pre, list(combined.schema.constraints))
        for seed in range(3):
            _, combined, shuffled = pipeline(random.Random(seed))
            assert _outputs(shuffled, list(combined.schema.constraints)) == expected, seed
    cases = [(pre, cs) for constants in (False, True) for _, pre, cs in (
        helpers.random_weakly_acyclic_case(random.Random(seed), constants) for seed in range(200))]
    cases += [helpers.random_join_case(random.Random(seed)) for seed in range(200)]
    for k, (pre, cs) in enumerate(cases):
        reversed_pre = helpers.rows_reversed(pre)
        assert instances_same_data(reversed_pre, pre) and _classes(reversed_pre) == _classes(pre), k
        assert _outputs(reversed_pre, cs) == _outputs(pre, cs), k


def test_universality_reflexive(example2_saturated):
    _, _, _, result = example2_saturated
    assert verify_universality(result.instance, result.instance).isomorphic


def test_universality_detects_extra_element(example2_saturated):
    _, _, pre, result = example2_saturated
    bigger = result.instance.copy()
    bigger.add_element("BRICK_Zone", "extra_zone")
    outcome = verify_universality(result.instance, bigger)
    assert not outcome
    assert "BRICK_Zone" in (outcome.reason or "")


def test_universality_reports_other_schemas_and_other_user_rows(
    example1_saturated, example2_saturated
):
    sat1, sat2 = example1_saturated[3].instance, example2_saturated[3].instance
    assert verify_universality(sat1, sat2).reason == "schemas differ"
    schema = Schema("S", ("X",), (), ())
    one, other = new_instance(schema), new_instance(schema)
    one.add_element("X", "a")
    other.add_element("X", "b")
    assert verify_universality(one, other).reason == "no class with user rows ['a'] in the other instance"


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


_PENDING_TGD = """
schema S {
  entities X Y
  attributes b : X -> Int  a : Y -> Int
}
extension E {
  include S
  constraints
    forall x : X -> exists y : Y , y.a = add(x.b, 1)
}
"""


def test_function_term_with_unknown_argument_mints_nothing():
    env = helpers.load_text(_PENDING_TGD)
    combined = combine_schemas(env.extensions["E"])
    constraints = list(combined.schema.constraints)
    assert check_weak_acyclicity(constraints, combined.schema).acyclic
    inst = new_instance(combined.schema)
    x = inst.add_element("S_X", "x1")
    # x.b is null: the firing stays pending instead of minting a Y per round
    pending = chase(inst, constraints, ChaseConfig(max_rounds=20))
    assert (pending.status, pending.rounds, pending.trace.entries) == (SATURATED, 1, [])
    assert not check_model(pending.instance, constraints).ok
    inst.set_attr(x, "b", Const(BaseType.INT, 1))
    result = chase(inst, constraints, ChaseConfig(max_rounds=20))
    assert result.status == SATURATED
    (y,) = result.instance.carrier("S_Y")
    assert result.instance.get_attr(y, "a") == Const(BaseType.INT, 2)
    assert check_model(result.instance, constraints).ok


def _existential_attr_tgd(first: str, second: str) -> str:
    """``_PENDING_TGD``'s schema plus ``b : Y -> Int``, with a rule whose
    conclusion reads the existential's ``b`` inside a function."""
    return f"""
schema S {{
  entities X Y
  attributes b : X -> Int  a : Y -> Int  b : Y -> Int
}}
extension E {{
  include S
  constraints
    forall x : X -> exists y : Y , {first} and {second}
}}
"""


_EQUATION_ORDERS = (("y.b = x.b", "y.a = add(y.b, 1)"), ("y.a = add(y.b, 1)", "y.b = x.b"))
# both equations have a function side, and one reads the attribute the other sets
_FUNCTION_EQUATION_ORDERS = (
    ("y.a = add(y.b, 1)", "y.b = add(x.b, 1)"), ("y.b = add(x.b, 1)", "y.a = add(y.b, 1)"),
)


def _one_x(text: str, b, attr: str = "b") -> tuple[Instance, list[Constraint]]:
    combined = combine_schemas(helpers.load_text(text).extensions["E"])
    constraints = list(combined.schema.constraints)
    assert check_weak_acyclicity(constraints, combined.schema).acyclic
    inst = new_instance(combined.schema)
    x = inst.add_element("S_X", "x1")
    if b is not None:
        inst.set_attr(x, attr, Const(BaseType.INT, b))
    return inst, constraints


def _chase_one_x(text: str, b, attr: str = "b"):
    inst, constraints = _one_x(text, b, attr)
    return chase(inst, constraints, ChaseConfig(max_rounds=20)), constraints


def test_conclusion_equation_order_changes_no_chase():
    for orders, a in ((_EQUATION_ORDERS, 2), (_FUNCTION_EQUATION_ORDERS, 3)):
        runs = [_chase_one_x(_existential_attr_tgd(*order), 1) for order in orders]
        for result, constraints in runs:
            assert (result.status, result.rounds) == (SATURATED, 2), orders
            (y,) = result.instance.carrier("S_Y")
            assert result.instance.get_attr(y, "a") == Const(BaseType.INT, a)
            assert check_model(result.instance, constraints).ok
        (forward, _), (backward, _) = runs
        assert forward.trace.render() == backward.trace.render()
        assert len(forward.trace.entries) == 1


def test_function_over_existential_attribute_mints_nothing():
    for order in _EQUATION_ORDERS + _FUNCTION_EQUATION_ORDERS:
        # x.b is null, so y.a = add(y.b, 1) has no value yet, whatever y.b is set to
        result, constraints = _chase_one_x(_existential_attr_tgd(*order), None)
        assert (result.status, result.rounds, result.trace.entries) == (SATURATED, 1, []), order
        assert [v.index for v in check_model(result.instance, constraints).violations()] == [1]


def _unset_existential_tgd(conclusion: str) -> str:
    return f"""
schema S {{
  entities X Y
  attributes c : X -> Int  b : Y -> Int  c : Y -> Int  d : Y -> Int
}}
extension E {{
  include S
  constraints
    forall x : X -> exists y : Y , {conclusion}
}}
"""


def _function_side_cases() -> list[tuple[str, object, str]]:
    """(rule text, value of x's attribute, its name) for ``_one_x``: the
    rules with a function side in their conclusion, each with that
    attribute null and set."""
    cases = [(_PENDING_TGD, b, "b") for b in (None, 1)]
    for order in _EQUATION_ORDERS + _FUNCTION_EQUATION_ORDERS:
        cases += [(_existential_attr_tgd(*order), b, "b") for b in (None, 1)]
    chains = ("y.b = add(y.c, 1)", "y.b = add(y.c, 1) and y.c = y.d and y.d = x.c",
              "y.b = add(y.c, 1) and y.c = y.d and y.d = y.c")  # the last reads a cycle
    for conclusion in chains:
        cases += [(_unset_existential_tgd(conclusion), c, "c") for c in (None, 1)]
    return cases


def test_function_over_unset_existential_attribute_mints_nothing():
    # no equation sets y.c, so a fresh Y's c stays null and add never evaluates
    for c in (None, 1):
        result, constraints = _chase_one_x(_unset_existential_tgd("y.b = add(y.c, 1)"), c, "c")
        assert (result.status, result.rounds, result.trace.entries) == (SATURATED, 1, []), c
        assert [v.index for v in check_model(result.instance, constraints).violations()] == [1]
    # y.c set through another existential attribute waits for x.c ...
    chained = "y.b = add(y.c, 1) and y.c = y.d and y.d = x.c"
    result, constraints = _chase_one_x(_unset_existential_tgd(chained), None, "c")
    assert (result.status, result.rounds, result.trace.entries) == (SATURATED, 1, [])
    assert [v.index for v in check_model(result.instance, constraints).violations()] == [1]
    # ... and fires once it is known
    result, constraints = _chase_one_x(_unset_existential_tgd(chained), 1, "c")
    assert (result.status, result.rounds, len(result.trace.entries)) == (SATURATED, 2, 1)
    (y,) = result.instance.carrier("S_Y")
    assert result.instance.get_attr(y, "b") == Const(BaseType.INT, 2)
    assert check_model(result.instance, constraints).ok
    # a closed cycle computes y.c from no universal nor constant, whatever x.c is
    cycle = "y.b = add(y.c, 1) and y.c = y.d and y.d = y.c"
    for c in (None, 1):
        result, constraints = _chase_one_x(_unset_existential_tgd(cycle), c, "c")
        assert constraints[0].plan.stuck
        assert (result.status, result.rounds, result.trace.entries) == (SATURATED, 1, []), c
        assert [v.index for v in check_model(result.instance, constraints).violations()] == [1]


def test_premise_atom_order_changes_no_chase():
    schema = Schema(
        "T",
        ("A", "B", "C"),
        (ForeignKey("f", "A", "B"), ForeignKey("g", "B", "C")),
        (Attribute("n", "C", BaseType.STRING),),
    )
    b_of_a = Eq(Var("b"), PathApp("a", Path("A", ("f",))))
    c_of_b = Eq(Var("c"), PathApp("b", Path("B", ("g",))))

    def rule(*premise) -> Constraint:
        conclusion = (Eq(PathApp("c", Path("C", (), "n")), Const(BaseType.STRING, "x")),)
        return Constraint((("a", "A"), ("b", "B"), ("c", "C")), premise, (), conclusion)

    for seed in range(50):
        inst = helpers.random_instance(random.Random(seed), schema, max_elements=9)
        forward = chase(inst, [rule(b_of_a, c_of_b)])
        backward = chase(inst, [rule(c_of_b, b_of_a)])
        assert forward.status == backward.status, seed
        assert forward.trace.render() == backward.trace.render(), seed
    # the same pins for every acyclic premise and its reversal; on the
    # cycle, the first pin in premise order is the one enumerated
    for k, (_, c) in enumerate(_matcher_cases()):
        reverse = dataclasses.replace(c, premise=c.premise[::-1])
        pins, reverse_pins = ({step.var for step in d.plan.pins} for d in (c, reverse))
        if k == 2:
            assert (pins, reverse_pins) == ({"b"}, {"a"})
        else:
            assert pins == reverse_pins, k


def test_chase_config_validates_round_budget():
    with pytest.raises(ValueError):
        ChaseConfig(max_rounds=0)
    assert ChaseConfig(max_rounds=1).max_rounds == 1


# -- semi-naive rounds against the naive round loop ----------------------------

def _same_as_oracle(pre: Instance, constraints: list[Constraint], max_rounds: int = 10000):
    """Chase both ways; status, rounds, trace, clash and data must agree."""
    cfg = ChaseConfig(max_rounds=max_rounds, require_weak_acyclicity=False)
    semi, naive = chase(pre, constraints, cfg), helpers.oracle_chase(pre, constraints, max_rounds)
    assert (semi.status, semi.rounds) == (naive.status, naive.rounds)
    assert semi.trace.render() == naive.trace.render()
    assert str(semi.clash) == str(naive.clash)
    if semi.instance is not None:
        assert instances_same_data(semi.instance, naive.instance)
    return semi


def test_semi_naive_rounds_agree_with_oracle_on_fixtures(example1, example2, monkeypatch):
    for _, combined, pre in (example1, example2):
        constraints = list(combined.schema.constraints)
        assert _same_as_oracle(pre, constraints[::-1]).saturated
        calls = _counting_fire_once(monkeypatch)
        result = _same_as_oracle(pre, constraints)
        # example 2 merges Locations in round 1; its round 2 fires nothing
        assert result.saturated and len(calls) == len(result.trace.entries)
        monkeypatch.undo()


def test_semi_naive_rounds_agree_with_oracle_on_random_cases():
    rounds = set()
    for seed in range(300):
        _, pre, constraints = helpers.random_weakly_acyclic_case(random.Random(seed))
        rounds.add(_same_as_oracle(pre, constraints).rounds)
    assert len(rounds) > 2, rounds
    statuses = set()
    for seed in range(200):  # constants in the cells: merges of anchored classes and clashes
        _, pre, constraints = helpers.random_weakly_acyclic_case(random.Random(seed), constants=True)
        statuses.add(_same_as_oracle(pre, constraints).status)
    assert statuses == {SATURATED, FAILED}, statuses


def test_semi_naive_rounds_agree_with_oracle_on_join_cases():
    """Joins, probes, pins and checks through a pin, over merged classes and
    shared nulls: the premise shapes whose reads are narrowest."""
    statuses = Counter()
    for seed in range(300):
        pre, constraints = helpers.random_join_case(random.Random(seed))
        result = _same_as_oracle(pre, constraints)
        statuses[result.status, result.rounds > 2] += 1
    assert set(statuses) == {(SATURATED, False), (SATURATED, True), (FAILED, False)}, statuses


def test_semi_naive_rounds_agree_with_oracle_on_deep_chains():
    for k in range(1, 9):
        for deepest_first in (True, False):
            pre, constraints = helpers.deep_chain_case(4, k, deepest_first)
            result = _same_as_oracle(pre, constraints)
            assert (result.status, result.rounds) == (SATURATED, k + 1)


def test_semi_naive_rounds_agree_with_oracle_on_pending_function_sides():
    for text, value, attr in _function_side_cases():
        _same_as_oracle(*_one_x(text, value, attr), max_rounds=20)


# -- constraints left pending at the fixpoint ------------------------------------

def _assert_pending_is_what_check_model_reports(result, constraints) -> tuple[int, ...]:
    assert result.saturated
    report = check_model(result.instance, constraints)
    assert result.pending == tuple(v.index for v in report.violations())
    assert (not result.pending) == report.ok
    return result.pending


def test_pending_matches_check_model_on_random_cases():
    for seed in range(300):
        _, pre, constraints = helpers.random_weakly_acyclic_case(random.Random(seed))
        assert _assert_pending_is_what_check_model_reports(chase(pre, constraints), constraints) == ()


def test_pending_matches_check_model_on_function_side_cases():
    seen = set()
    for text, value, attr in _function_side_cases():
        result, constraints = _chase_one_x(text, value, attr)
        seen.add(_assert_pending_is_what_check_model_reports(result, constraints))
    rng = random.Random(5)
    cfg = ChaseConfig(max_rounds=6, require_weak_acyclicity=False)
    for _ in range(200):
        c = helpers.random_function_side_constraint(rng)
        inst = new_instance(helpers.FUNCTION_SIDE_SCHEMA)
        for name in ("x1", "x2"):
            x = inst.add_element("X", name)
            for attr in ("b", "c"):
                if rng.random() < 0.5:
                    inst.set_attr(x, attr, Const(BaseType.INT, rng.randint(0, 3)))
        result = chase(inst, [c], cfg)
        if result.status == EXHAUSTED:  # only a cyclic rule may mint forever
            assert not check_weak_acyclicity([c], inst.schema).acyclic, c
        if result.saturated:  # otherwise a constant clash
            seen.add(_assert_pending_is_what_check_model_reports(result, [c]))
    assert seen == {(), (1,)}


def test_pending_on_the_readme_example():
    """``y.b = add(x.c, 1)`` with ``x.c`` null saturates with the rule pending."""
    text = _unset_existential_tgd("y.b = add(x.c, 1)")
    result, constraints = _chase_one_x(text, None, "c")
    assert (result.status, result.rounds, result.pending) == (SATURATED, 1, (1,))
    _assert_pending_is_what_check_model_reports(result, constraints)
    known, _ = _chase_one_x(text, 1, "c")
    assert (known.status, known.pending) == (SATURATED, ())


def test_semi_naive_rounds_agree_with_oracle_on_constant_clash():
    env = helpers.load_text(helpers.clash_fixture_text(), "clash.cmg")
    combined = combine_schemas(env.extensions["CombinedThreeWay"])
    pre = sigma_insert(combined, {s: env.instances[f"{s.lower()}_model"] for s in ("IFC", "BRICK", "REC")})
    result = _same_as_oracle(pre, list(combined.schema.constraints))
    assert result.status == FAILED and "99.9" in str(result.clash)
    # both sides of the conclusion are constants once x.a is known
    text = """
schema S { entities X attributes a : X -> Int }
extension E { include S constraints forall x : X -> add(x.a, 1) = 3 }
"""
    result = _same_as_oracle(*_one_x(text, 5, "a"))
    assert result.status == FAILED and str(result.clash) == "constant clash on conclusion: 6 != 3"


def _counting_fire_once(monkeypatch) -> list[int]:
    """Counts the calls the chase loop makes to ``fire_once``."""
    module = importlib.import_module("catamerge.chase")  # the package exports a ``chase`` function
    calls: list[int] = []
    fire_once = module.fire_once

    def counted(*args, **kwargs):
        calls.append(1)
        return fire_once(*args, **kwargs)

    monkeypatch.setattr(module, "fire_once", counted)
    return calls


def test_fire_once_gets_live_premise_matches(example1, example2, monkeypatch):
    # fire_once checks no premise atom: each match the loop hands it must
    # still be a premise match of the live instance
    module = importlib.import_module("catamerge.chase")
    fire_once, checked = module.fire_once, []

    def checking(inst, c, env, **kwargs):
        checked.append(helpers.oracle_premise_holds_live(inst, c, env))
        return fire_once(inst, c, env, **kwargs)

    monkeypatch.setattr(module, "fire_once", checking)
    cfg = ChaseConfig(max_rounds=20, require_weak_acyclicity=False)
    cases = []
    for _, combined, pre in (example1, example2):
        constraints = list(combined.schema.constraints)
        cases += [(pre, constraints), (pre, constraints[::-1])]
    for seed in range(300):
        _, pre, constraints = helpers.random_weakly_acyclic_case(random.Random(seed))
        cases.append((pre, constraints))
    for k in range(1, 9):
        cases += [helpers.deep_chain_case(4, k, deepest_first) for deepest_first in (True, False)]
    cases += [_one_x(*case) for case in _function_side_cases()]
    for pre, constraints in cases:
        chase(pre, constraints, cfg)
    assert len(checked) > 1000 and all(checked), checked.count(False)


def test_deep_chain_fires_each_match_once(monkeypatch):
    pre, constraints = helpers.deep_chain_case(50, 8)
    calls = _counting_fire_once(monkeypatch)
    result = chase(pre, constraints)
    assert (result.status, result.rounds, len(result.trace.entries)) == (SATURATED, 9, 400)
    assert len(calls) == 400


# Each rule set has a last rule whose only match appears in the round after
# the rules before it have each fired in turn, and only through one kind of
# change made in the round before.
_NEW_MATCH_CASES = {
    "fresh element": """
schema S {
  entities X Y
  foreign_keys
    f : X -> Y
  attributes
    a : Y -> String
}
instance i : S {
  entity X { row x1 { } }
}
extension E {
  include S
  constraints
    forall x : X -> exists y : Y , x.f = y
    forall y : Y -> y.a = "seen"
}
""",
    "congruence merge": """
schema S {
  entities A B D K
  foreign_keys
    k : A -> K
    w : A -> D
    u : B -> D
    v : B -> D
  attributes
    s : B -> String
}
instance i : S {
  entity K { row k1 { } }
  entity D { row d1 { } row d2 { } }
  entity A { row a1 { k = k1 w = d1 } row a2 { k = k1 w = d2 } }
  entity B { row b1 { u = d1 v = d2 } }
}
extension E {
  include S
  constraints
    forall a1 a2 : A where a1.k = a2.k -> a1 = a2
    forall b : B where b.u = b.v -> b.s = "joined"
}
""",
    "fk definition": """
schema S {
  entities X Y
  foreign_keys
    f : X -> Y
    g : X -> Y
  attributes
    s : X -> String
}
instance i : S {
  entity Y { row y1 { } }
  entity X { row x1 { g = y1 } }
}
extension E {
  include S
  constraints
    forall x : X -> x.f = x.g
    forall x : X where x.f = x.g -> x.s = "linked"
}
""",
    "null anchoring": """
schema S {
  entities L P
  foreign_keys
    leasee : L -> P
  attributes
    personName : P -> String
    given : P -> String
    flag : L -> String
}
instance i : S {
  entity P { row p1 { given = "Person B" } }
  entity L { row l1 { leasee = p1 } }
}
extension E {
  include S
  constraints
    forall p : P -> p.given = p.personName
    forall l : L where levenshtein(l.leasee.personName, "Vacant") > 0 -> l.flag = "occupied"
}
""",
    "null anchoring by a constant": """
schema S {
  entities L P
  foreign_keys
    leasee : L -> P
  attributes
    personName : P -> String
    flag : L -> String
}
instance i : S {
  entity P { row p1 { } }
  entity L { row l1 { leasee = p1 } }
}
extension E {
  include S
  constraints
    forall p : P -> p.personName = "Person B"
    forall l : L where levenshtein(l.leasee.personName, "Vacant") > 0 -> l.flag = "occupied"
}
""",
    "null union": """
schema S {
  entities L P
  foreign_keys
    leasee : L -> P
  attributes
    personName : P -> String
    alias : P -> String
    flag : L -> String
}
instance i : S {
  entity P { row p1 { } }
  entity L { row l1 { leasee = p1 } }
}
extension E {
  include S
  constraints
    forall p : P -> p.personName = p.alias
    forall l : L where l.leasee.personName = l.leasee.alias -> l.flag = "same"
}
""",
    # a.s and a.t come from different rows, so only the merged class
    # matches; a merge of a variable read by one term only re-keys
    "merge joining one variable's two terms": """
schema S {
  entities A K
  foreign_keys
    k : A -> K
  attributes
    s : A -> String
    t : A -> String
    flag : A -> String
}
instance i : S {
  entity K { row k1 { } }
  entity A { row a1 { k = k1 s = "v" } row a2 { k = k1 t = "v" } }
}
extension E {
  include S
  constraints
    forall a1 a2 : A where a1.k = a2.k -> a1 = a2
    forall a : A where a.s = a.t -> a.flag = "same"
}
""",
    # the class of p.alias and p.personName is named by p.alias and
    # anchored in round 2; the last rule reads the other position
    "null anchoring across two positions": """
schema S {
  entities P
  attributes
    personName : P -> String
    alias : P -> String
    flag : P -> String
}
instance i : S {
  entity P { row p1 { } }
}
extension E {
  include S
  constraints
    forall p : P -> p.personName = p.alias
    forall p : P where p.personName = p.alias -> p.alias = "B"
    forall p : P where p.personName = "B" -> p.flag = "named"
}
""",
    # the union's winner is h1.label, in H; the class is anchored in
    # round 2, and the last rule reads the loser's position, in P
    "null union read at the loser's position": """
schema S {
  entities H P
  foreign_keys
    home : P -> H
  attributes
    label : H -> String
    personName : P -> String
    flag : P -> String
}
instance i : S {
  entity H { row h1 { } }
  entity P { row p1 { home = h1 } }
}
extension E {
  include S
  constraints
    forall p : P -> p.personName = p.home.label
    forall p : P where p.personName = p.home.label -> p.home.label = "B"
    forall p : P where p.personName = "B" -> p.flag = "named"
}
""",
    # p and q are pinned to x and y, so p = q compares x and y as elements,
    # and x.k and y.j come from different rows
    "merge making two compared elements one": """
schema S {
  entities X K
  foreign_keys
    key : X -> K
  attributes
    k : X -> String
    j : X -> String
    flag : X -> String
}
instance i : S {
  entity K { row k1 { } }
  entity X { row x1 { key = k1 k = "v" } row x2 { key = k1 j = "w" } }
}
extension E {
  include S
  constraints
    forall a b : X where a.key = b.key -> a = b
    forall x y p q : X where p = x and q = y and p = q and p.k = "v" and q.j = "w" -> x.flag = "both"
}
""",
    # the check reads the pinned y through its pin, x.f.a
    "fk definition under a pin": """
schema S {
  entities X Y
  foreign_keys
    f : X -> Y
    g : X -> Y
  attributes
    a : Y -> String
    flag : X -> String
}
instance i : S {
  entity Y { row y1 { a = "v" } }
  entity X { row x1 { g = y1 } }
}
extension E {
  include S
  constraints
    forall x : X -> x.f = x.g
    forall x : X y : Y where y = x.f and y.a = "v" -> x.flag = "linked"
}
""",
}


def _document_case(text: str) -> tuple[Instance, list[Constraint]]:
    env = helpers.load_text(text)
    combined = combine_schemas(env.extensions["E"])
    return sigma_insert(combined, {"S": env.instances["i"]}), list(combined.schema.constraints)


@pytest.mark.parametrize("kind", sorted(_NEW_MATCH_CASES))
def test_a_match_made_by_one_change_fires(kind):
    pre, constraints = _document_case(_NEW_MATCH_CASES[kind])
    for rules in (constraints, constraints[::-1]):
        result = _same_as_oracle(pre, rules)
        late = [e for e in result.trace.entries if rules[e.constraint_index - 1] is constraints[-1]]
        assert [e.round for e in late] == [len(constraints)], kind
        assert check_model(result.instance, rules).ok


def test_premise_reads_only_what_filters_matches(example1, example2):
    """A pin's own equation is not read, a pinned variable is read through
    its pin term, and a merge of an enumerated entity is read only where a
    variable of it is compared as an element or read by two terms."""
    reads = [premise_reads(c, pre.schema)
             for _, combined, pre in (example1, example2) for c in combined.schema.constraints]
    lease = {(CREATED, "REC_Lease"), (DEFINED, "REC_Lease", "leasee"), (CREATED, "REC_Person"),
             (MERGED, "REC_Person"), (NULLS, "REC_Person", "personName")}
    assert reads == [
        {(CREATED, "Equipment")},
        {(CREATED, "IFC_IfcSensor")},  # p = s.sensorAttachedTo.hasPoint filters nothing
        {(CREATED, "Location"), (NULLS, "Location", "spaceName"), (NULLS, "Location", "roomName")},
        {(CREATED, "Location"), (NULLS, "Location", "spaceName"), (NULLS, "Location", "locationName")},
        {(CREATED, "Location")},
        lease,
        lease,
        {(CREATED, "Equipment")},
    ]
    # through the API, an identity path compares its variable as an element
    schema = Schema("S", ("X",), (), (Attribute("k", "X", BaseType.STRING),))
    x, y = (PathApp(v, Path("X")) for v in "xy")
    c = Constraint((("x", "X"), ("y", "X")), (Eq(x, y),), (), (Eq(Var("x"), Var("y")),))
    assert premise_reads(c, schema) == {(CREATED, "X"), (MERGED, "X")}


def test_change_marks_start_empty_and_stay_off_the_chase_input():
    """A new instance and a copy start with no marks, a builder records
    one outside a chase too, and a chase marks its own copy only."""
    schema = Schema("S", ("X", "Y"), (ForeignKey("f", "X", "Y"),))
    pre = new_instance(schema)
    assert pre.changes == set()
    pre.add_element("X", "x1")
    assert pre.changes == {(CREATED, "X")} and pre.copy().changes == set()
    x_f = PathApp("x", Path("X", ("f",)))
    c = Constraint((("x", "X"),), (), (("y", "Y"),), (Eq(x_f, Var("y")),))
    result = chase(pre, [c])
    assert result.status == SATURATED and len(result.instance.carrier("Y")) == 1
    assert pre.changes == {(CREATED, "X")}


def test_firing_cut_short_is_fired_again():
    # round 1 fires the tgd with x.c unknown, so y.b = add(y.g.c, 1) waits;
    # x.c is set in round 2, and the tgd must then fire again, on the same y
    text = """
schema S {
  entities X Y
  foreign_keys
    g : Y -> X
  attributes
    c : X -> Int
    d : X -> Int
    b : Y -> Int
}
instance i : S {
  entity X { row x1 { } }
}
extension E {
  include S
  constraints
    forall x : X -> x.d = 1
    forall x : X where x.d = 1 -> x.c = 5
    forall x : X -> exists y : Y , y.g = x and y.b = add(y.g.c, 1)
}
"""
    pre, constraints = _document_case(text)
    result = _same_as_oracle(pre, constraints, max_rounds=20)
    assert [(e.round, e.constraint_index) for e in result.trace.entries] == [
        (1, 1), (1, 3), (2, 2), (2, 3)]
    # the retry binds the witness the cut-short firing minted
    assert result.trace.entries[-1].render() == "round 2: c3 @ x=S.x1,y=S_Y!1.0 -> assigned(S_Y!1.0.b, 6)"
    assert [e.name for e in result.instance.carrier("S_Y")] == ["S_Y!1.0"]


# -- the conclusion plan against the per-firing analysis ------------------------

def test_conclusion_plan_agrees_with_oracle_on_function_side_cases():
    decisions = set()
    for text, value, attr in _function_side_cases():
        inst, constraints = _one_x(text, value, attr)
        for c in constraints:
            shape = (c.plan.enforce, c.plan.defer, c.plan.stuck)
            assert shape == helpers.oracle_conclusion_shape(c)
            for env in enumerate_matches(inst, c):
                decision = helpers.oracle_defers(inst, c, dict(env))
                assert helpers.plan_defers(inst, c, env) == decision, text
                decisions.add((value is None, c.plan.stuck, decision))
    # pending on an unknown argument and on an unset cell; firing on a known argument
    expected = {(True, False, True), (True, True, True), (False, True, True), (False, False, False)}
    assert expected <= decisions


# -- equality up to null classes ------------------------------------------------

_NULL_PARTITION_CASE = """
schema S {
  entities X
  attributes a : X -> Int  b : X -> Int
}
instance i : S {
  entity X { row x1 { } }
}
extension E {
  include S
  constraints
    forall x : X -> x.a = x.b
    forall x : X where x.a = 1 -> x.b = 2
}
"""


def test_equality_tells_null_partitions_apart():
    # the first rule unifies x1's two nulls, the second leaves them apart
    pre, (unify, guarded) = _document_case(_NULL_PARTITION_CASE)
    joined, apart = (chase(pre, [rule]).instance for rule in (unify, guarded))
    assert (helpers.value_classes(joined), helpers.value_classes(apart)) == ([0, 0], [0, 1])
    for a, b in ((joined, apart), (apart, joined)):
        assert not instances_same_data(a, b)
        assert not verify_universality(a, b).isomorphic
    for inst in (joined, apart):
        assert instances_same_data(inst, inst.copy())
        assert verify_universality(inst, inst.copy()).isomorphic


_FRESH_NULLS_CASE = """
schema S {
  entities X Y
  attributes a : X -> Int  a : Y -> Int
}
instance i : S {
  entity X { row x1 { }  row x2 { } }
}
extension E {
  include S
  constraints
    forall x : X -> exists y : Y , y.a = x.a
}
"""


def test_universality_matches_fresh_elements_by_their_null_classes():
    pre, constraints = _document_case(_FRESH_NULLS_CASE)
    sat = chase(pre, constraints).instance
    x1, x2 = sat.carrier("S_X")
    first, second = sat.carrier("S_Y")
    assert values_equal(sat, sat.get_attr(first, "a"), sat.get_attr(x1, "a"))

    def alt(partners: tuple) -> Instance:
        out = pre.copy()
        for y, x in zip((first, second), partners):
            fresh = out.add_element("S_Y", y.name, fresh=True)
            out.union_attrs(fresh, "a", out.element_named("S_X", x.name), "a")
        return out

    # the fresh elements swapped: isomorphic once the search backtracks, but
    # not the same data under the same names
    swapped = alt((x2, x1))
    assert not instances_same_data(sat, swapped)
    outcome = verify_universality(sat, swapped)
    assert outcome.isomorphic, outcome.reason
    assert outcome.mapping[first].name == second.name
    assert instances_same_data(sat, alt((x1, x2)))
    # both fresh cells share x1's null, and x2's null is on no Y
    assert not verify_universality(sat, alt((x1, x1))).isomorphic


def test_comparisons_across_signatures_differ_without_raising():
    """Instances over schemas whose entities agree but whose members do not
    are different data, whichever side comes first."""
    schemas = {
        "S0": Schema("S0", ("E",)),
        "S1": Schema("S1", ("E",), (), (Attribute("a", "E", BaseType.INT),)),
        "S2": Schema("S2", ("E",), (), (Attribute("b", "E", BaseType.INT),)),
        "S3": Schema("S3", ("E",), (ForeignKey("f", "E", "E"),)),
    }
    insts = {}
    for name, schema in schemas.items():
        insts[name] = new_instance(schema, name)
        insts[name].add_element("E", "e1")
    for x, y in (("S1", "S2"), ("S0", "S1"), ("S3", "S0")):
        for a, b in ((insts[x], insts[y]), (insts[y], insts[x])):
            assert not instances_same_data(a, b), (a.name, b.name)
            assert not helpers.oracle_instances_same_data(a, b), (a.name, b.name)
            assert verify_universality(a, b).reason == "schemas differ", (a.name, b.name)


def _comparison_pairs() -> list[tuple[Instance, Instance]]:
    """Pairs for the two comparisons: each fixture's parsed instances and
    their copies, its saturation against the one in reversed constraint
    order and against its input, and ``_NULL_PARTITION_CASE``'s partitions."""
    pairs = []
    for pipeline in (helpers.example1_pipeline, helpers.example2_pipeline):
        env, combined, pre = pipeline()
        cs = list(combined.schema.constraints)
        fwd, rev = chase(pre, cs).instance, chase(pre, cs[::-1]).instance
        pairs += [(inst, inst.copy()) for inst in env.instances.values()]
        pairs += [(fwd, rev), (fwd, pre), (pre, pre.copy())]
    pre, rules = _document_case(_NULL_PARTITION_CASE)
    joined, apart = (chase(pre, [rule]).instance for rule in rules)
    return pairs + [(joined, apart), (apart, joined), (apart, apart.copy())]


def _verdicts(pairs: list[tuple[Instance, Instance]]) -> list[tuple[bool, bool]]:
    return [(instances_same_data(a, b), verify_universality(a, b).isomorphic) for a, b in pairs]


def test_comparisons_mint_no_labels_and_keep_their_verdicts():
    env = helpers.load_fixture("example2.cmg")
    for name in ("rec_model", "brick_model"):
        inst = env.instances[name]
        other = inst.copy()
        assert instances_same_data(inst, other) and verify_universality(inst, other).isomorphic
        assert (len(inst._null_parent), len(other._null_parent)) == (0, 0), name
    pairs = _comparison_pairs()
    labels = [(len(a._null_parent), len(b._null_parent)) for a, b in pairs]
    verdicts = _verdicts(pairs)
    assert labels == [(len(a._null_parent), len(b._null_parent)) for a, b in pairs]
    assert {(True, True), (False, False)} <= set(verdicts)
    # with every cell observed, each holding its own null from the start, the
    # verdicts are the same
    with helpers.eager_nulls():
        assert verdicts == _verdicts(_comparison_pairs())


_UNOBSERVED_CASE = """
schema S {
  entities X
  attributes a : X -> Int
}
instance i : S {
  entity X { row x1 { }  row x2 { } }
}
"""


def test_unobserved_cell_is_a_null_class_of_its_own():
    unobserved = helpers.load_text(_UNOBSERVED_CASE).instances["i"]
    with helpers.eager_nulls():
        singletons = helpers.load_text(_UNOBSERVED_CASE).instances["i"]
    x1, x2 = unobserved.carrier("X")
    shared = unobserved.copy()
    a1, a2 = singletons.get_attr(x1, "a"), singletons.get_attr(x2, "a")
    assert isinstance(a1, NullRef) and isinstance(a2, NullRef) and a1 != a2
    shared.union_attrs(x1, "a", x2, "a")
    assert shared.get_attr(x1, "a") == shared.get_attr(x2, "a")
    # each unobserved cell pairs with a null no other cell holds ...
    for a, b in ((unobserved, singletons), (singletons, unobserved), (unobserved, unobserved)):
        assert instances_same_data(a, b) and verify_universality(a, b).isomorphic
    # ... and two of them do not pair with one null that two cells share
    for a, b in ((unobserved, shared), (shared, unobserved)):
        assert not instances_same_data(a, b) and not verify_universality(a, b).isomorphic
    reads = [unobserved.get_attr(x, "a") for x in (x1, x2)]
    assert reads == [NullRef(x1, "a"), NullRef(x2, "a")]
    assert all(helpers.unobserved(unobserved, v) for v in reads)
