"""Shared test machinery: fixture loading, independent oracles, generators.

The oracles here deliberately avoid the engine's own evaluation paths: the
query oracle materializes the full cross product with its own term walker,
the matcher oracle is the engine's first premise matcher kept verbatim, the
witness oracle is the engine's first carrier-scanning witness search, the
identity oracles are the engine's first export-id rule and name scan, the
cycle oracle is a plain DFS over hand-reachable edges, and the random
constraint-set generator builds inputs from primitive templates only.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path as FsPath
from typing import Callable

from catamerge import (
    ChaseConfig,
    CombinedSchema,
    Const,
    Constraint,
    Instance,
    chase,
    combine_schemas,
    new_instance,
    sigma_insert,
)
from catamerge.errors import QueryError
from catamerge.instance import (
    UNDEFINED,
    ElementId,
    NullRef,
    Value,
    VirtualElem,
    _atom_holds,
    eval_term,
    values_equal,
)
from catamerge.parser import Document, SourceDocument, parse_document
from catamerge.query import QuerySpec
from catamerge.schema import (
    Attribute,
    Cmp,
    Eq,
    ForeignKey,
    PathApp,
    Schema,
    Term,
    Var,
    Path,
    _term_vars,
    constraint_pinned_vars,
)
from catamerge.typeside import BaseType, apply_predicate

FIXTURES = FsPath(__file__).parent / "fixtures"


def load_fixture(name: str) -> Document:
    text = (FIXTURES / name).read_text(encoding="utf-8")
    env = parse_document(SourceDocument(name, text))
    assert env.ok, "\n".join(str(d) for d in env.diagnostics)
    return env


def load_text(text: str, name: str = "<inline>") -> Document:
    env = parse_document(SourceDocument(name, text))
    assert env.ok, "\n".join(str(d) for d in env.diagnostics)
    return env


def example1_pipeline() -> tuple[Document, CombinedSchema, Instance]:
    env = load_fixture("example1.cmg")
    combined = combine_schemas(env.extensions["Combined"])
    pre = sigma_insert(
        combined,
        {"IFC": env.instances["ifc_model"], "BRICK": env.instances["brick_model"]},
    )
    return env, combined, pre


def example2_pipeline() -> tuple[Document, CombinedSchema, Instance]:
    env = load_fixture("example2.cmg")
    combined = combine_schemas(env.extensions["CombinedThreeWay"])
    pre = sigma_insert(
        combined,
        {
            "IFC": env.instances["ifc_model"],
            "BRICK": env.instances["brick_model"],
            "REC": env.instances["rec_model"],
        },
    )
    return env, combined, pre


def clash_fixture_text() -> str:
    """Example 2 with IFC and REC stating conflicting areas for one room."""
    text = (FIXTURES / "example2.cmg").read_text(encoding="utf-8")
    needle = 'row rm_1 { roomName = "Room 240" roomArea = null }'
    assert needle in text
    return text.replace(needle, 'row rm_1 { roomName = "Room 240" roomArea = 99.9 }')


# ---------------------------------------------------------------------------
# Query oracle: full cross product, private term walker

def _oracle_eval(inst: Instance, env: dict[str, ElementId], term: Term):
    if isinstance(term, Var):
        return inst.find(env[term.name])
    if isinstance(term, Const):
        return term
    if isinstance(term, PathApp):
        current = inst.find(env[term.var])
        for fk in term.path.fks:
            nxt = inst.get_fk(current, fk)
            if nxt is None:
                return UNDEFINED
            current = nxt
        if term.path.attr is None:
            return current
        return inst.get_attr(current, term.path.attr)
    # function application over constants
    args = []
    for a in term.args:
        v = _oracle_eval(inst, env, a)
        if not isinstance(v, Const):
            return UNDEFINED
        args.append(v.value)
    return Const(term.fn.result, term.fn.impl(*args))


def _oracle_render(inst: Instance, value) -> str:
    from catamerge.printer import render_constant

    if isinstance(value, NullRef):
        return "-"
    assert isinstance(value, Const)
    return render_constant(value)


def oracle_evaluate(q: QuerySpec, sat: Instance) -> list[tuple[str, ...]]:
    """Naive evaluation: materialize the whole product, then filter."""
    carriers = [sat.carrier(entity) for _, entity in q.bindings]
    names = [name for name, _ in q.bindings]
    rows: list[tuple[str, ...]] = []
    for combo in itertools.product(*carriers):
        env = dict(zip(names, combo))
        keep = True
        for atom in q.wheres:
            lv = _oracle_eval(sat, env, atom.left)
            rv = _oracle_eval(sat, env, atom.right)
            if isinstance(lv, ElementId) and isinstance(rv, ElementId):
                if lv != rv:
                    keep = False
            elif isinstance(lv, Const) and isinstance(rv, Const):
                if lv.type != rv.type or lv.value != rv.value:
                    keep = False
            elif isinstance(lv, NullRef) and isinstance(rv, NullRef):
                if sat.null_find(lv.label) != sat.null_find(rv.label):
                    keep = False
            else:
                keep = False
            if not keep:
                break
        if keep:
            rows.append(tuple(_oracle_render(sat, _oracle_eval(sat, env, t)) for _, t in q.projections))
    return rows


def oracle_descend(
    q: QuerySpec, sat: Instance, emit: Callable[[dict[str, Value]], None]
) -> list[tuple[Eq, int]]:
    """The nested-loop descent: scan every carrier, apply each where-atom at
    the first position that binds all its variables, and count the partial
    tuples that pass it. Same contract as ``query._descend``."""
    carriers = [sat.carrier(entity) for _, entity in q.bindings]
    names = [name for name, _ in q.bindings]
    stage: list[list[int]] = [[] for _ in q.bindings]
    for k, atom in enumerate(q.wheres):
        needed = _term_vars(atom.left) | _term_vars(atom.right)
        last = 0
        for i, name in enumerate(names):
            if name in needed:
                last = i
        stage[last].append(k)
    passed = [0] * len(q.wheres)

    def descend(depth: int, env: dict[str, Value]) -> None:
        if depth == len(carriers):
            emit(env)
            return
        for elem in carriers[depth]:
            env[names[depth]] = elem
            ok = True
            for k in stage[depth]:
                atom = q.wheres[k]
                lv = eval_term(sat, env, atom.left)
                rv = eval_term(sat, env, atom.right)
                if lv is UNDEFINED or rv is UNDEFINED:
                    raise QueryError("where-atom evaluation hit an undefined foreign key")
                if not values_equal(sat, lv, rv):
                    ok = False
                    break
                passed[k] += 1
            if ok:
                descend(depth + 1, env)
        env.pop(names[depth], None)

    descend(0, {})
    return [(q.wheres[k], passed[k]) for ks in stage for k in ks]


# ---------------------------------------------------------------------------
# Matcher oracle: the naive premise matcher, which derives its own evaluation
# order for the pinned variables

def _oracle_pinned_order(pinned: dict[str, Eq]) -> list[str]:
    remaining = dict(pinned)
    order: list[str] = []
    while remaining:
        progressed = False
        for name, atom in list(remaining.items()):
            other = atom.right if isinstance(atom.left, Var) and atom.left.name == name else atom.left
            if all(d not in remaining for d in _term_vars(other)):
                order.append(name)
                del remaining[name]
                progressed = True
        if not progressed:
            order.extend(remaining)
            break
    return order


def oracle_matches(inst: Instance, c: Constraint) -> list[dict]:
    """All premise matches, in lexicographic assignment order."""
    pinned = constraint_pinned_vars(c)
    order = _oracle_pinned_order(pinned)
    enumerated = [(n, e) for n, e in c.universals if n not in pinned]
    carriers = [inst.carrier(entity) for _, entity in enumerated]
    matches = []
    for combo in itertools.product(*carriers):
        env = {name: elem for (name, _), elem in zip(enumerated, combo)}
        ok = True
        for name in order:
            atom = pinned[name]
            other = atom.right if isinstance(atom.left, Var) and atom.left.name == name else atom.left
            value = eval_term(inst, env, other, virtual=True)
            if not isinstance(value, (ElementId, VirtualElem)):
                ok = False
                break
            env[name] = value
        if not ok:
            continue
        for atom in c.premise:
            lv = eval_term(inst, env, atom.left, virtual=True)
            rv = eval_term(inst, env, atom.right, virtual=True)
            if isinstance(atom, Eq):
                ok = values_equal(inst, lv, rv)
            else:
                assert isinstance(atom, Cmp)
                ok = (
                    isinstance(lv, Const)
                    and isinstance(rv, Const)
                    and apply_predicate(atom.op, lv.value, rv.value)
                )
            if not ok:
                break
        if ok:
            matches.append(env)
    return matches


def oracle_conclusion_satisfied(inst: Instance, c: Constraint, env: dict) -> bool:
    """Is the conclusion witnessed? Scans the product of the existential
    carriers for an assignment under which every conclusion atom holds."""
    names = [n for n, _ in c.existentials]
    carriers = [inst.carrier(entity) for _, entity in c.existentials]
    for combo in itertools.product(*carriers):
        attempt = dict(env)
        attempt.update(zip(names, combo))
        for eq in c.conclusion:
            if not _atom_holds(inst, attempt, eq):
                break
        else:
            return True
    return False


# ---------------------------------------------------------------------------
# Identity oracles: the engine's first export-id rule and name lookup, which
# read the class members and scan the element list

def oracle_export_id(inst: Instance, elem: ElementId) -> str:
    """Lexicographically least user-declared id in the class, or the root's
    name when the class has no user row."""
    user = [m.name for m in inst.members(elem) if not m.fresh]
    return min(user) if user else inst.find(elem).name


def oracle_element_named(inst: Instance, entity: str, name: str):
    if entity not in inst.schema.entities:
        return None
    for e in inst.elements(entity):
        if e.name == name:
            return e
    return None


def oracle_carrier(inst: Instance, entity: str) -> list[ElementId]:
    roots = {inst.find(e) for e in inst.elements(entity)}
    return sorted(roots, key=lambda root: oracle_export_id(inst, root))


# ---------------------------------------------------------------------------
# Cycle oracle for the weak-acyclicity check

def oracle_has_existential_cycle(edges: list[tuple[str, str, bool]]) -> bool:
    """(source, target, existential) edges; plain DFS from each existential."""
    by_source: dict[str, list[tuple[str, str, bool]]] = {}
    for e in edges:
        by_source.setdefault(e[0], []).append(e)
    for src, tgt, existential in edges:
        if not existential:
            continue
        seen = set()
        stack = [tgt]
        while stack:
            node = stack.pop()
            if node == src:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(t for _, t, _ in by_source.get(node, []))
    return False


# ---------------------------------------------------------------------------
# Random weakly acyclic inputs (all attribute values stay null, so no
# constant clash is possible and every accepted set must saturate)

def random_schema(rng: random.Random, max_entities: int = 4) -> Schema:
    n = rng.randint(1, max_entities)
    entities = tuple(f"E{i}" for i in range(n))
    fks = []
    for i, src in enumerate(entities):
        for k in range(rng.randint(0, 3)):
            fks.append(ForeignKey(f"f{i}_{k}", src, rng.choice(entities)))
    attrs = []
    for i, src in enumerate(entities):
        for k in range(rng.randint(0, 2)):
            attrs.append(Attribute(f"a{i}_{k}", src, BaseType.STRING))
    return Schema(f"R{rng.randint(0, 10**6)}", entities, tuple(fks), tuple(attrs))


def random_instance(rng: random.Random, schema: Schema, max_elements: int = 30) -> Instance:
    inst = new_instance(schema, "random")
    per_entity = max(1, max_elements // max(1, len(schema.entities)))
    for entity in schema.entities:
        for i in range(rng.randint(0, per_entity)):
            inst.add_element(entity, f"{entity.lower()}_{i}")
    for entity in schema.entities:
        for elem in inst.elements(entity):
            for fk in schema.fks_of(entity):
                targets = inst.elements(fk.target)
                if targets and rng.random() < 0.7:
                    inst.set_fk(elem, fk.name, rng.choice(targets))
    return inst


def _random_path(rng: random.Random, schema: Schema, root: str, max_len: int = 2):
    fks = []
    current = root
    for _ in range(rng.randint(1, max_len)):
        options = schema.fks_of(current)
        if not options:
            break
        fk = rng.choice(options)
        fks.append(fk.name)
        current = fk.target
    return fks, current


def random_constraints(rng: random.Random, schema: Schema, count: int) -> list[Constraint]:
    out: list[Constraint] = []
    attempts = 0
    while len(out) < count and attempts < 200:
        attempts += 1
        entity = rng.choice(schema.entities)
        kind = rng.randrange(4)
        if kind == 0:
            # merge elements agreeing on one foreign key
            fks = schema.fks_of(entity)
            if not fks:
                continue
            fk = rng.choice(fks)
            out.append(
                Constraint(
                    universals=(("x", entity), ("y", entity)),
                    premise=(
                        Eq(
                            PathApp("x", Path(entity, (fk.name,))),
                            PathApp("y", Path(entity, (fk.name,))),
                        ),
                    ),
                    existentials=(),
                    conclusion=(Eq(Var("x"), Var("y")),),
                )
            )
        elif kind == 1:
            # align two paths with a shared codomain
            p_fks, p_cod = _random_path(rng, schema, entity)
            q_fks, q_cod = _random_path(rng, schema, entity)
            if not p_fks or not q_fks or p_cod != q_cod or p_fks == q_fks:
                continue
            out.append(
                Constraint(
                    universals=(("x", entity),),
                    premise=(),
                    existentials=(),
                    conclusion=(
                        Eq(
                            PathApp("x", Path(entity, tuple(p_fks))),
                            PathApp("x", Path(entity, tuple(q_fks))),
                        ),
                    ),
                )
            )
        elif kind == 2:
            # totality of one foreign key
            fks = schema.fks_of(entity)
            if not fks:
                continue
            fk = rng.choice(fks)
            out.append(
                Constraint(
                    universals=(("x", entity),),
                    premise=(),
                    existentials=(("y", fk.target),),
                    conclusion=(Eq(PathApp("x", Path(entity, (fk.name,))), Var("y")),),
                )
            )
        else:
            # two attribute cells of one element hold the same value
            attrs = [a for a in schema.attrs_of(entity)]
            if len(attrs) < 2:
                continue
            a, b = rng.sample(attrs, 2)
            out.append(
                Constraint(
                    universals=(("x", entity),),
                    premise=(),
                    existentials=(),
                    conclusion=(
                        Eq(
                            PathApp("x", Path(entity, (), a.name)),
                            PathApp("x", Path(entity, (), b.name)),
                        ),
                    ),
                )
            )
    return out


def random_weakly_acyclic_case(rng: random.Random):
    """(schema, instance, constraints) accepted by the static guard."""
    from catamerge import check_weak_acyclicity

    while True:
        schema = random_schema(rng)
        constraints = random_constraints(rng, schema, rng.randint(1, 4))
        if not constraints:
            continue
        if check_weak_acyclicity(constraints, schema).acyclic:
            return schema, random_instance(rng, schema), constraints


def saturate(pre: Instance, constraints, max_rounds: int = 10000):
    return chase(pre, list(constraints), ChaseConfig(max_rounds=max_rounds))


TABLE1_CSV = """\
IFC_spaceName,IFC_spaceArea,BRICK_timeseriesId
Room 240,18.68,TUC.245.77.R240
Room 260,17.12,TUC.245.77.R260
Room 200,18.32,TUC.245.77.R200
Room 440,18.68,TUC.245.77.R440
Room 460,17.12,TUC.245.77.R460
"""

TABLE2_CSV = """\
REC_personName,REC_roomName,REC_roomArea,REC_monthlyRent,BRICK_zoneSetPoint,BRICK_Equipment,BRICK_energyUsed
Vacant,Room 240,18.68,-,26.0,Split AC Room 240,145.7
Person B,Room 260,17.12,350.00,22.0,Split AC Room 260,132.4
Person C,Room 200,18.32,350.00,22.0,Split AC Room 200,158.3
Person D,Room 440,18.68,350.00,22.0,Split AC Room 440,167.2
Person E,Room 460,17.12,350.00,22.0,Split AC Room 460,125.8
"""
