"""Shared test machinery: fixture loading, independent oracles, generators.

The oracles here deliberately avoid the engine's own evaluation paths: the
query oracle materializes the full cross product with its own term walker,
the matcher oracle is the engine's first premise matcher with its own pin
choice and order, the binder oracle is the per-binder pool matcher that read
cells by minting their nulls and checked every premise atom, the witness
oracle is the engine's first carrier-scanning witness search, the identity
oracles are the engine's first export-id rule
and name scan, the cycle oracle is a plain DFS over hand-reachable edges,
the member oracles scan every fk and attribute of the schema, the
eager-null oracle mints every cell's null when its element is added, the
chase oracle re-enumerates every match of every constraint in every round
and re-checks its premise before it re-fires it, the conclusion-shape
oracle is the syntactic analysis ``fire_once`` first ran on every firing,
the tokenizer oracle is the engine's first character loop with a line and
column on every token, the instance-block oracle writes each row binding by
binding through the instance builder, the migration oracles copy cell by cell through the
instance builder, the comparison oracle is the engine's first per-entity
``instances_same_data`` loop, the output oracles are the engine's first
instance printer, CSV export and round-trip diff, which read each cell
through ``get_attr``, and the random constraint generators build
inputs from primitive templates only.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Callable, Iterator

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
from catamerge.chase import (
    EXHAUSTED,
    FAILED,
    SATURATED,
    ChaseResult,
    ChaseTrace,
    fire_once,
)
from catamerge.errors import (
    ConstantClash,
    IdentificationCollision,
    InstanceError,
    QueryError,
    SchemaError,
)
from catamerge.instance import (
    UNDEFINED,
    ElementId,
    NullRef,
    Value,
    VirtualElem,
    _atom_holds,
    _join_key,
    cells_match,
    enumerate_matches,
    eval_term,
    solve_pins,
    values_equal,
)
from catamerge.parser import (
    _KEYWORDS,
    Binding,
    Diagnostic,
    Document,
    SourceDocument,
    Token,
    _Parser,
    _promote_int_literal,
    parse_document,
)
from catamerge.integrate import RoundTripReport, TableDelta
from catamerge.printer import _literal, _row_id
from catamerge.query import QuerySpec
from catamerge.schema import (
    Attribute,
    Cmp,
    Eq,
    ExtensionSpec,
    ForeignKey,
    FunApp,
    Identification,
    PathApp,
    Schema,
    Term,
    Var,
    Path,
    _sides,
    _term_vars,
    check_constraint,
    render_constant,
)
from catamerge.typeside import (
    BaseType,
    apply_function,
    apply_predicate,
    normalize_double,
    resolve_function,
)
from perfbench.workloads import shuffle_rows

FIXTURES = FsPath(__file__).parent / "fixtures"


def load_fixture(name: str, rows: random.Random | None = None) -> Document:
    """The parsed fixture; with ``rows``, its row lines shuffled by it as the
    benchmark's workloads shuffle theirs (``perfbench.workloads.shuffle_rows``)."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    if rows is not None:
        text = shuffle_rows(text, rows)
    env = parse_document(SourceDocument(name, text))
    assert env.ok, "\n".join(str(d) for d in env.diagnostics)
    return env


def load_text(text: str, name: str = "<inline>") -> Document:
    env = parse_document(SourceDocument(name, text))
    assert env.ok, "\n".join(str(d) for d in env.diagnostics)
    return env


def example1_pipeline(rows: random.Random | None = None) -> tuple[Document, CombinedSchema, Instance]:
    env = load_fixture("example1.cmg", rows)
    combined = combine_schemas(env.extensions["Combined"])
    pre = sigma_insert(
        combined,
        {"IFC": env.instances["ifc_model"], "BRICK": env.instances["brick_model"]},
    )
    return env, combined, pre


def example2_pipeline(rows: random.Random | None = None) -> tuple[Document, CombinedSchema, Instance]:
    env = load_fixture("example2.cmg", rows)
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


def minting_read(inst: Instance, elem: ElementId, attr: str):
    """A cell read as the engine first did it: an unobserved cell gets its
    null entered and stored, also on a frozen instance."""
    return inst.resolve_value(inst._cell(inst.find(elem), attr))


def unobserved(inst: Instance, value) -> bool:
    """Is ``value`` a read of an unobserved cell: a null with no entry?"""
    return isinstance(value, NullRef) and value not in inst._null_parent


def check_null_names(inst: Instance) -> int:
    """The invariant the null names rest on: each entered name names an
    attribute of its element's entity, and none is the name an unobserved
    cell of a class root reads as, so such a read equals no other null.
    Returns how many entered names are named by a class root's cell."""
    live = 0
    for name in inst._null_parent:
        assert isinstance(name, NullRef), name
        assert inst.schema.attr(name.root.entity, name.attr) is not None, name
        if inst.find(name.root) == name.root:
            assert name.attr in inst._rows[name.root], name
            live += 1
    for name in inst._null_anchor:
        assert name in inst._null_parent, name
    return live


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
        return minting_read(inst, current, term.path.attr)
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
                if sat.null_find(lv) != sat.null_find(rv):
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
# Matcher oracle: the naive premise matcher, which chooses its own pins and
# derives their evaluation order

def _oracle_pins(c: Constraint) -> dict[str, Term]:
    """The first premise equation ``v = t`` per universal ``v``, with ``t``
    a path or a variable not mentioning ``v``, pins ``v`` to ``t``."""
    universals = {n for n, _ in c.universals}
    pins: dict[str, Term] = {}
    for atom in c.premise:
        if not isinstance(atom, Eq):
            continue
        for var_side, other in ((atom.left, atom.right), (atom.right, atom.left)):
            if not isinstance(var_side, Var) or var_side.name in pins:
                continue
            if var_side.name not in universals or var_side.name in _term_vars(other):
                continue
            if isinstance(other, (PathApp, Var)):
                pins[var_side.name] = other
                break
    return pins


def _oracle_pinned_order(pins: dict[str, Term]) -> list[str]:
    """Repeatedly solve the first pin whose term mentions no unsolved pin;
    when none does, the pins left form a cycle and the first of them is
    enumerated instead."""
    remaining = dict(pins)
    order: list[str] = []
    while remaining:
        for name, term in remaining.items():
            if not _term_vars(term) & remaining.keys():
                order.append(name)
                del remaining[name]
                break
        else:
            del remaining[next(iter(remaining))]
    return order


def oracle_matches(inst: Instance, c: Constraint) -> list[dict]:
    """All premise matches, in lexicographic assignment order."""
    solved = _oracle_pinned_order(_oracle_pins(c))
    enumerated = [(n, e) for n, e in c.universals if n not in solved]
    carriers = [inst.carrier(entity) for _, entity in enumerated]
    matches = []
    for combo in itertools.product(*carriers):
        env = oracle_premise_match(inst, c, {name: elem for (name, _), elem in zip(enumerated, combo)})
        if env is not None:
            matches.append(env)
    return matches


def oracle_premise_match(inst: Instance, c: Constraint, env: dict) -> dict | None:
    """``env``, binding the enumerated universals, extended with the solved
    pins when the whole premise holds under it; None otherwise."""
    pins = _oracle_pins(c)
    for name in _oracle_pinned_order(pins):
        value = eval_term(inst, env, pins[name], virtual=True)
        if not isinstance(value, (ElementId, VirtualElem)):
            return None
        env[name] = value
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
            return None
    return env


def oracle_premise_holds_live(inst: Instance, c: Constraint, env: dict) -> bool:
    """Does the premise hold on the live instance for the classes that
    ``env`` binds the enumerated universals to? The check ``fire_once``
    made before each firing until it relied on matches staying matches."""
    solved = _oracle_pinned_order(_oracle_pins(c))
    enumerated = [n for n, _ in c.universals if n not in solved]
    return oracle_premise_match(inst, c, {n: inst.find(env[n]) for n in enumerated}) is not None


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
# Binder oracle: the premise matcher before observed-cell indexes. Each binder
# scans the carrier for every enumerated variable and hashes it by a probe's
# side, a read mints the cell's null (``minting_read``), and every
# premise atom is checked again on each match.

def minting_value(inst: Instance, env: dict, term: Term) -> Value:
    """``eval_term(..., virtual=True)`` as it read cells before reads stopped
    minting: an unobserved cell gets its null minted and stored."""
    if isinstance(term, PathApp) and term.path.attr is not None:
        prefix = PathApp(term.var, Path(term.path.root, term.path.fks))
        owner = eval_term(inst, env, prefix, virtual=True)
        return minting_read(inst, owner, term.path.attr) if isinstance(owner, ElementId) else UNDEFINED
    if isinstance(term, FunApp):
        args = [minting_value(inst, env, a) for a in term.args]
        if not all(isinstance(a, Const) for a in args):
            return UNDEFINED
        result = apply_function(term.fn, [a.value for a in args])
        return UNDEFINED if result is None else Const(term.fn.result, result)
    return eval_term(inst, env, term, virtual=True)


class OracleBinder:
    """The per-binder pool matcher: a pin's class, the carrier, or one
    bucket of a hash index over the carrier by the probe side's value."""

    def __init__(self, inst: Instance, steps: tuple):
        self.inst = inst
        self.steps = steps
        self.pools: list = [None] * len(steps)

    def bind(self, env: dict, depth: int = 0) -> Iterator[dict]:
        if depth == len(self.steps):
            yield env
            return
        step = self.steps[depth]
        for elem in self._candidates(depth, env):
            env[step.var] = elem
            yield from self.bind(env, depth + 1)

    def _candidates(self, depth: int, env: dict):
        inst, step = self.inst, self.steps[depth]
        if step.pin is not None:
            value = minting_value(inst, env, step.pin)
            if isinstance(value, ElementId) and value.entity == step.entity:
                return (inst.find(value),)
            return ()
        pool = self.pools[depth]
        if pool is None:
            pool = self.pools[depth] = self._pool(step)
        if step.probe is None or not pool:
            return pool
        return pool.get(_join_key(inst, minting_value(inst, env, step.probe[1])), ())

    def _pool(self, step):
        carrier = self.inst.carrier(step.entity)
        if step.probe is None:
            return carrier
        index: dict = {}
        for elem in carrier:
            key = _join_key(self.inst, minting_value(self.inst, {step.var: elem}, step.probe[0]))
            if key is not None:
                index.setdefault(key, []).append(elem)
        return index


def oracle_binder_matches(inst: Instance, c: Constraint) -> list[dict]:
    """The premise matches the per-binder pool matcher gives, in its order.
    It mints in a copy of ``inst``, which it leaves as it is."""
    inst = inst.copy()
    matches = []
    for env in OracleBinder(inst, c.plan.premise).bind({}):
        match = solve_pins(inst, c, dict(env))
        if all(_atom_holds(inst, match, atom, minting_value) for atom in c.premise):
            matches.append(match)
    return matches


# ---------------------------------------------------------------------------
# Conclusion-shape oracle: the analysis ``fire_once`` ran on every firing
# before ``Constraint.plan`` held it

def oracle_defers(inst: Instance, c: Constraint, live_env: dict) -> bool:
    """Is the firing of a premise match left pending? ``fire_once``'s
    deferral loop, returning True where it returned None."""
    # Fresh elements minted while a function argument is unknown would be
    # minted again every round.
    for eq in c.conclusion:
        for side in (eq.left, eq.right):
            if not isinstance(side, FunApp):
                continue
            if _reads_unset_cell(c, side):
                return True
            side = _through_existentials(c, side)
            if _term_vars(side) <= live_env.keys():
                if not isinstance(eval_term(inst, live_env, side), Const):
                    return True
    return False


def plan_defers(inst: Instance, c: Constraint, env: dict) -> bool:
    """``fire_once``'s test for leaving a firing pending, read off ``c.plan``."""
    return c.plan.stuck or any(not isinstance(eval_term(inst, env, t), Const) for t in c.plan.defer)


def oracle_conclusion_shape(c: Constraint) -> tuple[tuple, tuple, bool]:
    """``(enforce, defer, stuck)`` of ``c.plan`` as the per-firing analysis
    finds them: the enforcement order with the enforcement loop's
    entity-sorted test, less the entity-sorted equations whose two sides are
    one term (they hold everywhere), the function sides the deferral loop
    evaluates once every universal is bound, and whether it returns on an
    unset cell."""
    enforce = []
    for eq in _enforcement_order(c.conclusion):
        entity_sorted = isinstance(eq.left, Var) or isinstance(eq.left, PathApp) and eq.left.path.attr is None
        if not (entity_sorted and eq.left == eq.right):
            enforce.append((eq, entity_sorted))
    universals = {name for name, _ in c.universals}
    defer, stuck = [], False
    for eq in c.conclusion:
        for side in (eq.left, eq.right):
            if isinstance(side, FunApp):
                stuck = stuck or _reads_unset_cell(c, side)
                side = _through_existentials(c, side)
                if _term_vars(side) <= universals:
                    defer.append(side)
    return tuple(enforce), tuple(defer), stuck


def _enforcement_order(conclusion: tuple[Eq, ...]) -> list[Eq]:
    """Equations without a function side, then those with one, each after the
    others that set a path it reads; declaration order otherwise and on cycles."""
    pending, order = sorted(conclusion, key=_has_function_side), []
    while pending:
        eq = next((eq for eq in pending if not any(
            other is not eq and (_reads(eq.left) | _reads(eq.right)) & {other.left, other.right}
            for other in pending)), pending[0])
        pending.remove(eq)
        order.append(eq)
    return order


def _has_function_side(eq: Eq) -> bool:
    return isinstance(eq.left, FunApp) or isinstance(eq.right, FunApp)


def _reads(term: Term) -> set[Term]:
    """The paths among a function application's arguments, at any depth."""
    if not isinstance(term, FunApp):
        return set()
    return {a for a in term.args if isinstance(a, PathApp)}.union(*map(_reads, term.args))


def _reads_unset_cell(c: Constraint, term: Term) -> bool:
    """Does a function application read ``y.a`` (``y`` existential, no
    foreign keys) that a firing cannot compute? Then ``y.a`` is a fresh
    element's unset null in every firing, and the function never evaluates."""
    return not all(_computable(c, p) for p in _reads(term))


def _computable(c: Constraint, term: Term, visiting: frozenset = frozenset()) -> bool:
    """Can a firing compute ``term`` from universals and constants? Each
    ``y.a`` in it (``y`` existential, no foreign keys, and no equation has
    ``y`` as a side) must be a side of a conclusion equation whose other
    side is computable without coming back to ``y.a``."""
    if isinstance(term, FunApp):
        return all(_computable(c, a, visiting) for a in term.args)
    existentials = {name for name, _ in c.existentials}
    sides = {side for eq in c.conclusion for side in (eq.left, eq.right)}
    if not (isinstance(term, PathApp) and term.var in existentials and not term.path.fks
            and Var(term.var) not in sides):
        return True
    return term not in visiting and any(
        _computable(c, other, visiting | {term})
        for eq in c.conclusion for side, other in _sides(eq) if side == term
    )


def _through_existentials(c: Constraint, term: Term) -> Term:
    """``term`` with each argument ``y.a`` (``y`` existential, no foreign
    keys) replaced by the term over universals that the first conclusion
    equation setting ``y.a`` equates it to. Failing that, the cells that
    equations equate ``y.a`` to are searched the same way, nearest first,
    each once."""
    if isinstance(term, FunApp):
        return FunApp(term.fn, tuple(_through_existentials(c, a) for a in term.args))
    existentials = {name for name, _ in c.existentials}
    universals = {name for name, _ in c.universals}

    def is_cell(t: Term) -> bool:
        return (isinstance(t, PathApp) and not t.path.fks and t.path.attr is not None
                and t.var in existentials)

    queue = [term] if is_cell(term) else []
    for at in queue:  # grows while it is read: a breadth-first walk
        for eq in c.conclusion:
            for side, other in _sides(eq):
                if side == at and _term_vars(other) <= universals:
                    return other
        for eq in c.conclusion:
            for side, other in _sides(eq):
                if side == at and is_cell(other) and other not in queue:
                    queue.append(other)
    return term


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
# Member oracles: the engine's first per-call scans of the whole schema

def oracle_fks_of(schema: Schema, entity: str) -> list[ForeignKey]:
    return [fk for fk in schema.foreign_keys if fk.source == entity]


def oracle_attrs_of(schema: Schema, entity: str) -> list[Attribute]:
    return [a for a in schema.attributes if a.source == entity]


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
# Random weakly acyclic inputs (unless asked for constants, all attribute
# values stay null, so no constant clash is possible and every accepted set
# must saturate)

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


def random_instance(
    rng: random.Random, schema: Schema, max_elements: int = 30, constants: bool = False
) -> Instance:
    """Random elements and foreign keys; with ``constants``, also attribute
    cells drawn from a pool of two values per attribute, out of three values
    shared by all attributes, so that keys collide within and across
    attributes. Without it ``rng`` gives no draw for attribute cells."""
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
    if constants:
        for attr in schema.attributes:
            pool = rng.sample("uvw", 2)
            for elem in inst.elements(attr.source):
                if rng.random() < 0.5:
                    inst.set_attr(elem, attr.name, Const(attr.type, rng.choice(pool)))
    return inst


def rows_reversed(inst: Instance) -> Instance:
    """``inst`` built again with each entity's elements added in reverse:
    the same classes, then the same foreign keys, constants and null
    classes, each row in reverse carrier order."""
    out = new_instance(inst.schema, inst.name)
    image = {elem: out.add_element(entity, elem.name, fresh=elem.fresh)
             for entity in inst.schema.entities for elem in reversed(inst.elements(entity))}
    roots = [root for entity in inst.schema.entities for root in reversed(inst.carrier(entity))]
    for root in roots:
        for member in inst.members(root)[1:]:
            out.merge_elements(image[root], image[member])
    nulls: dict[NullRef, tuple[ElementId, str]] = {}
    for root in roots:
        for name, value in inst.row(root).items():
            if isinstance(value, ElementId):
                out.set_fk(image[root], name, image[inst.find(value)])
            elif isinstance(value := inst.resolve_value(value), NullRef):
                out.union_attrs(image[root], name, *nulls.setdefault(value, (image[root], name)))
            else:
                out.set_attr(image[root], name, value)
    return out.freeze() if inst.frozen else out


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


def random_weakly_acyclic_case(rng: random.Random, constants: bool = False):
    """(schema, instance, constraints) accepted by the static guard; the
    instance holds constants when ``constants`` (see ``random_instance``)."""
    from catamerge import check_weak_acyclicity

    while True:
        schema = random_schema(rng)
        constraints = random_constraints(rng, schema, rng.randint(1, 4))
        if not constraints:
            continue
        if check_weak_acyclicity(constraints, schema).acyclic:
            return schema, random_instance(rng, schema, constants=constants), constraints


def random_join_case(rng: random.Random) -> tuple[Instance, list[Constraint]]:
    """A frozen instance whose String cells are constants, shared nulls or
    unobserved, with merged classes and foreign keys into shared targets,
    and equality rules that join on them: same-attribute self-joins, joins
    of two attributes, of two foreign-key paths or a path and an attribute,
    across entities, of three variables, and against a constant; and
    premises that pin ``q = p.g``, alone and with a check that reads ``q``."""
    st = BaseType.STRING
    schema = Schema(
        "J",
        ("X", "Y"),
        (ForeignKey("g", "X", "Y"), ForeignKey("f", "X", "X")),
        (Attribute("a", "X", st), Attribute("b", "X", st), Attribute("a", "Y", st),
         Attribute("c", "Y", st)),
    )
    inst = new_instance(schema, "joins")
    xs = [inst.add_element("X", f"x{i}") for i in range(rng.randint(2, 7))]
    ys = [inst.add_element("Y", f"y{i}") for i in range(rng.randint(1, 4))]
    cells = [(e, a.name) for e in xs + ys for a in schema.attrs_of(e.entity)]
    for elem, attr in cells:
        if rng.random() < 0.3:
            inst.set_attr(elem, attr, Const(st, rng.choice("pq")))
    for _ in range(rng.randint(0, 3)):
        (e1, a1), (e2, a2) = rng.choice(cells), rng.choice(cells)
        inst = _try(inst, lambda i: i.union_attrs(e1, a1, e2, a2))
    for x in xs:
        if rng.random() < 0.7:
            inst.set_fk(x, "g", rng.choice(ys))
        if rng.random() < 0.4:
            inst.set_fk(x, "f", rng.choice(xs))
    if rng.random() < 0.4:
        inst = _try(inst, lambda i: i.merge_elements(*rng.sample(xs, 2)))

    def at(v: str, entity: str, attr: str | None, *fks: str) -> PathApp:
        return PathApp(v, Path(entity, fks, attr))

    p, q, r = (("p", "X"),), (("q", "X"),), (("r", "X"),)
    qy = (("q", "Y"),)
    templates = [
        (p + q, (Eq(at("p", "X", "a"), at("q", "X", "a")),)),
        (p + q, (Eq(at("q", "X", "b"), at("p", "X", "b")),)),
        (p + q, (Eq(at("p", "X", "a"), at("q", "X", "b")),)),
        (p + q, (Eq(at("p", "X", "a", "g"), at("q", "X", "a", "g")),)),
        (p + qy, (Eq(at("p", "X", "a", "g"), at("q", "Y", "a")),)),
        (p + qy, (Eq(at("p", "X", "a"), at("q", "Y", "a")),)),
        (qy + p, (Eq(at("q", "Y", "c"), at("p", "X", "a", "g")),)),
        (p + q, (Eq(at("p", "X", "a", "f"), at("q", "X", "a")),)),
        (p + q + r, (Eq(at("p", "X", "a"), at("q", "X", "b")),
                     Eq(at("r", "X", "a"), at("q", "X", "a")))),
        (p + q, (Eq(at("p", "X", "a"), at("q", "X", "a")),
                 Eq(at("p", "X", "b"), at("q", "X", "b")))),
        (p, (Eq(Const(st, rng.choice("pq")), at("p", "X", rng.choice("ab"))),)),
        (p + qy, (Eq(Var("q"), at("p", "X", None, "g")),)),
        (p + qy + r, (Eq(Var("q"), at("p", "X", None, "g")),
                      Eq(at("q", "Y", "a"), at("r", "X", "b")))),
    ]
    constraints = []
    for universals, premise in rng.sample(templates, rng.randint(1, 4)):
        if rng.random() < 0.5 and universals[:2] == p + q:
            conclusion = (Eq(Var("p"), Var("q")),)
        else:
            (v, ev), (w, ew) = universals[0], universals[-1]
            attr = {"X": "b", "Y": "c"}
            conclusion = (Eq(at(v, ev, attr[ev]), at(w, ew, attr[ew])),)
        constraints.append(Constraint(universals, premise, (), conclusion))
    return inst.freeze(), constraints


def many_schemas_document(k: int, m: int) -> str:
    """k schemas ``Si``, each with m ``Space`` rows named ``namei`` and m
    ``Device`` rows pointing to them by ``ini``; extension ``Star``
    identifies every ``Si.Space`` with ``S0.Space`` and has the k - 1 rules
    ``forall a b : Space where a.name0 = b.namei -> a = b``."""
    lines = []
    for i in range(k):
        lines += [
            f"schema S{i} {{",
            "  entities Space Device",
            f"  foreign_keys in{i} : Device -> Space",
            f"  attributes name{i} : Space -> String  dev{i} : Device -> String",
            "}",
            f"instance d{i} : S{i} {{",
            "  entity Space {",
            *(f'    row s{j} {{ name{i} = "room {j}" }}' for j in range(m)),
            "  }",
            "  entity Device {",
            *(f'    row v{j} {{ dev{i} = "dev {i}.{j}" in{i} = s{j} }}' for j in range(m)),
            "  }",
            "}",
        ]
    lines += ["extension Star {", "  include " + " ".join(f"S{i}" for i in range(k))]
    lines += [f"  identify S{i}.Space = S0.Space" for i in range(1, k)]
    lines += ["  constraints"]
    lines += [f"    forall a b : Space where a.name0 = b.name{i} -> a = b" for i in range(1, k)]
    return "\n".join(lines + ["}", ""])


def many_schemas_case(k: int, m: int) -> tuple[Instance, list[Constraint]]:
    """The pre-instance and rules of ``many_schemas_document``."""
    env = load_text(many_schemas_document(k, m), "many.cmg")
    combined = combine_schemas(env.extensions["Star"])
    sources = {inst.schema.name: inst for inst in env.instances.values()}
    return sigma_insert(combined, sources), list(combined.schema.constraints)


# ---------------------------------------------------------------------------
# Tokenizer oracle: the engine's first tokenizer, a loop over characters that
# gives every token its line and column by a forward scan over line starts

@dataclass
class OracleToken:
    kind: str
    text: str
    pos: int
    line: int
    column: int
    value: object = None


def _forward_position(doc: SourceDocument) -> Callable[[int], tuple[int, int]]:
    """``doc.position`` for offsets that never decrease, by a forward scan."""
    starts, row = [0] + [i + 1 for i, ch in enumerate(doc.text) if ch == "\n"], 0

    def position(offset: int) -> tuple[int, int]:
        nonlocal row
        while row + 1 < len(starts) and starts[row + 1] <= offset:
            row += 1
        return row + 1, offset - starts[row] + 1

    return position


_ORACLE_PUNCT2 = ("->", "<=", ">=")
_ORACLE_PUNCT1 = "{}():,.=<>"
_ORACLE_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_ORACLE_DIGITS = frozenset("0123456789")
_ORACLE_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ORACLE_IDENT_CONT = _ORACLE_IDENT_START | _ORACLE_DIGITS


def oracle_tokenize(doc: SourceDocument, diags: list[Diagnostic]) -> list[OracleToken]:
    text = doc.text
    tokens: list[OracleToken] = []
    i, n = 0, len(text)
    position = _forward_position(doc)

    def emit(kind: str, start: int, end: int, value: object = None) -> None:
        line, col = position(start)
        tokens.append(OracleToken(kind, text[start:end], start, line, col, value))

    def err(start: int, message: str) -> None:
        line, col = position(start)
        diags.append(Diagnostic("error", message, doc.name, line, col))

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _ORACLE_IDENT_START:
            start = i
            while i < n and text[i] in _ORACLE_IDENT_CONT:
                i += 1
            word = text[start:i]
            emit(word if word in _KEYWORDS else "ident", start, i)
            continue
        if ch in _ORACLE_DIGITS or (ch == "-" and i + 1 < n and text[i + 1] in _ORACLE_DIGITS):
            start = i
            if ch == "-":
                i += 1
            while i < n and text[i] in _ORACLE_DIGITS:
                i += 1
            is_double = False
            if i + 1 < n and text[i] == "." and text[i + 1] in _ORACLE_DIGITS:
                is_double = True
                i += 1
                while i < n and text[i] in _ORACLE_DIGITS:
                    i += 1
            raw = text[start:i]
            if is_double and float(raw) in (float("inf"), float("-inf")):
                err(start, "double literal out of range")
                emit("double", start, i, 0.0)
            elif is_double:
                emit("double", start, i, normalize_double(float(raw)))
            elif len(raw.lstrip("-")) > sys.get_int_max_str_digits() > 0:  # 0: no limit
                err(start, "integer literal too long")
                emit("int", start, i, 0)
            else:
                emit("int", start, i, int(raw))
            continue
        if ch == '"':
            start = i
            i += 1
            out: list[str] = []
            closed = False
            while i < n:
                c = text[i]
                if c == '"':
                    i += 1
                    closed = True
                    break
                if c == "\n":
                    break
                if c == "\\" and i + 1 < n:
                    esc = text[i + 1]
                    out.append(_ORACLE_ESCAPES.get(esc, esc))
                    i += 2
                    continue
                out.append(c)
                i += 1
            if not closed:
                err(start, "unterminated string literal")
            emit("string", start, i, "".join(out))
            continue
        two = text[i : i + 2]
        if two in _ORACLE_PUNCT2:
            emit(two, i, i + 2)
            i += 2
            continue
        if ch in _ORACLE_PUNCT1:
            emit(ch, i, i + 1)
            i += 1
            continue
        err(i, f"unexpected character {ch!r}")
        i += 1
    line, col = position(n)
    tokens.append(OracleToken("eof", "", n, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Instance-block oracle: the engine's first row build, which wrote each
# binding through the instance builder (``set_fk`` / ``set_attr``), checks
# and all. Patch it in as ``_Parser.parse_instance_block``.

def oracle_parse_instance_block(self: _Parser) -> None:
    self.expect("instance")
    name_tok = self.expect("ident", "instance name")
    self.expect(":")
    schema_tok = self.expect("ident", "schema name")
    schema = self.env.schemas.get(schema_tok.text)
    if schema is None:
        raise self.fail(schema_tok, f"unknown schema '{schema_tok.text}'")
    self.expect("{")
    rows: list[tuple[Token, str, int, list[Binding]]] = []
    while True:
        tok = self.peek()
        if tok.kind == "}":
            self.advance()
            break
        if tok.kind != "entity":
            raise self.fail(tok, f"expected 'entity' or '}}', found '{tok.text}'")
        self.advance()
        entity_tok = self.expect("ident", "entity name")
        self.expect("{")
        while self.peek().kind == "row":
            decoded = self.advance().value
            if decoded is not None:  # a well-formed row, decoded by the tokenizer
                rows.append((entity_tok, *decoded))
                continue
            row_id, id_pos = self._parse_row_id()
            self.expect("{")
            bindings: list[Binding] = []
            while self.peek().kind == "ident":
                member = self.advance()
                self.expect("=")
                bindings.append((member.text, member.pos, *self._parse_binding_value()))
            self.expect("}")
            rows.append((entity_tok, row_id, id_pos, bindings))
        self.expect("}")

    inst = Instance(schema, name_tok.text)
    ok = True
    for entity_tok, row_id, id_pos, _ in rows:
        if not schema.has_entity(entity_tok.text):
            self.error(entity_tok, f"'{entity_tok.text}' is not an entity of schema {schema.name}")
            ok = False
            continue
        try:
            inst.add_element(entity_tok.text, row_id)
        except InstanceError as err:
            self.error_at(id_pos, str(err))
            ok = False
    for entity_tok, row_id, _, bindings in rows:
        if not schema.has_entity(entity_tok.text):
            continue
        elem = inst.element_named(entity_tok.text, row_id)
        if elem is None:
            continue
        for binding in bindings:
            ok &= oracle_apply_binding(self, inst, schema, entity_tok.text, elem, binding)
    if name_tok.text in self.env.instances:
        self.error(name_tok, f"instance '{name_tok.text}' is already defined")
    elif ok:
        self.env.instances[name_tok.text] = inst


def oracle_apply_binding(
    self: _Parser, inst: Instance, schema: Schema, entity: str, elem, binding: Binding
) -> bool:
    member, member_pos, kind, value, at = binding
    fk = schema.fk(entity, member)
    attr = schema.attr(entity, member)
    if fk is not None:
        if kind == "ref":
            ref_name = value
        elif kind == "lit" and value.type is BaseType.STRING:
            ref_name = str(value.value)  # quoted row id
        else:
            self.error_at(at, f"foreign key '{member}' expects a row id")
            return False
        target = inst.element_named(fk.target, ref_name)
        if target is None:
            self.error_at(at, f"'{ref_name}' is not a declared row of entity '{fk.target}'")
            return False
        try:
            inst.set_fk(elem, member, target)
        except InstanceError as err:
            self.error_at(at, str(err))
            return False
        return True
    if attr is not None:
        if kind == "null":
            return True
        if kind == "ref":
            self.error_at(at, f"attribute '{member}' expects a literal or null")
            return False
        const: Const = value
        if const.type != attr.type:
            promoted = _promote_int_literal(const, const.type, attr.type)
            if promoted is None:
                self.error_at(at, f"attribute '{member}' has type {attr.type}, got {const.type}")
                return False
            const = promoted
        try:
            inst.set_attr(elem, member, const)
        except InstanceError as err:
            self.error_at(at, str(err))
            return False
        return True
    self.error_at(member_pos, f"'{member}' is not a foreign key or attribute of entity '{entity}'")
    return False


# ---------------------------------------------------------------------------
# Random function-side conclusions (``random_constraints`` emits none, and
# its draws feed the seeded tests, so these come from their own generator)

FUNCTION_SIDE_SCHEMA = Schema(
    "F",
    ("X", "Y"),
    (ForeignKey("g", "Y", "X"),),
    tuple(Attribute(a, "X", BaseType.INT) for a in "bc")
    + tuple(Attribute(a, "Y", BaseType.INT) for a in "abcd"),
)


def random_function_side_constraint(rng: random.Random) -> Constraint:
    """``forall x : X -> exists y : Y (, z : Y) , ...`` over
    ``FUNCTION_SIDE_SCHEMA``, with one to four conclusion templates in a
    random order and with random side order. Function sides read universal
    attributes (``add(x.b, 1)``), existential attributes that other
    equations set from universals, from other existentials or never, and
    ``y.g`` paths; chains such as ``y.a = add(y.b, 1) and
    y.b = add(x.b, 1)`` come in either order."""
    add = resolve_function("add", (BaseType.INT, BaseType.INT))
    one = Const(BaseType.INT, 1)
    existentials = ("y", "z")[: rng.randint(1, 2)]

    def attr(var: str, name: str) -> Term:
        return PathApp(var, Path("Y", (), name))

    def x_attr() -> Term:
        return PathApp("x", Path("X", (), rng.choice("bc")))

    def y_attr() -> Term:
        return attr(rng.choice(existentials), rng.choice("abcd"))

    def arg(depth: int = 0) -> Term:
        kind = rng.randrange(5 if depth else 6)
        if kind == 0:
            return x_attr()
        if kind in (1, 2):
            return y_attr()
        if kind == 3:
            return PathApp(rng.choice(existentials), Path("Y", ("g",), rng.choice("bc")))
        if kind == 4:
            return one
        return FunApp(add, (arg(1), arg(1)))

    def templates() -> list[Eq]:
        kind = rng.randrange(7)
        if kind == 0:
            return [Eq(y_attr(), FunApp(add, (x_attr(), one)))]
        if kind == 1:
            return [Eq(y_attr(), x_attr())]
        if kind == 2:
            return [Eq(y_attr(), y_attr())]
        if kind == 3:
            return [Eq(y_attr(), FunApp(add, (arg(), arg())))]
        if kind == 4:
            return [Eq(PathApp(rng.choice(existentials), Path("Y", ("g",))), Var("x"))]
        if kind == 5:
            return [Eq(Var(existentials[0]), Var(existentials[-1]))]
        y = rng.choice(existentials)
        a, b = rng.sample("abcd", 2)
        return [Eq(attr(y, a), FunApp(add, (attr(y, b), one))),
                Eq(attr(y, b), FunApp(add, (x_attr(), one)))]

    conclusion = [eq for _ in range(rng.randint(1, 4)) for eq in templates()]
    rng.shuffle(conclusion)
    conclusion = [Eq(eq.right, eq.left) if rng.random() < 0.5 else eq for eq in conclusion]
    binders = tuple((name, "Y") for name in existentials)
    c = Constraint((("x", "X"),), (), binders, tuple(conclusion))
    check_constraint(c, FUNCTION_SIDE_SCHEMA)
    return c


# ---------------------------------------------------------------------------
# Eager-null oracle: every attribute cell enters its labelled null when its
# element is added, as the engine first did

@contextmanager
def eager_nulls() -> Iterator[None]:
    """Within the block, ``add_element`` of every instance enters the null
    of each of the element's attribute cells."""
    add_element = Instance.add_element

    def eager(self: Instance, entity: str, name: str, **kwargs) -> ElementId:
        elem = add_element(self, entity, name, **kwargs)
        for a in self.schema.attrs_of(entity):
            self._cell(elem, a.name)
        return elem

    Instance.add_element = eager  # type: ignore[method-assign]
    try:
        yield
    finally:
        Instance.add_element = add_element  # type: ignore[method-assign]


def value_classes(inst: Instance) -> list:
    """Every attribute cell of every element, in creation order: its
    constant, or the position of the first cell holding an equal null."""
    values = [
        inst.get_attr(elem, attr.name)
        for entity in inst.schema.entities
        for elem in inst.elements(entity)
        for attr in inst.schema.attrs_of(entity)
    ]
    return [
        v if isinstance(v, Const) else next(j for j, w in enumerate(values) if values_equal(inst, v, w))
        for v in values
    ]


# ---------------------------------------------------------------------------
# Chase oracle: every round enumerates every match of every constraint
# against the start-of-round instance, checks its premise again on the live
# instance and re-validates each with fire_once, passing it the constraint's
# record so that a firing cut short reuses its witnesses

def oracle_chase(pre: Instance, constraints: list[Constraint], max_rounds: int = 10000) -> ChaseResult:
    """The naive round loop, with the preconditions left to the caller."""
    inst = pre.copy()
    trace = ChaseTrace()
    indexed = list(enumerate(constraints, start=1))
    ordered = [(i, c) for i, c in indexed if not c.existentials]
    ordered += [(i, c) for i, c in indexed if c.existentials]
    record: dict[int, dict] = {i: {} for i, _ in ordered}
    for round_no in range(1, max_rounds + 1):
        collected = [(i, c, env) for i, c in ordered for env in enumerate_matches(inst, c)]
        counter = itertools.count()
        changed = False
        for index, table in record.items():  # key the outcomes by the live classes
            record[index] = {tuple(map(inst.find, key)): out for key, out in table.items()}
        try:
            for index, c, env in collected:
                if not oracle_premise_holds_live(inst, c, env):
                    continue
                entry = fire_once(inst, c, env, round_no=round_no, counter=counter,
                                  record=record[index])
                if entry is not None:
                    entry.constraint_index = index
                    trace.entries.append(entry)
                    changed = True
        except ConstantClash as clash:
            return ChaseResult(FAILED, None, trace, round_no, clash)
        if not changed:
            return ChaseResult(SATURATED, inst.freeze(), trace, round_no)
    return ChaseResult(EXHAUSTED, None, trace, max_rounds)


# ---------------------------------------------------------------------------
# Migration oracles: the engine's first sigma_insert and delta_project, which
# copy cell by cell through the builder (``set_fk``, ``set_attr``) and read
# through ``get_fk`` and ``get_attr``

def oracle_sigma_insert(combined: CombinedSchema, sources: dict[str, Instance]) -> Instance:
    ext = combined.extension
    out = Instance(combined.schema, name=f"{ext.name}_data")
    mapping: dict[tuple[str, ElementId], ElementId] = {}
    for s in ext.schemas:
        src = sources.get(s.name)
        if src is None:
            continue
        if src.schema.name != s.name:
            raise SchemaError(
                f"instance '{src.name}' is over schema '{src.schema.name}', expected '{s.name}'"
            )
        null_map: dict[NullRef, tuple[ElementId, str]] = {}
        for entity in s.entities:
            combined_entity = combined.combined_entity(s.name, entity)
            for root in src.carrier(entity):
                row_id = src.export_id(root)
                elem = out.add_element(
                    combined_entity,
                    f"{s.name}.{row_id}",
                    fresh=root.fresh,
                    origin=(s.name, row_id),
                )
                mapping[(s.name, root)] = elem
        for entity in s.entities:
            for root in src.carrier(entity):
                elem = mapping[(s.name, root)]
                for fk in s.fks_of(entity):
                    target = src.get_fk(root, fk.name)
                    if target is None:
                        continue
                    out.set_fk(
                        elem,
                        combined.combined_member(s.name, entity, fk.name),
                        mapping[(s.name, target)],
                    )
                for attr in s.attrs_of(entity):
                    value = src.get_attr(root, attr.name)
                    combined_attr = combined.combined_member(s.name, entity, attr.name)
                    if isinstance(value, Const):
                        out.set_attr(elem, combined_attr, value)
                    else:
                        shared = null_map.get(value)
                        if shared is None:
                            null_map[value] = (elem, combined_attr)
                        else:
                            out.union_attrs(elem, combined_attr, shared[0], shared[1])
    return out


def oracle_delta_project(combined: CombinedSchema, saturated: Instance, target: Schema) -> Instance:
    if target.name not in {s.name for s in combined.extension.schemas}:
        raise SchemaError(f"schema '{target.name}' is not part of extension {combined.extension.name}")
    out = Instance(target, name=f"{saturated.name}_to_{target.name}")
    mapping: dict[ElementId, ElementId] = {}
    for entity in target.entities:
        combined_entity = combined.combined_entity(target.name, entity)
        for root in saturated.carrier(combined_entity):
            own_ids = [
                saturated.origins[m][1]
                for m in saturated.members(root)
                if saturated.origins.get(m, ("", ""))[0] == target.name
            ]
            if own_ids:
                elem = out.add_element(entity, min(own_ids))
            else:
                elem = out.add_element(entity, saturated.export_id(root), fresh=True)
            mapping[root] = elem
    for entity in target.entities:
        combined_entity = combined.combined_entity(target.name, entity)
        for root in saturated.carrier(combined_entity):
            elem = mapping[root]
            for fk in target.fks_of(entity):
                combined_fk = combined.combined_member(target.name, entity, fk.name)
                tgt = saturated.get_fk(root, combined_fk)
                if tgt is not None:
                    out.set_fk(elem, fk.name, mapping[saturated.find(tgt)])
            for attr in target.attrs_of(entity):
                combined_attr = combined.combined_member(target.name, entity, attr.name)
                value = saturated.get_attr(root, combined_attr)
                if isinstance(value, Const):
                    out.set_attr(elem, attr.name, value)
    return out


# ---------------------------------------------------------------------------
# Output oracles: the engine's first instance printer, CSV export and
# round-trip diff, which read every (class, schema member) pair through
# ``get_fk``, ``get_attr`` and ``export_id``

def oracle_print_instance(inst: Instance) -> str:
    lines = [f"instance {inst.name} : {inst.schema.name} {{"]
    for entity in inst.schema.entities:
        classes = inst.carrier(entity)
        if not classes:
            continue
        lines.append(f"  entity {entity} {{")
        for root in classes:
            bindings = []
            for fk in inst.schema.fks_of(entity):
                target = inst.get_fk(root, fk.name)
                if target is not None:
                    bindings.append(f"{fk.name} = {_row_id(inst.export_id(target))}")
            for attr in inst.schema.attrs_of(entity):
                value = inst.get_attr(root, attr.name)
                if isinstance(value, Const):
                    bindings.append(f"{attr.name} = {_literal(value)}")
            body = " ".join(bindings)
            body = f" {body} " if body else " "
            lines.append(f"    row {_row_id(inst.export_id(root))} {{{body}}}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_instance_csvs(inst: Instance) -> dict[str, str]:
    out: dict[str, str] = {}
    for entity in inst.schema.entities:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        fks = inst.schema.fks_of(entity)
        attrs = inst.schema.attrs_of(entity)
        writer.writerow(["id"] + [fk.name for fk in fks] + [a.name for a in attrs])
        for root in inst.carrier(entity):
            row = [inst.export_id(root)]
            for fk in fks:
                target = inst.get_fk(root, fk.name)
                row.append(inst.export_id(target) if target is not None else "")
            for a in attrs:
                value = inst.get_attr(root, a.name)
                row.append(render_constant(value) if isinstance(value, Const) else "")
            writer.writerow(row)
        out[entity] = buf.getvalue()
    return out


def oracle_roundtrip_report(original: Instance, recovered: Instance) -> RoundTripReport:
    if original.schema.name != recovered.schema.name:
        raise SchemaError("round-trip instances must share a schema")
    schema = original.schema
    report = RoundTripReport()
    for entity in schema.entities:
        delta = TableDelta(entity)
        orig_rows = {original.export_id(r): r for r in original.carrier(entity)}
        rec_rows = {recovered.export_id(r): r for r in recovered.carrier(entity)}
        delta.rows_in = len(orig_rows)
        matched: set[str] = set()
        for rid, rec_root in rec_rows.items():
            if rid in orig_rows:
                matched.add(rid)
            else:
                delta.new_rows += 1
        delta.rows_recovered = len(matched)
        for rid, orig_root in orig_rows.items():
            rec_root = rec_rows.get(rid) if rid in matched else None
            for attr in schema.attrs_of(entity):
                ov = original.get_attr(orig_root, attr.name)
                rv = recovered.get_attr(rec_root, attr.name) if rec_root is not None else None
                if isinstance(ov, Const):
                    if not (isinstance(rv, Const) and rv.type == ov.type and rv.value == ov.value):
                        delta.attributes_lost += 1
                else:
                    if isinstance(rv, Const):
                        delta.attributes_gained += 1
        report.tables.append(delta)
    return report


def _random_source_schema(rng: random.Random, name: str) -> Schema:
    entities = tuple(f"E{i}" for i in range(rng.randint(1, 3)))
    fks = [
        ForeignKey(f"f{i}_{k}", src, rng.choice(entities))
        for i, src in enumerate(entities)
        for k in range(rng.randint(0, 2))
    ]
    attrs = [
        Attribute(f"a{i}_{k}", src, rng.choice((BaseType.INT, BaseType.STRING)))
        for i, src in enumerate(entities)
        for k in range(rng.randint(0, 3))
    ]
    return Schema(name, entities, tuple(fks), tuple(attrs))


def _random_constant(rng: random.Random, base: BaseType) -> Const:
    return Const(base, rng.randint(0, 2) if base is BaseType.INT else rng.choice("xyz"))


def _try(inst: Instance, op: Callable[[Instance], object]) -> Instance:
    """``op`` applied to a copy of ``inst``, or ``inst`` when it clashes."""
    trial = inst.copy()
    try:
        op(trial)
    except ConstantClash:
        return inst
    return trial


def random_source_instance(rng: random.Random, schema: Schema) -> Instance:
    """A programmatic instance: some entities empty, some elements fresh,
    foreign keys set or not, cells constant, unobserved or sharing a null
    through ``union_attrs`` (some of those classes anchored later), and a
    few merged classes."""
    inst = new_instance(schema, f"{schema.name.lower()}_src")
    for entity in schema.entities:
        if rng.random() < 0.2:
            continue
        for i in range(rng.randint(1, 5)):
            inst.add_element(entity, f"{entity.lower()}_{i}", fresh=rng.random() < 0.2)
    cells = [
        (elem, attr)
        for entity in schema.entities
        for elem in inst.elements(entity)
        for attr in schema.attrs_of(entity)
    ]
    for entity in schema.entities:
        for elem in inst.elements(entity):
            for fk in schema.fks_of(entity):
                targets = inst.elements(fk.target)
                if targets and rng.random() < 0.6:
                    inst.set_fk(elem, fk.name, rng.choice(targets))
    for elem, attr in cells:
        if rng.random() < 0.4:
            inst.set_attr(elem, attr.name, _random_constant(rng, attr.type))
    for _ in range(rng.randint(0, 4) if len(cells) > 1 else 0):
        (e1, a1), (e2, a2) = rng.sample(cells, 2)
        if a1.type is a2.type:
            inst = _try(inst, lambda i: i.union_attrs(e1, a1.name, e2, a2.name))
    for _ in range(rng.randint(0, 2) if cells else 0):
        elem, attr = rng.choice(cells)
        value = _random_constant(rng, attr.type)
        inst = _try(inst, lambda i: i.assign_attr(elem, attr.name, value))
    for _ in range(rng.randint(0, 2)):
        elems = inst.carrier(rng.choice(schema.entities))
        if len(elems) > 1:
            a, b = rng.sample(elems, 2)
            inst = _try(inst, lambda i: i.merge_elements(a, b))
    return inst


def random_migration_case(rng: random.Random) -> tuple[CombinedSchema, dict[str, Instance]]:
    """Two or three random schemas, some entities identified across them,
    and a ``random_source_instance`` for most of them."""
    while True:
        schemas = tuple(_random_source_schema(rng, f"S{k}") for k in range(rng.randint(2, 3)))
        idents = []
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(schemas, 2)
            idents.append(Identification(a.name, rng.choice(a.entities), b.name, rng.choice(b.entities)))
        try:
            combined = combine_schemas(ExtensionSpec("M", schemas, tuple(idents)))
        except (SchemaError, IdentificationCollision):
            continue
        return combined, {s.name: random_source_instance(rng, s) for s in schemas if rng.random() < 0.9}


def random_chase_like(rng: random.Random, pre: Instance) -> Instance:
    """``pre`` after random saturation-level calls: merges, fresh elements,
    fk definitions, anchoring and unions, as a chase might make them."""
    schema, inst = pre.schema, pre.copy()
    for k in range(rng.randint(0, 10)):
        entity = rng.choice(schema.entities)
        elems = inst.carrier(entity)
        op = rng.randrange(5)
        if op == 0 or not elems:
            inst.add_element(entity, f"{entity}!{k}", fresh=True)
        elif op == 1:
            a, b = rng.choice(elems), rng.choice(elems)
            inst = _try(inst, lambda i: i.merge_elements(a, b))
        elif op == 2 and schema.fks_of(entity):
            fk = rng.choice(schema.fks_of(entity))
            targets = inst.carrier(fk.target)
            if targets:
                elem, target = rng.choice(elems), rng.choice(targets)
                inst = _try(inst, lambda i: i.define_fk(elem, fk.name, target))
        elif op == 3 and schema.attrs_of(entity):
            elem, attr = rng.choice(elems), rng.choice(schema.attrs_of(entity))
            value = _random_constant(rng, attr.type)
            inst = _try(inst, lambda i: i.assign_attr(elem, attr.name, value))
        elif op == 4 and schema.attrs_of(entity):
            (e1, e2), attr = (rng.choice(elems), rng.choice(elems)), rng.choice(schema.attrs_of(entity))
            inst = _try(inst, lambda i: i.union_attrs(e1, attr.name, e2, attr.name))
    return inst.freeze()


# ---------------------------------------------------------------------------
# Comparison oracle: the engine's first ``instances_same_data``, one loop over
# each entity's carriers paired by position, and the mutations it is tested on

def oracle_instances_same_data(a: Instance, b: Instance) -> bool:
    """Structural equality of the quotients, up to a renaming of null classes."""
    sa, sb = a.schema, b.schema
    if (sa.entities, sa.foreign_keys, sa.attributes) != (sb.entities, sb.foreign_keys, sb.attributes):
        return False
    nulls: dict[tuple[int, NullRef], NullRef] = {}
    for entity in a.schema.entities:
        ca, cb = a.carrier(entity), b.carrier(entity)
        if [a.export_id(e) for e in ca] != [b.export_id(e) for e in cb]:
            return False
        for ea, eb in zip(ca, cb):
            for fk in a.schema.fks_of(entity):
                ta, tb = a.get_fk(ea, fk.name), b.get_fk(eb, fk.name)
                if (ta is None) != (tb is None):
                    return False
                if ta is not None and tb is not None and a.export_id(ta) != b.export_id(tb):
                    return False
            for attr in a.schema.attrs_of(entity):
                va, vb = a.get_attr(ea, attr.name), b.get_attr(eb, attr.name)
                if not cells_match(va, vb, nulls):
                    return False
    return True


def mutated_copies(inst: Instance) -> list[Instance]:
    """Copies of ``inst`` with one change each, where ``inst`` allows it:
    the first constant cell changed, the first two null cells of one type
    in different classes unified, and the first set foreign key retargeted
    to another class, and unset. Cells and keys are taken in carrier order."""
    schema, out = inst.schema, []
    cells = [
        (root, attr)
        for entity in schema.entities
        for root in inst.carrier(entity)
        for attr in schema.attrs_of(entity)
    ]
    for root, attr in cells:
        value = inst.get_attr(root, attr.name)
        if isinstance(value, Const):
            if value.type is BaseType.STRING:
                changed = Const(value.type, f"{value.value}'")
            elif value.type is BaseType.BOOL:
                changed = Const(value.type, not value.value)
            else:
                changed = Const(value.type, value.value + 1)
            copy = inst.copy()
            stored = copy._rows[root][attr.name]
            if isinstance(stored, Const):
                copy._rows[root][attr.name] = changed
            else:
                copy._null_anchor[copy.null_find(stored)] = changed
            out.append(copy)
            break
    nulls = [(root, attr) for root, attr in cells if isinstance(inst.get_attr(root, attr.name), NullRef)]
    for (r1, a1), (r2, a2) in itertools.combinations(nulls, 2):
        if a1.type is a2.type and not values_equal(inst, inst.get_attr(r1, a1.name), inst.get_attr(r2, a2.name)):
            copy = inst.copy()
            copy.union_attrs(r1, a1.name, r2, a2.name)
            out.append(copy)
            break
    retargets = (
        (root, fk, other)
        for entity in schema.entities
        for root in inst.carrier(entity)
        for fk in schema.fks_of(entity)
        if inst.get_fk(root, fk.name) is not None
        for other in inst.carrier(fk.target)
        if other != inst.get_fk(root, fk.name)
    )
    for root, fk, other in itertools.islice(retargets, 1):
        copy = inst.copy()
        copy._rows[root][fk.name] = other
        out.append(copy)
        copy = inst.copy()
        del copy._rows[root][fk.name]
        out.append(copy)
    return out


def deep_chain_document(n: int, k: int, deepest_first: bool = True) -> str:
    """Schema ``A0 … Ak`` with ``fi : Ai -> Ai+1``, n rows in ``A0``, and in
    extension ``Deep`` the rules ``forall x : Ai -> exists y : Ai+1 , x.fi = y``;
    the chase takes k + 1 rounds."""
    rules = [f"    forall x : A{i} -> exists y : A{i + 1} , x.f{i} = y" for i in range(k)]
    return "\n".join([
        "schema Chain {",
        "  entities " + " ".join(f"A{i}" for i in range(k + 1)),
        "  foreign_keys",
        *(f"    f{i} : A{i} -> A{i + 1}" for i in range(k)),
        "}",
        "instance chain : Chain {",
        "  entity A0 {",
        *(f"    row a_{j:04d} {{ }}" for j in range(n)),
        "  }",
        "}",
        "extension Deep {",
        "  include Chain",
        "  constraints",
        *(rules[::-1] if deepest_first else rules),
        "}",
        "",
    ])


def deep_chain_case(n: int, k: int, deepest_first: bool = True) -> tuple[Instance, list[Constraint]]:
    """The pre-instance and rules of ``deep_chain_document``."""
    env = load_text(deep_chain_document(n, k, deepest_first), "chain.cmg")
    combined = combine_schemas(env.extensions["Deep"])
    return sigma_insert(combined, {"Chain": env.instances["chain"]}), list(combined.schema.constraints)


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
