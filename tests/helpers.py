"""Shared test machinery: fixture loading, independent oracles, generators.

The oracles here deliberately avoid the engine's own evaluation paths: the
query oracle materializes the full cross product with its own term walker,
the matcher oracle is the engine's first premise matcher with its own pin
choice and order, the witness oracle is the engine's first carrier-scanning
witness search, the identity oracles are the engine's first export-id rule
and name scan, the cycle oracle is a plain DFS over hand-reachable edges,
the member oracles scan every fk and attribute of the schema, the
eager-null oracle mints every cell's null when its element is added, the
chase oracle re-enumerates every match of every constraint in every round
and re-checks its premise before it re-fires it, the conclusion-shape
oracle is the syntactic analysis ``fire_once`` first ran on every firing,
the tokenizer oracle is the engine's first character loop with a line and
column on every token, and the random constraint generators build inputs
from primitive templates only.
"""

from __future__ import annotations

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
from catamerge.errors import ConstantClash, QueryError
from catamerge.instance import (
    UNDEFINED,
    ElementId,
    NullRef,
    Value,
    VirtualElem,
    _atom_holds,
    enumerate_matches,
    eval_term,
    values_equal,
)
from catamerge.parser import _KEYWORDS, Diagnostic, Document, SourceDocument, parse_document
from catamerge.query import QuerySpec
from catamerge.schema import (
    Attribute,
    Cmp,
    Eq,
    ForeignKey,
    FunApp,
    PathApp,
    Schema,
    Term,
    Var,
    Path,
    _sides,
    _term_vars,
    check_constraint,
)
from catamerge.typeside import BaseType, apply_predicate, normalize_double, resolve_function

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
    entity-sorted test, the function sides the deferral loop evaluates once
    every universal is bound, and whether it returns on an unset cell."""
    enforce = tuple(
        (eq, isinstance(eq.left, Var) or (isinstance(eq.left, PathApp) and eq.left.path.attr is None))
        for eq in _enforcement_order(c.conclusion)
    )
    universals = {name for name, _ in c.universals}
    defer, stuck = [], False
    for eq in c.conclusion:
        for side in (eq.left, eq.right):
            if isinstance(side, FunApp):
                stuck = stuck or _reads_unset_cell(c, side)
                side = _through_existentials(c, side)
                if _term_vars(side) <= universals:
                    defer.append(side)
    return enforce, tuple(defer), stuck


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
            if is_double:
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
# Eager-null oracle: every attribute cell gets its labelled null when its
# element is added, as the engine first did

@contextmanager
def eager_nulls() -> Iterator[None]:
    """Within the block, ``add_element`` of every instance mints a null for
    each of the element's attribute cells."""
    add_element = Instance.add_element

    def eager(self: Instance, entity: str, name: str, **kwargs) -> ElementId:
        elem = add_element(self, entity, name, **kwargs)
        self._attrs[elem] = {a.name: self.fresh_null() for a in self.schema.attrs_of(entity)}
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
# instance and re-validates each with fire_once

def oracle_chase(pre: Instance, constraints: list[Constraint], max_rounds: int = 10000) -> ChaseResult:
    """The naive round loop, with the preconditions left to the caller."""
    inst = pre.copy()
    trace = ChaseTrace()
    indexed = list(enumerate(constraints, start=1))
    ordered = [(i, c) for i, c in indexed if not c.existentials]
    ordered += [(i, c) for i, c in indexed if c.existentials]
    for round_no in range(1, max_rounds + 1):
        collected = [(i, c, env) for i, c in ordered for env in enumerate_matches(inst, c)]
        counter = itertools.count()
        changed = False
        try:
            for index, c, env in collected:
                if not oracle_premise_holds_live(inst, c, env):
                    continue
                entry = fire_once(inst, c, env, round_no=round_no, counter=counter)
                if entry is not None:
                    entry.constraint_index = index
                    trace.entries.append(entry)
                    changed = True
        except ConstantClash as clash:
            return ChaseResult(FAILED, None, trace, round_no, clash)
        if not changed:
            return ChaseResult(SATURATED, inst.freeze(), trace, round_no)
    return ChaseResult(EXHAUSTED, None, trace, max_rounds)


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
