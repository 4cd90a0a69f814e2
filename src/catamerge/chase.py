"""Round-based parallel chase: saturate an instance under Horn constraints.

Each round enumerates premise matches against the start-of-round instance
(equality-generating constraints first, then tuple-generating ones, each in
declaration order, assignments in lexicographic order), then applies the
collected firings one by one. A firing's conclusion is re-checked against
the live instance, so duplicate work collapses into no-ops. Foreign-key
applications demanded by a conclusion path or by a pinned premise variable
are materialized with fresh elements; that is what lets a rule like
``where p = s.attachedTo.hasPoint`` build the missing target side.

Rounds are semi-naive. Merges, fk definitions, anchoring and unions never
make a premise or a conclusion that holds for a tuple of classes stop
holding. So ``fire_once`` takes a match of the start-of-round instance, or
of any earlier state in the same chase, as a match of the live one: it
re-derives the pins but checks no premise atom again. ``fire_once``
records each match's outcome in its constraint's record, keyed by the
classes of its enumerated universals: a match whose conclusion held or was
fully enforced is discharged and never fired again, and a pending one keeps
its reason and the witnesses a firing cut short minted, which its retry
reuses. A merge re-keys the record by the live classes. A constraint whose
last enumeration left no match pending is not enumerated again until a
round changes something that can give it a new match (``Instance.changes``
against ``premise_reads``). A premise reads the atoms that filter matches,
which a pin's own equation does not: along each path, the foreign keys it
follows, the entities it reaches through them (created or merged elements)
and the null positions it ends in; of each enumerated entity, created
elements, and merged ones only when a variable of it is compared as an
element or read by two terms. A merge gives a variable read by one term the
value one of the merged classes had there, so each match it makes is an
old match, re-keyed. Every firing skipped is one that would have done
nothing, so traces, round counts and fresh names are those of
re-enumerating every match each round.

Termination is guarded by the weak-acyclicity check unless disabled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .errors import ChasePreconditionError, ConstantClash
from .instance import (
    CREATED,
    DEFINED,
    MERGED,
    NULLS,
    Const,
    ElementId,
    Instance,
    Value,
    VirtualElem,
    _is_homomorphic,
    _locally_compatible,
    _signature,
    conclusion_satisfied,
    enumerate_matches,
    eval_term,
    solve_pins,
    values_equal,
)
from .schema import (
    Constraint,
    Eq,
    FunApp,
    Path,
    PathApp,
    Schema,
    Term,
    Var,
    check_constraint,
    check_weak_acyclicity,
    classify_constraint,
    path_apps,
    render_constant,
)


@dataclass
class ChaseConfig:
    max_rounds: int = 10000
    require_weak_acyclicity: bool = True

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


# -- trace ------------------------------------------------------------------

class CreateElement(NamedTuple):
    entity: str
    name: str

    def __str__(self) -> str:
        return f"created({self.entity}:{self.name})"


class MergePair(NamedTuple):
    a: ElementId
    b: ElementId

    def __str__(self) -> str:
        return f"merged({self.a.name}, {self.b.name})"


class DefineFk(NamedTuple):
    elem: ElementId
    fk: str
    target: ElementId

    def __str__(self) -> str:
        return f"defined({self.elem.name}.{self.fk}, {self.target.name})"


class AssignAttr(NamedTuple):
    elem: ElementId
    attr: str
    value: Const

    def __str__(self) -> str:
        return f"assigned({self.elem.name}.{self.attr}, {render_constant(self.value)})"


class UnionAttrs(NamedTuple):
    e1: ElementId
    a1: str
    e2: ElementId
    a2: str

    def __str__(self) -> str:
        return f"unified({self.e1.name}.{self.a1}, {self.e2.name}.{self.a2})"


Mutation = Union[CreateElement, MergePair, DefineFk, AssignAttr, UnionAttrs]


@dataclass
class TraceEntry:
    round: int
    constraint_index: int  # 1-based declaration position
    assignment: tuple[tuple[str, str], ...]  # (variable, element name)
    mutations: tuple[Mutation, ...]

    def render(self) -> str:
        assign = ",".join(f"{v}={n}" for v, n in self.assignment)
        actions = "; ".join(str(m) for m in self.mutations)
        return f"round {self.round}: c{self.constraint_index} @ {assign} -> {actions}"


@dataclass
class ChaseTrace:
    entries: list[TraceEntry] = field(default_factory=list)

    def render(self) -> str:
        return "".join(e.render() + "\n" for e in self.entries)


SATURATED = "saturated"
FAILED = "failed"
EXHAUSTED = "exhausted"

# Why a match stays pending (ChaseResult.reasons).
UNKNOWN_ARGUMENT = "unknown argument"
UNDEFINED_RESULT = "undefined result"


@dataclass
class ChaseResult:
    status: str
    instance: Optional[Instance]
    trace: ChaseTrace
    rounds: int
    clash: Optional[ConstantClash] = None
    # On saturation, the 1-based indices of the constraints left with a
    # pending match, which check_model reports as violated, and per such
    # index each reason its pending matches have, in that order.
    pending: tuple[int, ...] = ()
    reasons: tuple[tuple[int, str], ...] = ()

    @property
    def saturated(self) -> bool:
        return self.status == SATURATED


# -- firing -----------------------------------------------------------------

DISCHARGED = "discharged"


class Pending(NamedTuple):
    """Why a match is left pending and, when its firing was cut short, the
    existentials it bound, which the next firing binds instead of minting."""

    reason: str
    witnesses: tuple[ElementId, ...] = ()


# What happened to each match of one constraint, keyed by the classes of its
# enumerated universals: DISCHARGED, or Pending.
Record = dict[tuple[ElementId, ...], Union[str, Pending]]


class _Firing:
    """Applies one constraint firing against the live instance."""

    def __init__(self, inst: Instance, round_no: int, counter: itertools.count):
        self.inst = inst
        self.round_no = round_no
        self.counter = counter
        self.mutations: list[Mutation] = []
        self.cut_short: Optional[str] = None  # why an equation waits on a function

    def fresh(self, entity: str) -> ElementId:
        name = f"{entity}!{self.round_no}.{next(self.counter)}"
        elem = self.inst.add_element(entity, name, fresh=True)
        self.mutations.append(CreateElement(entity, name))
        return elem

    def materialize(self, value: Value) -> Value:
        """Turn a virtual element into a real one by walking its steps."""
        if not isinstance(value, VirtualElem):
            return value
        current = self.inst.find(value.base)
        for fk_name in value.steps:
            nxt = self.inst.get_fk(current, fk_name)
            if nxt is None:
                fk = self.inst.schema.fk(current.entity, fk_name)
                assert fk is not None
                nxt = self.fresh(fk.target)
                self.define(current, fk_name, nxt)
            current = nxt
        return current

    def merge(self, a: ElementId, b: ElementId) -> None:
        if self.inst.same(a, b):
            return
        self.mutations.append(MergePair(self.inst.find(a), self.inst.find(b)))
        self.inst.merge_elements(a, b)

    def define(self, elem: ElementId, fk_name: str, target: ElementId) -> None:
        """Set a foreign key that is unset."""
        self.inst.define_fk(elem, fk_name, target)
        self.mutations.append(DefineFk(self.inst.find(elem), fk_name, self.inst.find(target)))

    def _side(self, term: Term, env: dict[str, Value]) -> Union[Const, ElementId, tuple, None]:
        """A conclusion side: a constant (None while a function is not yet
        one), an element, or the ``(owner, member)`` that an attribute path
        or an unset foreign key ends in, with the foreign keys before that
        member materialized."""
        if isinstance(term, Const):
            return term
        if isinstance(term, FunApp):
            value = eval_term(self.inst, env, term)
            return value if isinstance(value, Const) else None
        if isinstance(term, Var):
            return self.inst.find(env[term.name])
        assert isinstance(term, PathApp)
        base, fks, attr = env[term.var], term.path.fks, term.path.attr
        if attr is None and not fks:
            return self.inst.find(base)
        prefix = fks if attr is not None else fks[:-1]
        owner = self.materialize(VirtualElem(base, prefix)) if prefix else self.inst.find(base)
        if attr is not None:
            return owner, attr
        target = self.inst.get_fk(owner, fks[-1])
        return (owner, fks[-1]) if target is None else target

    def enforce(self, eq: Eq, entity_sorted: bool, env: dict[str, Value]) -> None:
        left, right = self._side(eq.left, env), self._side(eq.right, env)
        if type(left) is tuple and entity_sorted:  # materializing the right side may have set it
            left = self._side(eq.left, env)
        if left is None or right is None:  # a function is not a constant yet; a later firing retries
            if self.cut_short is None:
                self.cut_short = _failure(self.inst, env, eq.left if left is None else eq.right)
            return
        # an (owner, member) pair is a plain tuple; a value, if any, goes first
        if type(left) is tuple and type(right) is not tuple:
            left, right = right, left
        if type(right) is not tuple:
            if entity_sorted:
                self.merge(left, right)
            elif left != right:
                raise ConstantClash("conclusion", left.value, right.value)
        elif type(left) is not tuple:
            if entity_sorted:
                self.define(*right, left)
            elif self.inst.assign_attr(*right, left):
                self.mutations.append(AssignAttr(self.inst.find(right[0]), right[1], left))
        elif entity_sorted:
            # Both sides end in an unset foreign key, one or two: witness
            # with one fresh element shared by both.
            fk = self.inst.schema.fk(left[0].entity, left[1])
            assert fk is not None
            z = self.fresh(fk.target)
            self.define(*left, z)
            if right != left:
                self.define(*right, z)
        elif self.inst.union_attrs(*left, *right):
            self.mutations.append(
                UnionAttrs(self.inst.find(left[0]), left[1], self.inst.find(right[0]), right[1])
            )


def fire_once(
    inst: Instance,
    c: Constraint,
    env: dict[str, Value],
    *,
    round_no: int = 1,
    counter: Optional[itertools.count] = None,
    record: Optional[Record] = None,
) -> Optional[TraceEntry]:
    """Fire one premise match; returns None when nothing needed doing.

    ``env`` must be a premise match of ``inst``, or of an earlier state of it
    in the same chase (as ``enumerate_matches`` yields them): the premise is
    not checked again, since no chase step makes a premise that held stop
    holding. Re-derives the pinned variables against the live instance,
    checks whether the conclusion is already witnessed, and otherwise
    performs the minimal
    repair: merges and attribute anchoring for equality conclusions, fresh
    elements for existentials and for unset foreign keys along conclusion
    paths. It reads the conclusion's shape from ``c.plan`` only. The firing
    is left pending when the plan is ``stuck`` (a function reads an
    existential's attribute the conclusion never sets) or when a ``defer``
    side, a function over premise values, possibly reached through an
    existential's attribute, is not yet a constant. Otherwise the equations
    are enforced in ``plan.enforce`` order: those with a function side last,
    each after those that set a path it reads; one whose function is not yet
    a constant cuts the firing short.

    With ``record``, writes the match's outcome into it under the live
    classes of the enumerated universals (``c.plan.premise``): DISCHARGED
    when the conclusion was witnessed or every equation was enforced, else
    Pending with its reason and, when cut short, the existentials it bound,
    which the match's next firing binds again instead of minting.
    """
    live = {step.var: inst.find(env[step.var]) for step in c.plan.premise}
    key = tuple(live.values())
    live_env = solve_pins(inst, c, live)
    record = {} if record is None else record
    if conclusion_satisfied(inst, c, live_env):
        record[key] = DISCHARGED
        return None
    plan = c.plan
    failures = (_failure(inst, live_env, t) for t in plan.defer)
    reason = UNKNOWN_ARGUMENT if plan.stuck else next(filter(None, failures), None)
    if reason is not None:
        record[key] = Pending(reason)
        return None
    firing = _Firing(inst, round_no, counter if counter is not None else itertools.count())
    for step in plan.pins:  # materialize the pins that are still virtual
        live_env[step.var] = firing.materialize(live_env[step.var])
    earlier = record.get(key)
    witnesses = earlier.witnesses if isinstance(earlier, Pending) else ()
    for k, (name, entity) in enumerate(c.existentials):
        live_env[name] = inst.find(witnesses[k]) if witnesses else firing.fresh(entity)
    # Of several declared equations, one may hold already, on virtual
    # elements too, and so need no foreign key set; a lone one has just
    # failed conclusion_satisfied. (Count the declared ones: an equation
    # left out of plan.enforce can still be what made the conclusion fail.)
    several = len(c.conclusion) > 1
    for eq, entity_sorted in plan.enforce:
        if several and entity_sorted and values_equal(
                inst, *(eval_term(inst, live_env, side, virtual=True) for side in (eq.left, eq.right))):
            continue
        firing.enforce(eq, entity_sorted, live_env)
    record[key] = DISCHARGED if firing.cut_short is None else Pending(
        firing.cut_short, tuple(live_env[name] for name, _ in c.existentials))
    if not firing.mutations:
        return None
    # every variable is bound to an element now
    assignment = tuple(
        (name, inst.find(live_env[name]).name) for name, _ in c.universals + c.existentials
    )
    return TraceEntry(
        round=round_no,
        constraint_index=0,  # caller fills in the declaration position
        assignment=assignment,
        mutations=tuple(firing.mutations),
    )


# -- the chase loop -----------------------------------------------------------

def chase(pre: Instance, constraints: list[Constraint], cfg: Optional[ChaseConfig] = None) -> ChaseResult:
    """Saturate a copy of ``pre`` under the constraints.

    Returns the saturated (frozen) instance with a replayable trace, a
    failure carrying the constant clash, or exhaustion of the round budget.
    """
    cfg = cfg or ChaseConfig()
    for c in constraints:
        check_constraint(c, pre.schema)
    if cfg.require_weak_acyclicity:
        result = check_weak_acyclicity(constraints, pre.schema)
        if not result.acyclic:
            cycle = " -> ".join(f"{e.source}.{e.via}" for e in result.witness or [])
            raise ChasePreconditionError(
                f"constraint set is not weakly acyclic (cycle: {cycle}); "
                "pass require_weak_acyclicity=False to chase anyway"
            )

    inst = pre.copy()
    trace = ChaseTrace()
    indexed = list(enumerate(constraints, start=1))
    ordered = [(i, c) for i, c in indexed if classify_constraint(c) == "EGD"]
    ordered += [(i, c) for i, c in indexed if classify_constraint(c) == "TGD"]
    reads = {i: premise_reads(c, inst.schema) for i, c in ordered}
    record: dict[int, Record] = {i: {} for i, _ in ordered}
    stale = set(reads)  # the constraints to enumerate this round

    for round_no in range(1, cfg.max_rounds + 1):
        collected: list[tuple[int, Constraint, dict[str, Value]]] = []
        for index, c in ordered:
            if index in stale:
                for env in enumerate_matches(inst, c):
                    collected.append((index, c, env))
        counter = itertools.count()
        changed = False
        pending: dict[int, set[str]] = {}
        inst.changes.clear()
        try:
            for index, c, env in collected:
                table = record[index]
                key = tuple(inst.find(env[step.var]) for step in c.plan.premise)
                if table.get(key) is DISCHARGED:
                    continue
                entry = fire_once(inst, c, env, round_no=round_no, counter=counter, record=table)
                if entry is not None:
                    entry.constraint_index = index
                    trace.entries.append(entry)
                    changed = True
                outcome = table[key]
                if outcome is not DISCHARGED:
                    pending.setdefault(index, set()).add(outcome.reason)
        except ConstantClash as clash:
            return ChaseResult(FAILED, None, trace, round_no, clash)
        if not changed:  # every pending constraint was enumerated this round
            indices = tuple(sorted(pending))
            reasons = tuple((i, r) for i in indices for r in sorted(pending[i]))
            return ChaseResult(SATURATED, inst.freeze(), trace, round_no, pending=indices, reasons=reasons)
        merged = {mark[1] for mark in inst.changes if mark[0] == MERGED}
        for index, c in ordered:
            if any(step.entity in merged for step in c.plan.premise):
                record[index] = {tuple(map(inst.find, key)): out for key, out in record[index].items()}
        stale = pending.keys() | {i for i, _ in ordered if not reads[i].isdisjoint(inst.changes)}
    return ChaseResult(EXHAUSTED, None, trace, cfg.max_rounds)


def _failure(inst: Instance, env: dict[str, Value], term: Term) -> Optional[str]:
    """Why a term is not a constant under ``env``, or None when it is one:
    ``UNDEFINED_RESULT`` for a function with constant arguments and no
    value (a division by zero, or a result no literal holds), and
    ``UNKNOWN_ARGUMENT`` for an argument that is a null or undefined."""
    if isinstance(eval_term(inst, env, term), Const):
        return None
    if not isinstance(term, FunApp):
        return UNKNOWN_ARGUMENT
    return next(filter(None, (_failure(inst, env, arg) for arg in term.args)), UNDEFINED_RESULT)


def premise_reads(c: Constraint, schema: Schema) -> frozenset[tuple]:
    """The change marks (see ``Instance.changes``) that can give ``c`` a new
    premise match.

    Only the premise atoms that filter matches are read. A pin's own
    equation filters nothing, since the pin always has a value, real or
    virtual; so a pinned variable counts only where another atom reads it,
    through its pin term. Along each path read, the marks are a definition
    of each foreign key it follows, a created or merged element of each
    entity it reaches through one, and a null change at the position
    (entity, attribute) it ends in. Of an enumerated entity, a created
    element is read, and a merged one only when one of its variables is
    compared as an element or read by two terms. A merge gives a variable
    read by one term, in that term, the value one of the merged classes
    had; so each match it gives is a match of that class, re-keyed, and
    the chase's record re-keys those.
    """
    pins = {step.var: step.pin for step in c.plan.pins}
    solved = {(Var(v), t) for v, t in pins.items()}
    universals = dict(c.universals)
    marks = {(CREATED, step.entity) for step in c.plan.premise}
    reads: dict[str, set[PathApp]] = {}
    for atom in c.premise:
        if (atom.left, atom.right) in solved or (atom.right, atom.left) in solved:
            continue  # a pin's own equation
        for side in (_unpinned(atom.left, pins), _unpinned(atom.right, pins)):
            if isinstance(side, Var):
                marks.add((MERGED, universals[side.name]))
            for app in path_apps(side):
                reads.setdefault(app.var, set()).add(app)
                entity = app.path.root
                for fk_name in app.path.fks:
                    marks.add((DEFINED, entity, fk_name))
                    fk = schema.fk(entity, fk_name)
                    assert fk is not None  # type-checked
                    entity = fk.target
                    marks.update(((CREATED, entity), (MERGED, entity)))
                if app.path.attr is not None:
                    marks.add((NULLS, entity, app.path.attr))
                elif not app.path.fks:  # an identity path compares the element
                    marks.add((MERGED, entity))
    marks.update((MERGED, universals[v]) for v, apps in reads.items() if len(apps) > 1)
    return frozenset(marks)


def _unpinned(term: Term, pins: dict[str, Term]) -> Term:
    """``term`` with each pinned variable replaced by its pin term, so that
    it mentions enumerated variables only."""
    if isinstance(term, FunApp):
        return FunApp(term.fn, tuple(_unpinned(arg, pins) for arg in term.args))
    if isinstance(term, Var) and term.name in pins:
        return _unpinned(pins[term.name], pins)
    if isinstance(term, PathApp) and term.var in pins:
        pin = _unpinned(pins[term.var], pins)
        if isinstance(pin, Var):
            return PathApp(pin.name, term.path)
        assert isinstance(pin, PathApp)  # a pin term is entity-sorted
        return PathApp(pin.var, Path(pin.path.root, pin.path.fks + term.path.fks, term.path.attr))
    return term


def replay(pre: Instance, trace: ChaseTrace) -> Instance:
    """Re-apply a recorded trace onto (a copy of) the pre-instance."""
    inst = pre.copy()
    for entry in trace.entries:
        for m in entry.mutations:
            if isinstance(m, CreateElement):
                inst.add_element(m.entity, m.name, fresh=True)
            elif isinstance(m, MergePair):
                inst.merge_elements(_relocate(inst, m.a), _relocate(inst, m.b))
            elif isinstance(m, DefineFk):
                inst.define_fk(_relocate(inst, m.elem), m.fk, _relocate(inst, m.target))
            elif isinstance(m, AssignAttr):
                inst.assign_attr(_relocate(inst, m.elem), m.attr, m.value)
            else:
                assert isinstance(m, UnionAttrs)
                inst.union_attrs(_relocate(inst, m.e1), m.a1, _relocate(inst, m.e2), m.a2)
    return inst


def _relocate(inst: Instance, elem: ElementId) -> ElementId:
    found = inst.element_named(elem.entity, elem.name)
    if found is None:
        raise ChasePreconditionError(f"trace references unknown element {elem}")
    return found


# -- universality -------------------------------------------------------------

@dataclass
class UniversalityResult:
    isomorphic: bool
    reason: Optional[str] = None
    mapping: Optional[dict[ElementId, ElementId]] = None

    def __bool__(self) -> bool:
        return self.isomorphic


def verify_universality(sat: Instance, alt: Instance) -> UniversalityResult:
    """Search for an isomorphism between two saturated instances.

    User-declared rows must map to user-declared rows carrying the same ids;
    fresh elements are matched by backtracking over structure. Null cells
    must correspond through one bijection between the null classes, checked
    on each complete mapping; one that passes pairs the classes one to one
    and keeps which foreign keys are set, so its inverse passes too and it
    is an isomorphism. Desk-scale only.
    """
    if _signature(sat.schema) != _signature(alt.schema):
        return UniversalityResult(False, "schemas differ")
    mapping: dict[ElementId, ElementId] = {}
    fresh_slots: list[tuple[ElementId, list[ElementId]]] = []
    for entity in sat.schema.entities:
        ca, cb = sat.carrier(entity), alt.carrier(entity)
        if len(ca) != len(cb):
            return UniversalityResult(
                False, f"entity '{entity}' has {len(ca)} classes vs {len(cb)}"
            )
        by_users = {}
        for root in cb:
            users = frozenset(m.name for m in alt.members(root) if not m.fresh)
            if users:
                by_users[users] = root
        unmatched_b = [r for r in cb if not any(not m.fresh for m in alt.members(r))]
        for root in ca:
            users = frozenset(m.name for m in sat.members(root) if not m.fresh)
            if users:
                other = by_users.get(users)
                if other is None:
                    return UniversalityResult(
                        False, f"no class with user rows {sorted(users)} in the other instance"
                    )
                mapping[root] = other
            else:
                fresh_slots.append((root, unmatched_b))

    if not _extend(sat, alt, mapping, fresh_slots, 0):
        return UniversalityResult(False, "no structure-preserving matching of fresh elements")
    return UniversalityResult(True, mapping=mapping)


def _extend(
    sat: Instance,
    alt: Instance,
    mapping: dict[ElementId, ElementId],
    slots: list[tuple[ElementId, list[ElementId]]],
    at: int,
) -> bool:
    if at == len(slots):
        return _is_homomorphic(sat, alt, mapping)
    root, candidates = slots[at]
    taken = set(mapping.values())
    for cand in candidates:
        if cand in taken or not _locally_compatible(sat, alt, root, cand):
            continue
        mapping[root] = cand
        if _extend(sat, alt, mapping, slots, at + 1):
            return True
        del mapping[root]
    return False
