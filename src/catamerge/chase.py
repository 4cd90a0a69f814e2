"""Round-based parallel chase: saturate an instance under Horn constraints.

Each round enumerates every premise match against the start-of-round
instance (constraints in declaration order, assignments in lexicographic
order), then applies the collected firings one by one: equality-generating
firings first, tuple-generating ones after. A firing is re-validated against
the live instance, so duplicate work collapses into no-ops. Foreign-key
applications demanded by a conclusion path or by a pinned premise variable
are materialized with fresh elements; that is what lets a rule like
``where p = s.attachedTo.hasPoint`` build the missing target side.

Termination is guarded by the weak-acyclicity check unless disabled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import ChasePreconditionError, ConstantClash
from .instance import (
    Const,
    ElementId,
    Instance,
    Value,
    VirtualElem,
    conclusion_satisfied,
    enumerate_matches,
    eval_term,
    solve_premise,
)
from .schema import (
    Constraint,
    Eq,
    FunApp,
    PathApp,
    Schema,
    Term,
    Var,
    check_constraint,
    check_weak_acyclicity,
    classify_constraint,
    term_sort,
)
from .typeside import BaseType


@dataclass
class ChaseConfig:
    max_rounds: int = 10000
    require_weak_acyclicity: bool = True

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


# -- trace ------------------------------------------------------------------

@dataclass(frozen=True)
class CreateElement:
    entity: str
    name: str

    def __str__(self) -> str:
        return f"created({self.entity}:{self.name})"


@dataclass(frozen=True)
class MergePair:
    a: ElementId
    b: ElementId

    def __str__(self) -> str:
        return f"merged({self.a.name}, {self.b.name})"


@dataclass(frozen=True)
class DefineFk:
    elem: ElementId
    fk: str
    target: ElementId

    def __str__(self) -> str:
        return f"defined({self.elem.name}.{self.fk}, {self.target.name})"


@dataclass(frozen=True)
class AssignAttr:
    elem: ElementId
    attr: str
    value: Const

    def __str__(self) -> str:
        from .printer import render_constant

        return f"assigned({self.elem.name}.{self.attr}, {render_constant(self.value)})"


@dataclass(frozen=True)
class UnionAttrs:
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


@dataclass
class ChaseResult:
    status: str
    instance: Optional[Instance]
    trace: ChaseTrace
    rounds: int
    clash: Optional[ConstantClash] = None

    @property
    def saturated(self) -> bool:
        return self.status == SATURATED


# -- firing -----------------------------------------------------------------

class _Firing:
    """Applies one constraint firing against the live instance."""

    def __init__(self, inst: Instance, round_no: int, counter: itertools.count):
        self.inst = inst
        self.round_no = round_no
        self.counter = counter
        self.mutations: list[Mutation] = []

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
                self.inst.define_fk(current, fk_name, nxt)
                self.mutations.append(DefineFk(current, fk_name, nxt))
            current = nxt
        return current

    def walk_prefix(self, start: ElementId, fks: tuple[str, ...]) -> ElementId:
        return self.materialize(VirtualElem(start, fks)) if fks else self.inst.find(start)

    def merge(self, a: ElementId, b: ElementId) -> None:
        if self.inst.same(a, b):
            return
        self.mutations.append(MergePair(self.inst.find(a), self.inst.find(b)))
        self.inst.merge_elements(a, b)

    def define(self, elem: ElementId, fk_name: str, target: ElementId) -> None:
        current = self.inst.get_fk(elem, fk_name)
        if current is None:
            self.inst.define_fk(elem, fk_name, target)
            self.mutations.append(DefineFk(self.inst.find(elem), fk_name, self.inst.find(target)))
        else:
            self.merge(current, target)

    def enforce_entity_eq(self, eq: Eq, env: dict[str, Value]) -> None:
        left = self._entity_side(eq.left, env)
        right = self._entity_side(eq.right, env)
        lelem, relem = left[2], right[2]
        if lelem is not None and relem is not None:
            self.merge(lelem, relem)
        elif lelem is not None:
            assert right[0] is not None and right[1] is not None
            self.define(right[0], right[1], lelem)
        elif relem is not None:
            assert left[0] is not None and left[1] is not None
            self.define(left[0], left[1], relem)
        else:
            # Both sides end in an unset foreign key: witness with one fresh
            # element shared by both.
            assert left[0] is not None and left[1] is not None
            fk = self.inst.schema.fk(self.inst.find(left[0]).entity, left[1])
            assert fk is not None
            z = self.fresh(fk.target)
            self.define(left[0], left[1], z)
            assert right[0] is not None and right[1] is not None
            self.define(right[0], right[1], z)

    def _entity_side(
        self, term: Term, env: dict[str, Value]
    ) -> tuple[Optional[ElementId], Optional[str], Optional[ElementId]]:
        """Evaluate an entity-sorted conclusion term.

        Returns (owner, fk, element): the element when the term is fully
        defined, otherwise the owner element and final foreign key awaiting
        assignment (the prefix is materialized on demand).
        """
        if isinstance(term, Var):
            value = env[term.name]
            assert isinstance(value, ElementId)
            return None, None, self.inst.find(value)
        assert isinstance(term, PathApp) and term.path.attr is None
        base = env[term.var]
        assert isinstance(base, ElementId)
        if not term.path.fks:
            return None, None, self.inst.find(base)
        owner = self.walk_prefix(self.inst.find(base), term.path.fks[:-1])
        assert isinstance(owner, ElementId)
        last = term.path.fks[-1]
        target = self.inst.get_fk(owner, last)
        if target is not None:
            return None, None, target
        return owner, last, None

    def enforce_base_eq(self, eq: Eq, env: dict[str, Value]) -> None:
        left = self._base_side(eq.left, env)
        right = self._base_side(eq.right, env)
        if left is None or right is None:
            return  # a function argument is still unknown; later rounds retry
        if isinstance(left, Const) and isinstance(right, Const):
            if left.type != right.type or left.value != right.value:
                raise ConstantClash("conclusion", left.value, right.value)
            return
        if isinstance(left, Const):
            elem, attr = right  # type: ignore[misc]
            if self.inst.assign_attr(elem, attr, left):
                self.mutations.append(AssignAttr(self.inst.find(elem), attr, left))
            return
        if isinstance(right, Const):
            elem, attr = left
            if self.inst.assign_attr(elem, attr, right):
                self.mutations.append(AssignAttr(self.inst.find(elem), attr, right))
            return
        (e1, a1), (e2, a2) = left, right  # type: ignore[misc]
        if self.inst.union_attrs(e1, a1, e2, a2):
            self.mutations.append(
                UnionAttrs(self.inst.find(e1), a1, self.inst.find(e2), a2)
            )

    def _base_side(
        self, term: Term, env: dict[str, Value]
    ) -> Union[Const, tuple[ElementId, str], None]:
        if isinstance(term, Const):
            return term
        if isinstance(term, FunApp):
            value = eval_term(self.inst, env, term)
            return value if isinstance(value, Const) else None
        assert isinstance(term, PathApp) and term.path.attr is not None
        base = env[term.var]
        assert isinstance(base, ElementId)
        owner = self.walk_prefix(self.inst.find(base), term.path.fks)
        assert isinstance(owner, ElementId)
        return owner, term.path.attr


def fire_once(
    inst: Instance,
    c: Constraint,
    env: dict[str, Value],
    *,
    round_no: int = 1,
    counter: Optional[itertools.count] = None,
) -> Optional[TraceEntry]:
    """Fire one premise match; returns None when nothing needed doing.

    Re-derives pinned variables against the live instance, checks whether the
    conclusion is already witnessed, and otherwise performs the minimal
    repair: merges and attribute anchoring for equality conclusions, fresh
    elements for existentials and for unset foreign keys along conclusion
    paths.
    """
    pinned = c.plan.pinned
    live = {name: inst.find(env[name]) for name, _ in c.universals if name not in pinned}
    live_env = solve_premise(inst, c, pinned, live)
    if live_env is None:
        return None
    if conclusion_satisfied(inst, c, live_env):
        return None
    firing = _Firing(inst, round_no, counter if counter is not None else itertools.count())
    # Materialize pinned premise variables that are still virtual.
    for name, value in list(live_env.items()):
        if isinstance(value, VirtualElem):
            live_env[name] = firing.materialize(value)
    for name, entity in c.existentials:
        live_env[name] = firing.fresh(entity)
    schema = inst.schema
    for eq in c.conclusion:
        if _is_entity_eq(eq, c, schema):
            firing.enforce_entity_eq(eq, live_env)
        else:
            firing.enforce_base_eq(eq, live_env)
    if not firing.mutations:
        return None
    assignment = tuple(
        (name, _value_name(inst, live_env[name])) for name, _ in c.universals + c.existentials
    )
    return TraceEntry(
        round=round_no,
        constraint_index=0,  # caller fills in the declaration position
        assignment=assignment,
        mutations=tuple(firing.mutations),
    )


def _value_name(inst: Instance, value: Value) -> str:
    if isinstance(value, ElementId):
        return inst.find(value).name
    if isinstance(value, VirtualElem):
        return f"{value.base.name}.{'.'.join(value.steps)}"
    return str(value)


def _is_entity_eq(eq: Eq, c: Constraint, schema: Schema) -> bool:
    binders = c.binders()
    return not isinstance(term_sort(eq.left, binders, schema), BaseType)


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
    egds = [(i, c) for i, c in enumerate(constraints, start=1) if classify_constraint(c) == "EGD"]
    tgds = [(i, c) for i, c in enumerate(constraints, start=1) if classify_constraint(c) == "TGD"]

    for round_no in range(1, cfg.max_rounds + 1):
        collected: list[tuple[int, Constraint, dict[str, Value]]] = []
        for index, c in egds + tgds:
            for env in enumerate_matches(inst, c):
                collected.append((index, c, env))
        counter = itertools.count()
        changed = False
        try:
            for index, c, env in collected:
                entry = fire_once(inst, c, env, round_no=round_no, counter=counter)
                if entry is not None:
                    entry.constraint_index = index
                    trace.entries.append(entry)
                    changed = True
        except ConstantClash as clash:
            return ChaseResult(FAILED, None, trace, round_no, clash)
        if not changed:
            return ChaseResult(SATURATED, inst.freeze(), trace, round_no)
    return ChaseResult(EXHAUSTED, None, trace, cfg.max_rounds)


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
    fresh elements are matched by backtracking over structure. Desk-scale
    only.
    """
    if sat.schema.entities != alt.schema.entities:
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
    if not _is_homomorphic(sat, alt, mapping):
        return UniversalityResult(False, "candidate mapping does not preserve structure")
    inverse: dict[ElementId, ElementId] = {v: k for k, v in mapping.items()}
    if len(inverse) != len(mapping) or not _is_homomorphic(alt, sat, inverse):
        return UniversalityResult(False, "mapping is not invertible")
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


def _locally_compatible(sat: Instance, alt: Instance, a: ElementId, b: ElementId) -> bool:
    if a.entity != b.entity:
        return False
    for attr in sat.schema.attrs_of(a.entity):
        va, vb = sat.get_attr(a, attr.name), alt.get_attr(b, attr.name)
        if isinstance(va, Const) != isinstance(vb, Const):
            return False
        if isinstance(va, Const) and isinstance(vb, Const) and va.value != vb.value:
            return False
    for fk in sat.schema.fks_of(a.entity):
        if (sat.get_fk(a, fk.name) is None) != (alt.get_fk(b, fk.name) is None):
            return False
    return True


def _is_homomorphic(sat: Instance, alt: Instance, mapping: dict[ElementId, ElementId]) -> bool:
    for root, image in mapping.items():
        if not _locally_compatible(sat, alt, root, image):
            return False
        for fk in sat.schema.fks_of(root.entity):
            ta = sat.get_fk(root, fk.name)
            if ta is None:
                continue
            tb = alt.get_fk(image, fk.name)
            if tb is None or mapping.get(ta) != tb:
                return False
    return True
