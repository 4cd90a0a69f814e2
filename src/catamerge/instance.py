"""Instances: element sets with foreign-key/attribute valuations.

An instance tracks a union-find over its elements (entity merges propagate a
congruence closure through valued foreign keys) and a second union-find over
attribute-null labels with constant anchoring. Attribute valuations are total
from the start: every element is born with a fresh labelled null per declared
attribute; constants overwrite nulls, never other constants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .errors import ConstantClash, InstanceError
from .schema import (
    BindStep,
    Cmp,
    Const,
    Constraint,
    Eq,
    FunApp,
    Path,
    PathApp,
    Schema,
    Term,
    Var,
)
from .typeside import apply_predicate


class ElementId(NamedTuple):
    """Identity of an element: user-declared row or chase-created fresh null.
    A tuple, so hashing and equality run in C."""

    entity: str
    name: str
    fresh: bool = False

    def sort_key(self) -> tuple[bool, str]:
        return (self.fresh, self.name)

    def __str__(self) -> str:
        return f"{self.entity}:{self.name}"


@dataclass(frozen=True)
class NullRef:
    """A labelled null attribute value; compares by label class."""

    label: str


AttrValue = Union[Const, NullRef]


class _UndefinedType:
    _instance: Optional["_UndefinedType"] = None

    def __new__(cls) -> "_UndefinedType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _UndefinedType()


@dataclass(frozen=True)
class VirtualElem:
    """A foreign-key application that is not materialized yet.

    Stands for the element ``steps`` would reach from ``base``; two virtual
    elements denote the same thing iff their bases are merged and the steps
    agree.
    """

    base: ElementId
    steps: tuple[str, ...]


@dataclass
class MergeReport:
    pairs: list[tuple[ElementId, ElementId]] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.pairs)


class Instance:
    def __init__(self, schema: Schema, name: str = "instance"):
        self.schema = schema
        self.name = name
        # Per entity, name -> element in creation order.
        self._elements: dict[str, dict[str, ElementId]] = {e: {} for e in schema.entities}
        self._parent: dict[ElementId, ElementId] = {}
        self._members: dict[ElementId, list[ElementId]] = {}
        self._fks: dict[ElementId, dict[str, ElementId]] = {}
        self._attrs: dict[ElementId, dict[str, AttrValue]] = {}
        self._null_parent: dict[str, str] = {}
        self._null_anchor: dict[str, Const] = {}
        self._null_seq = 0
        self._frozen = False
        # Provenance of elements copied out of source instances: (schema, row id).
        self.origins: dict[ElementId, tuple[str, str]] = {}

    # -- basic structure ----------------------------------------------------

    def copy(self) -> "Instance":
        out = Instance(self.schema, self.name)
        out._elements = {e: dict(v) for e, v in self._elements.items()}
        out._parent = dict(self._parent)
        out._members = {k: list(v) for k, v in self._members.items()}
        out._fks = {k: dict(v) for k, v in self._fks.items()}
        out._attrs = {k: dict(v) for k, v in self._attrs.items()}
        out._null_parent = dict(self._null_parent)
        out._null_anchor = dict(self._null_anchor)
        out._null_seq = self._null_seq
        out.origins = dict(self.origins)
        return out

    def freeze(self) -> "Instance":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _mutable(self) -> None:
        if self._frozen:
            raise InstanceError("instance is frozen")

    def elements(self, entity: str) -> list[ElementId]:
        """All raw elements of an entity, in creation order."""
        if entity not in self._elements:
            raise InstanceError(f"'{entity}' is not an entity of schema {self.schema.name}")
        return list(self._elements[entity].values())

    def carrier(self, entity: str) -> list[ElementId]:
        """Canonical class representatives of an entity, sorted by export id."""
        roots = {self.find(e) for e in self.elements(entity)}
        return sorted(roots, key=lambda root: root.name)

    def members(self, elem: ElementId) -> list[ElementId]:
        return sorted(self._members[self.find(elem)], key=lambda e: e.sort_key())

    def export_id(self, elem: ElementId) -> str:
        """Lexicographically least user-declared id in the class, or the
        fresh-null label when the class has no user row: the root's name,
        since a merge keeps the member with the least ``(fresh, name)``."""
        return self.find(elem).name

    def element_named(self, entity: str, name: str) -> Optional[ElementId]:
        return self._elements.get(entity, {}).get(name)

    # -- union-find over elements --------------------------------------------

    def find(self, e: ElementId) -> ElementId:
        parent = self._parent
        if e not in parent:
            raise InstanceError(f"unknown element {e}")
        root = e
        while parent[root] != root:
            root = parent[root]
        while parent[e] != root:
            parent[e], e = root, parent[e]
        return root

    def same(self, a: ElementId, b: ElementId) -> bool:
        return self.find(a) == self.find(b)

    # -- null-label union-find -------------------------------------------------

    def fresh_null(self) -> NullRef:
        label = f"?{self._null_seq}"
        self._null_seq += 1
        self._null_parent[label] = label
        return NullRef(label)

    def null_find(self, label: str) -> str:
        parent = self._null_parent
        root = label
        while parent[root] != root:
            root = parent[root]
        while parent[label] != root:
            parent[label], label = root, parent[label]
        return root

    def resolve_value(self, value: AttrValue) -> AttrValue:
        if isinstance(value, Const):
            return value
        root = self.null_find(value.label)
        anchored = self._null_anchor.get(root)
        return anchored if anchored is not None else NullRef(root)

    def _unify_values(self, left: AttrValue, right: AttrValue, attr: str, context: str) -> bool:
        lv, rv = self.resolve_value(left), self.resolve_value(right)
        if isinstance(lv, Const) and isinstance(rv, Const):
            if lv.type == rv.type and lv.value == rv.value:
                return False
            raise ConstantClash(attr, lv.value, rv.value, context)
        if isinstance(lv, Const):
            self._null_anchor[self.null_find(rv.label)] = lv  # type: ignore[union-attr]
            return True
        if isinstance(rv, Const):
            self._null_anchor[self.null_find(lv.label)] = rv
            return True
        ra, rb = self.null_find(lv.label), self.null_find(rv.label)
        if ra == rb:
            return False
        winner, loser = (ra, rb) if ra < rb else (rb, ra)
        self._null_parent[loser] = winner
        return True

    # -- builders --------------------------------------------------------------

    def add_element(
        self,
        entity: str,
        name: str,
        *,
        fresh: bool = False,
        origin: Optional[tuple[str, str]] = None,
    ) -> ElementId:
        self._mutable()
        if entity not in self._elements:
            raise InstanceError(f"'{entity}' is not an entity of schema {self.schema.name}")
        if self.element_named(entity, name) is not None:
            raise InstanceError(f"duplicate element id '{name}' in entity '{entity}'")
        elem = ElementId(entity, name, fresh)
        self._elements[entity][name] = elem
        self._parent[elem] = elem
        self._members[elem] = [elem]
        self._fks[elem] = {}
        self._attrs[elem] = {a.name: self.fresh_null() for a in self.schema.attrs_of(entity)}
        if origin is not None:
            self.origins[elem] = origin
        return elem

    def set_fk(self, elem: ElementId, fk_name: str, target: ElementId) -> None:
        """Builder assignment: re-assigning to a different target is an error."""
        self._mutable()
        root, tgt = self.find(elem), self.find(target)
        fk = self.schema.fk(root.entity, fk_name)
        if fk is None:
            raise InstanceError(f"'{fk_name}' is not a foreign key of entity '{root.entity}'")
        if tgt.entity != fk.target:
            raise InstanceError(
                f"foreign key '{fk_name}' targets '{fk.target}', got element of '{tgt.entity}'"
            )
        current = self._fks[root].get(fk_name)
        if current is not None:
            if self.find(current) == tgt:
                return
            raise InstanceError(
                f"conflicting re-assignment of foreign key '{fk_name}' on {root.name}"
            )
        self._fks[root][fk_name] = tgt

    def set_attr(self, elem: ElementId, attr_name: str, value: Optional[AttrValue]) -> None:
        """Builder assignment; ``None`` stores a fresh labelled null."""
        self._mutable()
        root = self.find(elem)
        attr = self.schema.attr(root.entity, attr_name)
        if attr is None:
            raise InstanceError(f"'{attr_name}' is not an attribute of entity '{root.entity}'")
        current = self.resolve_value(self._attrs[root][attr_name])
        if value is None or isinstance(value, NullRef):
            if isinstance(current, Const):
                raise InstanceError(
                    f"conflicting re-assignment of attribute '{attr_name}' on {root.name}"
                )
            return
        if value.type != attr.type:
            raise InstanceError(
                f"attribute '{attr_name}' has type {attr.type}, got {value.type}"
            )
        if isinstance(current, Const):
            if current.value == value.value:
                return
            raise InstanceError(
                f"conflicting re-assignment of attribute '{attr_name}' on {root.name}: "
                f"{current.value!r} vs {value.value!r}"
            )
        self._attrs[root][attr_name] = value

    # -- saturation-level mutators ----------------------------------------------

    def get_fk(self, elem: ElementId, fk_name: str) -> Optional[ElementId]:
        target = self._fks[self.find(elem)].get(fk_name)
        return self.find(target) if target is not None else None

    def get_attr(self, elem: ElementId, attr_name: str) -> AttrValue:
        return self.resolve_value(self._attrs[self.find(elem)][attr_name])

    def define_fk(self, elem: ElementId, fk_name: str, target: ElementId) -> bool:
        """Assign an unset foreign key, or merge the targets when already set."""
        self._mutable()
        root, tgt = self.find(elem), self.find(target)
        current = self._fks[root].get(fk_name)
        if current is None:
            self._fks[root][fk_name] = tgt
            return True
        if self.find(current) == tgt:
            return False
        return self.merge_elements(current, tgt).changed

    def assign_attr(self, elem: ElementId, attr_name: str, value: Const) -> bool:
        """Anchor an attribute to a constant; clashes on a different constant."""
        self._mutable()
        root = self.find(elem)
        return self._unify_values(self._attrs[root][attr_name], value, attr_name, root.name)

    def union_attrs(self, e1: ElementId, a1: str, e2: ElementId, a2: str) -> bool:
        """Force two attribute cells to hold the same value."""
        self._mutable()
        r1, r2 = self.find(e1), self.find(e2)
        return self._unify_values(
            self._attrs[r1][a1], self._attrs[r2][a2], f"{a1}/{a2}", f"{r1.name},{r2.name}"
        )

    def merge_elements(self, a: ElementId, b: ElementId) -> MergeReport:
        """Merge two element classes, propagating congruence closure eagerly."""
        self._mutable()
        report = MergeReport()
        work: deque[tuple[ElementId, ElementId]] = deque([(a, b)])
        while work:
            x, y = work.popleft()
            rx, ry = self.find(x), self.find(y)
            if rx == ry:
                continue
            if rx.entity != ry.entity:
                raise InstanceError(
                    f"cannot merge elements of different entities: {rx} vs {ry}"
                )
            winner, loser = (rx, ry) if rx.sort_key() <= ry.sort_key() else (ry, rx)
            report.pairs.append((winner, loser))
            self._parent[loser] = winner
            self._members[winner].extend(self._members.pop(loser))
            loser_fks = self._fks.pop(loser)
            winner_fks = self._fks[winner]
            for fk_name, tgt in loser_fks.items():
                if fk_name in winner_fks:
                    work.append((winner_fks[fk_name], tgt))
                else:
                    winner_fks[fk_name] = tgt
            loser_attrs = self._attrs.pop(loser)
            winner_attrs = self._attrs[winner]
            for attr_name, value in loser_attrs.items():
                self._unify_values(winner_attrs[attr_name], value, attr_name, winner.name)
        return report


def new_instance(schema: Schema, name: str = "instance") -> Instance:
    """An empty instance over a (valid) schema."""
    return Instance(schema, name)


# ---------------------------------------------------------------------------
# Path and term evaluation

Value = Union[ElementId, VirtualElem, Const, NullRef, _UndefinedType]


def eval_path(inst: Instance, elem: ElementId, path: Path) -> Value:
    """Follow a path from an element through canonical representatives.

    Returns UNDEFINED as soon as an unset foreign key is hit.
    """
    current = inst.find(elem)
    if current.entity != path.root:
        raise InstanceError(
            f"path starts at '{path.root}' but element belongs to '{current.entity}'"
        )
    for fk_name in path.fks:
        nxt = inst.get_fk(current, fk_name)
        if nxt is None:
            return UNDEFINED
        current = nxt
    if path.attr is None:
        return current
    return inst.get_attr(current, path.attr)


def eval_term(
    inst: Instance,
    env: dict[str, Value],
    term: Term,
    *,
    virtual: bool = False,
) -> Value:
    """Evaluate a term under an environment of element bindings.

    With ``virtual=True`` an undefined foreign-key application yields a
    VirtualElem denoting the term itself (two such terms compare equal iff
    their bases are merged and the steps agree); attribute reads on virtual
    elements are UNDEFINED either way.
    """
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Const):
        return term
    if isinstance(term, FunApp):
        args = []
        for a in term.args:
            v = eval_term(inst, env, a, virtual=virtual)
            if not isinstance(v, Const):
                return UNDEFINED
            args.append(v.value)
        try:
            result = term.fn.impl(*args)
        except ZeroDivisionError:
            return UNDEFINED
        return Const(term.fn.result, result)
    assert isinstance(term, PathApp)
    current: Value = env[term.var]
    for fk_name in term.path.fks:
        if isinstance(current, ElementId):
            nxt = inst.get_fk(current, fk_name)
            if nxt is not None:
                current = nxt
            elif virtual:
                current = VirtualElem(inst.find(current), (fk_name,))
            else:
                return UNDEFINED
        elif isinstance(current, VirtualElem):
            current = VirtualElem(current.base, current.steps + (fk_name,))
        else:
            return UNDEFINED
    if term.path.attr is None:
        return current
    if isinstance(current, ElementId):
        return inst.get_attr(current, term.path.attr)
    return UNDEFINED


def values_equal(inst: Instance, a: Value, b: Value) -> bool:
    if a is UNDEFINED or b is UNDEFINED:
        return False
    if isinstance(a, ElementId) and isinstance(b, ElementId):
        return inst.same(a, b)
    if isinstance(a, VirtualElem) and isinstance(b, VirtualElem):
        return inst.find(a.base) == inst.find(b.base) and a.steps == b.steps
    if isinstance(a, Const) and isinstance(b, Const):
        return a.type == b.type and a.value == b.value
    if isinstance(a, NullRef) and isinstance(b, NullRef):
        return inst.null_find(a.label) == inst.null_find(b.label)
    return False


def render_value(inst: Instance, v: Value) -> str:
    from .printer import render_constant  # local import to avoid a cycle

    if v is UNDEFINED:
        return "<undefined>"
    if isinstance(v, ElementId):
        return inst.export_id(v)
    if isinstance(v, VirtualElem):
        return f"{inst.export_id(v.base)}.{'.'.join(v.steps)}"
    if isinstance(v, Const):
        return render_constant(v)
    return f"null:{inst.null_find(v.label)}"


# ---------------------------------------------------------------------------
# Premise matching

def solve_premise(
    inst: Instance, c: Constraint, pinned: Mapping[str, Eq], env: dict[str, Value]
) -> Optional[dict[str, Value]]:
    """Extend ``env`` with the pinned variables and check the premise.

    ``env`` binds the enumerated universals to class representatives.
    ``pinned`` is ``constraint_pinned_vars(c)``, whose order is an evaluation
    order: each defining term mentions only pins before it. Returns ``env``,
    or None when a pin is not an element or a premise atom fails.
    """
    for name, atom in pinned.items():
        other = atom.right if isinstance(atom.left, Var) and atom.left.name == name else atom.left
        value = eval_term(inst, env, other, virtual=True)
        if not isinstance(value, (ElementId, VirtualElem)):
            return None
        env[name] = value
    for atom in c.premise:
        if not _atom_holds(inst, env, atom):
            return None
    return env


def _atom_holds(inst: Instance, env: dict[str, Value], atom: Union[Eq, Cmp]) -> bool:
    """Does a premise or conclusion atom hold under ``env``? An equation needs
    two equal values; a predicate needs two constants; undefined never holds."""
    lv = eval_term(inst, env, atom.left, virtual=True)
    rv = eval_term(inst, env, atom.right, virtual=True)
    if isinstance(atom, Eq):
        return values_equal(inst, lv, rv)
    if not (isinstance(lv, Const) and isinstance(rv, Const)):
        return False
    return apply_predicate(atom.op, lv.value, rv.value)


def _join_key(inst: Instance, value: Value) -> object:
    """A hash key such that ``values_equal(a, b)`` implies equal keys; None
    for UNDEFINED, which equals nothing."""
    if isinstance(value, ElementId):
        return inst.find(value)
    if isinstance(value, VirtualElem):
        return (inst.find(value.base), value.steps)
    if isinstance(value, Const):
        return (value.type, value.value)
    if isinstance(value, NullRef):
        return inst.null_find(value.label)
    return None


class _Binder:
    """Binds the variables of a list of plan steps, depth first, in place.

    Candidates only prune: the caller still checks every atom. Carriers and
    hash indexes are built at most once per binder, from the instance as it
    is then, so a binder is used up before the instance changes.
    """

    def __init__(self, inst: Instance, steps: tuple[BindStep, ...]):
        self.inst = inst
        self.steps = steps
        self.pools: list = [None] * len(steps)  # per step: carrier or hash index

    def bind(self, env: dict[str, Value], depth: int = 0) -> Iterator[dict[str, Value]]:
        """Yield ``env`` once per candidate combination, in candidate order."""
        if depth == len(self.steps):
            yield env
            return
        var = self.steps[depth].var
        for elem in self._candidates(depth, env):
            env[var] = elem
            yield from self.bind(env, depth + 1)

    def _candidates(self, depth: int, env: dict[str, Value]) -> Iterable[ElementId]:
        inst, step = self.inst, self.steps[depth]
        if step.pin is not None:
            value = eval_term(inst, env, step.pin, virtual=True)
            if isinstance(value, ElementId) and value.entity == step.entity:
                return (inst.find(value),)
            return ()
        pool = self.pools[depth]
        if pool is None:
            pool = self.pools[depth] = self._pool(step)
        if step.probe is None:
            return pool
        return pool.get(_join_key(inst, eval_term(inst, env, step.probe[1], virtual=True)), ())

    def _pool(self, step: BindStep) -> Union[list[ElementId], dict[object, list[ElementId]]]:
        """The carrier, or with a probe its hash index; buckets keep carrier order."""
        carrier = self.inst.carrier(step.entity)
        if step.probe is None:
            return carrier
        index: dict[object, list[ElementId]] = {}
        side = step.probe[0]
        for elem in carrier:
            key = _join_key(self.inst, eval_term(self.inst, {step.var: elem}, side, virtual=True))
            if key is not None:
                index.setdefault(key, []).append(elem)
        return index


def enumerate_matches(inst: Instance, c: Constraint) -> Iterator[dict[str, Value]]:
    """All premise matches, in lexicographic assignment order.

    The enumerated universals are bound by index probes or carrier scans
    (``Constraint.plan``); ``solve_premise`` then solves the pinned ones and
    checks every premise atom.
    """
    plan = c.plan
    for env in _Binder(inst, plan.premise).bind({}):
        match = solve_premise(inst, c, plan.pinned, dict(env))
        if match is not None:
            yield match


def conclusion_satisfied(inst: Instance, c: Constraint, env: dict[str, Value]) -> bool:
    """Is the conclusion already witnessed under the given premise match?

    A pinned existential has one candidate, an unpinned one its carrier;
    each combination is checked against the whole conclusion.
    """
    for attempt in _Binder(inst, c.plan.conclusion).bind(dict(env)):
        if all(_atom_holds(inst, attempt, eq) for eq in c.conclusion):
            return True
    return False


# ---------------------------------------------------------------------------
# Model checking

@dataclass
class ConstraintCheck:
    index: int
    constraint: Constraint
    satisfied: bool
    witness: Optional[dict[str, str]] = None


@dataclass
class SatisfactionReport:
    checks: list[ConstraintCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.satisfied for c in self.checks)

    def violations(self) -> list[ConstraintCheck]:
        return [c for c in self.checks if not c.satisfied]


def check_model(inst: Instance, constraints: Iterable[Constraint]) -> SatisfactionReport:
    """Verify every constraint; violated ones carry one witnessing assignment."""
    report = SatisfactionReport()
    for idx, c in enumerate(constraints, start=1):
        witness: Optional[dict[str, str]] = None
        for env in enumerate_matches(inst, c):
            if not conclusion_satisfied(inst, c, env):
                witness = {name: render_value(inst, v) for name, v in sorted(env.items())}
                break
        report.checks.append(ConstraintCheck(idx, c, witness is None, witness))
    return report


def instances_same_data(a: Instance, b: Instance) -> bool:
    """Structural equality of the quotients, blind to null labels."""
    if a.schema.entities != b.schema.entities:
        return False
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
                if isinstance(va, Const) != isinstance(vb, Const):
                    return False
                if isinstance(va, Const) and isinstance(vb, Const):
                    if va.type != vb.type or va.value != vb.value:
                        return False
    return True
