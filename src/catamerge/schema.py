"""Schemas as presentations of multi-sorted theories.

A schema is a set of entities, foreign keys (functions between entities),
attributes (functions from entities into base types) and constraints
restricted to existential Horn clauses. This module also defines paths,
terms, and the static checks every other module relies on: schema
validation, path composition, constraint classification, and the weak
acyclicity guard for chase termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .errors import SchemaError
from .typeside import (
    BaseType,
    FnSig,
    predicate_defined,
    resolve_function,
)


@dataclass(frozen=True)
class ForeignKey:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Attribute:
    name: str
    source: str
    type: BaseType


@dataclass(frozen=True)
class Path:
    """A composable chain of foreign keys, optionally ending in an attribute."""

    root: str
    fks: tuple[str, ...] = ()
    attr: Optional[str] = None

    def is_identity(self) -> bool:
        return not self.fks and self.attr is None

    def steps(self) -> str:
        parts = list(self.fks)
        if self.attr is not None:
            parts.append(self.attr)
        return ".".join(parts)

    def __str__(self) -> str:
        return self.root if self.is_identity() else f"{self.root}.{self.steps()}"


# ---------------------------------------------------------------------------
# Terms and constraints

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class PathApp:
    """A path applied to a bound variable, e.g. ``l.leaseOf.roomName``."""

    var: str
    path: Path


@dataclass(frozen=True)
class Const:
    type: BaseType
    value: object


@dataclass(frozen=True)
class FunApp:
    fn: FnSig
    args: tuple["Term", ...]


Term = Union[Var, PathApp, Const, FunApp]


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term


@dataclass(frozen=True)
class Cmp:
    """A built-in predicate atom; only allowed in premises."""

    op: str
    left: Term
    right: Term


Atom = Union[Eq, Cmp]


@dataclass(frozen=True)
class Constraint:
    """Existential Horn clause: forall ..., premise -> exists ..., conclusion."""

    universals: tuple[tuple[str, str], ...]
    premise: tuple[Atom, ...]
    existentials: tuple[tuple[str, str], ...]
    conclusion: tuple[Eq, ...]

    def binders(self) -> dict[str, str]:
        out = dict(self.universals)
        out.update(self.existentials)
        return out

    @cached_property
    def plan(self) -> "BindingPlan":
        """How the matcher binds this constraint's variables; computed once."""
        return binding_plan(self)


@dataclass(frozen=True)
class Identification:
    schema_a: str
    entity_a: str
    schema_b: str
    entity_b: str


@dataclass(frozen=True)
class ExtensionSpec:
    """A theory extension: included schemas, entity identifications, bridges."""

    name: str
    schemas: tuple["Schema", ...]
    identifications: tuple[Identification, ...]
    constraints: tuple[Constraint, ...] = ()

    def schema_named(self, name: str) -> "Schema":
        for s in self.schemas:
            if s.name == name:
                return s
        raise SchemaError(f"extension {self.name} does not include schema '{name}'")


@dataclass
class Schema:
    name: str
    entities: tuple[str, ...] = ()
    foreign_keys: tuple[ForeignKey, ...] = ()
    attributes: tuple[Attribute, ...] = ()
    constraints: tuple[Constraint, ...] = ()

    # Lookup tables; derived, excluded from equality.
    _fk_index: dict[tuple[str, str], ForeignKey] = field(
        default_factory=dict, compare=False, repr=False
    )
    _attr_index: dict[tuple[str, str], Attribute] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        self._fk_index = {(fk.source, fk.name): fk for fk in self.foreign_keys}
        self._attr_index = {(a.source, a.name): a for a in self.attributes}

    def has_entity(self, name: str) -> bool:
        return name in self.entities

    def fk(self, entity: str, name: str) -> Optional[ForeignKey]:
        return self._fk_index.get((entity, name))

    def attr(self, entity: str, name: str) -> Optional[Attribute]:
        return self._attr_index.get((entity, name))

    def fks_of(self, entity: str) -> list[ForeignKey]:
        return [fk for fk in self.foreign_keys if fk.source == entity]

    def attrs_of(self, entity: str) -> list[Attribute]:
        return [a for a in self.attributes if a.source == entity]


Sort = Union[str, BaseType]  # an entity name or a base type


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class ValidationIssue:
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.subject}: {self.message}"


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, subject: str, message: str) -> None:
        self.issues.append(ValidationIssue(subject, message))

    def __str__(self) -> str:
        return "\n".join(str(i) for i in self.issues) if self.issues else "ok"


def validate_schema(schema: Schema) -> ValidationReport:
    """Check every well-formedness rule; all problems become report entries."""
    report = ValidationReport()
    seen_entities: set[str] = set()
    for e in schema.entities:
        if e in seen_entities:
            report.add(e, "duplicate entity name")
        seen_entities.add(e)

    # Foreign keys and attributes share one namespace per source entity.
    member_names: dict[str, set[str]] = {e: set() for e in seen_entities}
    for fk in schema.foreign_keys:
        if fk.source not in seen_entities:
            report.add(fk.name, f"foreign key source '{fk.source}' is not a declared entity")
        elif fk.name in member_names[fk.source]:
            report.add(fk.name, f"duplicate member name on entity '{fk.source}'")
        else:
            member_names[fk.source].add(fk.name)
        if fk.target not in seen_entities:
            report.add(fk.name, f"foreign key target '{fk.target}' is not a declared entity")
    for a in schema.attributes:
        if a.source not in seen_entities:
            report.add(a.name, f"attribute source '{a.source}' is not a declared entity")
        elif a.name in member_names[a.source]:
            report.add(a.name, f"duplicate member name on entity '{a.source}'")
        else:
            member_names[a.source].add(a.name)
        if not isinstance(a.type, BaseType):
            report.add(a.name, f"attribute codomain '{a.type}' is not a base type")

    for idx, c in enumerate(schema.constraints, start=1):
        try:
            check_constraint(c, schema)
        except SchemaError as err:
            report.add(f"constraint #{idx}", str(err))
    return report


# ---------------------------------------------------------------------------
# Paths

def path_codomain(path: Path, schema: Schema) -> Sort:
    """Type a path, failing on any dangling step."""
    if not schema.has_entity(path.root):
        raise SchemaError(f"path root '{path.root}' is not an entity")
    current = path.root
    for name in path.fks:
        fk = schema.fk(current, name)
        if fk is None:
            raise SchemaError(f"'{name}' is not a foreign key of entity '{current}'")
        current = fk.target
    if path.attr is None:
        return current
    attr = schema.attr(current, path.attr)
    if attr is None:
        raise SchemaError(f"'{path.attr}' is not an attribute of entity '{current}'")
    return attr.type


def compose_paths(p: Path, q: Path, schema: Schema) -> Path:
    """Concatenate two paths; p must land on q's root entity."""
    if p.attr is not None:
        raise SchemaError(f"cannot compose beyond attribute '{p.attr}'")
    cod = path_codomain(p, schema)
    if cod != q.root:
        raise SchemaError(
            f"path codomain '{cod}' does not match composed root '{q.root}'"
        )
    return Path(p.root, p.fks + q.fks, q.attr)


def identity_path(entity: str) -> Path:
    return Path(entity)


# ---------------------------------------------------------------------------
# Term and constraint typing

def term_sort(term: Term, binders: dict[str, str], schema: Schema) -> Sort:
    if isinstance(term, Var):
        if term.name not in binders:
            raise SchemaError(f"unbound variable '{term.name}'")
        return binders[term.name]
    if isinstance(term, PathApp):
        if term.var not in binders:
            raise SchemaError(f"unbound variable '{term.var}'")
        if binders[term.var] != term.path.root:
            raise SchemaError(
                f"variable '{term.var}' has entity '{binders[term.var]}', "
                f"but path starts at '{term.path.root}'"
            )
        return path_codomain(term.path, schema)
    if isinstance(term, Const):
        return term.type
    if isinstance(term, FunApp):
        arg_types = []
        for a in term.args:
            s = term_sort(a, binders, schema)
            if not isinstance(s, BaseType):
                raise SchemaError(f"function argument '{a}' is entity-typed")
            arg_types.append(s)
        resolve_function(term.fn.name, tuple(arg_types))
        return term.fn.result
    raise SchemaError(f"unknown term {term!r}")


def check_constraint(c: Constraint, schema: Schema) -> None:
    """Type-check a constraint against a schema; raises SchemaError."""
    binders: dict[str, str] = {}
    for name, entity in c.universals + c.existentials:
        if name in binders:
            raise SchemaError(f"variable '{name}' bound twice")
        if not schema.has_entity(entity):
            raise SchemaError(f"binder '{name}' ranges over unknown entity '{entity}'")
        binders[name] = entity

    universal_names = {n for n, _ in c.universals}

    def check_eq(eq: Eq, allow_existentials: bool) -> None:
        names = _term_vars(eq.left) | _term_vars(eq.right)
        if not allow_existentials and not names <= universal_names:
            raise SchemaError("premise mentions existential variables")
        ls = term_sort(eq.left, binders, schema)
        rs = term_sort(eq.right, binders, schema)
        if ls != rs:
            raise SchemaError(f"equation relates '{ls}' with '{rs}'")

    for atom in c.premise:
        if isinstance(atom, Eq):
            check_eq(atom, allow_existentials=False)
        else:
            ls = term_sort(atom.left, binders, schema)
            rs = term_sort(atom.right, binders, schema)
            if not isinstance(ls, BaseType) or not isinstance(rs, BaseType):
                raise SchemaError("predicate atoms compare base-typed terms only")
            if not predicate_defined(atom.op, ls, rs):
                raise SchemaError(f"predicate '{atom.op}' undefined on ({ls}, {rs})")
    for eq in c.conclusion:
        if isinstance(eq, Cmp):
            raise SchemaError("predicates may not appear in conclusions")
        check_eq(eq, allow_existentials=True)


def _term_vars(term: Term) -> set[str]:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, PathApp):
        return {term.var}
    if isinstance(term, FunApp):
        out: set[str] = set()
        for a in term.args:
            out |= _term_vars(a)
        return out
    return set()


def classify_constraint(c: Constraint) -> str:
    """'EGD' iff the clause has no existential variables, else 'TGD'."""
    return "TGD" if c.existentials else "EGD"


# ---------------------------------------------------------------------------
# Weak acyclicity

@dataclass(frozen=True)
class DependencyEdge:
    source: str
    target: str
    existential: bool
    via: str  # foreign-key name or existential-binder description


@dataclass
class AcyclicityResult:
    acyclic: bool
    edges: list[DependencyEdge]
    witness: Optional[list[DependencyEdge]] = None

    def __bool__(self) -> bool:
        return self.acyclic


def _paths_of_term(term: Term) -> list[Path]:
    if isinstance(term, PathApp):
        return [term.path]
    if isinstance(term, FunApp):
        out: list[Path] = []
        for a in term.args:
            out.extend(_paths_of_term(a))
        return out
    return []


def constraint_pinned_vars(c: Constraint) -> dict[str, Eq]:
    """Premise atoms of the form ``v = path(...)`` solve v instead of
    enumerating it; returns the pinning atom per derived variable."""
    pinned: dict[str, Eq] = {}
    for atom in c.premise:
        if not isinstance(atom, Eq):
            continue
        for var_side, other in ((atom.left, atom.right), (atom.right, atom.left)):
            if not isinstance(var_side, Var) or var_side.name in pinned:
                continue
            if var_side.name in _term_vars(other):
                continue
            if isinstance(other, (PathApp, Var)):
                pinned[var_side.name] = atom
                break
    # Break derivation cycles (v pinned via w while w pinned via v): demote
    # later pins back to enumeration.
    changed = True
    while changed:
        changed = False
        for name in list(pinned):
            atom = pinned[name]
            other = atom.right if isinstance(atom.left, Var) and atom.left.name == name else atom.left
            deps = _term_vars(other)
            order = list(pinned)
            for d in deps:
                if d in pinned and order.index(d) > order.index(name):
                    del pinned[name]
                    changed = True
                    break
            if changed:
                break
    return pinned


class BindStep(NamedTuple):
    """How one variable gets its candidates.

    With a ``pin``, a term over variables bound earlier, the only candidate
    is the class the term evaluates to. With a ``probe``, the two sides of a
    premise equation, the first a path on this variable and the second over
    variables enumerated earlier, the candidates are one bucket of a hash
    index over the carrier. With neither, the whole carrier is scanned.
    """

    var: str
    entity: str
    pin: Optional[Term] = None
    probe: Optional[tuple[Term, Term]] = None


class BindingPlan(NamedTuple):
    pinned: Mapping[str, Eq]  # constraint_pinned_vars, read-only
    premise: tuple[BindStep, ...]  # the enumerated universals, in declaration order
    conclusion: tuple[BindStep, ...]  # the existentials, in solving order


def binding_plan(c: Constraint) -> BindingPlan:
    """Pins and probe atoms of a constraint, for ``Constraint.plan``.

    The enumerated universals keep their declaration order, so matches come
    out in lexicographic carrier order. Each probes with the first premise
    equation joining it to the universals enumerated before it. The next
    existential bound is the first one pinned by a conclusion equation
    ``y = t`` with ``t`` over bound variables; when none is, the first
    remaining one in declaration order is scanned.
    """
    pinned = constraint_pinned_vars(c)
    premise: list[BindStep] = []
    earlier: set[str] = set()
    for name, entity in c.universals:
        if name not in pinned:
            premise.append(BindStep(name, entity, probe=_probe(c.premise, name, earlier)))
            earlier.add(name)
    bound = {name for name, _ in c.universals}
    pending = list(c.existentials)
    conclusion: list[BindStep] = []
    while pending:
        pins = [(i, _pin_term(c.conclusion, name, bound)) for i, (name, _) in enumerate(pending)]
        at, pin = next(((i, t) for i, t in pins if t is not None), (0, None))
        name, entity = pending.pop(at)
        conclusion.append(BindStep(name, entity, pin=pin))
        bound.add(name)
    return BindingPlan(MappingProxyType(pinned), tuple(premise), tuple(conclusion))


def _sides(atom: Atom) -> tuple[tuple[Term, Term], tuple[Term, Term]]:
    return (atom.left, atom.right), (atom.right, atom.left)


def _pin_term(conclusion: tuple[Eq, ...], name: str, bound: set[str]) -> Optional[Term]:
    for eq in conclusion:
        for side, other in _sides(eq):
            if isinstance(side, Var) and side.name == name and _term_vars(other) <= bound:
                return other
    return None


def _probe(premise: tuple[Atom, ...], name: str, earlier: set[str]) -> Optional[tuple[Term, Term]]:
    for atom in premise:
        if not isinstance(atom, Eq):
            continue
        for side, other in _sides(atom):
            on_name = isinstance(side, (Var, PathApp)) and _term_vars(side) == {name}
            if on_name and _term_vars(other) <= earlier:
                return side, other
    return None


def check_weak_acyclicity(constraints: Iterable[Constraint], schema: Schema) -> AcyclicityResult:
    """Static termination guard for the chase.

    The dependency graph has one node per entity. Foreign-key steps that the
    chase may materialize (steps along conclusion paths and along premise
    paths that solve a pinned variable) contribute existential edges, as do
    explicitly existential binders. Remaining premise steps contribute
    regular edges. The set is weakly acyclic iff no cycle contains an
    existential edge.
    """
    edges: list[DependencyEdge] = []
    seen: set[tuple[str, str, bool, str]] = set()

    def add_path(path: Path, existential: bool) -> None:
        current = path.root
        for name in path.fks:
            fk = schema.fk(current, name)
            if fk is None:
                raise SchemaError(f"'{name}' is not a foreign key of '{current}'")
            key = (current, fk.target, existential, name)
            if key not in seen:
                seen.add(key)
                edges.append(DependencyEdge(current, fk.target, existential, name))
            current = fk.target

    for c in constraints:
        pinned = constraint_pinned_vars(c)
        pinning_atoms = set(pinned.values())
        for atom in c.premise:
            terms = (atom.left, atom.right)
            ex = isinstance(atom, Eq) and atom in pinning_atoms
            for t in terms:
                for p in _paths_of_term(t):
                    add_path(p, existential=ex)
        for eq in c.conclusion:
            for t in (eq.left, eq.right):
                for p in _paths_of_term(t):
                    add_path(p, existential=True)
        for _, entity in c.existentials:
            for _, uni_entity in c.universals:
                key = (uni_entity, entity, True, "exists")
                if key not in seen:
                    seen.add(key)
                    edges.append(DependencyEdge(uni_entity, entity, True, "exists"))

    witness = _find_existential_cycle(edges)
    return AcyclicityResult(acyclic=witness is None, edges=edges, witness=witness)


def _find_existential_cycle(edges: list[DependencyEdge]) -> Optional[list[DependencyEdge]]:
    """Find a cycle through at least one existential edge, if any exists."""
    outgoing: dict[str, list[DependencyEdge]] = {}
    for e in edges:
        outgoing.setdefault(e.source, []).append(e)

    for start_edge in edges:
        if not start_edge.existential:
            continue
        # Search a path from start_edge.target back to start_edge.source.
        stack = [(start_edge.target, [start_edge])]
        visited = {start_edge.target}
        while stack:
            node, trail = stack.pop()
            if node == start_edge.source:
                return trail
            for e in outgoing.get(node, []):
                if e.target == start_edge.source:
                    return trail + [e]
                if e.target not in visited:
                    visited.add(e.target)
                    stack.append((e.target, trail + [e]))
    return None
