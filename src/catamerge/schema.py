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
from typing import Iterable, Iterator, NamedTuple, Optional, TypeVar, Union

from .errors import SchemaError
from .typeside import (
    BaseType,
    FnSig,
    predicate_defined,
    resolve_function,
)


class ForeignKey(NamedTuple):
    name: str
    source: str
    target: str


class Attribute(NamedTuple):
    name: str
    source: str
    type: BaseType


@dataclass(frozen=True)
class Path:
    """A composable chain of foreign keys, optionally ending in an attribute."""

    root: str
    fks: tuple[str, ...] = ()
    attr: Optional[str] = None

    def steps(self) -> str:
        parts = list(self.fks)
        if self.attr is not None:
            parts.append(self.attr)
        return ".".join(parts)


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


@dataclass(frozen=True, slots=True)
class Const:
    type: BaseType
    value: object


def render_constant(c: Const) -> str:
    """A constant as a query cell, a trace line and a CSV cell show it."""
    if c.type is BaseType.STRING:
        return str(c.value)
    if c.type is BaseType.BOOL:
        return "true" if c.value else "false"
    if c.type is BaseType.DOUBLE:
        return repr(float(c.value))
    return str(c.value)


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


class Identification(NamedTuple):
    schema_a: str
    entity_a: str
    schema_b: str
    entity_b: str


class ExtensionSpec(NamedTuple):
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

    def __post_init__(self) -> None:
        # Lookup tables derived from the fields above; not fields themselves,
        # so they are neither arguments nor part of equality.
        self._fk_index = {(fk.source, fk.name): fk for fk in self.foreign_keys}
        self._attr_index = {(a.source, a.name): a for a in self.attributes}
        # (entity, attribute) -> declaration position
        self.attr_rank = {key: rank for rank, key in enumerate(self._attr_index)}
        self._fks_by_entity = _by_source(self.foreign_keys)
        self._attrs_by_entity = _by_source(self.attributes)

    def has_entity(self, name: str) -> bool:
        return name in self.entities

    def fk(self, entity: str, name: str) -> Optional[ForeignKey]:
        return self._fk_index.get((entity, name))

    def attr(self, entity: str, name: str) -> Optional[Attribute]:
        return self._attr_index.get((entity, name))

    def fks_of(self, entity: str) -> tuple[ForeignKey, ...]:
        """The entity's foreign keys, in declaration order."""
        return self._fks_by_entity.get(entity, ())

    def attrs_of(self, entity: str) -> tuple[Attribute, ...]:
        """The entity's attributes, in declaration order."""
        return self._attrs_by_entity.get(entity, ())


Member = TypeVar("Member", ForeignKey, Attribute)


def _by_source(members: tuple[Member, ...]) -> dict[str, tuple[Member, ...]]:
    """Per source entity, its members in declaration order."""
    out: dict[str, list[Member]] = {}
    for m in members:
        out.setdefault(m.source, []).append(m)
    return {entity: tuple(ms) for entity, ms in out.items()}


Sort = Union[str, BaseType]  # an entity name or a base type


# ---------------------------------------------------------------------------
# Validation

class ValidationIssue(NamedTuple):
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


def path_apps(term: Term) -> Iterator[PathApp]:
    """The path applications in a term, at any depth, left to right."""
    if isinstance(term, PathApp):
        yield term
    elif isinstance(term, FunApp):
        for arg in term.args:
            yield from path_apps(arg)


def classify_constraint(c: Constraint) -> str:
    """'EGD' iff the clause has no existential variables, else 'TGD'."""
    return "TGD" if c.existentials else "EGD"


# ---------------------------------------------------------------------------
# Weak acyclicity

class DependencyEdge(NamedTuple):
    source: str
    target: str
    existential: bool
    via: str  # foreign-key name or existential-binder description


@dataclass
class AcyclicityResult:
    acyclic: bool
    edges: list[DependencyEdge]
    witness: Optional[list[DependencyEdge]] = None


class BindStep(NamedTuple):
    """How one variable gets its candidates.

    With a ``pin``, a term over variables bound earlier, the only candidate
    is the class the term evaluates to. With a ``probe``, the two sides of an
    equation, the first a path on this variable and the second over
    variables enumerated earlier, the candidates are one bucket of a hash
    index over the carrier. With neither, the whole carrier is scanned. Each
    candidate must then pass the ``checks``, in order.

    With ``observed``, an attribute of this variable's entity, the classes
    whose cell of it is observed stand in for the carrier: a probe on that
    plain attribute looks up their shared index, and otherwise they are
    walked. A walk is planned only where a later probe reads the attribute
    against a different one, which an unobserved cell never equals.
    """

    var: str
    entity: str
    pin: Optional[Term] = None
    probe: Optional[tuple[Term, Term]] = None
    checks: tuple[Atom, ...] = ()
    observed: Optional[str] = None


class BindingPlan(NamedTuple):
    """How a constraint's variables are bound (``binding_plan``); an equation
    that a probe or a pin decides is checked nowhere."""

    pins: tuple[BindStep, ...]  # the solved universals, in solving order
    premise: tuple[BindStep, ...]  # the enumerated universals, in declaration order
    checks: tuple[Atom, ...]  # the premise atoms no probe or pin decides, checked per match
    conclusion: tuple[BindStep, ...]  # the existentials, in solving order
    witness_checks: tuple[Eq, ...]  # the conclusion equations no pin decides and that can fail
    enforce: tuple[tuple[Eq, bool], ...]  # the ones that can fail, in order; True if entity-sorted
    defer: tuple[Term, ...]  # function sides over universals that must be constants to fire
    stuck: bool  # a function reads an existential's attribute that nothing sets


def binding_plan(c: Constraint) -> BindingPlan:
    """Pins, probe atoms and conclusion shape of a constraint, for ``Constraint.plan``.

    The first premise equation ``v = t`` per universal ``v``, with ``t`` a
    path or a variable not mentioning ``v``, pins ``v``. The next pin solved
    is the first one in premise order whose term mentions no pin still
    unsolved, so the order of the premise atoms changes no match; when the
    pins left form a cycle, the first of them is enumerated instead. The
    enumerated universals keep their declaration order, so matches come out
    in lexicographic carrier order. Each probes with the first premise
    equation joining it to the universals enumerated before it; one not
    probing walks the observed cells of an attribute where a later probe
    allows it (``BindStep.observed``). The next existential bound is the
    first one pinned by a conclusion equation ``y = t`` with ``t`` over bound
    variables; when none is, the first remaining one in declaration order is
    scanned. A probe decides its equation, and so does a pin, whose variable
    takes its term's value: ``checks`` and ``witness_checks`` leave those
    equations out. ``witness_checks`` also leaves out an entity-sorted
    equation whose sides are one term, which holds everywhere
    (``_holds_everywhere``). The conclusion's shape comes from
    ``_conclusion_shape``.
    """
    universals = dict(c.universals)
    unsolved: dict[str, Term] = {}
    for atom in c.premise:
        if isinstance(atom, Eq):
            for side, other in _sides(atom):
                if (isinstance(side, Var) and side.name in universals and side.name not in unsolved
                        and isinstance(other, (PathApp, Var)) and side.name not in _term_vars(other)):
                    unsolved[side.name] = other
                    break
    pins: list[BindStep] = []
    while unsolved:
        name = next((n for n, t in unsolved.items() if _term_vars(t).isdisjoint(unsolved)), None)
        if name is None:
            del unsolved[next(iter(unsolved))]
        else:
            pins.append(BindStep(name, universals[name], pin=unsolved.pop(name)))
    solved = {step.var for step in pins}
    premise: list[BindStep] = []
    earlier: set[str] = set()
    for name, entity in c.universals:
        if name not in solved:
            probe = _probe(c.premise, name, earlier)
            observed = _plain_attr(probe[0]) if probe is not None else None
            premise.append(BindStep(name, entity, probe=probe, observed=observed))
            earlier.add(name)
    for i, step in enumerate(premise):
        if step.probe is None:
            premise[i] = step._replace(observed=_walk(step, premise[i + 1:]))
    decided = {step.probe for step in premise if step.probe is not None}
    decided.update((Var(step.var), step.pin) for step in pins)
    bound = set(universals)
    pending = list(c.existentials)
    conclusion: list[BindStep] = []
    while pending:
        found = [(i, _pin_term(c.conclusion, name, bound)) for i, (name, _) in enumerate(pending)]
        at, pin = next(((i, t) for i, t in found if t is not None), (0, None))
        name, entity = pending.pop(at)
        conclusion.append(BindStep(name, entity, pin=pin))
        bound.add(name)
    settled = {(Var(step.var), step.pin) for step in conclusion if step.pin is not None}
    settled.update((eq.left, eq.right) for eq in c.conclusion if _holds_everywhere(eq))
    return BindingPlan(tuple(pins), tuple(premise), _undecided(c.premise, decided), tuple(conclusion),
                       _undecided(c.conclusion, settled), *_conclusion_shape(c))


def _undecided(atoms: tuple[Atom, ...], decided: set[tuple[Term, Term]]) -> tuple[Atom, ...]:
    """The atoms but the equations whose two sides, in either order, are a decided pair."""
    return tuple(a for a in atoms if not isinstance(a, Eq) or decided.isdisjoint(_sides(a)))


def _plain_attr(term: Term, var: Optional[str] = None) -> Optional[str]:
    """The attribute ``term`` reads when it is one with no foreign keys (of
    ``var``, when given)."""
    if isinstance(term, PathApp) and not term.path.fks and (var is None or term.var == var):
        return term.path.attr
    return None


def _walk(step: BindStep, later: list[BindStep]) -> Optional[str]:
    """An attribute whose observed cells can stand in for the carrier of
    ``step``: one that a later probe on a plain attribute compares with its
    own, when the two are never one cell. The probe's equation then holds
    only where this variable's cell is observed."""
    for other in later:
        if other.probe is None or other.observed is None:
            continue
        attr = _plain_attr(other.probe[1], step.var)
        if attr is not None and (other.entity, other.observed) != (step.entity, attr):
            return attr
    return None


def _conclusion_shape(c: Constraint) -> tuple[tuple[tuple[Eq, bool], ...], tuple[Term, ...], bool]:
    """The ``enforce``, ``defer`` and ``stuck`` fields of ``BindingPlan``.

    Equations without a function side are enforced first, then those with
    one, each after the others that set a path it reads; declaration order
    holds otherwise and on cycles. An equation that holds everywhere
    (``_holds_everywhere``) is not enforced. A function side is read with each
    argument ``y.a`` (``y`` existential, no foreign keys) replaced by the
    term over universals that the first equation setting ``y.a`` equates it
    to, or failing that the nearest such term reached through equations
    between existentials' attributes; it is deferred when it then mentions
    universals only, since minting while it is unknown would mint again
    every round. A function reading a
    ``y.a`` that no equation has as a side, nor ``y``, is stuck: it reads a
    fresh element's unset null in every firing. So is one reading a ``y.a``
    that the equations cannot compute from universals and constants, such
    as a cell on a closed cycle of equations between existentials' cells.
    """
    universals = {name for name, _ in c.universals}
    existentials = {name for name, _ in c.existentials}
    sides = {side for eq in c.conclusion for side in (eq.left, eq.right)}

    def functions(eq: Eq) -> list[Term]:
        return [side for side in (eq.left, eq.right) if isinstance(side, FunApp)]

    def reads(eq: Eq) -> set[PathApp]:
        return {p for side in functions(eq) for p in path_apps(side)}

    def cell(term: Term) -> bool:  # an existential's attribute, no foreign keys
        return isinstance(term, PathApp) and term.var in existentials and not term.path.fks

    def through(term: Term) -> Term:
        if isinstance(term, FunApp):
            return FunApp(term.fn, tuple(map(through, term.args)))
        if not cell(term):
            return term
        seen, frontier = {term}, [term]
        while frontier:  # breadth first over equations between such cells
            others = [other for at in frontier for eq in c.conclusion
                      for side, other in _sides(eq) if side == at]
            found = next((other for other in others if _term_vars(other) <= universals), None)
            if found is not None:
                return found
            frontier = [other for other in others if cell(other) and other not in seen]
            seen.update(frontier)
        return term

    pending, order = sorted(c.conclusion, key=lambda eq: bool(functions(eq))), []
    while pending:
        eq = next((eq for eq in pending if not any(
            other is not eq and not reads(eq).isdisjoint((other.left, other.right))
            for other in pending)), pending[0])
        pending.remove(eq)
        order.append(eq)
    enforce = tuple((eq, _entity_sorted(eq)) for eq in order if not _holds_everywhere(eq))

    def unknown(p: PathApp) -> bool:  # a fresh element's cell not yet computed
        return cell(p) and Var(p.var) not in sides and p not in known

    known: set[PathApp] = set()
    grew = True
    while grew:  # least fixpoint: a cell equated to a term whose cells are known
        grew = False
        for eq in c.conclusion:
            for side, other in _sides(eq):
                if unknown(side) and not any(map(unknown, path_apps(other))):
                    known.add(side)
                    grew = True
    stuck = any(unknown(p) for eq in c.conclusion for p in reads(eq))
    read_through = (through(side) for eq in c.conclusion for side in functions(eq))
    return enforce, tuple(side for side in read_through if _term_vars(side) <= universals), stuck


def _entity_sorted(eq: Eq) -> bool:
    # type-checked, so the sides are entity-sorted iff the left one is
    return isinstance(eq.left, Var) or isinstance(eq.left, PathApp) and eq.left.path.attr is None


def _holds_everywhere(eq: Eq) -> bool:
    """An entity-sorted equation whose sides are one term: both evaluate to
    one element or one virtual element, never UNDEFINED. (An attribute read
    through an unset key is UNDEFINED, which equals nothing.)"""
    return eq.left == eq.right and _entity_sorted(eq)


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
        pins = {step.var: step.pin for step in c.plan.pins}
        for atom in c.premise:
            ex = isinstance(atom, Eq) and any(
                isinstance(side, Var) and pins.get(side.name) == other for side, other in _sides(atom)
            )
            for t in (atom.left, atom.right):
                for p in path_apps(t):
                    add_path(p.path, existential=ex)
        for eq in c.conclusion:
            for t in (eq.left, eq.right):
                for p in path_apps(t):
                    add_path(p.path, existential=True)
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
