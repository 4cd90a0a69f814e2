"""Instances: element sets with foreign-key/attribute valuations.

Each class root keeps one row, member name to foreign-key target (an
``ElementId``) or attribute cell; no entity gives a foreign key and an
attribute one name, so a stored value's type tells its kind.

An instance tracks a union-find over its elements (entity merges propagate a
congruence closure through valued foreign keys) and a second union-find over
labelled nulls with constant anchoring. Attribute valuations are total: a
cell that holds no value is the labelled null ``NullRef(root, attr)``, named
by the cell itself, as the term ``x.attr`` is its own unknown value. A
writer (``assign_attr``, ``union_attrs``) that unifies such a cell stores
that name and enters it in the null union-find; a class of nulls is named by
its least name. Reads never write: ``get_attr``, and term and path
evaluation through it, read an unobserved cell as its name, which has no
entry and so equals only another read of that same cell. Constants
overwrite nulls, never other constants. No output shows a null's name.

For equality joins the instance keeps, per (entity, attribute), the classes
whose cell is observed, and builds from them a hash index by join key
(``Instance.observed_cells``). Both are cached until a cell is observed, a
value changes or classes merge, so every rule of a chase round, and every
constraint ``check_model`` checks, shares one index per attribute.

While ``Instance.changes`` holds a set, ``add_element`` and the
saturation-level mutators add to it a mark for each change that can give a
premise a new match: ``(CREATED, entity)``, ``(MERGED, entity)``
(congruence merges included), ``(DEFINED, entity, fk)`` and ``NULLS`` for
any anchoring or union of null classes, which span entities. The chase
collects them per round.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

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
from .typeside import apply_function, apply_predicate


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


class NullRef(NamedTuple):
    """A labelled null, named by one cell of its class: the attribute
    ``attr`` of the element ``root``, a class root when it was named. Two
    nulls are equal when ``Instance.null_find`` gives them one root."""

    root: ElementId
    attr: str


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

CREATED, MERGED, DEFINED = "created", "merged", "defined"
NULLS = ("nulls",)


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
        for fk in schema.foreign_keys:
            if schema.attr(fk.source, fk.name) is not None:
                raise InstanceError(f"'{fk.name}' is a foreign key and an attribute of '{fk.source}'")
        self.schema = schema
        self.name = name
        # Per entity, name -> element in creation order.
        self._elements: dict[str, dict[str, ElementId]] = {e: {} for e in schema.entities}
        self._parent: dict[ElementId, ElementId] = {}
        self._members: dict[ElementId, list[ElementId]] = {}
        # Per class root, member name -> foreign-key target or stored cell.
        self._rows: dict[ElementId, dict[str, Union[ElementId, AttrValue]]] = {}
        # Names of the nulls writers used; a name with no entry is its own root.
        self._null_parent: dict[NullRef, NullRef] = {}
        self._null_anchor: dict[NullRef, Const] = {}
        self._frozen = False
        # Per entity, the sorted carrier; dropped by add_element and merges.
        self._carriers: dict[str, list[ElementId]] = {}
        # Per (entity, attribute), the classes whose cell is observed; built
        # on first use, then kept current. Dropped by copy_rows and write_row.
        self._observed: Optional[dict[tuple[str, str], set[ElementId]]] = None
        # Per (entity, attribute), observed_cells' lists and index; dropped
        # when a cell is observed, a value changes or classes merge.
        self._indexes: dict[tuple[str, str], tuple] = {}
        # Provenance of elements copied out of source instances: (schema, row id).
        self.origins: dict[ElementId, tuple[str, str]] = {}
        # Change marks, while a caller collects them; a copy starts with None.
        self.changes: Optional[set[tuple]] = None

    # -- basic structure ----------------------------------------------------

    def copy(self) -> "Instance":
        out = Instance(self.schema, self.name)
        out._elements = {e: dict(v) for e, v in self._elements.items()}
        out._parent = dict(self._parent)
        out._members = {k: list(v) for k, v in self._members.items()}
        out._rows = {k: dict(v) for k, v in self._rows.items()}
        out._null_parent = dict(self._null_parent)
        out._null_anchor = dict(self._null_anchor)
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
        """Canonical class representatives of an entity, sorted by export id.

        Cached per entity until the next ``add_element`` or merge there; each
        call returns a new list."""
        cached = self._carriers.get(entity)
        if cached is None:
            roots = {self.find(e) for e in self.elements(entity)}
            cached = self._carriers[entity] = sorted(roots, key=lambda root: root.name)
        return list(cached)

    def members(self, elem: ElementId) -> list[ElementId]:
        """The class's elements by ``sort_key``; only merged classes keep a list."""
        root = self.find(elem)
        members = self._members.get(root)
        return [root] if members is None else sorted(members, key=ElementId.sort_key)

    def export_id(self, elem: ElementId) -> str:
        """Lexicographically least user-declared id in the class, or the
        fresh-null label when the class has no user row: the root's name,
        since a merge keeps the member with the least ``(fresh, name)``.
        The printer and ``integrate.roundtrip_report`` rely on this: they
        write a carrier root's ``name`` as its export id."""
        return self.find(elem).name

    def element_named(self, entity: str, name: str) -> Optional[ElementId]:
        return self._elements.get(entity, {}).get(name)

    def observed_cells(
        self, entity: str, attr: str
    ) -> tuple[list[ElementId], dict[object, list[ElementId]]]:
        """The classes of ``entity`` whose ``attr`` cell is observed, in
        carrier order, and the same classes by the ``_join_key`` of that
        cell's value, each bucket in carrier order.

        Built once, and shared until a cell is observed, a value changes or
        classes merge; callers only read them."""
        cached = self._indexes.get((entity, attr))
        if cached is None:
            observed = self._observed
            if observed is None:
                observed = self._observed = {}
                for root, row in self._rows.items():
                    for name, value in row.items():
                        if not isinstance(value, ElementId):
                            observed.setdefault((root.entity, name), set()).add(root)
            # one entity's elements sort by name, as the carrier does
            roots = sorted(observed.get((entity, attr), ()))
            index: dict[object, list[ElementId]] = {}
            rows = self._rows
            for root in roots:
                key = _join_key(self, self.resolve_value(rows[root][attr]))
                index.setdefault(key, []).append(root)
            cached = self._indexes[(entity, attr)] = (roots, index)
        return cached

    def _observe(self, root: ElementId, attr: str) -> None:
        """Note that ``root``'s ``attr`` cell now holds a value."""
        if self._observed is not None:
            self._observed.setdefault((root.entity, attr), set()).add(root)
        self._indexes.clear()

    # -- union-find over elements --------------------------------------------

    def find(self, e: ElementId) -> ElementId:
        parent = self._parent
        root = parent.get(e)
        if root is e:  # a root is stored as its own parent object
            return e
        if root is None:
            raise InstanceError(f"unknown element {e}")
        while parent[root] != root:
            root = parent[root]
        while parent[e] != root:
            parent[e], e = root, parent[e]
        return root

    def same(self, a: ElementId, b: ElementId) -> bool:
        return self.find(a) == self.find(b)

    # -- null union-find ---------------------------------------------------------

    def null_find(self, name: NullRef) -> NullRef:
        """The root name of a null's class; a name with no entry, such as
        an unobserved cell's, is its own."""
        parent = self._null_parent
        root = parent.get(name, name)
        if root == name:
            return root
        while parent[root] != root:
            root = parent[root]
        while parent[name] != root:
            parent[name], name = root, parent[name]
        return root

    def resolve_value(self, value: AttrValue) -> AttrValue:
        """A constant as is; a null as its class's anchor, or else its root name."""
        if isinstance(value, Const):
            return value
        root = self.null_find(value)
        anchored = self._null_anchor.get(root)
        return root if anchored is None else anchored

    def _unify_values(self, left: AttrValue, right: AttrValue, attr: str, context: str) -> bool:
        lv, rv = self.resolve_value(left), self.resolve_value(right)
        if isinstance(lv, Const) and isinstance(rv, Const):
            if lv.type == rv.type and lv.value == rv.value:
                return False
            raise ConstantClash(attr, lv.value, rv.value, context)
        # a null resolves to its root name
        if isinstance(lv, Const):
            self._null_anchor[rv] = lv  # type: ignore[index]
        elif isinstance(rv, Const):
            self._null_anchor[lv] = rv
        else:
            if lv == rv:
                return False
            winner, loser = (lv, rv) if lv < rv else (rv, lv)
            self._null_parent[loser] = winner
        self._record(NULLS)
        self._indexes.clear()
        return True

    def _record(self, mark: tuple) -> None:
        if self.changes is not None:
            self.changes.add(mark)

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
        self._carriers.pop(entity, None)
        self._record((CREATED, entity))
        self._parent[elem] = elem
        self._rows[elem] = {}
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
        current = self._rows[root].get(fk_name)
        if current is not None:
            if self.find(current) == tgt:
                return
            raise InstanceError(
                f"conflicting re-assignment of foreign key '{fk_name}' on {root.name}"
            )
        self._rows[root][fk_name] = tgt

    def set_attr(self, elem: ElementId, attr_name: str, value: Optional[AttrValue]) -> None:
        """Builder assignment; ``None`` or a null leaves the cell as it is."""
        self._mutable()
        root = self.find(elem)
        attr = self.schema.attr(root.entity, attr_name)
        if attr is None:
            raise InstanceError(f"'{attr_name}' is not an attribute of entity '{root.entity}'")
        cells = self._rows[root]
        current = cells.get(attr_name)
        if current is not None:
            current = self.resolve_value(current)
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
        if current is None:
            cells[attr_name] = value
            self._observe(root, attr_name)
        else:
            # anchor the null's class: cells unified with this one read the constant too
            self._unify_values(current, value, attr_name, root.name)

    def write_row(self, elem: ElementId, row: dict[str, Union[ElementId, Const]]) -> None:
        """Write a parsed row onto ``elem``, a class root: ``row`` maps each
        foreign key to its target root and each attribute to a constant,
        and a member ``elem`` already holds gets the same value. Like
        ``copy_rows``, nothing is checked per member: the parser has
        checked each member, type and target."""
        self._mutable()
        if row:
            self._rows[elem].update(row)
            self._observed = None  # rebuilt on first use, not kept cell by cell
            self._indexes.clear()

    def copy_rows(
        self,
        src: "Instance",
        roots: Iterable[ElementId],
        images: dict[ElementId, ElementId],
        members: list[tuple[str, str]],
        nulls: Optional[dict[NullRef, tuple[ElementId, str]]] = None,
    ) -> None:
        """Copy the rows of ``src``'s classes ``roots`` onto their images.

        ``images`` maps each of ``roots``, and each root a copied foreign
        key reaches, to an element added to this instance and not written
        yet; ``members`` renames the members of the roots' entity, foreign
        keys first. A set foreign key (a stored ``ElementId``) points to its
        target's image; a constant is copied as is. A null is dropped
        without ``nulls``; with it, cells that share a null class in ``src``
        share one here (``nulls`` maps a ``src`` null root to its first
        cell). Nothing is checked per member: the caller checks once that
        the renamings are between the two schemas, whose members then agree.
        """
        self._mutable()
        self._observed = None  # rebuilt on first use, not kept cell by cell
        self._indexes.clear()
        find, src_rows, out_rows = src.find, src._rows, self._rows
        for root in roots:
            row = src_rows[root]
            if not row:
                continue
            image = images[root]
            out_row = out_rows[image]
            for name, out_name in members:
                value = row.get(name)
                if value is None:
                    continue
                if isinstance(value, ElementId):
                    out_row[out_name] = images[find(value)]
                    continue
                if isinstance(value, NullRef):
                    value = src.resolve_value(value)
                    if isinstance(value, NullRef):
                        if nulls is not None:
                            first = nulls.get(value)
                            if first is None:
                                nulls[value] = (image, out_name)
                            else:
                                self.union_attrs(image, out_name, *first)
                        continue
                out_row[out_name] = value

    # -- saturation-level mutators ----------------------------------------------

    def get_fk(self, elem: ElementId, fk_name: str) -> Optional[ElementId]:
        """The target's class; None when unset or when ``fk_name`` is no foreign key."""
        target = self._rows[self.find(elem)].get(fk_name)
        return self.find(target) if isinstance(target, ElementId) else None

    def get_attr(self, elem: ElementId, attr_name: str) -> AttrValue:
        """The cell's resolved constant or null root; an unobserved cell
        reads as its own name, ``NullRef(root, attr_name)``, which has no
        entry in the null union-find. A read never writes."""
        root = self.find(elem)
        value = self._rows[root].get(attr_name)
        if value is None or isinstance(value, ElementId):  # a foreign key's name has no attr
            if self.schema.attr(root.entity, attr_name) is None:
                raise InstanceError(f"'{attr_name}' is not an attribute of entity '{root.entity}'")
            return NullRef(root, attr_name)
        return self.resolve_value(value)

    def row(self, root: ElementId) -> dict[str, Union[ElementId, AttrValue]]:
        """The class root's stored row, member name to foreign-key target
        or attribute cell, shared and not copied: callers only read it. A
        target is any member of its class (``find`` or ``export_id`` it), a
        stored cell goes through ``resolve_value``, and an attribute missing
        from the row is unobserved, so it holds no constant."""
        if self._parent.get(root) != root:
            raise InstanceError(f"{root} is not a class root")
        return self._rows[root]

    def _cell(self, root: ElementId, attr_name: str) -> AttrValue:
        """The value stored in a cell; an unobserved one first stores its
        own name and enters it in the null union-find. Only the writers
        call it, after ``_mutable``: a read never enters a name."""
        cells = self._rows[root]
        value = cells.get(attr_name)
        if value is None or isinstance(value, ElementId):
            if self.schema.attr(root.entity, attr_name) is None:
                raise InstanceError(f"'{attr_name}' is not an attribute of entity '{root.entity}'")
            value = cells[attr_name] = NullRef(root, attr_name)
            self._null_parent[value] = value
            self._observe(root, attr_name)
        return value

    def define_fk(self, elem: ElementId, fk_name: str, target: ElementId) -> bool:
        """Assign an unset foreign key, or merge the targets when already set."""
        self._mutable()
        root, tgt = self.find(elem), self.find(target)
        row = self._rows[root]
        current = row.get(fk_name)
        if not isinstance(current, ElementId):
            if self.schema.fk(root.entity, fk_name) is None:  # also an attribute's cell
                raise InstanceError(f"'{fk_name}' is not a foreign key of entity '{root.entity}'")
            row[fk_name] = tgt
            self._record((DEFINED, root.entity, fk_name))
            return True
        if self.find(current) == tgt:
            return False
        return self.merge_elements(current, tgt).changed

    def assign_attr(self, elem: ElementId, attr_name: str, value: Const) -> bool:
        """Anchor an attribute to a constant; clashes on a different constant."""
        self._mutable()
        root = self.find(elem)
        return self._unify_values(self._cell(root, attr_name), value, attr_name, root.name)

    def union_attrs(self, e1: ElementId, a1: str, e2: ElementId, a2: str) -> bool:
        """Force two attribute cells to hold the same value."""
        self._mutable()
        r1, r2 = self.find(e1), self.find(e2)
        return self._unify_values(
            self._cell(r1, a1), self._cell(r2, a2), f"{a1}/{a2}", f"{r1.name},{r2.name}"
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
            self._record((MERGED, winner.entity))
            self._carriers.pop(winner.entity, None)
            self._indexes.clear()
            self._parent[loser] = winner
            self._members.setdefault(winner, [winner]).extend(self._members.pop(loser, (loser,)))
            loser_row = self._rows.pop(loser)
            winner_row = self._rows[winner]
            names = []
            for name, value in loser_row.items():
                if not isinstance(value, ElementId):
                    names.append(name)
                elif name in winner_row:
                    work.append((winner_row[name], value))
                else:
                    winner_row[name] = value
            # Only cells both sides used are unified; the loser's unobserved
            # ones are dropped. Declaration order, so a clash names the same
            # attribute whatever order the cells were first used in.
            if len(names) > 1:
                rank, entity = self.schema.attr_rank, winner.entity
                names.sort(key=lambda name: rank[(entity, name)])
            observed = self._observed
            for name in names:
                value = loser_row[name]
                if observed is not None:
                    cells = observed[(winner.entity, name)]
                    cells.discard(loser)
                    cells.add(winner)
                current = winner_row.get(name)
                if current is None:
                    winner_row[name] = value
                else:
                    self._unify_values(current, value, name, winner.name)
        return report


def new_instance(schema: Schema, name: str = "instance") -> Instance:
    """An empty instance over a (valid) schema."""
    return Instance(schema, name)


# ---------------------------------------------------------------------------
# Path and term evaluation

Value = Union[ElementId, VirtualElem, Const, NullRef, _UndefinedType]


def eval_path(inst: Instance, elem: ElementId, path: Path) -> Value:
    """Follow a path from an element through canonical representatives.

    Returns UNDEFINED as soon as an unset foreign key is hit; an
    unobserved cell reads as itself, as in ``Instance.get_attr``.
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
    elements are UNDEFINED either way. Attribute reads mint nothing
    (``Instance.get_attr``). A function is UNDEFINED unless every argument
    is a constant and its result is defined (``typeside.apply_function``).
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
        result = apply_function(term.fn, args)
        return UNDEFINED if result is None else Const(term.fn.result, result)
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
    """Two values read from one state of ``inst`` are equal when their
    ``_join_key``s are; UNDEFINED equals nothing."""
    key = _join_key(inst, a)
    return key is not None and key == _join_key(inst, b)


Evaluator = Callable[[Instance, dict[str, Value], Term], Value]


def _virtual_value(inst: Instance, env: dict[str, Value], term: Term) -> Value:
    return eval_term(inst, env, term, virtual=True)


def render_value(inst: Instance, v: Union[ElementId, VirtualElem]) -> str:
    """A premise match's binding as ``check_model`` shows it: every variable
    is bound to an element, or by a pin to a virtual one."""
    if isinstance(v, VirtualElem):
        return f"{inst.export_id(v.base)}.{'.'.join(v.steps)}"
    return inst.export_id(v)


# ---------------------------------------------------------------------------
# Premise matching

def solve_pins(inst: Instance, c: Constraint, env: dict[str, Value]) -> dict[str, Value]:
    """Extend ``env`` with the pinned universals and return it.

    ``env`` binds the enumerated universals to class representatives; the
    pins of ``c.plan`` are solved in their order, each from its term. A pin
    is an entity-sorted path or variable over bound variables, so it is
    always an element or a virtual one.
    """
    for step in c.plan.pins:
        env[step.var] = eval_term(inst, env, step.pin, virtual=True)
    return env


def _atom_holds(
    inst: Instance, env: dict[str, Value], atom: Union[Eq, Cmp], evaluate: Evaluator = _virtual_value
) -> bool:
    """Does an atom hold under ``env``? An equation needs two equal values;
    a predicate needs two constants; undefined never holds."""
    lv, rv = evaluate(inst, env, atom.left), evaluate(inst, env, atom.right)
    if isinstance(atom, Eq):
        return values_equal(inst, lv, rv)
    if not (isinstance(lv, Const) and isinstance(rv, Const)):
        return False
    return apply_predicate(atom.op, lv.value, rv.value)


def _join_key(inst: Instance, value: Value) -> object:
    """A hash key for a value, None for UNDEFINED, which equals nothing.

    ``values_equal`` is equality of these keys, so a key lookup finds
    exactly the equal values. An element keys by its class, a virtual
    element by its base's class and steps, a constant by its type and
    value, and a null by its class's root name (an unobserved cell's name
    is its own); no two kinds share a key. A constant equals itself
    because the typeside computes no NaN (``typeside.representable``).
    """
    if isinstance(value, ElementId):
        return inst.find(value)
    if isinstance(value, VirtualElem):
        return (inst.find(value.base), value.steps)
    if isinstance(value, Const):
        return (value.type, value.value)
    if isinstance(value, NullRef):
        return inst.null_find(value)
    return None


class _Binder:
    """Binds the variables of a list of plan steps, depth first, in place.

    A probe yields exactly the candidates that satisfy its equation (the
    ``_join_key`` contract); a pin or a walk of observed cells only prunes.
    A candidate must pass its step's ``checks``, and the caller checks any
    other atom. Carriers and hash indexes are taken at most once per binder,
    from the instance as it is then, so a binder is used up before the
    instance changes.
    """

    def __init__(
        self, inst: Instance, steps: tuple[BindStep, ...], evaluate: Evaluator = _virtual_value
    ):
        self.inst = inst
        self.steps = steps
        self.evaluate = evaluate
        self.pools: list = [None] * len(steps)  # per step: carrier, walk or hash index

    @cached_property
    def passed(self) -> list[list[int]]:
        """Per step and check, the partial tuples that passed it."""
        return [[0] * len(step.checks) for step in self.steps]

    def bind(self, env: dict[str, Value], depth: int = 0) -> Iterator[dict[str, Value]]:
        """Yield ``env`` once per candidate combination that passes, in candidate order."""
        if depth == len(self.steps):
            yield env
            return
        step = self.steps[depth]
        for elem in self._candidates(depth, env):
            env[step.var] = elem
            if not step.checks or self._passes(depth, env):
                yield from self.bind(env, depth + 1)

    def _passes(self, depth: int, env: dict[str, Value]) -> bool:
        passed = self.passed[depth]
        for k, atom in enumerate(self.steps[depth].checks):
            if not _atom_holds(self.inst, env, atom, self.evaluate):
                return False
            passed[k] += 1
        return True

    def _candidates(self, depth: int, env: dict[str, Value]) -> Iterable[ElementId]:
        inst, step = self.inst, self.steps[depth]
        if step.pin is not None:
            value = self.evaluate(inst, env, step.pin)
            if isinstance(value, ElementId) and value.entity == step.entity:
                return (inst.find(value),)
            return ()
        pool = self.pools[depth]
        if pool is None:
            pool = self.pools[depth] = self._pool(step)
        if step.probe is None:
            return pool
        if not pool and step.observed is None:  # an empty carrier needs no probe value
            return ()
        key = _join_key(inst, self.evaluate(inst, env, step.probe[1]))
        bucket = pool.get(key)
        if bucket is not None:
            return bucket
        # an unobserved cell is in no index, and equals only reads of itself;
        # every null with an entry has an observed cell in its class
        if (isinstance(key, NullRef) and key.attr == step.observed
                and key.root.entity == step.entity):
            return (key.root,)
        return ()

    def _pool(self, step: BindStep) -> Union[list[ElementId], dict[object, list[ElementId]]]:
        """The carrier, or with a probe its hash index; buckets keep carrier
        order. A step with ``observed`` takes the shared lists of
        ``Instance.observed_cells`` instead."""
        if step.observed is not None:
            roots, index = self.inst.observed_cells(step.entity, step.observed)
            return roots if step.probe is None else index
        carrier = self.inst.carrier(step.entity)
        if step.probe is None:
            return carrier
        index: dict[object, list[ElementId]] = {}
        side = step.probe[0]
        for elem in carrier:
            key = _join_key(self.inst, self.evaluate(self.inst, {step.var: elem}, side))
            if key is not None:
                index.setdefault(key, []).append(elem)
        return index


def enumerate_matches(inst: Instance, c: Constraint) -> Iterator[dict[str, Value]]:
    """All premise matches, in lexicographic assignment order.

    The enumerated universals are bound by index probes, walks of observed
    cells or carrier scans (``Constraint.plan``); ``solve_pins`` then solves
    the pinned ones, and every premise atom no probe decided is checked.
    """
    plan = c.plan
    for env in _Binder(inst, plan.premise).bind({}):
        match = solve_pins(inst, c, dict(env))
        if all(_atom_holds(inst, match, atom) for atom in plan.checks):
            yield match


def conclusion_satisfied(inst: Instance, c: Constraint, env: dict[str, Value]) -> bool:
    """Is the conclusion already witnessed under the given premise match?

    With no existential the match itself is checked. A pinned existential
    has one candidate, an unpinned one its carrier; each combination is
    checked against the whole conclusion.
    """
    if not c.plan.conclusion:
        for eq in c.conclusion:
            if not _atom_holds(inst, env, eq):
                return False
        return True
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
    """Structural equality of the quotients, up to a renaming of null classes:
    the same entities, the same export ids, and ``_is_homomorphic`` over the
    classes paired by export id."""
    if a.schema.entities != b.schema.entities:
        return False
    mapping: dict[ElementId, ElementId] = {}
    for entity in a.schema.entities:
        ca, cb = a.carrier(entity), b.carrier(entity)
        if [a.export_id(e) for e in ca] != [b.export_id(e) for e in cb]:
            return False
        mapping.update(zip(ca, cb))
    return _is_homomorphic(a, b, mapping)


def cells_match(va: AttrValue, vb: AttrValue, nulls: dict) -> bool:
    """Do two cells read by ``get_attr``, one of each of two instances,
    agree? Constants must be equal; nulls must pair up in ``nulls``, the
    bijection between the two instances' null classes that this call
    extends, keyed by root name (an unobserved cell's name is its own)."""
    if isinstance(va, Const) or isinstance(vb, Const):
        return va == vb
    return nulls.setdefault((0, va), vb) == vb and nulls.setdefault((1, vb), va) == va


def _locally_compatible(
    sat: Instance, alt: Instance, a: ElementId, b: ElementId, nulls: Optional[dict] = None
) -> bool:
    """Matching cells and the same foreign keys set, for two elements of
    one entity. The null cells must pair up by ``nulls``, or without it
    within the element."""
    nulls = {} if nulls is None else nulls
    for attr in sat.schema.attrs_of(a.entity):
        if not cells_match(sat.get_attr(a, attr.name), alt.get_attr(b, attr.name), nulls):
            return False
    for fk in sat.schema.fks_of(a.entity):
        if (sat.get_fk(a, fk.name) is None) != (alt.get_fk(b, fk.name) is None):
            return False
    return True


def _is_homomorphic(sat: Instance, alt: Instance, mapping: dict[ElementId, ElementId]) -> bool:
    """Does ``mapping`` preserve the foreign keys and the cells, with one
    bijection between the null classes for all of them?"""
    nulls: dict = {}
    for root, image in mapping.items():
        if not _locally_compatible(sat, alt, root, image, nulls):
            return False
        for fk in sat.schema.fks_of(root.entity):
            ta = sat.get_fk(root, fk.name)
            if ta is None:
                continue
            tb = alt.get_fk(image, fk.name)
            if tb is None or mapping.get(ta) != tb:
                return False
    return True
