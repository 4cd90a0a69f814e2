"""Evaluation of simple conjunctive queries over a saturated instance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .errors import QueryError
from .instance import (
    Const,
    ElementId,
    Instance,
    NullRef,
    UNDEFINED,
    Value,
    _join_key,
    eval_term,
    values_equal,
)
from .schema import Eq, Term, _probe


@dataclass(frozen=True)
class QuerySpec:
    """from-bindings, where-equations, attribute projections."""

    name: str
    extension: str
    bindings: tuple[tuple[str, str], ...]  # (variable, entity) in declaration order
    wheres: tuple[Eq, ...]
    projections: tuple[tuple[str, Term], ...]  # (output column, term)


@dataclass
class ResultTable:
    columns: tuple[str, ...]
    rows: list[tuple[str, ...]] = field(default_factory=list)


def _render_cell(inst: Instance, value: Value) -> str:
    from .printer import render_constant

    if value is UNDEFINED:
        raise QueryError("path evaluation hit an undefined foreign key")
    if isinstance(value, NullRef):
        return "-"
    if isinstance(value, Const):
        return render_constant(value)
    raise QueryError("projections must be attribute-valued")


def evaluate(q: QuerySpec, sat: Instance) -> ResultTable:
    """Rows of the from-bindings that satisfy the where-atoms, projected.

    The bindings are joined by ``_descend``. Rows come out lexicographically
    over the canonical ids of the bound tuple; labelled nulls render as "-".
    """
    table = ResultTable(columns=tuple(name for name, _ in q.projections))

    def emit(env: dict[str, Value]) -> None:
        row = tuple(_render_cell(sat, eval_term(sat, env, term)) for _, term in q.projections)
        table.rows.append(row)

    _descend(q, sat, emit)
    return table


def _descend(
    q: QuerySpec, sat: Instance, emit: Callable[[dict[str, Value]], None]
) -> list[tuple[Eq, int]]:
    """Bind the from-variables in order and call ``emit`` on every full tuple
    that passes the where-atoms, in lexicographic order of the bound tuple.

    Each atom is applied as soon as its variables are bound, so the full
    product is never materialized. When the first atom applied at a position
    equates that position's variable to a term over earlier ones
    (``schema._probe``), the position is bound from a hash index of its
    carrier, built on first use, instead of a scan; every atom is still
    checked on each candidate. Returns the atoms in the order they are
    applied, each with the number of partial tuples that passed it.
    """
    carriers = [sat.carrier(entity) for _, entity in q.bindings]
    names = [name for name, _ in q.bindings]

    # Pre-compute, per binding position, which atoms become checkable there.
    stage: list[list[int]] = [[] for _ in q.bindings]
    for k, atom in enumerate(q.wheres):
        needed = _atom_vars(atom)
        last = 0
        for i, name in enumerate(names):
            if name in needed:
                last = i
        stage[last].append(k)
    passed = [0] * len(q.wheres)
    # Only a stage's first atom probes, so every atom still sees exactly the
    # partial tuples the scan would show it and the filter counts are kept.
    probes = [
        _probe((q.wheres[ks[0]],), names[d], set(names[:d])) if ks else None
        for d, ks in enumerate(stage)
    ]
    indexes: list[Optional[tuple[dict[object, list[ElementId]], bool]]] = [None] * len(names)

    def candidates(depth: int, env: dict[str, Value]) -> Iterable[ElementId]:
        carrier, probe = carriers[depth], probes[depth]
        if probe is None or not carrier:
            return carrier
        if indexes[depth] is None:
            indexes[depth] = _index(sat, names[depth], carrier, probe[0])
        index, side_undefined = indexes[depth]
        other = eval_term(sat, env, probe[1])
        # the scan evaluates both sides for every carrier element
        if side_undefined or other is UNDEFINED:
            raise QueryError(_UNDEFINED_WHERE)
        return index.get(_join_key(sat, other), ())

    def descend(depth: int, env: dict[str, Value]) -> None:
        if depth == len(carriers):
            emit(env)
            return
        for elem in candidates(depth, env):
            env[names[depth]] = elem
            ok = True
            for k in stage[depth]:
                atom = q.wheres[k]
                lv = eval_term(sat, env, atom.left)
                rv = eval_term(sat, env, atom.right)
                if lv is UNDEFINED or rv is UNDEFINED:
                    raise QueryError(_UNDEFINED_WHERE)
                if not values_equal(sat, lv, rv):
                    ok = False
                    break
                passed[k] += 1
            if ok:
                descend(depth + 1, env)
        env.pop(names[depth], None)

    descend(0, {})
    return [(q.wheres[k], passed[k]) for ks in stage for k in ks]


_UNDEFINED_WHERE = "where-atom evaluation hit an undefined foreign key"


def _index(
    sat: Instance, name: str, carrier: list[ElementId], side: Term
) -> tuple[dict[object, list[ElementId]], bool]:
    """Hash index of ``carrier`` by the join key of ``side``, buckets in
    carrier order, and whether ``side`` was undefined on any element."""
    index: dict[object, list[ElementId]] = {}
    undefined = False
    for elem in carrier:
        value = eval_term(sat, {name: elem}, side)
        if value is UNDEFINED:
            undefined = True
        else:
            index.setdefault(_join_key(sat, value), []).append(elem)
    return index, undefined


def _atom_vars(atom: Eq) -> set[str]:
    from .schema import _term_vars

    return _term_vars(atom.left) | _term_vars(atom.right)


# ---------------------------------------------------------------------------
# Plans

@dataclass
class JoinPlan:
    """How ``evaluate`` runs a query. Each filter count is the number of
    partial tuples that passed the atom; filters are listed in the order the
    descent applies them."""

    query: str
    bindings: list[tuple[str, str, int]]  # (variable, entity, carrier size)
    product_size: int
    filters: list[tuple[str, int]]  # (rendered atom, partial tuples passed)
    result_rows: int

    @property
    def empty(self) -> bool:
        return self.result_rows == 0

    def render(self) -> str:
        lines = [f"plan for {self.query}:"]
        for var, entity, size in self.bindings:
            lines.append(f"  bind {var} : {entity} ({size} rows)")
        lines.append(f"  cross product: {self.product_size} tuples")
        for atom, rows in self.filters:
            lines.append(f"  filter {atom} -> {rows} tuples")
        lines.append(f"  result: {self.result_rows} rows")
        if self.empty:
            lines.append("  note: empty result")
        return "\n".join(lines) + "\n"


def explain(q: QuerySpec, sat: Instance) -> JoinPlan:
    """Describe the evaluation: binding order, filters, and cardinalities."""
    from .printer import render_term

    bindings = [(name, entity, len(sat.carrier(entity))) for name, entity in q.bindings]
    rows = 0

    def count(env: dict[str, Value]) -> None:
        nonlocal rows
        rows += 1

    filters = _descend(q, sat, count)
    return JoinPlan(
        query=q.name,
        bindings=bindings,
        product_size=math.prod(size for _, _, size in bindings),
        filters=[(f"{render_term(a.left)} = {render_term(a.right)}", n) for a, n in filters],
        result_rows=rows,
    )
