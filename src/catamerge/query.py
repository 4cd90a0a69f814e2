"""Evaluation of simple conjunctive queries over a saturated instance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import QueryError
from .instance import Const, Instance, NullRef, UNDEFINED, Value, _Binder, eval_term
from .schema import BindStep, Eq, Term, _probe, _term_vars, render_constant


class QuerySpec(NamedTuple):
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

    Runs on ``instance._Binder``. Each atom is checked at the first position
    that binds all its variables; only a position's first atom probes
    (``schema._probe``), so each filter count equals a nested loop's. Returns
    the atoms in check order, each with its count of passing partial tuples.
    """
    names = [name for name, _ in q.bindings]
    stages: list[list[Eq]] = [[] for _ in names]
    for atom in q.wheres:
        needed = _term_vars(atom.left) | _term_vars(atom.right)
        stages[max((i for i, name in enumerate(names) if name in needed), default=0)].append(atom)
    steps = tuple(
        BindStep(name, entity, probe=_probe(tuple(atoms[:1]), name, set(names[:i])), checks=tuple(atoms))
        for i, ((name, entity), atoms) in enumerate(zip(q.bindings, stages))
    )
    binder = _Binder(sat, steps, _where_value)
    for env in binder.bind({}):
        emit(env)
    return [(atom, n) for atoms, passed in zip(stages, binder.passed) for atom, n in zip(atoms, passed)]


def _where_value(sat: Instance, env: dict[str, Value], term: Term) -> Value:
    """A where-atom side's value; an undefined one is an error."""
    value = eval_term(sat, env, term)
    if value is UNDEFINED:
        raise QueryError("where-atom evaluation hit an undefined foreign key")
    return value


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
    rows: list[None] = []
    filters = _descend(q, sat, lambda env: rows.append(None))
    return JoinPlan(
        query=q.name,
        bindings=bindings,
        product_size=math.prod(size for _, _, size in bindings),
        filters=[(f"{render_term(a.left)} = {render_term(a.right)}", n) for a, n in filters],
        result_rows=len(rows),
    )
