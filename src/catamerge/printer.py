"""Canonical text renderings: DSL blocks, CSV exports, aligned tables.

``print_canonical`` is deterministic and parseable back into a structurally
equal value (null labels and other internal identifiers are not preserved).

An instance is written row by row: each carrier root's stored cells are read
once through ``Instance.row``, its members walked in declaration order. A
root's name is its export id, a set foreign key writes its target's
``export_id``, and a cell writes only when its stored value resolves to a
constant; an unobserved cell, absent from the row, is written as nothing.
"""

from __future__ import annotations

import csv
import io

from .instance import Const, Instance
from .integrate import CombinedSchema
from .parser import _PLAIN_ID
from .query import QuerySpec, ResultTable
from .schema import (
    Constraint,
    Eq,
    ExtensionSpec,
    FunApp,
    PathApp,
    Schema,
    Term,
    Var,
    render_constant,
)
from .typeside import BaseType


def _quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def _literal(c: Const) -> str:
    if c.type is BaseType.STRING:
        return _quote(str(c.value))
    if c.type is BaseType.DOUBLE:
        return _double_literal(float(c.value))
    return render_constant(c)


def _double_literal(value: float) -> str:
    """The shortest digits that read back as ``value``, as ``repr`` gives
    them, but positional: the parser reads no exponent."""
    text = repr(value)
    if "e" not in text:
        return text
    from decimal import Decimal  # rare: imported only when needed

    text = format(Decimal(text), "f")
    return text if "." in text else f"{text}.0"


def _row_id(name: str) -> str:
    return name if _PLAIN_ID.fullmatch(name) else _quote(name)


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, PathApp):
        steps = t.path.steps()
        return f"{t.var}.{steps}" if steps else t.var
    if isinstance(t, Const):
        return _literal(t)
    assert isinstance(t, FunApp)
    return f"{t.fn.name}({', '.join(render_term(a) for a in t.args)})"


def render_constraint(c: Constraint) -> str:
    parts = ["forall"]
    parts.append(_render_binders(c.universals))
    if c.premise:
        atoms = []
        for atom in c.premise:
            op = "=" if isinstance(atom, Eq) else atom.op
            atoms.append(f"{render_term(atom.left)} {op} {render_term(atom.right)}")
        parts.append("where " + " and ".join(atoms))
    parts.append("->")
    if c.existentials:
        parts.append("exists " + _render_binders(c.existentials) + ",")
    parts.append(" and ".join(f"{render_term(e.left)} = {render_term(e.right)}" for e in c.conclusion))
    return " ".join(parts)


def _render_binders(binders: tuple[tuple[str, str], ...]) -> str:
    groups: list[tuple[list[str], str]] = []
    for name, entity in binders:
        if groups and groups[-1][1] == entity:
            groups[-1][0].append(name)
        else:
            groups.append(([name], entity))
    return " ".join(f"{' '.join(names)} : {entity}" for names, entity in groups)


def _print_schema(s: Schema) -> str:
    lines = [f"schema {s.name} {{"]
    if s.entities:
        lines.append("  entities " + " ".join(s.entities))
    if s.foreign_keys:
        lines.append("  foreign_keys")
        for fk in s.foreign_keys:
            lines.append(f"    {fk.name} : {fk.source} -> {fk.target}")
    if s.attributes:
        lines.append("  attributes")
        for a in s.attributes:
            lines.append(f"    {a.name} : {a.source} -> {a.type}")
    if s.constraints:
        lines.append("  constraints")
        for c in s.constraints:
            lines.append(f"    {render_constraint(c)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_instance(inst: Instance) -> str:
    lines = [f"instance {inst.name} : {inst.schema.name} {{"]
    export_id, resolve = inst.export_id, inst.resolve_value
    for entity in inst.schema.entities:
        classes = inst.carrier(entity)
        if not classes:
            continue
        lines.append(f"  entity {entity} {{")
        fks = [fk.name for fk in inst.schema.fks_of(entity)]
        attrs = [a.name for a in inst.schema.attrs_of(entity)]
        for root in classes:
            row = inst.row(root)
            bindings = []
            for name in fks:
                target = row.get(name)
                if target is not None:
                    bindings.append(f"{name} = {_row_id(export_id(target))}")
            for name in attrs:
                value = row.get(name)
                if value is not None:
                    value = resolve(value)
                if isinstance(value, Const):
                    bindings.append(f"{name} = {_literal(value)}")
            body = " ".join(bindings)
            body = f" {body} " if body else " "
            lines.append(f"    row {_row_id(root.name)} {{{body}}}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_extension(ext: ExtensionSpec) -> str:
    lines = [f"extension {ext.name} {{"]
    if ext.schemas:
        lines.append("  include " + " ".join(s.name for s in ext.schemas))
    for ident in ext.identifications:
        lines.append(
            f"  identify {ident.schema_a}.{ident.entity_a} = {ident.schema_b}.{ident.entity_b}"
        )
    if ext.constraints:
        lines.append("  constraints")
        for c in ext.constraints:
            lines.append(f"    {render_constraint(c)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_query(q: QuerySpec) -> str:
    lines = [f"query {q.name} : {q.extension} {{"]
    lines.append("  from " + " ".join(f"{v} : {e}" for v, e in q.bindings))
    if q.wheres:
        lines.append("  where")
        for atom in q.wheres:
            lines.append(f"    {render_term(atom.left)} = {render_term(atom.right)}")
    if q.projections:
        lines.append("  attributes")
        for col, term in q.projections:
            lines.append(f"    {col} -> {render_term(term)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def print_canonical(value) -> str:
    """Deterministic DSL rendering of a schema, instance, extension or query."""
    if isinstance(value, CombinedSchema):
        return _print_schema(value.schema)
    if isinstance(value, Schema):
        return _print_schema(value)
    if isinstance(value, Instance):
        return _print_instance(value)
    if isinstance(value, ExtensionSpec):
        return _print_extension(value)
    if isinstance(value, QuerySpec):
        return _print_query(value)
    raise TypeError(f"cannot print {type(value).__name__}")


# ---------------------------------------------------------------------------
# CSV and aligned tables

def instance_csvs(inst: Instance) -> dict[str, str]:
    """One CSV per entity: id column, foreign keys, attributes.

    Unset foreign keys and unanchored nulls render as empty cells.
    """
    out: dict[str, str] = {}
    export_id, resolve = inst.export_id, inst.resolve_value
    for entity in inst.schema.entities:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        fks = [fk.name for fk in inst.schema.fks_of(entity)]
        attrs = [a.name for a in inst.schema.attrs_of(entity)]
        writer.writerow(["id", *fks, *attrs])
        for root in inst.carrier(entity):
            stored = inst.row(root)
            row = [root.name]
            for name in fks:
                target = stored.get(name)
                row.append("" if target is None else export_id(target))
            for name in attrs:
                value = stored.get(name)
                if value is not None:
                    value = resolve(value)
                row.append(render_constant(value) if isinstance(value, Const) else "")
            writer.writerow(row)
        out[entity] = buf.getvalue()
    return out


def result_table_csv(table: ResultTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow(row)
    return buf.getvalue()


def aligned_table(table: ResultTable) -> str:
    widths = [len(c) for c in table.columns]
    for row in table.rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(c.ljust(widths[i]) for i, c in enumerate(table.columns)).rstrip()]
    for row in table.rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
