"""Building the combined schema and moving data in and out of it.

``combine_schemas`` glues the included schemas along declared entity
identifications: identification classes become single entities carrying the
union of their members' foreign keys and attributes, everything else appears
prefixed ``<Schema>_<Name>``. ``sigma_insert`` copies source instances into
the combined schema disjointly; ``delta_project`` restricts a saturated
instance back to one source schema; ``roundtrip_report`` diffs an original
against its recovery cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IdentificationCollision, SchemaError
from .instance import Const, ElementId, Instance
from .schema import (
    Attribute,
    Cmp,
    Constraint,
    Eq,
    ExtensionSpec,
    ForeignKey,
    FunApp,
    Path,
    PathApp,
    Schema,
    Term,
    ValidationReport,
    Var,
    validate_schema,
)


@dataclass
class CombinedSchema:
    """The glued schema plus provenance back to every origin symbol."""

    schema: Schema
    extension: ExtensionSpec
    # (source schema, source entity) -> combined entity
    entity_class: dict[tuple[str, str], str] = field(default_factory=dict)
    # combined entity -> [(source schema, source entity), ...]
    class_members: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    # (source schema, source entity, member name) -> combined member name
    member_map: dict[tuple[str, str, str], str] = field(default_factory=dict)
    # (combined entity, combined member name) -> (source schema, source entity, name)
    member_origin: dict[tuple[str, str], tuple[str, str, str]] = field(default_factory=dict)

    def combined_entity(self, schema_name: str, entity: str) -> str:
        return self.entity_class[(schema_name, entity)]

    def combined_member(self, schema_name: str, entity: str, name: str) -> str:
        return self.member_map[(schema_name, entity, name)]


def validate_extension(ext: ExtensionSpec) -> ValidationReport:
    report = ValidationReport()
    names = [s.name for s in ext.schemas]
    if len(set(names)) != len(names):
        report.add(ext.name, "an extension may include each schema once")
    if not ext.schemas:
        report.add(ext.name, "an extension must include at least one schema")
    if ext.name in names:
        report.add(ext.name, "extension name collides with an included schema")
    for ident in ext.identifications:
        for schema_name, entity in (
            (ident.schema_a, ident.entity_a),
            (ident.schema_b, ident.entity_b),
        ):
            if schema_name not in names:
                report.add(ext.name, f"identification references unknown schema '{schema_name}'")
            else:
                schema = ext.schema_named(schema_name)
                if not schema.has_entity(entity):
                    report.add(
                        ext.name,
                        f"identification references unknown entity '{schema_name}.{entity}'",
                    )
        if ident.schema_a == ident.schema_b:
            report.add(
                ext.name,
                f"identification merges two entities of schema '{ident.schema_a}'; "
                "same-schema identifications are rejected",
            )
    return report


def combine_schemas(ext: ExtensionSpec) -> CombinedSchema:
    """Compute the schema colimit for a theory extension."""
    report = validate_extension(ext)
    if not report.ok:
        raise SchemaError(f"invalid extension {ext.name}: {report}")

    # Identifications generate an equivalence relation on (schema, entity).
    parent: dict[tuple[str, str], tuple[str, str]] = {}
    for s in ext.schemas:
        for e in s.entities:
            parent[(s.name, e)] = (s.name, e)

    def find(node: tuple[str, str]) -> tuple[str, str]:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    mentions: list[tuple[str, str]] = []
    for ident in ext.identifications:
        a = (ident.schema_a, ident.entity_a)
        b = (ident.schema_b, ident.entity_b)
        mentions.extend((a, b))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    combined = CombinedSchema(schema=Schema(ext.name), extension=ext)
    class_nodes: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for s in ext.schemas:
        for e in s.entities:
            class_nodes.setdefault(find((s.name, e)), []).append((s.name, e))

    # Merged classes take the bare entity name of their earliest mention in
    # the identification list; singletons are prefixed <Schema>_<Entity>.
    entity_names: list[str] = []
    for s in ext.schemas:
        for e in s.entities:
            root = find((s.name, e))
            nodes = class_nodes[root]
            if (s.name, e) != nodes[0]:
                continue  # emit each class once, at its first-included member
            # also through other schemas: delta_project maps each class to one entity
            schema_names = [schema_name for schema_name, _ in nodes]
            if len(set(schema_names)) < len(schema_names):
                twice = next(n for n in schema_names if schema_names.count(n) > 1)
                raise SchemaError(
                    f"identifications in extension {ext.name} merge two entities of schema "
                    f"'{twice}'; same-schema identifications are rejected"
                )
            if len(nodes) > 1:
                first = next(m for m in mentions if find(m) == root)
                name = first[1]
            else:
                name = f"{s.name}_{e}"
            if name in entity_names:
                raise IdentificationCollision(
                    f"combined entity name '{name}' is ambiguous in extension {ext.name}"
                )
            entity_names.append(name)
            for node in nodes:
                combined.entity_class[node] = name
            combined.class_members[name] = list(nodes)

    # Merge member signatures; same-named members from different origins are
    # disambiguated by origin prefix.
    fks: list[ForeignKey] = []
    attrs: list[Attribute] = []
    for entity_name, nodes in combined.class_members.items():
        raw: list[tuple[str, str, str, object]] = []  # (schema, entity, name, decl)
        for schema_name, src_entity in nodes:
            s = ext.schema_named(schema_name)
            for fk in s.fks_of(src_entity):
                raw.append((schema_name, src_entity, fk.name, fk))
            for attr in s.attrs_of(src_entity):
                raw.append((schema_name, src_entity, attr.name, attr))
        counts: dict[str, int] = {}
        for _, _, name, _ in raw:
            counts[name] = counts.get(name, 0) + 1
        used: set[str] = set()
        for schema_name, src_entity, name, decl in raw:
            out_name = name if counts[name] == 1 else f"{schema_name}_{name}"
            if out_name in used:
                raise IdentificationCollision(
                    f"member '{out_name}' of combined entity '{entity_name}' is "
                    f"ambiguous even after prefixing"
                )
            used.add(out_name)
            combined.member_map[(schema_name, src_entity, name)] = out_name
            combined.member_origin[(entity_name, out_name)] = (schema_name, src_entity, name)
            if isinstance(decl, ForeignKey):
                fks.append(
                    ForeignKey(out_name, entity_name, combined.entity_class[(schema_name, decl.target)])
                )
            else:
                assert isinstance(decl, Attribute)
                attrs.append(Attribute(out_name, entity_name, decl.type))

    constraints: list[Constraint] = []
    for s in ext.schemas:
        for c in s.constraints:
            constraints.append(_rewrite_constraint(c, s.name, combined))
    constraints.extend(ext.constraints)

    combined.schema = Schema(
        name=ext.name,
        entities=tuple(entity_names),
        foreign_keys=tuple(fks),
        attributes=tuple(attrs),
        constraints=tuple(constraints),
    )
    schema_report = validate_schema(combined.schema)
    if not schema_report.ok:
        raise SchemaError(f"combined schema for {ext.name} is invalid: {schema_report}")
    return combined


def _rewrite_constraint(c: Constraint, schema_name: str, combined: CombinedSchema) -> Constraint:
    """Import a source-schema constraint into the combined signature."""

    def map_entity(entity: str) -> str:
        return combined.entity_class[(schema_name, entity)]

    def map_path(path: Path) -> Path:
        entity = path.root
        fks = []
        schema = ext_schema(schema_name)
        current = entity
        for name in path.fks:
            fk = schema.fk(current, name)
            assert fk is not None
            fks.append(combined.combined_member(schema_name, current, name))
            current = fk.target
        attr = None
        if path.attr is not None:
            attr = combined.combined_member(schema_name, current, path.attr)
        return Path(map_entity(entity), tuple(fks), attr)

    def ext_schema(name: str) -> Schema:
        return combined.extension.schema_named(name)

    def map_term(t: Term) -> Term:
        if isinstance(t, Var):
            return t
        if isinstance(t, PathApp):
            return PathApp(t.var, map_path(t.path))
        if isinstance(t, FunApp):
            return FunApp(t.fn, tuple(map_term(a) for a in t.args))
        return t

    def map_atom(a):
        if isinstance(a, Eq):
            return Eq(map_term(a.left), map_term(a.right))
        return Cmp(a.op, map_term(a.left), map_term(a.right))

    return Constraint(
        universals=tuple((n, map_entity(e)) for n, e in c.universals),
        premise=tuple(map_atom(a) for a in c.premise),
        existentials=tuple((n, map_entity(e)) for n, e in c.existentials),
        conclusion=tuple(Eq(map_term(e.left), map_term(e.right)) for e in c.conclusion),
    )


# ---------------------------------------------------------------------------
# Data migration

def sigma_insert(combined: CombinedSchema, sources: dict[str, Instance]) -> Instance:
    """Disjointly copy every source instance into the combined schema.

    No constraint is enforced here; elements from different sources stay
    distinct until the chase merges them. Copied elements are named
    ``<Schema>.<row id>`` and remember their origin. Each source must be
    over the very schema the extension includes, not only one of that name.
    """
    ext = combined.extension
    out = Instance(combined.schema, name=f"{ext.name}_data")
    for s in ext.schemas:
        src = sources.get(s.name)
        if src is None:
            continue
        if src.schema != s:
            raise SchemaError(
                f"instance '{src.name}' is over schema '{src.schema.name}', "
                f"expected the schema '{s.name}' of extension {ext.name}"
            )
        images: dict[ElementId, ElementId] = {}
        carriers = []
        for entity in s.entities:
            combined_entity = combined.combined_entity(s.name, entity)
            roots = src.carrier(entity)
            for root in roots:
                row_id = root.name  # a root is its class's export id
                images[root] = out.add_element(
                    combined_entity, f"{s.name}.{row_id}", fresh=root.fresh, origin=(s.name, row_id)
                )
            carriers.append((entity, roots))
        nulls: dict[str, tuple[ElementId, str]] = {}  # null sharing within one source
        for entity, roots in carriers:
            out.copy_rows(src, roots, images, _renamings(combined, s, entity), nulls)
    return out


def delta_project(combined: CombinedSchema, saturated: Instance, target: Schema) -> Instance:
    """Restrict a saturated combined instance back to one source schema.

    Every class of a combined entity whose identification class contains a
    target entity becomes a target element: rows that originated in the
    target schema keep their row ids, anything else becomes a new row named
    by its class export id. Only constants are copied. ``target`` must be a
    schema the extension includes and ``saturated`` an instance over the
    combined schema.
    """
    ext = combined.extension
    if all(s != target for s in ext.schemas):
        raise SchemaError(f"schema '{target.name}' is not part of extension {ext.name}")
    if saturated.schema != combined.schema:
        raise SchemaError(
            f"instance '{saturated.name}' is over schema '{saturated.schema.name}', "
            f"not the combined schema of extension {ext.name}"
        )
    out = Instance(target, name=f"{saturated.name}_to_{target.name}")
    images: dict[ElementId, ElementId] = {}
    carriers = []
    for entity in target.entities:
        roots = saturated.carrier(combined.combined_entity(target.name, entity))
        for root in roots:
            own_ids = [
                saturated.origins[m][1]
                for m in saturated.members(root)
                if saturated.origins.get(m, ("", ""))[0] == target.name
            ]
            if own_ids:
                images[root] = out.add_element(entity, min(own_ids))
            else:
                images[root] = out.add_element(entity, root.name, fresh=True)
        carriers.append((entity, roots))
    for entity, roots in carriers:
        members = _renamings(combined, target, entity)
        out.copy_rows(saturated, roots, images, [(c, n) for n, c in members])
    return out


def _renamings(combined: CombinedSchema, schema: Schema, entity: str) -> list[tuple[str, str]]:
    """The members of an included schema's entity, each as (its name, its
    combined name): the foreign keys and then the attributes, each in
    declaration order."""
    member = combined.member_map
    return [
        (m.name, member[(schema.name, entity, m.name)])
        for m in (*schema.fks_of(entity), *schema.attrs_of(entity))
    ]


# ---------------------------------------------------------------------------
# Round-trip reporting

@dataclass
class TableDelta:
    entity: str
    rows_in: int = 0
    rows_recovered: int = 0
    attributes_gained: int = 0
    attributes_lost: int = 0
    new_rows: int = 0


@dataclass
class RoundTripReport:
    tables: list[TableDelta] = field(default_factory=list)

    def table(self, entity: str) -> TableDelta:
        for t in self.tables:
            if t.entity == entity:
                return t
        raise KeyError(entity)

    def render(self) -> str:
        headers = ("table", "rows_in", "rows_recovered", "gained", "lost", "new_rows")
        rows = [
            (
                t.entity,
                str(t.rows_in),
                str(t.rows_recovered),
                str(t.attributes_gained),
                str(t.attributes_lost),
                str(t.new_rows),
            )
            for t in self.tables
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        for r in rows:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)))
        return "\n".join(lines) + "\n"


def roundtrip_report(original: Instance, recovered: Instance) -> RoundTripReport:
    """Cell-wise diff: gained = null resolved to a constant, lost = an
    original constant with no matching counterpart."""
    if original.schema.name != recovered.schema.name:
        raise SchemaError("round-trip instances must share a schema")
    schema = original.schema
    report = RoundTripReport()
    for entity in schema.entities:
        delta = TableDelta(entity)
        orig_rows = {r.name: r for r in original.carrier(entity)}
        rec_rows = {r.name: r for r in recovered.carrier(entity)}
        matched = orig_rows.keys() & rec_rows.keys()
        delta.rows_in = len(orig_rows)
        delta.rows_recovered = len(matched)
        delta.new_rows = len(rec_rows) - len(matched)
        attrs = [a.name for a in schema.attrs_of(entity)]
        for rid, orig_root in orig_rows.items():
            orig_cells = original.row(orig_root)
            rec_root = rec_rows.get(rid)
            rec_cells = recovered.row(rec_root) if rec_root is not None else {}
            for name in attrs:
                ov, rv = orig_cells.get(name), rec_cells.get(name)
                if ov is not None:
                    ov = original.resolve_value(ov)
                if rv is not None:
                    rv = recovered.resolve_value(rv)
                if isinstance(ov, Const):
                    if not (isinstance(rv, Const) and rv.type == ov.type and rv.value == ov.value):
                        delta.attributes_lost += 1
                elif isinstance(rv, Const):
                    delta.attributes_gained += 1
        report.tables.append(delta)
    return report
