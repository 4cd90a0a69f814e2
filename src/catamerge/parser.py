"""Parser for the engine's textual DSL (``.cmg`` files).

A file holds any number of top-level blocks: ``schema``, ``instance``,
``extension``, and ``query``. The parser is total: any byte string produces
either values or error diagnostics pointing at the offending token, never an
exception. ``#`` starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .errors import CatamergeError, InstanceError, SchemaError
from .instance import Instance
from .integrate import CombinedSchema, combine_schemas
from .query import QuerySpec
from .schema import (
    Attribute,
    Cmp,
    Const,
    Constraint,
    Eq,
    ExtensionSpec,
    ForeignKey,
    FunApp,
    Identification,
    Path,
    PathApp,
    Schema,
    Term,
    Var,
    validate_schema,
)
from .typeside import (
    BASE_TYPES_BY_NAME,
    BaseType,
    FUNCTION_NAMES,
    normalize_double,
    predicate_defined,
    resolve_function,
)

_MAX_TERM_DEPTH = 100


@dataclass
class SourceDocument:
    name: str
    text: str
    _line_starts: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._line_starts = [0] + [m.end() for m in re.finditer("\n", self.text)]

    def position(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) for a byte offset; always in range."""
        offset = max(0, min(offset, len(self.text)))
        lo, hi = 0, len(self._line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, offset - self._line_starts[lo] + 1

    def cursor(self) -> Callable[[int], tuple[int, int]]:
        """``position`` for offsets that never decrease, by a forward scan."""
        starts, row = self._line_starts, 0

        def position(offset: int) -> tuple[int, int]:
            nonlocal row
            while row + 1 < len(starts) and starts[row + 1] <= offset:
                row += 1
            return row + 1, offset - starts[row] + 1

        return position


@dataclass
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str
    file: str
    line: int
    column: int
    hint: Optional[str] = None

    def __str__(self) -> str:
        text = f"{self.file}:{self.line}:{self.column}: {self.severity}: {self.message}"
        return f"{text} ({self.hint})" if self.hint else text


@dataclass
class Token:
    kind: str
    text: str
    pos: int
    line: int
    column: int
    value: object = None


_KEYWORDS = frozenset(
    {
        "schema", "instance", "extension", "query", "entities", "foreign_keys",
        "attributes", "constraints", "include", "identify", "entity", "row",
        "forall", "where", "exists", "and", "from", "null", "true", "false",
    }
)
_TOP_LEVEL = frozenset({"schema", "instance", "extension", "query"})
_PUNCT2 = ("->", "<=", ">=")
_PUNCT1 = "{}():,.=<>"
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | _DIGITS


def tokenize(doc: SourceDocument, diags: list[Diagnostic]) -> list[Token]:
    text = doc.text
    tokens: list[Token] = []
    i, n = 0, len(text)
    position = doc.cursor()

    def emit(kind: str, start: int, end: int, value: object = None) -> None:
        line, col = position(start)
        tokens.append(Token(kind, text[start:end], start, line, col, value))

    def err(start: int, message: str) -> None:
        line, col = position(start)
        diags.append(Diagnostic("error", message, doc.name, line, col))

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _IDENT_START:
            start = i
            while i < n and text[i] in _IDENT_CONT:
                i += 1
            word = text[start:i]
            emit(word if word in _KEYWORDS else "ident", start, i)
            continue
        if ch in _DIGITS or (ch == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            start = i
            if ch == "-":
                i += 1
            while i < n and text[i] in _DIGITS:
                i += 1
            is_double = False
            if i + 1 < n and text[i] == "." and text[i + 1] in _DIGITS:
                is_double = True
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
            raw = text[start:i]
            if is_double:
                emit("double", start, i, normalize_double(float(raw)))
            else:
                emit("int", start, i, int(raw))
            continue
        if ch == '"':
            start = i
            i += 1
            out: list[str] = []
            closed = False
            while i < n:
                c = text[i]
                if c == '"':
                    i += 1
                    closed = True
                    break
                if c == "\n":
                    break
                if c == "\\" and i + 1 < n:
                    esc = text[i + 1]
                    out.append(_ESCAPES.get(esc, esc))
                    i += 2
                    continue
                out.append(c)
                i += 1
            if not closed:
                err(start, "unterminated string literal")
            emit("string", start, i, "".join(out))
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            emit(two, i, i + 2)
            i += 2
            continue
        if ch in _PUNCT1:
            emit(ch, i, i + 1)
            i += 1
            continue
        err(i, f"unexpected character {ch!r}")
        i += 1
    line, col = position(n)
    tokens.append(Token("eof", "", n, line, col))
    return tokens


# ---------------------------------------------------------------------------
# Raw syntax trees (tokens kept for positioned diagnostics)

@dataclass
class RName:
    parts: list[Token]

    @property
    def anchor(self) -> Token:
        return self.parts[0]


@dataclass
class RLit:
    token: Token
    const: Const

    @property
    def anchor(self) -> Token:
        return self.token


@dataclass
class RCall:
    name: Token
    args: list["RawTerm"]

    @property
    def anchor(self) -> Token:
        return self.name


RawTerm = Union[RName, RLit, RCall]


@dataclass
class RAtom:
    op: str
    op_token: Token
    left: RawTerm
    right: RawTerm


@dataclass
class RConstraint:
    keyword: Token
    universals: list[tuple[Token, Token]]
    premise: list[RAtom]
    existentials: list[tuple[Token, Token]]
    conclusion: list[RAtom]


@dataclass
class Document:
    schemas: dict[str, Schema] = field(default_factory=dict)
    instances: dict[str, Instance] = field(default_factory=dict)
    extensions: dict[str, ExtensionSpec] = field(default_factory=dict)
    queries: dict[str, QuerySpec] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


class _Abort(Exception):
    """Internal parser bail-out; always paired with a diagnostic."""


class _Parser:
    def __init__(self, doc: SourceDocument, env: Document):
        self.doc = doc
        self.env = env
        self.tokens = tokenize(doc, env.diagnostics)
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, token: Token, message: str, hint: Optional[str] = None) -> None:
        self.env.diagnostics.append(
            Diagnostic("error", message, self.doc.name, token.line, token.column, hint)
        )

    def fail(self, token: Token, message: str, hint: Optional[str] = None) -> "_Abort":
        self.error(token, message, hint)
        return _Abort()

    def expect(self, kind: str, what: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = what or f"'{kind}'"
            found = tok.text or "end of input"
            raise self.fail(tok, f"expected {shown}, found '{found}'")
        return self.advance()

    # -- document -----------------------------------------------------------

    def parse_document(self) -> None:
        while self.peek().kind != "eof":
            tok = self.peek()
            try:
                if tok.kind == "schema":
                    self.parse_schema_block()
                elif tok.kind == "instance":
                    self.parse_instance_block()
                elif tok.kind == "extension":
                    self.parse_extension_block()
                elif tok.kind == "query":
                    self.parse_query_block()
                else:
                    raise self.fail(
                        tok,
                        f"expected a top-level block, found '{tok.text or 'end of input'}'",
                        hint="top-level blocks are schema, instance, extension, query",
                    )
            except _Abort:
                self._sync_top_level()

    def _sync_top_level(self) -> None:
        if self.peek().kind in _TOP_LEVEL:
            self.advance()  # the failing block keyword itself; skip past it
        while self.peek().kind not in _TOP_LEVEL and self.peek().kind != "eof":
            self.advance()

    # -- schema blocks --------------------------------------------------------

    def parse_schema_block(self) -> None:
        self.expect("schema")
        name_tok = self.expect("ident", "schema name")
        self.expect("{")
        entity_toks: list[Token] = []
        fk_decls: list[tuple[Token, Token, Token]] = []
        attr_decls: list[tuple[Token, Token, Token]] = []
        raw_constraints: list[RConstraint] = []
        while True:
            tok = self.peek()
            if tok.kind == "}":
                self.advance()
                break
            if tok.kind == "entities":
                self.advance()
                while self.peek().kind == "ident":
                    entity_toks.append(self.advance())
            elif tok.kind == "foreign_keys":
                self.advance()
                while self.peek().kind == "ident":
                    fk_decls.append(self._parse_arrow_decl())
            elif tok.kind == "attributes":
                self.advance()
                while self.peek().kind == "ident":
                    attr_decls.append(self._parse_arrow_decl())
            elif tok.kind == "constraints":
                self.advance()
                while self.peek().kind == "forall":
                    raw_constraints.append(self.parse_raw_constraint())
            else:
                raise self.fail(tok, f"expected a schema section or '}}', found '{tok.text}'")

        entities: list[str] = []
        for tok in entity_toks:
            if tok.text in entities:
                self.error(tok, f"duplicate entity name '{tok.text}'")
            else:
                entities.append(tok.text)

        members: dict[str, set[str]] = {e: set() for e in entities}
        fks: list[ForeignKey] = []
        for name, src, tgt in fk_decls:
            ok = True
            if src.text not in members:
                self.error(src, f"'{src.text}' is not a declared entity")
                ok = False
            if tgt.text not in members:
                self.error(tgt, f"'{tgt.text}' is not a declared entity")
                ok = False
            if ok and name.text in members[src.text]:
                self.error(name, f"duplicate member name '{name.text}' on entity '{src.text}'")
                ok = False
            if ok:
                members[src.text].add(name.text)
                fks.append(ForeignKey(name.text, src.text, tgt.text))
        attrs: list[Attribute] = []
        for name, src, tgt in attr_decls:
            ok = True
            if src.text not in members:
                self.error(src, f"'{src.text}' is not a declared entity")
                ok = False
            base = BASE_TYPES_BY_NAME.get(tgt.text)
            if base is None:
                self.error(tgt, f"'{tgt.text}' is not a base type")
                ok = False
            if ok and name.text in members[src.text]:
                self.error(name, f"duplicate member name '{name.text}' on entity '{src.text}'")
                ok = False
            if ok:
                members[src.text].add(name.text)
                attrs.append(Attribute(name.text, src.text, base))

        schema = Schema(name_tok.text, tuple(entities), tuple(fks), tuple(attrs))
        constraints = []
        for raw in raw_constraints:
            c = self.resolve_constraint(raw, schema)
            if c is not None:
                constraints.append(c)
        schema = Schema(name_tok.text, tuple(entities), tuple(fks), tuple(attrs), tuple(constraints))
        report = validate_schema(schema)
        for issue in report.issues:
            self.error(name_tok, f"invalid schema: {issue}")
        if name_tok.text in self.env.schemas:
            self.error(name_tok, f"schema '{name_tok.text}' is already defined")
        else:
            self.env.schemas[name_tok.text] = schema

    def _parse_arrow_decl(self) -> tuple[Token, Token, Token]:
        name = self.expect("ident", "declaration name")
        self.expect(":")
        src = self.expect("ident", "source entity")
        self.expect("->")
        tgt = self.expect("ident", "target")
        return name, src, tgt

    # -- constraints ------------------------------------------------------------

    def parse_raw_constraint(self) -> RConstraint:
        keyword = self.expect("forall")
        universals = self.parse_binders()
        premise: list[RAtom] = []
        if self.peek().kind == "where":
            self.advance()
            premise.append(self.parse_raw_atom())
            while self.peek().kind == "and":
                self.advance()
                premise.append(self.parse_raw_atom())
        self.expect("->")
        existentials: list[tuple[Token, Token]] = []
        if self.peek().kind == "exists":
            self.advance()
            existentials = self.parse_binders()
            self.expect(",")
        conclusion = [self.parse_raw_atom()]
        while self.peek().kind == "and":
            self.advance()
            conclusion.append(self.parse_raw_atom())
        return RConstraint(keyword, universals, premise, existentials, conclusion)

    def parse_binders(self) -> list[tuple[Token, Token]]:
        pairs: list[tuple[Token, Token]] = []
        if self.peek().kind != "ident":
            raise self.fail(self.peek(), "expected a variable binder")
        while self.peek().kind == "ident":
            names = [self.advance()]
            while self.peek().kind == "ident":
                names.append(self.advance())
            self.expect(":")
            entity = self.expect("ident", "entity name")
            pairs.extend((n, entity) for n in names)
        return pairs

    def parse_raw_atom(self) -> RAtom:
        left = self.parse_raw_term()
        tok = self.peek()
        if tok.kind not in ("=", "<", ">", "<=", ">="):
            raise self.fail(tok, f"expected a comparison operator, found '{tok.text}'")
        self.advance()
        right = self.parse_raw_term()
        return RAtom(tok.kind, tok, left, right)

    def parse_raw_term(self, depth: int = 0) -> RawTerm:
        if depth > _MAX_TERM_DEPTH:
            raise self.fail(self.peek(), "term nesting too deep")
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            return RLit(tok, Const(BaseType.STRING, tok.value))
        if tok.kind == "int":
            self.advance()
            return RLit(tok, Const(BaseType.INT, tok.value))
        if tok.kind == "double":
            self.advance()
            return RLit(tok, Const(BaseType.DOUBLE, tok.value))
        if tok.kind in ("true", "false"):
            self.advance()
            return RLit(tok, Const(BaseType.BOOL, tok.kind == "true"))
        if tok.kind == "ident":
            name = self.advance()
            if self.peek().kind == "(":
                self.advance()
                args = [self.parse_raw_term(depth + 1)]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_raw_term(depth + 1))
                self.expect(")")
                return RCall(name, args)
            parts = [name]
            while self.peek().kind == ".":
                self.advance()
                parts.append(self.expect("ident", "path step"))
            return RName(parts)
        raise self.fail(tok, f"expected a term, found '{tok.text or 'end of input'}'")

    def resolve_constraint(
        self,
        raw: RConstraint,
        schema: Schema,
        entity_alias: Optional[dict[str, Optional[str]]] = None,
    ) -> Optional[Constraint]:
        binders: dict[str, str] = {}
        universals: list[tuple[str, str]] = []
        existentials: list[tuple[str, str]] = []
        ok = True
        for target, pairs in ((universals, raw.universals), (existentials, raw.existentials)):
            for name_tok, entity_tok in pairs:
                entity = self._resolve_entity(entity_tok, schema, entity_alias)
                if entity is None:
                    ok = False
                    continue
                if name_tok.text in binders:
                    self.error(name_tok, f"variable '{name_tok.text}' bound twice")
                    ok = False
                    continue
                binders[name_tok.text] = entity
                target.append((name_tok.text, entity))
        if not ok:
            return None

        premise: list = []
        for atom in raw.premise:
            resolved = self._resolve_atom(atom, binders, schema, allow_predicates=True)
            if resolved is None:
                ok = False
            else:
                premise.append(resolved)
        universal_names = {n for n, _ in universals}
        for atom in raw.premise:
            for side in (atom.left, atom.right):
                if isinstance(side, RName) and side.parts[0].text in binders:
                    if side.parts[0].text not in universal_names:
                        self.error(side.parts[0], "premise mentions an existential variable")
                        ok = False
        conclusion: list[Eq] = []
        for atom in raw.conclusion:
            if atom.op != "=":
                self.error(atom.op_token, "predicates are not allowed in conclusions")
                ok = False
                continue
            resolved = self._resolve_atom(atom, binders, schema, allow_predicates=False)
            if resolved is None:
                ok = False
            else:
                conclusion.append(resolved)
        if not ok:
            return None
        return Constraint(tuple(universals), tuple(premise), tuple(existentials), tuple(conclusion))

    def _resolve_entity(
        self,
        tok: Token,
        schema: Schema,
        alias: Optional[dict[str, Optional[str]]],
    ) -> Optional[str]:
        if schema.has_entity(tok.text):
            return tok.text
        if alias is not None and tok.text in alias:
            mapped = alias[tok.text]
            if mapped is None:
                self.error(
                    tok,
                    f"entity name '{tok.text}' is ambiguous in the combined schema",
                    hint="qualify with the <Schema>_<Entity> form",
                )
                return None
            return mapped
        self.error(tok, f"'{tok.text}' is not an entity of schema {schema.name}")
        return None

    def _resolve_atom(self, atom: RAtom, binders: dict[str, str], schema: Schema, *, allow_predicates: bool):
        left = self._resolve_term(atom.left, binders, schema)
        right = self._resolve_term(atom.right, binders, schema)
        if left is None or right is None:
            return None
        lt, rt = left[1], right[1]
        if atom.op == "=":
            promoted = self._promote_pair(left, right)
            if promoted is None:
                self.error(atom.op_token, f"equation relates '{lt}' with '{rt}'")
                return None
            return Eq(promoted[0][0], promoted[1][0])
        if not isinstance(lt, BaseType) or not isinstance(rt, BaseType):
            self.error(atom.op_token, f"predicate '{atom.op}' compares base-typed terms only")
            return None
        if not predicate_defined(atom.op, lt, rt):
            self.error(atom.op_token, f"predicate '{atom.op}' is undefined on ({lt}, {rt})")
            return None
        if not allow_predicates:
            self.error(atom.op_token, "predicates are not allowed here")
            return None
        return Cmp(atom.op, left[0], right[0])

    def _promote_pair(self, left: tuple[Term, object], right: tuple[Term, object]):
        lt, rt = left[1], right[1]
        if lt == rt:
            return left, right
        promoted_right = _promote_int_literal(right[0], rt, lt)
        if promoted_right is not None:
            return left, (promoted_right, lt)
        promoted_left = _promote_int_literal(left[0], lt, rt)
        if promoted_left is not None:
            return (promoted_left, rt), right
        return None

    def _resolve_term(
        self, raw: RawTerm, binders: dict[str, str], schema: Schema
    ) -> Optional[tuple[Term, object]]:
        if isinstance(raw, RLit):
            return raw.const, raw.const.type
        if isinstance(raw, RCall):
            if raw.name.text not in FUNCTION_NAMES:
                self.error(raw.name, f"unknown built-in function '{raw.name.text}'")
                return None
            args: list[tuple[Term, object]] = []
            for arg in raw.args:
                resolved = self._resolve_term(arg, binders, schema)
                if resolved is None:
                    return None
                if not isinstance(resolved[1], BaseType):
                    self.error(arg.anchor, "function arguments must be base-typed")
                    return None
                args.append(resolved)
            terms = [a[0] for a in args]
            types = tuple(a[1] for a in args)
            try:
                sig = resolve_function(raw.name.text, types)
            except SchemaError:
                promoted = _promote_args_to_double(terms, types)
                if promoted is None:
                    self.error(
                        raw.name,
                        f"no signature {raw.name.text}({', '.join(map(str, types))}) among built-ins",
                    )
                    return None
                terms, types = promoted
                try:
                    sig = resolve_function(raw.name.text, types)
                except SchemaError:
                    self.error(
                        raw.name,
                        f"no signature {raw.name.text}({', '.join(map(str, types))}) among built-ins",
                    )
                    return None
            return FunApp(sig, tuple(terms)), sig.result
        assert isinstance(raw, RName)
        head = raw.parts[0]
        if head.text not in binders:
            self.error(head, f"unbound variable '{head.text}'")
            return None
        entity = binders[head.text]
        if len(raw.parts) == 1:
            return Var(head.text), entity
        fk_names: list[str] = []
        attr_name: Optional[str] = None
        current = entity
        for i, tok in enumerate(raw.parts[1:]):
            if attr_name is not None:
                self.error(tok, f"cannot continue a path past attribute '{attr_name}'")
                return None
            fk = schema.fk(current, tok.text)
            if fk is not None:
                fk_names.append(tok.text)
                current = fk.target
                continue
            attr = schema.attr(current, tok.text)
            if attr is not None:
                attr_name = tok.text
                continue
            self.error(
                tok, f"'{tok.text}' is not a foreign key or attribute of entity '{current}'"
            )
            return None
        path = Path(entity, tuple(fk_names), attr_name)
        sort: object = current if attr_name is None else schema.attr(current, attr_name).type
        return PathApp(head.text, path), sort

    # -- instance blocks ----------------------------------------------------------

    def parse_instance_block(self) -> None:
        self.expect("instance")
        name_tok = self.expect("ident", "instance name")
        self.expect(":")
        schema_tok = self.expect("ident", "schema name")
        schema = self.env.schemas.get(schema_tok.text)
        if schema is None:
            raise self.fail(schema_tok, f"unknown schema '{schema_tok.text}'")
        self.expect("{")
        rows: list[tuple[Token, Token, list[tuple[Token, tuple]]]] = []
        while True:
            tok = self.peek()
            if tok.kind == "}":
                self.advance()
                break
            if tok.kind != "entity":
                raise self.fail(tok, f"expected 'entity' or '}}', found '{tok.text}'")
            self.advance()
            entity_tok = self.expect("ident", "entity name")
            self.expect("{")
            while self.peek().kind == "row":
                self.advance()
                row_tok = self._parse_row_id()
                self.expect("{")
                bindings: list[tuple[Token, tuple]] = []
                while self.peek().kind == "ident":
                    member = self.advance()
                    self.expect("=")
                    bindings.append((member, self._parse_binding_value()))
                self.expect("}")
                rows.append((entity_tok, row_tok, bindings))
            self.expect("}")

        inst = Instance(schema, name_tok.text)
        ok = True
        for entity_tok, row_tok, _ in rows:
            if not schema.has_entity(entity_tok.text):
                self.error(entity_tok, f"'{entity_tok.text}' is not an entity of schema {schema.name}")
                ok = False
                continue
            row_id = str(row_tok.value if row_tok.kind == "string" else row_tok.text)
            try:
                inst.add_element(entity_tok.text, row_id)
            except InstanceError as err:
                self.error(row_tok, str(err))
                ok = False
        for entity_tok, row_tok, bindings in rows:
            if not schema.has_entity(entity_tok.text):
                continue
            row_id = str(row_tok.value if row_tok.kind == "string" else row_tok.text)
            elem = inst.element_named(entity_tok.text, row_id)
            if elem is None:
                continue
            for member, value in bindings:
                ok &= self._apply_binding(inst, schema, entity_tok.text, elem, member, value)
        if name_tok.text in self.env.instances:
            self.error(name_tok, f"instance '{name_tok.text}' is already defined")
        elif ok:
            self.env.instances[name_tok.text] = inst

    def _parse_row_id(self) -> Token:
        tok = self.peek()
        if tok.kind == "string":
            return self.advance()
        first = self.expect("ident", "row id")
        text = first.text
        while self.peek().kind == ".":
            self.advance()
            text += "." + self.expect("ident", "row id part").text
        first.text = text
        return first

    def _parse_binding_value(self) -> tuple:
        tok = self.peek()
        if tok.kind == "null":
            self.advance()
            return ("null", tok)
        if tok.kind == "string":
            self.advance()
            return ("lit", Const(BaseType.STRING, tok.value), tok)
        if tok.kind == "int":
            self.advance()
            return ("lit", Const(BaseType.INT, tok.value), tok)
        if tok.kind == "double":
            self.advance()
            return ("lit", Const(BaseType.DOUBLE, tok.value), tok)
        if tok.kind in ("true", "false"):
            self.advance()
            return ("lit", Const(BaseType.BOOL, tok.kind == "true"), tok)
        if tok.kind == "ident":
            return ("ref", self._parse_row_id())
        raise self.fail(tok, f"expected a literal, row id, or null, found '{tok.text}'")

    def _apply_binding(
        self,
        inst: Instance,
        schema: Schema,
        entity: str,
        elem,
        member: Token,
        value: tuple,
    ) -> bool:
        fk = schema.fk(entity, member.text)
        attr = schema.attr(entity, member.text)
        if fk is not None:
            if value[0] == "ref":
                ref_tok, ref_name = value[1], value[1].text
            elif value[0] == "lit" and value[1].type is BaseType.STRING:
                ref_tok, ref_name = value[2], str(value[1].value)  # quoted row id
            else:
                self.error(value[-1], f"foreign key '{member.text}' expects a row id")
                return False
            target = inst.element_named(fk.target, ref_name)
            if target is None:
                self.error(ref_tok, f"'{ref_name}' is not a declared row of entity '{fk.target}'")
                return False
            try:
                inst.set_fk(elem, member.text, target)
            except InstanceError as err:
                self.error(ref_tok, str(err))
                return False
            return True
        if attr is not None:
            if value[0] == "null":
                return True
            if value[0] == "ref":
                self.error(value[1], f"attribute '{member.text}' expects a literal or null")
                return False
            const: Const = value[1]
            if const.type != attr.type:
                promoted = _promote_int_literal(const, const.type, attr.type)
                if promoted is None:
                    self.error(
                        value[2],
                        f"attribute '{member.text}' has type {attr.type}, got {const.type}",
                    )
                    return False
                const = promoted
            try:
                inst.set_attr(elem, member.text, const)
            except InstanceError as err:
                self.error(value[2], str(err))
                return False
            return True
        self.error(member, f"'{member.text}' is not a foreign key or attribute of entity '{entity}'")
        return False

    # -- extension blocks -----------------------------------------------------------

    def parse_extension_block(self) -> None:
        self.expect("extension")
        name_tok = self.expect("ident", "extension name")
        self.expect("{")
        includes: list[Token] = []
        idents: list[tuple[Token, Token, Token, Token]] = []
        raw_constraints: list[RConstraint] = []
        while True:
            tok = self.peek()
            if tok.kind == "}":
                self.advance()
                break
            if tok.kind == "include":
                self.advance()
                while self.peek().kind == "ident":
                    includes.append(self.advance())
            elif tok.kind == "identify":
                self.advance()
                sa = self.expect("ident", "schema name")
                self.expect(".")
                ea = self.expect("ident", "entity name")
                self.expect("=")
                sb = self.expect("ident", "schema name")
                self.expect(".")
                eb = self.expect("ident", "entity name")
                idents.append((sa, ea, sb, eb))
            elif tok.kind == "constraints":
                self.advance()
                while self.peek().kind == "forall":
                    raw_constraints.append(self.parse_raw_constraint())
            else:
                raise self.fail(tok, f"expected an extension section or '}}', found '{tok.text}'")

        schemas: list[Schema] = []
        ok = True
        for tok in includes:
            schema = self.env.schemas.get(tok.text)
            if schema is None:
                self.error(tok, f"unknown schema '{tok.text}'")
                ok = False
            elif any(s.name == tok.text for s in schemas):
                self.error(tok, f"schema '{tok.text}' included twice")
                ok = False
            else:
                schemas.append(schema)
        by_name = {s.name: s for s in schemas}
        identifications: list[Identification] = []
        for sa, ea, sb, eb in idents:
            pair_ok = True
            for s_tok, e_tok in ((sa, ea), (sb, eb)):
                schema = by_name.get(s_tok.text)
                if schema is None:
                    self.error(s_tok, f"'{s_tok.text}' is not an included schema")
                    pair_ok = False
                elif not schema.has_entity(e_tok.text):
                    self.error(e_tok, f"'{e_tok.text}' is not an entity of schema {s_tok.text}")
                    pair_ok = False
            if pair_ok and sa.text == sb.text:
                self.error(sa, "identifications may not merge two entities of one schema")
                pair_ok = False
            if pair_ok:
                identifications.append(Identification(sa.text, ea.text, sb.text, eb.text))
            else:
                ok = False
        if not ok:
            raise _Abort()

        structural = ExtensionSpec(name_tok.text, tuple(schemas), tuple(identifications))
        try:
            combined = combine_schemas(structural)
        except (SchemaError, CatamergeError) as err:
            raise self.fail(name_tok, str(err))

        alias = _entity_aliases(combined)
        constraints: list[Constraint] = []
        for raw in raw_constraints:
            c = self.resolve_constraint(raw, combined.schema, alias)
            if c is None:
                ok = False
            else:
                constraints.append(c)
        if not ok:
            return
        spec = ExtensionSpec(
            name_tok.text, tuple(schemas), tuple(identifications), tuple(constraints)
        )
        if name_tok.text in self.env.extensions:
            self.error(name_tok, f"extension '{name_tok.text}' is already defined")
        else:
            self.env.extensions[name_tok.text] = spec

    # -- query blocks -------------------------------------------------------------

    def parse_query_block(self, combined_override: Optional[CombinedSchema] = None) -> None:
        self.expect("query")
        name_tok = self.expect("ident", "query name")
        self.expect(":")
        ext_tok = self.expect("ident", "extension name")
        if combined_override is not None:
            if ext_tok.text != combined_override.schema.name:
                raise self.fail(ext_tok, f"query targets '{ext_tok.text}', expected "
                                         f"'{combined_override.schema.name}'")
            combined = combined_override
        else:
            ext = self.env.extensions.get(ext_tok.text)
            if ext is None:
                raise self.fail(ext_tok, f"unknown extension '{ext_tok.text}'")
            combined = combine_schemas(ext)
        schema = combined.schema
        alias = _entity_aliases(combined)
        self.expect("{")
        from_tok = self.expect("from")
        binder_pairs: list[tuple[Token, Token]] = []
        if self.peek().kind == "ident":
            binder_pairs = self.parse_binders()
        if not binder_pairs:
            raise self.fail(from_tok, "query needs at least one from-binding")
        binders: dict[str, str] = {}
        bindings: list[tuple[str, str]] = []
        ok = True
        for name, entity_tok in binder_pairs:
            entity = self._resolve_entity(entity_tok, schema, alias)
            if entity is None:
                ok = False
                continue
            if name.text in binders:
                self.error(name, f"variable '{name.text}' bound twice")
                ok = False
                continue
            binders[name.text] = entity
            bindings.append((name.text, entity))

        wheres: list[Eq] = []
        if self.peek().kind == "where":
            self.advance()
            while self.peek().kind in ("ident", "string", "int", "double", "true", "false"):
                atom = self.parse_raw_atom()
                if atom.op != "=":
                    self.error(atom.op_token, "query where-atoms are equalities only")
                    ok = False
                    continue
                resolved = self._resolve_atom(atom, binders, schema, allow_predicates=False)
                if resolved is None:
                    ok = False
                else:
                    wheres.append(resolved)

        projections: list[tuple[str, Term]] = []
        if self.peek().kind == "attributes":
            self.advance()
            while self.peek().kind == "ident":
                col = self.advance()
                self.expect("->")
                raw = self.parse_raw_term()
                resolved = self._resolve_term(raw, binders, schema)
                if resolved is None:
                    ok = False
                    continue
                term, sort = resolved
                if not isinstance(sort, BaseType):
                    self.error(raw.anchor, "projections must be attribute-valued")
                    ok = False
                    continue
                if any(c == col.text for c, _ in projections):
                    self.error(col, f"duplicate output column '{col.text}'")
                    ok = False
                    continue
                projections.append((col.text, term))
        self.expect("}")
        if not ok:
            return
        spec = QuerySpec(
            name_tok.text, ext_tok.text, tuple(bindings), tuple(wheres), tuple(projections)
        )
        if name_tok.text in self.env.queries:
            self.error(name_tok, f"query '{name_tok.text}' is already defined")
        else:
            self.env.queries[name_tok.text] = spec


def _promote_int_literal(term: Term, sort: object, wanted: object) -> Optional[Const]:
    if (
        sort is BaseType.INT
        and wanted is BaseType.DOUBLE
        and isinstance(term, Const)
    ):
        return Const(BaseType.DOUBLE, normalize_double(float(term.value)))  # type: ignore[arg-type]
    return None


def _promote_args_to_double(terms: list[Term], types: tuple) -> Optional[tuple[list[Term], tuple]]:
    new_terms: list[Term] = []
    new_types: list[BaseType] = []
    changed = False
    for term, sort in zip(terms, types):
        promoted = _promote_int_literal(term, sort, BaseType.DOUBLE)
        if promoted is not None:
            new_terms.append(promoted)
            new_types.append(BaseType.DOUBLE)
            changed = True
        else:
            new_terms.append(term)
            new_types.append(sort)
    if not changed:
        return None
    return new_terms, tuple(new_types)


def _entity_aliases(combined: CombinedSchema) -> dict[str, Optional[str]]:
    """Bare source-entity names usable when unambiguous (None = ambiguous)."""
    alias: dict[str, Optional[str]] = {}
    for (_schema, entity), combined_entity in combined.entity_class.items():
        if entity in alias and alias[entity] != combined_entity:
            alias[entity] = None
        elif entity not in alias:
            alias[entity] = combined_entity
    # Never shadow a real combined entity name.
    for entity in combined.schema.entities:
        alias.pop(entity, None)
    return alias


# ---------------------------------------------------------------------------
# Public operations

def parse_document(doc: SourceDocument, env: Optional[Document] = None) -> Document:
    """Parse every top-level block, appending into ``env`` when given."""
    env = env if env is not None else Document()
    _Parser(doc, env).parse_document()
    return env


def parse_schema(doc: SourceDocument) -> tuple[Optional[Schema], list[Diagnostic]]:
    env = parse_document(doc)
    schema = next(iter(env.schemas.values()), None)
    if schema is None and env.ok:
        env.diagnostics.append(Diagnostic("error", "no schema block found", doc.name, 1, 1))
    return schema, env.diagnostics


def parse_instance(doc: SourceDocument, schema: Schema) -> tuple[Optional[Instance], list[Diagnostic]]:
    env = Document()
    env.schemas[schema.name] = schema
    parse_document(doc, env)
    inst = next(iter(env.instances.values()), None)
    if inst is None and env.ok:
        env.diagnostics.append(Diagnostic("error", "no instance block found", doc.name, 1, 1))
    return inst, env.diagnostics


def parse_extension(
    doc: SourceDocument, schemas: dict[str, Schema]
) -> tuple[Optional[ExtensionSpec], list[Diagnostic]]:
    env = Document()
    env.schemas.update(schemas)
    parse_document(doc, env)
    ext = next(iter(env.extensions.values()), None)
    if ext is None and env.ok:
        env.diagnostics.append(Diagnostic("error", "no extension block found", doc.name, 1, 1))
    return ext, env.diagnostics


def parse_query(
    doc: SourceDocument, combined: CombinedSchema
) -> tuple[Optional[QuerySpec], list[Diagnostic]]:
    env = Document()
    parser = _Parser(doc, env)
    try:
        while parser.peek().kind != "eof":
            if parser.peek().kind == "query":
                parser.parse_query_block(combined_override=combined)
            else:
                parser.error(parser.peek(), "expected a query block")
                break
    except _Abort:
        pass
    query = next(iter(env.queries.values()), None)
    if query is None and env.ok:
        env.diagnostics.append(Diagnostic("error", "no query block found", doc.name, 1, 1))
    return query, env.diagnostics


def parse_constraint(
    text: str, schema: Schema, file_name: str = "<constraint>"
) -> tuple[Optional[Constraint], list[Diagnostic]]:
    doc = SourceDocument(file_name, text)
    env = Document()
    parser = _Parser(doc, env)
    constraint: Optional[Constraint] = None
    try:
        raw = parser.parse_raw_constraint()
        if parser.peek().kind != "eof":
            parser.error(parser.peek(), "trailing input after constraint")
        else:
            constraint = parser.resolve_constraint(raw, schema)
    except _Abort:
        pass
    return constraint, env.diagnostics
