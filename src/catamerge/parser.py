"""Parser for the engine's textual DSL (``.cmg`` files).

A file holds any number of top-level blocks: ``schema``, ``instance``,
``extension``, and ``query``. The parser is total: any byte string produces
either values or error diagnostics pointing at the offending token, never an
exception. ``#`` starts a line comment.

A token keeps only its offset into the text. Line and column are computed
from that offset only when a diagnostic is made.

A well-formed instance row, ``row ID { member = value ... }``, is one token:
the ``row`` pattern matches its header, ``row ID {``, the tokenizer walks its
bindings one match each to the closing brace, and decodes the id and bindings,
each with its offset, into the token's value. A row the walk cannot finish
reaches the parser as single tokens, and the descent over them reports it.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import CatamergeError, InstanceError, SchemaError
from .instance import ElementId, Instance
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
)
from .typeside import (
    BASE_TYPES_BY_NAME,
    BaseType,
    FUNCTION_NAMES,
    has_signature,
    normalize_double,
    predicate_defined,
    representable,
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
        line = bisect.bisect_right(self._line_starts, offset)
        return line, offset - self._line_starts[line - 1] + 1


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


@dataclass(slots=True)
class Token:
    kind: str
    text: str
    pos: int
    value: object = None


_KEYWORDS = frozenset(
    {
        "schema", "instance", "extension", "query", "entities", "foreign_keys",
        "attributes", "constraints", "include", "identify", "entity", "row",
        "forall", "where", "exists", "and", "from", "null", "true", "false",
    }
)
_TOP_LEVEL = frozenset({"schema", "instance", "extension", "query"})
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_ESCAPE = re.compile(r"\\(.)", re.S)
_COMMENT = re.compile(r"#[^\n]*")
_LITERAL_TYPES = {"string": BaseType.STRING, "int": BaseType.INT, "double": BaseType.DOUBLE}


def _skip(group: str) -> str:
    """Whitespace and ``#`` comments, skipped atomically. The lookahead
    captures the longest skip and the backreference consumes it, so a match
    that fails later never backtracks into the skip: it neither gives a
    comment's tail back to the pattern after it nor retries shorter skips,
    which can take time exponential in the skip's length. ``(?>...)`` would
    do the same but needs Python 3.11."""
    return rf"(?=(?P<{group}>[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*))(?P={group})"


# The pieces of a well-formed instance row, each written once for the row
# patterns and the token classes. Each ends where its token ends: a name at a
# non-word character. A number needs no guard, since a shorter match would
# leave a digit or a '.' where a name or the closing brace must follow. A
# backslash in a string escapes any character, a newline too, whatever the
# flags. A name may be a keyword here; ``_decode_row`` refuses the row then.
_END = r"(?![A-Za-z0-9_])"
_NAME = rf"[A-Za-z_][A-Za-z0-9_]*{_END}"
_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?"
_STRING_BODY = r'[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*'
_QUOTED = f'"{_STRING_BODY}"'
_FLAGS = re.S | re.X


def _dotted(tag: str) -> str:
    return rf"{_NAME}(?:{_skip(tag + 'a')}\.{_skip(tag + 'b')}{_NAME})*"


# One ``member = value`` and the skip after it, so that a row's bindings
# match one after the other with no gap; no other pattern matches one.
_BINDING_SOURCE = (
    rf"(?P<member>{_NAME}){_skip('sm')}={_skip('se')}"
    rf"(?P<value>(?:null|true|false){_END}|{_QUOTED}|{_NUMBER}|{_dotted('sr')})"
    rf"{_skip('sv')}"
)
_BINDING = re.compile(_BINDING_SOURCE, _FLAGS)
_ROW_HEADER = (
    rf"row{_END}{_skip('s1')}(?P<id>{_QUOTED}|{_dotted('si')}){_skip('s2')}\{{{_skip('s3')}"
)
# One match per token: skip whitespace and comments, then take one token
# class; only at the end of the text is there no token. The skip group ends
# where the token starts. A ``row`` match is a row's header, ``row ID {``;
# any other row is read on from its ``row`` keyword as a ``word``.
_TOKEN = re.compile(
    _skip("skip")
    + rf"""(?:(?P<row>{_ROW_HEADER})
      |(?P<word>[A-Za-z_][A-Za-z0-9_]*)
      |(?P<number>{_NUMBER})
      |(?P<string>"(?P<body>{_STRING_BODY}\\?)(?P<close>"?))
      |(?P<punct>->|<=|>=|[{{}}():,.=<>])
      |(?P<other>.))?""",
    _FLAGS,
)


def tokenize(doc: SourceDocument, diags: list[Diagnostic]) -> list[Token]:
    text = doc.text
    tokens: list[Token] = []
    append = tokens.append

    def err(start: int, message: str) -> None:
        line, col = doc.position(start)
        diags.append(Diagnostic("error", message, doc.name, line, col))

    pos, match = 0, _TOKEN.match
    while (kind := (m := match(text, pos)).lastgroup) != "skip":  # no token: the end
        start, pos = m.end("skip"), m.end()
        if kind == "row":
            reported = len(diags)
            value, pos = _decode_row(m, err) or (None, start + len("row"))
            if value is None:  # not a well-formed row: scan it token by token
                del diags[reported:]
            append(Token("row", "row", start, value))
        elif kind == "word":
            lexeme = m[kind]
            append(Token(lexeme if lexeme in _KEYWORDS else "ident", lexeme, start))
        elif kind == "punct":
            lexeme = m[kind]
            append(Token(lexeme, lexeme, start))
        elif kind == "number":
            lexeme = m[kind]
            kind, value = _number(lexeme, start, err)
            append(Token(kind, lexeme, start, value))
        elif kind == "string":
            if not m["close"]:
                err(start, "unterminated string literal")
            append(Token("string", m[kind], start, _unescape(m["body"])))
        else:
            err(start, f"unexpected character {m[kind]!r}")
    tokens.append(Token("eof", "", len(text)))
    return tokens


def _unescape(body: str) -> str:
    return _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], e[1]), body) if "\\" in body else body


def _number(lexeme: str, start: int, err) -> tuple[str, object]:
    """The kind and value of a number token."""
    if "." in lexeme:
        value = float(lexeme)
        if not representable(value):  # past the float range: it would print as inf
            err(start, "double literal out of range")
            return "double", 0.0
        return "double", normalize_double(value)
    try:  # int() applies the digit limit that representable() reads
        return "int", int(lexeme)
    except ValueError:  # more digits than the interpreter's int() converts
        err(start, "integer literal too long")
        return "int", 0


def _join_dotted(raw: str) -> str:
    """A dotted name as the token path joins its parts: without the
    whitespace and comments between them."""
    if raw.isidentifier():
        return raw
    if "#" in raw:
        raw = _COMMENT.sub("", raw)
    return "".join(raw.split())


# A decoded row binding: (member, its offset, "null" | "lit" | "ref", None or
# the literal's Const or the referenced row id, the value's offset).
Binding = tuple[str, int, str, object, int]


def _has_keyword(name: str) -> bool:
    """Whether a plain or dotted name has a keyword as a part."""
    return name in _KEYWORDS or ("." in name and not _KEYWORDS.isdisjoint(name.split(".")))


_PLAIN_PART = rf"(?!(?:{'|'.join(sorted(_KEYWORDS))}){_END}){_NAME}"
# A row id that reads back unquoted: a plain or dotted name with no keyword
# as a part (``_has_keyword``), in one match, since the printer tests each id.
_PLAIN_ID = re.compile(rf"{_PLAIN_PART}(?:\.{_PLAIN_PART})*")


def _decode_row(m: re.Match, err) -> Optional[tuple[tuple[str, int, list[Binding]], int]]:
    """The row id, its offset and the bindings of the row whose header
    ``m`` matched, as the token path builds them, and the offset past its
    closing brace; None when the walk of its bindings stops short of the
    brace or a keyword stands where a name goes: the token path reads it."""
    raw = m["id"]
    if raw[0] == '"':
        row_id = _unescape(raw[1:-1])
    elif _has_keyword(row_id := _join_dotted(raw)):
        return None
    text, pos, match = m.string, m.end(), _BINDING.match
    bindings: list[Binding] = []
    while (b := match(text, pos)) is not None:
        member, raw, at = b["member"], b["value"], b.start("value")
        if member in _KEYWORDS:
            return None
        head = raw[0]
        if head == '"':
            kind, value = "lit", Const(BaseType.STRING, _unescape(raw[1:-1]))
        elif head in "-0123456789":
            kind, number = _number(raw, at, err)
            kind, value = "lit", Const(_LITERAL_TYPES[kind], number)
        elif raw == "null":
            kind, value = "null", None
        elif raw == "true" or raw == "false":
            kind, value = "lit", Const(BaseType.BOOL, raw == "true")
        elif _has_keyword(value := _join_dotted(raw)):
            return None
        else:
            kind = "ref"
        bindings.append((member, pos, kind, value, at))
        pos = b.end()
    if not text.startswith("}", pos):
        return None
    return (row_id, m.start("id"), bindings), pos + 1


def _literal(tok: Token) -> Optional[Const]:
    """The constant a literal token stands for; None for any other token."""
    if tok.kind in ("true", "false"):
        return Const(BaseType.BOOL, tok.kind == "true")
    base = _LITERAL_TYPES.get(tok.kind)
    return None if base is None else Const(base, tok.value)


# ---------------------------------------------------------------------------
# Raw syntax trees (tokens kept for positioned diagnostics)

# Only an ``RName`` can be entity-sorted: a literal and a call are base-typed.
@dataclass
class RName:
    parts: list[Token]


@dataclass
class RLit:
    token: Token
    const: Const


@dataclass
class RCall:
    name: Token
    args: list["RawTerm"]


RawTerm = Union[RName, RLit, RCall]


def _raw_names(term: RawTerm) -> Iterator[RName]:
    """The names in a raw term, at any depth, left to right."""
    if isinstance(term, RName):
        yield term
    elif isinstance(term, RCall):
        for arg in term.args:
            yield from _raw_names(arg)


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
    # extensions whose block was reported and refused; a query over one
    # gets no second diagnostic
    refused_extensions: set[str] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not any(d.severity == "error" for d in self.diagnostics)


class _Abort(Exception):
    """Internal parser bail-out; always paired with a diagnostic, at the
    failing block or at the extension block it names."""


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
        self.error_at(token.pos, message, hint)

    def error_at(self, pos: int, message: str, hint: Optional[str] = None) -> None:
        line, col = self.doc.position(pos)
        self.env.diagnostics.append(Diagnostic("error", message, self.doc.name, line, col, hint))

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
        const = _literal(tok)
        if const is not None:
            self.advance()
            return RLit(tok, const)
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
        universals = self._resolve_binders(raw.universals, schema, entity_alias, binders)
        existentials = self._resolve_binders(raw.existentials, schema, entity_alias, binders)
        if universals is None or existentials is None:
            return None

        ok = True
        premise: list = []
        for atom in raw.premise:
            resolved = self._resolve_atom(atom, binders, schema)
            if resolved is None:
                ok = False
            else:
                premise.append(resolved)
        universal_names = {n for n, _ in universals}
        for atom in raw.premise:
            for side in (atom.left, atom.right):
                for name in _raw_names(side):
                    head = name.parts[0]
                    if head.text in binders and head.text not in universal_names:
                        self.error(head, "premise mentions an existential variable")
                        ok = False
        conclusion: list[Eq] = []
        for atom in raw.conclusion:
            if atom.op != "=":
                self.error(atom.op_token, "predicates are not allowed in conclusions")
                ok = False
                continue
            resolved = self._resolve_atom(atom, binders, schema)
            if resolved is None:
                ok = False
            else:
                conclusion.append(resolved)
        if not ok:
            return None
        return Constraint(tuple(universals), tuple(premise), tuple(existentials), tuple(conclusion))

    def _resolve_binders(
        self,
        pairs: list[tuple[Token, Token]],
        schema: Schema,
        alias: Optional[dict[str, Optional[str]]],
        binders: dict[str, str],
    ) -> Optional[list[tuple[str, str]]]:
        """Bind each ``name : Entity`` pair into ``binders``; the resolved
        ``(name, entity)`` pairs, or None when any pair was reported."""
        resolved: list[tuple[str, str]] = []
        for name_tok, entity_tok in pairs:
            entity = self._resolve_entity(entity_tok, schema, alias)
            if entity is None:
                continue
            if name_tok.text in binders:
                self.error(name_tok, f"variable '{name_tok.text}' bound twice")
                continue
            binders[name_tok.text] = entity
            resolved.append((name_tok.text, entity))
        return resolved if len(resolved) == len(pairs) else None

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

    def _resolve_atom(self, atom: RAtom, binders: dict[str, str], schema: Schema):
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
                    self.error(arg.parts[0], "function arguments must be base-typed")
                    return None
                args.append(resolved)
            if not has_signature(raw.name.text, tuple(sort for _, sort in args)):
                # Int literals become Doubles only where no exact signature exists
                for i, (term, sort) in enumerate(args):
                    promoted = _promote_int_literal(term, sort, BaseType.DOUBLE)
                    if promoted is not None:
                        args[i] = promoted, BaseType.DOUBLE
            try:
                sig = resolve_function(raw.name.text, tuple(sort for _, sort in args))
            except SchemaError as err:
                self.error(raw.name, str(err))
                return None
            return FunApp(sig, tuple(term for term, _ in args)), sig.result
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
        rows: list[tuple[Token, str, int, list[Binding]]] = []
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
                decoded = self.advance().value
                if decoded is not None:  # a well-formed row, decoded by the tokenizer
                    rows.append((entity_tok, *decoded))
                    continue
                row_id, id_pos = self._parse_row_id()
                self.expect("{")
                bindings: list[Binding] = []
                while self.peek().kind == "ident":
                    member = self.advance()
                    self.expect("=")
                    bindings.append((member.text, member.pos, *self._parse_binding_value()))
                self.expect("}")
                rows.append((entity_tok, row_id, id_pos, bindings))
            self.expect("}")

        inst = Instance(schema, name_tok.text)
        ok = True
        # Only an id given to more than one row keeps its fold map, shared
        # by its rows; other rows' maps die once written, so that the block
        # keeps no object per row alive to bring on collector passes.
        repeated: dict[ElementId, dict] = {}
        elems: list[Optional[ElementId]] = []  # per row; None for an unknown entity
        for entity_tok, row_id, id_pos, _ in rows:
            if not schema.has_entity(entity_tok.text):
                self.error(entity_tok, f"'{entity_tok.text}' is not an entity of schema {schema.name}")
                ok = False
                elems.append(None)
                continue
            try:
                elems.append(inst.add_element(entity_tok.text, row_id))
            except InstanceError as err:  # a duplicate id
                self.error_at(id_pos, str(err))
                ok = False
                elems.append(inst.element_named(entity_tok.text, row_id))
                repeated.setdefault(elems[-1], {})
        for (_, _, _, bindings), elem in zip(rows, elems):
            if elem is None:
                continue
            row = repeated.get(elem, {})
            for binding in bindings:
                if (error := self._fold_binding(inst, elem, row, binding)) is not None:
                    self.error_at(*error)
                    ok = False
            inst.write_row(elem, row)
        if name_tok.text in self.env.instances:
            self.error(name_tok, f"instance '{name_tok.text}' is already defined")
        elif ok:
            self.env.instances[name_tok.text] = inst

    def _parse_row_id(self) -> tuple[str, int]:
        """A row id, or a reference to one, and its offset."""
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            return tok.value, tok.pos
        first = self.expect("ident", "row id")
        text = first.text
        while self.peek().kind == ".":
            self.advance()
            text += "." + self.expect("ident", "row id part").text
        return text, first.pos

    def _parse_binding_value(self) -> tuple[str, object, int]:
        """The last three fields of a ``Binding``."""
        tok = self.peek()
        if tok.kind == "ident":
            return ("ref", *self._parse_row_id())
        if tok.kind == "null":
            self.advance()
            return "null", None, tok.pos
        const = _literal(tok)
        if const is None:
            raise self.fail(tok, f"expected a literal, row id, or null, found '{tok.text}'")
        self.advance()
        return "lit", const, tok.pos

    def _fold_binding(
        self, inst: Instance, elem: ElementId, row: dict, binding: Binding
    ) -> Optional[tuple[int, str]]:
        """Check a binding of ``elem``'s row and fold it into the element's
        ``row``, or give the offset and message of its diagnostic. A member
        bound again needs an equal value; ``null`` binds nothing."""
        member, member_pos, kind, value, at = binding
        fk = inst.schema.fk(elem.entity, member)
        if fk is not None:
            if kind == "lit" and value.type is BaseType.STRING:
                value = str(value.value)  # quoted row id
            elif kind != "ref":
                return at, f"foreign key '{member}' expects a row id"
            target = inst.element_named(fk.target, value)
            if target is None:
                return at, f"'{value}' is not a declared row of entity '{fk.target}'"
            if row.setdefault(member, target) != target:
                return at, f"conflicting re-assignment of foreign key '{member}' on {elem.name}"
            return None
        attr = inst.schema.attr(elem.entity, member)
        if attr is None:
            return member_pos, f"'{member}' is not a foreign key or attribute of entity '{elem.entity}'"
        if kind == "ref":
            return at, f"attribute '{member}' expects a literal or null"
        if kind == "null":
            return None
        const = value if value.type is attr.type else _promote_int_literal(value, value.type, attr.type)
        if const is None:
            return at, f"attribute '{member}' has type {attr.type}, got {value.type}"
        current = row.setdefault(member, const)
        if current.value != const.value:
            return at, (f"conflicting re-assignment of attribute '{member}' on {elem.name}: "
                        f"{current.value!r} vs {const.value!r}")
        return None

    # -- extension blocks -----------------------------------------------------------

    def parse_extension_block(self) -> None:
        self.expect("extension")
        name_tok = self.expect("ident", "extension name")
        self.env.refused_extensions.add(name_tok.text)  # until the block is accepted below
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
        except CatamergeError as err:
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
            self.env.refused_extensions.discard(name_tok.text)

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
            if ext is None and ext_tok.text in self.env.refused_extensions:
                raise _Abort()  # its own block was reported
            if ext is None:
                raise self.fail(ext_tok, f"unknown extension '{ext_tok.text}'")
            try:
                combined = combine_schemas(ext)
            except CatamergeError as err:
                raise self.fail(ext_tok, str(err))
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
        bindings = self._resolve_binders(binder_pairs, schema, alias, binders)
        ok = bindings is not None

        wheres: list[Eq] = []
        if self.peek().kind == "where":
            self.advance()
            while self.peek().kind in ("ident", "string", "int", "double", "true", "false"):
                atom = self.parse_raw_atom()
                if atom.op != "=":
                    self.error(atom.op_token, "query where-atoms are equalities only")
                    ok = False
                    continue
                resolved = self._resolve_atom(atom, binders, schema)
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
                    self.error(raw.parts[0], "projections must be attribute-valued")
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
        try:
            return Const(BaseType.DOUBLE, normalize_double(float(term.value)))  # type: ignore[arg-type]
        except OverflowError:  # past the float range: the Int stays an Int
            return None
    return None


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


def _first_block(doc: SourceDocument, env: Document, blocks: dict, kind: str) -> tuple:
    """The first of ``blocks`` with ``env``'s diagnostics; a document with
    no such block and no error gets one at 1:1."""
    first = next(iter(blocks.values()), None)
    if first is None and env.ok:
        env.diagnostics.append(Diagnostic("error", f"no {kind} block found", doc.name, 1, 1))
    return first, env.diagnostics


def parse_schema(doc: SourceDocument) -> tuple[Optional[Schema], list[Diagnostic]]:
    env = parse_document(doc)
    return _first_block(doc, env, env.schemas, "schema")


def parse_instance(doc: SourceDocument, schema: Schema) -> tuple[Optional[Instance], list[Diagnostic]]:
    env = parse_document(doc, Document(schemas={schema.name: schema}))
    return _first_block(doc, env, env.instances, "instance")


def parse_extension(
    doc: SourceDocument, schemas: dict[str, Schema]
) -> tuple[Optional[ExtensionSpec], list[Diagnostic]]:
    env = parse_document(doc, Document(schemas=dict(schemas)))
    return _first_block(doc, env, env.extensions, "extension")


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
    return _first_block(doc, env, env.queries, "query")


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
