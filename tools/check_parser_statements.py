"""Fail when a statement of ``src/catamerge/parser.py`` runs in no test.

Runs the tier-1 tests in this process under a ``sys.settrace`` line tracer
that traces only frames of ``parser.py``, then lists every function-body
statement that never ran and is not in ``ALLOWED``. Standard library only.

    python tools/check_parser_statements.py [extra pytest arguments]

Exits with pytest's status when the tests fail, 1 when a statement is
unreached or an allowlist entry is stale, and 0 otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "src" / "catamerge" / "parser.py"

# (the statement's line, stripped, as in parser.py; why no input reaches it)
ALLOWED: tuple[tuple[str, str], ...] = (
    (
        'self.error(name_tok, f"invalid schema: {issue}")',
        "the parser's own checks refuse each issue validate_schema finds "
        "(a duplicate entity or member, a dangling entity, a non-base type, "
        "an ill-typed constraint) before it builds the schema",
    ),
)


def statement_lines(path: Path) -> dict[int, str]:
    """The first line of each statement inside a function body that the
    compiler gives code to, with its stripped text."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    code_lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_name != "<module>":
            code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    found: dict[int, str] = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in (n for top in fn.body for n in ast.walk(top)):
                if isinstance(node, ast.stmt) and node.lineno in code_lines:
                    found[node.lineno] = lines[node.lineno - 1].strip()
    return found


def main(argv: list[str]) -> int:
    target = str(TARGET)
    reached: set[int] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == target else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest  # imported before tracing starts; the engine is not

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"tier-1 tests failed (pytest exit {status})", file=sys.stderr)
        return int(status)

    statements = statement_lines(TARGET)
    allowed = dict(ALLOWED)
    failures: list[str] = []
    for text in allowed:
        lines = [n for n, t in statements.items() if t == text]
        if len(lines) != 1:
            failures.append(f"allowlist entry matches {len(lines)} statements: {text}")
        elif lines[0] in reached:
            failures.append(f"parser.py:{lines[0]}: allowlisted but reached: {text}")
    for n, text in sorted(statements.items()):
        if n not in reached and text not in allowed:
            failures.append(f"parser.py:{n}: no test runs: {text}")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(statements)} statements in parser.py function bodies, "
          f"{len(statements) - len(reached & statements.keys())} unreached, "
          f"{len(allowed)} allowlisted")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
