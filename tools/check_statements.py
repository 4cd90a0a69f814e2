"""Fail when a statement of a target module in ``src/catamerge`` runs in no test.

Runs the tier-1 tests in this process under a ``sys.settrace`` line tracer
that traces only frames of the target files, then lists, per file, every
function-body statement that never ran and is not in that file's
``ALLOWED`` entry. Standard library only.

    python tools/check_statements.py [extra pytest arguments]

The target files are the keys of ``ALLOWED``; to gate another module, give
it an entry there. Exits with pytest's status when the tests fail, 1 when a
statement is unreached or an allowlist entry is stale, and 0 otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "catamerge"

# Per target file in src/catamerge: (the statement's line, stripped, as in
# the file; why no input reaches it)
ALLOWED: dict[str, tuple[tuple[str, str], ...]] = {
    "parser.py": (),
    "printer.py": (),
    "instance.py": (),
    "integrate.py": (),
}


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


def unreached(name: str, reached: set[int]) -> list[str]:
    """The failures of one target file, and a summary line on stdout."""
    statements = statement_lines(PACKAGE / name)
    allowed = dict(ALLOWED[name])
    failures: list[str] = []
    for text in allowed:
        lines = [n for n, t in statements.items() if t == text]
        if len(lines) != 1:
            failures.append(f"{name}: allowlist entry matches {len(lines)} statements: {text}")
        elif lines[0] in reached:
            failures.append(f"{name}:{lines[0]}: allowlisted but reached: {text}")
    for n, text in sorted(statements.items()):
        if n not in reached and text not in allowed:
            failures.append(f"{name}:{n}: no test runs: {text}")
    print(f"{len(statements)} statements in {name} function bodies, "
          f"{len(statements) - len(reached & statements.keys())} unreached, "
          f"{len(allowed)} allowlisted")
    return failures


def main(argv: list[str]) -> int:
    reached: dict[str, set[int]] = {str(PACKAGE / name): set() for name in ALLOWED}

    def tracer(frame, event, arg):
        lines = reached.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

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

    failures = [f for name in ALLOWED for f in unreached(name, reached[str(PACKAGE / name)])]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
