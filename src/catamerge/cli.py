"""Command-line front-end: check | integrate | query | roundtrip.

Exit codes are a stable contract: 0 success, 1 usage or validation error,
2 unsatisfiable data (constant clash), 3 resource bound exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn, Optional

from .chase import EXHAUSTED, FAILED, ChaseConfig, ChaseResult, chase
from .errors import CatamergeError
from .instance import Instance, new_instance
from .integrate import CombinedSchema, combine_schemas, delta_project, roundtrip_report
from .parser import Document, SourceDocument, parse_document
from .printer import (
    aligned_table,
    instance_csvs,
    print_canonical,
    result_table_csv,
)
from .query import evaluate
from .schema import ExtensionSpec, Schema

OK, USAGE, UNSATISFIABLE, EXHAUSTED_CODE = 0, 1, 2, 3

MAX_ROUNDS_ENV = "CATAMERGE_MAX_ROUNDS"


@dataclass
class RunManifest:
    files: list[Path]
    extension: ExtensionSpec
    combined: CombinedSchema
    sources: dict[str, Instance]
    out_dir: Path
    trace: bool = False
    max_rounds: int = 10000
    env: Document = field(default_factory=Document)


def _load(files: list[str]) -> Optional[Document]:
    env = Document()
    for name in files:
        path = Path(name)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            print(f"error: cannot read {name}: {err}", file=sys.stderr)
            return None
        except UnicodeDecodeError as err:
            print(f"error: cannot read {name}: not valid UTF-8 ({err})", file=sys.stderr)
            return None
        parse_document(SourceDocument(str(path), text), env)
    for diag in env.diagnostics:
        print(str(diag), file=sys.stderr)
    return env


def _max_rounds(text: str) -> int:
    """argparse type of ``--max-rounds``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _default_max_rounds() -> Optional[int]:
    """The round budget from the environment, or None (after printing an
    error) when it is not an integer of at least 1."""
    raw = os.environ.get(MAX_ROUNDS_ENV)
    if raw is None:
        return 10000
    try:
        return _max_rounds(raw)
    except argparse.ArgumentTypeError as err:
        print(f"error: {MAX_ROUNDS_ENV}: {err}", file=sys.stderr)
        return None


def _build_manifest(args: argparse.Namespace) -> Optional[RunManifest]:
    max_rounds = args.max_rounds if args.max_rounds is not None else _default_max_rounds()
    if max_rounds is None:
        return None
    env = _load(args.files)
    if env is None or not env.ok:
        return None
    if args.extension is not None:
        ext = env.extensions.get(args.extension)
        if ext is None:
            print(f"error: unknown extension '{args.extension}'", file=sys.stderr)
            return None
    elif len(env.extensions) == 1:
        ext = next(iter(env.extensions.values()))
    else:
        what = "no extension block found" if not env.extensions else \
            "multiple extensions found; pick one with --extension"
        print(f"error: {what}", file=sys.stderr)
        return None

    sources: dict[str, Instance] = {}
    for schema in ext.schemas:
        matching = [i for i in env.instances.values() if i.schema.name == schema.name]
        if len(matching) > 1:
            names = ", ".join(i.name for i in matching)
            print(
                f"error: multiple instances over schema '{schema.name}' ({names})",
                file=sys.stderr,
            )
            return None
        sources[schema.name] = matching[0] if matching else new_instance(schema, f"{schema.name}_empty")

    try:
        combined = combine_schemas(ext)
    except CatamergeError as err:
        print(f"error: {err}", file=sys.stderr)
        return None
    return RunManifest(
        files=[Path(f) for f in args.files],
        extension=ext,
        combined=combined,
        sources=sources,
        out_dir=Path(args.out),
        trace=getattr(args, "trace", False),
        max_rounds=max_rounds,
        env=env,
    )


def _run_chase(manifest: RunManifest) -> tuple[int, Optional[ChaseResult]]:
    """Insert the sources and chase; returns the exit code with the result.

    Failures are reported on stderr here; ``trace.log`` is written, when
    asked for, whatever the outcome of a chase that ran.
    """
    from .integrate import sigma_insert

    try:
        pre = sigma_insert(manifest.combined, manifest.sources)
        cfg = ChaseConfig(max_rounds=manifest.max_rounds)
        result = chase(pre, list(manifest.combined.schema.constraints), cfg)
    except CatamergeError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE, None
    if manifest.trace:
        _write(manifest.out_dir / "trace.log", result.trace.render())
    if result.status == FAILED:
        print(f"unsatisfiable: {result.clash}", file=sys.stderr)
        return UNSATISFIABLE, result
    if result.status == EXHAUSTED:
        print(f"exhausted: no fixpoint after {result.rounds} round(s)", file=sys.stderr)
        return EXHAUSTED_CODE, result
    return OK, result


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_check(args: argparse.Namespace) -> int:
    env = _load(args.files)
    if env is None:
        return USAGE
    if not env.ok:
        return USAGE
    blocks = (
        f"{len(env.schemas)} schema(s), {len(env.instances)} instance(s), "
        f"{len(env.extensions)} extension(s), {len(env.queries)} query(ies)"
    )
    print(f"ok: {blocks}")
    return OK


def cmd_integrate(args: argparse.Namespace) -> int:
    manifest = _build_manifest(args)
    if manifest is None:
        return USAGE
    code, result = _run_chase(manifest)
    if code != OK:
        return code
    assert result is not None and result.instance is not None
    out = manifest.out_dir
    _write(out / "combined.cmg", print_canonical(manifest.combined))
    _write(out / "saturated.cmg", print_canonical(result.instance))
    for entity, text in instance_csvs(result.instance).items():
        _write(out / f"{entity}.csv", text)
    print(f"saturated after {result.rounds} round(s); artifacts in {out}")
    return OK


def cmd_query(args: argparse.Namespace) -> int:
    manifest = _build_manifest(args)
    if manifest is None:
        return USAGE
    spec = manifest.env.queries.get(args.query)
    if spec is None:
        print(f"error: unknown query '{args.query}'", file=sys.stderr)
        return USAGE
    if spec.extension != manifest.extension.name:
        print(
            f"error: query '{spec.name}' targets extension '{spec.extension}', "
            f"not '{manifest.extension.name}'",
            file=sys.stderr,
        )
        return USAGE
    code, result = _run_chase(manifest)
    if code != OK:
        return code
    assert result is not None and result.instance is not None
    try:
        table = evaluate(spec, result.instance)
    except CatamergeError as err:
        print(f"error: query '{spec.name}': {err}", file=sys.stderr)
        return USAGE
    _write(manifest.out_dir / f"query_{spec.name}.csv", result_table_csv(table))
    sys.stdout.write(aligned_table(table))
    return OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    manifest = _build_manifest(args)
    if manifest is None:
        return USAGE
    target: Optional[Schema] = None
    for s in manifest.extension.schemas:
        if s.name == args.schema:
            target = s
    if target is None:
        print(
            f"error: schema '{args.schema}' is not included in extension "
            f"'{manifest.extension.name}'",
            file=sys.stderr,
        )
        return USAGE
    code, result = _run_chase(manifest)
    if code != OK:
        return code
    assert result is not None and result.instance is not None
    recovered = delta_project(manifest.combined, result.instance, target)
    report = roundtrip_report(manifest.sources[target.name], recovered)
    text = report.render()
    _write(manifest.out_dir / f"roundtrip_{target.name}.txt", text)
    sys.stdout.write(text)
    return OK


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Usage errors are one line on stderr, like every other failure."""
        self.exit(2, f"error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="catamerge",
        description="Merge schemas declared as multi-sorted theories, saturate "
        "their data with a chase, and query the integrated result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_trace: bool = False) -> None:
        p.add_argument("files", nargs="+", help=".cmg input files")
        p.add_argument("--extension", "-e", help="extension to integrate (default: the only one)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument(
            "--max-rounds",
            type=_max_rounds,
            help="chase round budget, at least 1 (env CATAMERGE_MAX_ROUNDS overrides "
            "the default of 10000)",
        )
        if with_trace:
            p.add_argument("--trace", action="store_true", help="write trace.log")

    p_check = sub.add_parser("check", help="parse and validate inputs")
    p_check.add_argument("files", nargs="+", help=".cmg input files")
    p_check.set_defaults(func=cmd_check)

    p_integrate = sub.add_parser("integrate", help="build and saturate the combined instance")
    add_common(p_integrate, with_trace=True)
    p_integrate.set_defaults(func=cmd_integrate)

    p_query = sub.add_parser("query", help="evaluate a query over the saturated instance")
    add_common(p_query)
    p_query.add_argument("--query", "-q", required=True, help="query name")
    p_query.set_defaults(func=cmd_query)

    p_round = sub.add_parser("roundtrip", help="project back to a source schema and diff")
    add_common(p_round)
    p_round.add_argument("--schema", "-s", required=True, help="source schema name")
    p_round.set_defaults(func=cmd_roundtrip)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return args.func(args)
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
