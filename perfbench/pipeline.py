"""Load the engine from the checkout and run one integration job.

A job is the library pipeline a user runs on one document:
parse -> combine -> insert -> chase -> check_model -> evaluate/explain ->
project + round-trip report -> print the artifacts. Each stage is called
through its module attribute, so the tracer can replace it in place.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

from workloads import Outputs


class JobFailed(Exception):
    """The engine finished but did not produce a usable result."""


@dataclass(frozen=True)
class Engine:
    parser: ModuleType
    integrate: ModuleType
    chase: ModuleType
    instance: ModuleType
    query: ModuleType
    printer: ModuleType
    generators: ModuleType


def load_engine(root: Path) -> Engine:
    """Import ``catamerge`` afresh from ``root/src``; never an installed copy."""
    src = (root / "src").resolve()
    if not (src / "catamerge" / "__init__.py").is_file():
        raise FileNotFoundError(f"no catamerge sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "catamerge" or m.startswith("catamerge.")]:
        del sys.modules[name]
    package = importlib.import_module("catamerge")
    if Path(package.__file__).resolve().parent.parent != src:
        raise ImportError(f"catamerge was imported from {package.__file__}, not {src}")
    importlib.import_module("catamerge.generators")
    # The package re-exports the function ``chase``, which shadows the
    # submodule of the same name as an attribute, so take modules from
    # sys.modules.
    mods = {name: sys.modules[f"catamerge.{name}"] for name in Engine.__dataclass_fields__}
    return Engine(**mods)


@dataclass
class Job:
    """What a job leaves behind for the checks and the per-layer counts."""

    outputs: Outputs
    result: object  # the ChaseResult, whose trace is rendered after timing
    sources: dict  # source schema name -> parsed instance


def run_job(engine: Engine, name: str, text: str, target: str) -> Job:
    P, I, C = engine.parser, engine.integrate, engine.chase
    doc = P.parse_document(P.SourceDocument(name, text))
    if not doc.ok:
        raise JobFailed("; ".join(str(d) for d in doc.diagnostics[:3]))
    (extension,) = doc.extensions.values()
    (spec,) = doc.queries.values()
    combined = I.combine_schemas(extension)
    sources = {inst.schema.name: inst for inst in doc.instances.values()}
    pre = I.sigma_insert(combined, sources)
    constraints = list(combined.schema.constraints)
    result = C.chase(pre, constraints, C.ChaseConfig())
    if not result.saturated:
        raise JobFailed(f"chase {result.status} after {result.rounds} rounds")
    sat = result.instance
    if not engine.instance.check_model(sat, constraints).ok:
        raise JobFailed("check_model found a violated constraint")
    table = engine.query.evaluate(spec, sat)
    plan = engine.query.explain(spec, sat)
    recovered = I.delta_project(combined, sat, doc.schemas[target])
    report = I.roundtrip_report(sources[target], recovered)
    R = engine.printer
    outputs = Outputs(
        query_csv=R.result_table_csv(table),
        entity_csvs=R.instance_csvs(sat),
        roundtrip=report.render(),
        artifacts=(R.print_canonical(combined), R.print_canonical(sat), plan.render()),
    )
    return Job(outputs, result, sources)
