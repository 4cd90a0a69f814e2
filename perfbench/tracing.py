"""Spans around the engine's public functions, installed from outside.

The tracer replaces module attributes (and four ``Instance`` methods) with
timing wrappers for the length of one traced job and puts the originals back
afterwards; ``src/`` is never edited. Names are patched in the module that
calls them: ``catamerge.chase`` holds its own references to
``enumerate_matches`` and ``conclusion_satisfied``, and ``check_model`` uses
the ones in ``catamerge.instance``.

Each span records its duration and the part of it covered by child spans, so
a span's self time is its duration minus its children. Spans are aggregated
per name as they close; the sum over top-level spans is what the job's wall
time is compared against.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from pipeline import Engine, Job

# (module attribute in Engine, or "Instance", attribute, span name, measure)
# ``measure`` turns a call's result into the span's work count; None counts
# calls. Generators are timed per ``next()`` and count the items they yield.
SPANS: list[tuple[str, str, str, Optional[Callable[[object], int]]]] = [
    ("parser", "parse_document", "parser.parse", None),
    ("parser", "tokenize", "parser.tokenize", len),
    # query blocks combine their extension while they are parsed
    ("parser", "combine_schemas", "integrate.combine", None),
    ("integrate", "combine_schemas", "integrate.combine", None),
    ("integrate", "sigma_insert", "integrate.insert", None),
    ("integrate", "delta_project", "integrate.project", None),
    ("integrate", "roundtrip_report", "integrate.roundtrip", None),
    ("chase", "chase", "chase", None),
    ("chase", "fire_once", "chase.fire", None),
    ("chase", "enumerate_matches", "instance.match", None),
    ("chase", "conclusion_satisfied", "instance.witness", None),
    ("instance", "enumerate_matches", "instance.match", None),
    ("instance", "conclusion_satisfied", "instance.witness", None),
    ("instance", "check_model", "instance.check", None),
    ("Instance", "add_element", "instance.add", None),
    ("Instance", "element_named", "instance.lookup", None),
    ("Instance", "carrier", "instance.carrier", None),
    ("Instance", "merge_elements", "instance.merge", None),
    ("query", "evaluate", "query.evaluate", lambda table: len(table.rows)),
    ("query", "explain", "query.explain", None),
    ("printer", "print_canonical", "printer.render", lambda text: len(text.encode())),
    ("printer", "instance_csvs", "printer.render",
     lambda csvs: sum(len(t.encode()) for t in csvs.values())),
    ("printer", "result_table_csv", "printer.render", lambda text: len(text.encode())),
]

GENERATORS = {"enumerate_matches"}

MUTATIONS = {
    "MergePair": "chase.merges",
    "CreateElement": "chase.created",
    "DefineFk": "chase.defined",
    "AssignAttr": "chase.assigned",
    "UnionAttrs": "chase.unified",
}
MODULES = ("parser", "integrate", "chase", "instance", "query", "printer")


class Span:
    __slots__ = ("calls", "work", "busy", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.work = 0  # calls, or the span's own measure of work done
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Collects spans for the jobs run between ``install`` and ``uninstall``."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.top_level = 0.0
        self._stack: list[list] = []  # [name, start, child time]
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self, work: int) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span()
        span.calls += 1
        span.work += work
        span.busy += duration
        span.self_time += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level += duration

    def _wrap(self, fn, name: str, measure):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(1 if measure is None or result is None else measure(result))

        return traced

    def _wrap_generator(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(0)
                    return
                except BaseException:
                    tracer._close(0)
                    raise
                tracer._close(1)
                yield item

        return traced

    def install(self, engine: Engine) -> None:
        for owner_name, attr, name, measure in SPANS:
            owner = engine.instance.Instance if owner_name == "Instance" else getattr(engine, owner_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if attr in GENERATORS:
                wrapper = self._wrap_generator(original, name)
            else:
                wrapper = self._wrap(original, name, measure)
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_values(tracer: Tracer, job: Job, wall: float) -> dict[str, float]:
    """Per-layer values of one traced job."""
    spans = tracer.spans

    def busy(name: str) -> float:
        return spans.get(name, Span()).busy

    def calls(name: str) -> int:
        return spans.get(name, Span()).calls

    def work(name: str) -> int:
        return spans.get(name, Span()).work

    entries = job.result.trace.entries
    attempted = calls("chase.fire")
    values = {
        "parser.parse_s": busy("parser.parse"),
        "parser.tokenize_s": busy("parser.tokenize"),
        "parser.tokens": work("parser.tokenize"),
        "parser.tokens_per_s": work("parser.tokenize") / busy("parser.tokenize"),
        "instance.lookup_s": busy("instance.lookup"),
        "instance.lookups": calls("instance.lookup"),
        "instance.add_s": busy("instance.add"),
        "instance.adds": calls("instance.add"),
        "integrate.combine_s": busy("integrate.combine"),
        "integrate.insert_s": busy("integrate.insert"),
        "integrate.project_s": busy("integrate.project"),
        "integrate.roundtrip_s": busy("integrate.roundtrip"),
        "integrate.rows_in": sum(
            len(inst.elements(e)) for inst in job.sources.values() for e in inst.schema.entities
        ),
        "chase.s": busy("chase"),
        "chase.rounds": job.result.rounds,
        "chase.fire_s": busy("chase.fire"),
        "chase.firings_attempted": attempted,
        "chase.firings_applied": len(entries),
        "chase.fire_yield": len(entries) / attempted if attempted else 0.0,
        **{metric: 0 for metric in MUTATIONS.values()},
        "instance.match_s": busy("instance.match"),
        "instance.matches": work("instance.match"),
        "instance.merge_s": busy("instance.merge"),
        "instance.merge_calls": calls("instance.merge"),
        "instance.witness_s": busy("instance.witness"),
        "instance.witness_calls": calls("instance.witness"),
        "instance.carrier_s": busy("instance.carrier"),
        "instance.carrier_calls": calls("instance.carrier"),
        "instance.check_s": busy("instance.check"),
        "query.evaluate_s": busy("query.evaluate"),
        "query.explain_s": busy("query.explain"),
        "query.rows": work("query.evaluate"),
        "printer.render_s": busy("printer.render"),
        "printer.bytes": work("printer.render"),
        "trace.coverage": tracer.top_level / wall,
    }
    for entry in entries:
        for mutation in entry.mutations:
            values[MUTATIONS[type(mutation).__name__]] += 1
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            s.self_time for name, s in spans.items() if name.split(".")[0] == module
        )
    return values
