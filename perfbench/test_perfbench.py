"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pipeline import load_engine, run_job  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from worker import Runner, fingerprint  # noqa: E402
from reference import reference_work  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EXISTENTIAL_RULES,
    THREE_WAY_RULES,
    THREE_WAY_SCHEMAS,
    WORKLOADS,
    check,
    generate,
)

ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"
TINY = {"commissioning": 6, "three_way": 5, "existential": 4}


@pytest.fixture(scope="module")
def engine():
    return load_engine(ROOT)


def tiny_job(engine, name, seed=3):
    workload = WORKLOADS[name]
    case = generate(workload, TINY[name], seed, engine.generators)
    return workload, case, run_job(engine, name, case.text, workload.target)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_accepts_engine_output(engine, name):
    _, case, job = tiny_job(engine, name)
    assert check(job.outputs, case.expect) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_outputs_count_as_failures(engine, name):
    workload, case, job = tiny_job(engine, name)
    out = job.outputs
    header, first, *rest = out.query_csv.splitlines(keepends=True)
    wrong_cell = first.replace(first.split(",")[0], "corrupted", 1)
    wrong_csvs = {entity: "id\n" for entity in out.entity_csvs}
    corruptions = [
        dataclasses.replace(out, query_csv=header + wrong_cell + "".join(rest)),
        dataclasses.replace(out, query_csv=header + "".join(rest)),
        dataclasses.replace(out, entity_csvs=wrong_csvs),
        dataclasses.replace(out, roundtrip=out.roundtrip.replace(" 0 ", " 1 ", 1)),
    ]
    for bad in corruptions:
        assert check(bad, case.expect), bad

    runner = Runner(engine, workload, {})
    wrong = dataclasses.replace(case.expect, query_rows=case.expect.query_rows[1:])
    runner.job("main", dataclasses.replace(case, expect=wrong))
    assert runner.jobs == {"main": 1} and len(runner.failures) == 1

    other = Runner(engine, workload, {"main": "0" * 16})
    other.job("main", case)
    assert len(other.failures) == 1 and "differ" in other.failures[0]


def test_unreadable_output_counts_as_a_failure(engine, monkeypatch):
    workload, case, job = tiny_job(engine, "existential")
    garbled = dataclasses.replace(
        job, outputs=dataclasses.replace(job.outputs, roundtrip="table\nX 4 four\n")
    )
    monkeypatch.setattr(worker, "run_job", lambda *args: garbled)
    runner = Runner(engine, workload, {})
    runner.job("main", case)
    assert len(runner.failures) == 1 and "unreadable" in runner.failures[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_regenerates_identical_documents(engine, name):
    workload = WORKLOADS[name]
    size = TINY[name]
    first = generate(workload, size, 7, engine.generators)
    assert generate(workload, size, 7, engine.generators) == first
    assert generate(workload, size, 8, engine.generators).text != first.text


def test_documents_keep_the_fixture_rules(engine):
    example1 = (FIXTURES / "example1.cmg").read_text(encoding="utf-8")
    example2 = (FIXTURES / "example2.cmg").read_text(encoding="utf-8")
    assert engine.generators.EXAMPLE1_EXTENSION_TEXT in example1
    assert engine.generators.EXAMPLE1_QUERY_TEXT in example1
    assert THREE_WAY_SCHEMAS in example2
    assert THREE_WAY_RULES in example2
    doc = generate(WORKLOADS["existential"], 4, 1, engine.generators).text
    assert doc.endswith(EXISTENTIAL_RULES)


def test_tracing_keeps_outputs_and_restores_the_engine(engine):
    _, case, plain = tiny_job(engine, "three_way")
    originals = (engine.chase.enumerate_matches, engine.instance.Instance.carrier)
    tracer = Tracer()
    tracer.install(engine)
    try:
        traced = run_job(engine, "three_way", case.text, "REC")
    finally:
        tracer.uninstall()
    assert (engine.chase.enumerate_matches, engine.instance.Instance.carrier) == originals
    assert fingerprint(traced) == fingerprint(plain)
    spans = tracer.spans
    assert spans["instance.match"].work > 0
    assert spans["parser.tokenize"].work > 0
    assert all(s.self_time <= s.busy + 1e-9 for s in spans.values())
    top = sum(spans[name].busy for name in ("parser.parse", "chase", "instance.check"))
    assert top <= tracer.top_level + 1e-9


def test_end_to_end_times_are_in_reference_units():
    # (wall s, cpu s, reference wall s, reference cpu s) per job
    results = [{
        "main": [(2.0, 1.8, 0.1, 0.09), (3.0, 2.7, 0.15, 0.135), (9.0, 1.8, 0.1, 0.09)],
        "half": [(0.5, 0.45, 0.1, 0.09)],
        "setup_s": [(0.06, 0.1), (0.08, 0.1), (0.36, 0.2)],
        "source_rows": 400,
        "peak_rss_mb": 24.0,
    }]
    metrics, details = run.end_to_end(results)
    assert metrics["job_ref.p50"] == (20.0, "ref")
    assert metrics["job_cpu_ref.p50"] == (20.0, "ref")
    assert metrics["rows_per_ref"] == (20.0, "rows/ref")
    assert metrics["scaling_slope"][0] == 2.0
    assert metrics["setup_s"] == (pytest.approx(0.8 * run.REFERENCE_S), "s")
    assert details["job_s.p50"] == 3.0 and details["reference_s.p50"] == 0.1
    assert details["setup_wall_s.p50"] == 0.08


def test_reference_work_is_fixed():
    assert reference_work() == reference_work() == 1284348


def test_refuses_to_run_without_the_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "existential", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
