"""One measuring process of the benchmark; ``run.py`` starts several in turn.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE FINGERPRINTS

Sets up (imports the engine, generates the documents), runs checked jobs
until SECONDS have passed, times a few more set-ups (each between two runs
of the reference work) and prints one JSON
object with the raw samples. TRACE 0 interleaves main-size and half-size
jobs, two to one, untraced, with the reference work of ``reference.py``
between them; TRACE 1 alternates untraced and traced main-size jobs.
FINGERPRINTS is a JSON object of digests from an earlier worker that every
job must match; ``{}`` makes this worker's first jobs the reference.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from pipeline import Engine, Job, load_engine, run_job
from reference import time_reference
from tracing import Tracer, layer_values
from workloads import WORKLOADS, Case, Workload, check, generate

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 6


class Runner:
    """Runs and checks jobs for one workload, tallying attempts and failures."""

    def __init__(self, engine: Engine, workload: Workload, fingerprints: dict[str, str]):
        self.engine = engine
        self.workload = workload
        self.jobs: dict[str, int] = {}  # case label -> jobs run
        self.failures: list[str] = []
        self.fingerprints = dict(fingerprints)  # case label -> reference digest

    def job(self, label: str, case: Case, tracer: Tracer | None = None):
        """Run one job; returns (wall s, cpu s, job or None)."""
        gc.collect()
        self.jobs[label] = self.jobs.get(label, 0) + 1
        if tracer is not None:
            tracer.install(self.engine)
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            job = run_job(self.engine, f"{self.workload.name}-{label}.cmg", case.text, self.workload.target)
        except Exception as err:  # a failed job is counted, never fatal
            job = None
            problems = [f"{type(err).__name__}: {err}"]
        finally:
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            if tracer is not None:
                tracer.uninstall()
        if job is not None:
            try:
                problems = check(job.outputs, case.expect)
            except (ValueError, IndexError) as err:
                problems = [f"unreadable output: {err}"]
            digest = fingerprint(job)
            if digest != self.fingerprints.setdefault(label, digest):
                problems.append(f"trace or artifacts differ from the reference {label} job")
        if problems:
            self.failures.append(f"{label} job {self.jobs[label]}: {problems[0]}")
        return wall, cpu, job


def fingerprint(job: Job) -> str:
    """Digest of the chase trace text and every artifact of a job."""
    out = job.outputs
    digest = hashlib.sha256(job.result.trace.render().encode())
    for text in (out.query_csv, out.roundtrip, *out.artifacts, *out.entity_csvs.values()):
        digest.update(b"\0" + text.encode())
    return digest.hexdigest()[:16]


def set_up(workload: Workload, seed: int) -> tuple[Engine, Case, Case, float]:
    """Import the engine afresh and generate both documents; timed."""
    gc.collect()
    start = time.perf_counter()
    engine = load_engine(ROOT)
    main = generate(workload, workload.main, seed, engine.generators)
    half = generate(workload, workload.half, seed, engine.generators)
    return engine, main, half, time.perf_counter() - start


def sample_end_to_end(runner: Runner, main: Case, half: Case, seconds: float) -> dict:
    """Run two main-size jobs to each half-size one, interleaved, so that the
    two medians the slope compares sample the same stretch of the machine's
    time while most samples go to the main-size metrics. The reference work
    runs before every job and after the last. Each sample is (wall s, cpu s,
    reference wall s, reference cpu s), the reference times being the mean
    of the two reference runs either side of the job."""
    samples: dict[str, list] = {"main": [], "half": []}
    before = time_reference()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not samples["half"]:
        label = "half" if len(samples["main"]) > 2 * len(samples["half"]) else "main"
        wall, cpu, _ = runner.job(label, main if label == "main" else half)
        after = time_reference()
        samples[label].append((wall, cpu, (before[0] + after[0]) / 2, (before[1] + after[1]) / 2))
        before = after
    return samples


def sample_layers(runner: Runner, main: Case, seconds: float) -> dict:
    """Alternate untraced and traced main-size jobs."""
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    spans: dict[str, dict] = {}
    last_traced = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not (untraced and traced):
        if len(untraced) <= len(traced):
            untraced.append(runner.job("main", main)[0])
            continue
        tracer = Tracer()
        wall, _, job = runner.job("main", main, tracer)
        traced.append(wall)
        if job is not None:
            layers.append(layer_values(tracer, job, wall))
            last_traced = wall
            spans = {
                name: {"calls": s.calls, "work": s.work, "busy_s": s.busy, "self_s": s.self_time}
                for name, s in sorted(tracer.spans.items())
            }
    return {"untraced": untraced, "traced": traced, "layers": layers, "spans": spans,
            "last_traced_s": last_traced}


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    reference = json.loads(argv[4])
    workload = WORKLOADS[name]
    before = time_reference()
    try:
        engine, main_case, half_case, first_setup = set_up(workload, seed)
    except (FileNotFoundError, ImportError) as err:
        print(f"error: cannot load the engine: {err}", file=sys.stderr)
        return 1
    after = time_reference()
    # (set-up wall s, mean wall s of the reference runs either side)
    setups = [(first_setup, (before[0] + after[0]) / 2)]
    runner = Runner(engine, workload, reference)
    if trace:
        result = sample_layers(runner, main_case, seconds)
    else:
        result = sample_end_to_end(runner, main_case, half_case, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Every re-import leaves some module memory behind, so the other set-ups
    # are timed only after the peak RSS of one set-up and the jobs is read.
    before = time_reference()
    for _ in range(SETUP_REPEATS - 1):
        took = set_up(workload, seed)[3]
        after = time_reference()
        setups.append((took, (before[0] + after[0]) / 2))
        before = after
    result.update(
        setup_s=setups,
        source_rows=main_case.source_rows,
        jobs=runner.jobs,
        failures=runner.failures,
        fingerprints=runner.fingerprints,
        peak_rss_mb=peak_rss_mb,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
