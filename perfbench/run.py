#!/usr/bin/env python3
"""Benchmark for the spinmirror package.

Run from the repository root:

    python3 perfbench/run.py --workload mirror --seed 1 --seconds 55 --trace 0

Workloads (``mirror``, ``sparse-sweep``) are described in
``perfbench/README.md``. One process runs one workload as a closed loop with a
single caller, cycling through the job list for about ``--seconds``.
With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. The last line of stdout is the result object; the full
record (environment, every sample, the scaling record) goes to
``.bench_out/``, and with tracing on, so do the spans.

The process stops itself after ``CAP_S`` seconds of wall clock, so a
regression onto a path that takes minutes ends as a failed run with a message
instead of a silent hang.
"""

from __future__ import annotations

import argparse
import faulthandler
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback

WORKLOADS = ("mirror", "sparse-sweep")
RECORD_DIR = ".bench_out"
CAP_S = 150.0  # wall-clock cap of one benchmark process
# BLAS threads of the measured passes. On a few shared cores a second BLAS
# thread makes every eigh wait for a thread that another tenant may hold: with
# one core busy, two threads ran the sweep jobs 2x and mirror 2.4x slower, one
# thread not at all (figures in README.md). A traced run makes one pass at nproc
# threads, so the effect of threading stays visible.
MEASURED_THREADS = 1
# with the parent's own set-up, the median of three; one sample alone is too
# noisy for the bound of setup_s (figures in README.md)
SETUP_CHILDREN = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WallClockExceeded(BaseException):
    """Raised by the alarm; a BaseException so library handlers let it pass."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "threaded-pass"), default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def pin_blas_threads(threads: int) -> None:
    """Must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(threads)


def install_guard() -> None:
    def on_alarm(signum, frame):
        raise WallClockExceeded()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    # backstop for a single native call that never returns to the interpreter
    faulthandler.dump_traceback_later(CAP_S + 15, exit=True)


def load_spec() -> dict:
    with open("BENCHMARK.json") as f:
        return json.load(f)


def locate_package() -> None:
    """Import spinmirror from ./src of the checkout, never from elsewhere."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "spinmirror", "__init__.py")):
        raise SystemExit("perfbench: no src/spinmirror here; run from the repository root")
    sys.path.insert(0, src)


def timed_setup(workload: str, seed: int, outdir: str):
    """Imports, seeded inputs and reference values: the work before the first job."""
    start = time.perf_counter()
    import workloads  # imports numpy, scipy and spinmirror

    built = workloads.build(workload, seed, outdir)
    elapsed = time.perf_counter() - start
    import spinmirror

    if not os.path.realpath(spinmirror.__file__).startswith(os.path.realpath("src") + os.sep):
        raise SystemExit(f"perfbench: imported spinmirror from {spinmirror.__file__}")
    return elapsed, built


def child(args, role: str, threads: int, timeout: float) -> dict:
    """Re-run this script as a child process and return its JSON last line.
    The timeout, the time left to this process, bounds the child."""
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(threads)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--child", role]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- passes -------------------------------------------------------------------


class Runner:
    """Runs passes over a workload's jobs and keeps every sample and failure."""

    def __init__(self, built, state: dict):
        self.jobs = built.jobs
        self.state = state
        self.reference_digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: list[dict] = []  # one per job execution

    def run_pass(self, label: str, tracer=None) -> float:
        """One pass; returns the summed job latency."""
        total = sum(self.run_job(job, label, tracer) for job in self.jobs)
        self.state["job"] = None
        return total

    def run_job(self, job, label: str, tracer=None) -> float:
        """One job; returns its latency. A job's first run is checked against
        the references; every later run must reproduce its digest."""
        self.state["job"] = job.name
        self.attempted += 1
        problems = []
        if tracer is not None:
            tracer.job = job.name
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception:
            elapsed = time.perf_counter() - start
            problems.append("raised:\n" + traceback.format_exc())
        else:
            elapsed = time.perf_counter() - start
            problems += self._verify(job, result, label)
        self.samples.append({"pass": label, "job": job.name, "seconds": elapsed,
                             "ok": not problems})
        if problems:
            self.failed += 1
            for p in problems:
                self.problems.append(f"{label} {job.name}: {p}")
                print(f"perfbench: FAILED {label} {job.name}: {p}", file=sys.stderr)
        return elapsed

    def _verify(self, job, result, label) -> list[str]:
        digest = job.digest(result)
        if job.name not in self.reference_digests:
            self.reference_digests[job.name] = digest
            return list(job.check(result))
        if digest != self.reference_digests[job.name]:
            return [f"outputs differ from the first pass ({label})"]
        return []


def another_pass(measured: float, last: float, last_wall: float, seconds: float,
                 deadline: float) -> bool:
    """Whether a pass like the last one still fits in the measured time
    (job time only; checks and digests are not measured) and before the cap."""
    return measured + last <= seconds and time.perf_counter() + 2 * last_wall <= deadline


def run_untraced(runner: Runner, seconds: float, deadline: float) -> dict[str, list[float]]:
    """Cycle through the jobs one at a time while a job's last latency still
    fits in the measured time and before the cap; the first pass always runs
    whole. Returns every job's latencies."""
    jobs = runner.jobs
    latencies: dict[str, list[float]] = {job.name: [] for job in jobs}
    measured = 0.0
    for i in itertools.count():
        job = jobs[i % len(jobs)]
        if i >= len(jobs):
            last = latencies[job.name][-1]
            if measured + last > seconds or time.perf_counter() + 2 * last > deadline:
                break
        elapsed = runner.run_job(job, f"pass{i // len(jobs)}")
        latencies[job.name].append(elapsed)
        measured += elapsed
    runner.state["job"] = None
    return latencies


def run_traced(runner: Runner, seconds: float, deadline: float, spans_path: str):
    """Alternate untraced and traced passes; the traced ones must reproduce
    the untraced outputs byte for byte."""
    from tracer import Tracer

    plain, traced = [], []
    while True:
        t0 = time.perf_counter()
        plain.append(runner.run_pass(f"plain{len(plain)}"))
        tracer = Tracer()
        with tracer:
            wall = runner.run_pass(f"traced{len(traced)}", tracer)
        traced.append((wall, tracer))
        measured = sum(plain) + sum(w for w, _ in traced)
        if not another_pass(measured, plain[-1] + wall, time.perf_counter() - t0, seconds, deadline):
            break
    # report one whole traced pass, the median one, so its self times and
    # uncovered time add up to its wall time exactly
    traced.sort(key=lambda pair: pair[0])
    wall, tracer = traced[(len(traced) - 1) // 2]
    tracer.write_spans(spans_path)
    layers = tracer.layer_metrics(wall)
    layers["trace.overhead_ratio"] = statistics.median(w for w, _ in traced) / statistics.median(plain)
    return plain, [w for w, _ in traced], layers


# -- environment --------------------------------------------------------------


def git_commit() -> str:
    """HEAD of a .git directory in the working directory, read without git."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        with open(".git/packed-refs") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": threads,
        "commit": git_commit(),
        "seed": seed,
    }


# -- main ---------------------------------------------------------------------


class MetricMissing(Exception):
    """A metric of BENCHMARK.json that this run did not measure."""


def metric_block(names_units, values: dict) -> dict:
    missing = [name for name, _ in names_units if name not in values]
    if missing:
        # e.g. a traced function renamed or moved: its numbers must not read as 0
        raise MetricMissing(", ".join(missing))
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in names_units}


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    state: dict = {"job": None}
    threads = nproc() if args.child == "threaded-pass" else MEASURED_THREADS
    pin_blas_threads(threads)
    install_guard()
    deadline = started + 0.85 * CAP_S  # no new pass may start past this
    try:
        spec = load_spec()
        locate_package()
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        outdir = os.path.join(RECORD_DIR, args.workload)
        if args.child == "setup":
            setup_s, _ = timed_setup(args.workload, args.seed, os.path.join(outdir, "setup-child"))
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.child == "threaded-pass":
            _, built = timed_setup(args.workload, args.seed, os.path.join(outdir, "threaded"))
            runner = Runner(built, state)
            wall = runner.run_pass("threaded")
            print(json.dumps({"wall_s": wall, "attempted": runner.attempted,
                              "failed": runner.failed, "problems": runner.problems}))
            return 0
        return measure(args, spec, state, started, deadline, threads, outdir)
    except (WallClockExceeded, subprocess.TimeoutExpired):
        job = state.get("job")
        print(f"perfbench: workload {args.workload} exceeded its {CAP_S:g} s wall-clock cap"
              f"{f' during job {job}' if job else ''}; no result", file=sys.stderr)
        return 3
    except MetricMissing as missing:
        print(f"perfbench: metrics not measured: {missing}; no result", file=sys.stderr)
        return 4
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        faulthandler.cancel_dump_traceback_later()


def measure(args, spec, state, started, deadline, threads, outdir) -> int:
    setup_s, built = timed_setup(args.workload, args.seed, os.path.join(outdir, "jobs"))

    def cap_left() -> float:
        return max(1.0, started + CAP_S - time.perf_counter())

    setup_samples = [setup_s]
    for _ in range(SETUP_CHILDREN):
        setup_samples.append(child(args, "setup", threads, cap_left())["setup_s"])
    runner = Runner(built, state)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed, threads), "setup_samples_s": setup_samples}
    os.makedirs(RECORD_DIR, exist_ok=True)
    stem = os.path.join(RECORD_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        plain, traced, layers = run_traced(runner, args.seconds, deadline, stem + ".spans.csv")
        import workloads

        record["scaling"] = workloads.scaling_record(built)
        threaded = child(args, "threaded-pass", nproc(), cap_left())
        runner.attempted += threaded["attempted"]
        runner.failed += threaded["failed"]
        runner.problems += [f"threaded {p}" for p in threaded["problems"]]
        layers["blas_nproc.wall_s"] = threaded["wall_s"]
        layers["blas_nproc.speedup"] = statistics.median(plain) / threaded["wall_s"]
        record.update(plain_walls_s=plain, traced_walls_s=traced)
        values, names = layers, [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        latencies = run_untraced(runner, args.seconds, deadline)
        import resource

        # each job's fastest latency stands for it once, as in one pass: on a
        # shared host, interference only adds time, so the fastest execution
        # is the steadiest measure of a job's cost (figures in README.md)
        typical = [min(v) for v in latencies.values()]
        deciles = statistics.quantiles(typical, n=10, method="inclusive")
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": sum(typical),
            "job_p50_s": deciles[4],
            "job_p90_s": deciles[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record.update(job_latencies_s=latencies, job_samples=len(runner.samples))
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    values["fail_ratio"] = runner.failed / runner.attempted
    metrics = metric_block(names, values)
    record.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems,
                  samples=runner.samples, metrics=values)
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"environment": record["environment"]}))
    print(f"perfbench: {args.workload} seed {args.seed}: {runner.attempted} jobs, "
          f"{runner.failed} failed, record in {stem}.json")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
