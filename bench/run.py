"""torsionlab benchmark: one workload, one seed, one timed closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up runs bench/prepare.py in a fresh interpreter (SETUP_REPS times with
--trace 0, for the median set-up time; once with --trace 1).  The jobs are
CLI subcommands run in this process through torsionlab.cli.main, one at a
time (a closed loop with one client), with stdout captured and every
output checked against the generator's oracle.

--trace 0 runs the jobs for S seconds and reports the end-to-end metrics.
Job times are gated in refs of a calibration kernel timed between jobs
(see Calibration); their wall-time values are printed above the result.
--trace 1 runs whole cycles of the job list for about S seconds, each job
once untraced and once under the layer timer, and reports the per-layer
metrics (per traced job) and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
SETUP_TIMEOUT_S = 150
REL_TOL = 1e-9  # outputs carry 12 significant digits
TAIL_BEYOND = 10  # samples required beyond the tail percentile
MIN_JOBS = TAIL_BEYOND + 1
CALIBRATION_SHARE = 0.01  # of each job's time spent timing the calibration kernel

# per-layer metrics: ".s"/".self_s" are seconds per traced job, ".calls"
# and the counters are counts per traced job
SPAN_METRICS = (
    "laurent.LaurentMatrix.det.s",
    "laurent.LaurentMatrix.det.calls",
    "twisted.boundary2.s",
    "twisted.phi_apply.s",
    "twisted.choose_pivot.s",
    "twisted.cuspidality_check.s",
    "twisted.twisted_alexander.self_s",
    "freegroup.fox_derivative.calls",
    "freegroup.fox_derivative.s",
    "reps.UnitaryRep.of_word.calls",
    "reps.parse_representation.s",
    "cwcomplex.knot_complex.s",
    "cwcomplex.TwistedCWComplex.validate_boundary.s",
    "cwcomplex.twisted_boundary.s",
    "cwcomplex.torsion_report.s",
    "ruelle.parse_spectrum.s",
    "ruelle.truncated_ruelle.s",
    "ruelle.convergence_report.s",
    "presentations.parse_presentation.s",
    "cli.main.s",
    "cli.main.self_s",
)
COUNTER_METRICS = (
    "laurent.det.lapack_calls",
    "laurent.det.lapack_matrices",
    "cwcomplex.eigvalsh.calls",
    "ruelle.eig_matrices",
)


class JobFailure(Exception):
    """A job's exit code or output disagrees with its oracle."""


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _complex(s):
    re_s, im_s = s.split(",")
    return complex(float(re_s), float(im_s))


_ROW = re.compile(r"L=\S+ log_value=(\S+) used=(\d+)(?: delta=\S+)?")


def check(job, code, stdout):
    """Worst relative error of one job's output against its oracle.

    Raises JobFailure on a non-zero exit, unparsable output, a withheld or
    disagreeing value, or an error above REL_TOL.
    """
    if code != 0:
        raise JobFailure(f"exit code {code}")
    try:
        report = json.loads(stdout)
        if job["kind"] == "talex":
            errs = [rel_err(float(report["ruelle_at_0"]), job["expect"])]
        elif job["kind"] == "verify":
            if report["agree"] != "true":
                raise JobFailure("routes disagree")
            errs = [rel_err(float(report["fox_route"]), job["expect"])]
        else:
            want = job["expect"]
            errs = [rel_err(_complex(report["value"]), complex(*want["value"]))]
            rows = [_ROW.fullmatch(v).groups() for k, v in report.items()
                    if k.startswith("cutoff_")]
            if [int(used) for _, used in rows] != [r[0] for r in want["rows"]]:
                raise JobFailure("entries used per cutoff differ")
            for (log_s, _), (_, re_w, im_w) in zip(rows, want["rows"]):
                # a log value near 0 is compared on the scale of 1
                errs.append(abs(_complex(log_s) - complex(re_w, im_w))
                            / max(1.0, abs(complex(re_w, im_w))))
    except (KeyError, ValueError, AttributeError, TypeError) as exc:
        raise JobFailure(f"unreadable output: {exc!r}") from None
    worst = max(errs)
    if not worst <= REL_TOL:
        raise JobFailure(f"relative error {worst:.3g} above {REL_TOL:g}")
    return worst


class Runner:
    """Runs jobs through the CLI and tallies their outcomes."""

    def __init__(self, cli, run_cli):
        self.cli = cli
        self.run_cli = run_cli
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0

    def run(self, job):
        """Run one job; return its wall time in seconds, failed or not."""
        t0 = time.perf_counter()
        try:
            # looked up per call so that the traced wrapper of main is used
            code, out = self.run_cli(self.cli.main, job["argv"])
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code, out = f"exception {exc!r}", ""
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        try:
            self.max_rel_err = max(self.max_rel_err, check(job, code, out))
        except JobFailure as exc:
            self.failed += 1
            print(f"FAILED {job['label']}: {exc}", file=sys.stderr)
        return elapsed


def percentile(sorted_vals, p):
    """Linear-interpolation percentile of an ascending list (numpy's default)."""
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest percentile, to 0.1, with at least TAIL_BEYOND of n samples beyond it."""
    return max(0.0, math.floor(1000.0 * (n - TAIL_BEYOND) / n) / 10.0)


def run_setup(args, out):
    """Run bench/prepare.py in a fresh interpreter; return its JSON report."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(out)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cycles(jobs, rng):
    """The job list forever, reshuffled each cycle."""
    while True:
        order = list(jobs)
        rng.shuffle(order)
        yield order


class Calibration:
    """A fixed kernel timed before every job and once after the last.

    The kernel does what the jobs spend their time on: complex arithmetic
    in the interpreter, dict updates, and small LAPACK determinants through
    numpy.  It allocates no objects the garbage collector tracks, so its
    time does not grow with the jobs' heap.  Each calibration point is the
    median kernel time over runs that fill CALIBRATION_SHARE of the job
    before it (at least one run).  One "ref" is the mean of the points on
    either side of a job; a job's time in refs cancels drifts in CPU speed
    that last longer than a job.
    """

    def __init__(self):
        import numpy as np

        self.det = np.linalg.det
        phases = np.arange(144).reshape(12, 12)
        self.mats = [np.exp(0.37j * (k + 1) * phases) + 2 * np.eye(12) for k in range(40)]
        self.points = []

    def kernel(self):
        t0 = time.perf_counter()
        acc, z = 0j, complex(0.6, 0.8)
        for k in range(10000):
            acc = acc * z + k
        table = {}
        for k in range(4000):
            table[k] = table.get(k - 1, 0.0) + acc.real
        for m in self.mats:
            self.det(m)
        return time.perf_counter() - t0

    def point(self, after_s=0.0):
        runs = [self.kernel()]
        while sum(runs) < CALIBRATION_SHARE * after_s:
            runs.append(self.kernel())
        self.points.append(statistics.median(runs))


def measure(runner, jobs, rng, seconds, calibration):
    """Closed loop for `seconds` (and at least MIN_JOBS jobs).

    Returns the job times, each job time in refs, and the wall time of the
    loop.
    """
    times = []
    start = time.perf_counter()
    calibration.point()
    for order in cycles(jobs, rng):
        for job in order:
            if time.perf_counter() - start >= seconds and len(times) >= MIN_JOBS:
                wall = time.perf_counter() - start
                c = calibration.points
                rel = [t / (0.5 * (c[k] + c[k + 1])) for k, t in enumerate(times)]
                return times, rel, wall
            times.append(runner.run(job))
            calibration.point(times[-1])


def end_to_end(runner, jobs, rng, seconds, setups):
    calibration = Calibration()
    times, rel, wall = measure(runner, jobs, rng, seconds, calibration)
    times.sort()
    rel.sort()
    n = len(times)
    p_tail = tail_percentile(n)
    completed = n - runner.failed
    setup_times = [s["setup_s"] for s in setups]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_ref.p50": (percentile(rel, 50), "ref"),
        "job_ref.tail": (percentile(rel, p_tail), "ref"),
        "jobs_per_kref": (1000.0 * completed / sum(rel), "1/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = round(n * (100 - p_tail) / 100)
    print(f"jobs: {n} in {wall:.2f} s ({completed} completed)")
    print(f"calibration: median {statistics.median(calibration.points) * 1e3:.4g} ms "
          f"over {len(calibration.points)} points")
    print(f"job_s.p50 = {percentile(times, 50):.6g} s")
    print(f"job_s.tail = {percentile(times, p_tail):.6g} s (p{p_tail:g} of {n} jobs, {beyond} beyond)")
    print(f"jobs_per_s = {completed / sum(times):.6g} 1/s")
    notes = {
        "setup_s": f"median of {len(setup_times)}: " + ", ".join(f"{t:.4g}" for t in setup_times),
        "job_ref.tail": f"p{p_tail:g}",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f" ({notes[name]})" if name in notes else ""))
    return metrics


def traced(runner, jobs, rng, seconds):
    """Whole cycles, each job untraced then traced, for about `seconds`."""
    tracer = Tracer()
    ratios = []
    traced_jobs = entries = 0
    start = time.perf_counter()
    for order in cycles(jobs, rng):
        for job in order:
            plain = runner.run(job)
            tracer.install()
            try:
                with_trace = runner.run(job)
            finally:
                tracer.uninstall()
            tracer.end_job()
            ratios.append(with_trace / plain)
            traced_jobs += 1
            entries += job.get("entries", 0)
        if time.perf_counter() - start >= seconds:
            break

    def per_job(x):
        return x / traced_jobs

    values = {}
    for name in SPAN_METRICS:
        span, _, stat = name.rpartition(".")
        source = {"s": tracer.total_s, "self_s": tracer.self_s, "calls": tracer.calls}[stat]
        values[name] = (per_job(source.get(span, 0)), "count" if stat == "calls" else "s")
    for name in COUNTER_METRICS:
        values[name] = (per_job(tracer.counts.get(name, 0)), "count")
    eig = tracer.counts.get("ruelle.eig_matrices", 0)
    values["ruelle.eig_per_entry"] = (eig / entries if entries else 0.0, "ratio")
    values["trace.overhead"] = (statistics.median(ratios) - 1.0, "ratio")
    values["trace.errors"] = (sum(tracer.errors.values()), "count")
    values["trace.absent"] = (len(tracer.absent), "count")

    print(f"traced jobs: {traced_jobs} (each also run untraced), "
          f"{time.perf_counter() - start:.2f} s")
    print(f"{'span':48s} {'calls/job':>10s} {'s/job':>10s} {'self s/job':>10s} errors")
    for name in tracer.names():
        if name in tracer.absent:
            print(f"{name:48s} absent")
        elif tracer.calls.get(name):
            print(f"{name:48s} {per_job(tracer.calls[name]):10.4g} "
                  f"{per_job(tracer.total_s[name]):10.4g} "
                  f"{per_job(tracer.self_s[name]):10.4g} {tracer.errors[name]}")
    layers = [n for n in tracer.calls if n != "cli.main"]
    if layers:
        print("largest self time: " + max(layers, key=tracer.self_s.get))
        print("largest inclusive time: " + max(layers, key=tracer.total_s.get))
    print(f"tracing overhead: {values['trace.overhead'][0]:+.4f} "
          f"(median traced/untraced - 1 over {len(ratios)} job pairs)")
    return values


def main(argv=None):
    # one BLAS thread, fixed before numpy is first imported (here or in set-up)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("TORSIONLAB_CORPUS", None)
    import prepare as setup_step

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=setup_step.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            setups = [run_setup(args, work / f"setup{k}")
                      for k in range(1 if args.trace else SETUP_REPS)]
            cli = setup_step.import_cli()
        except (RuntimeError, ImportError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        jobs = json.loads((work / f"setup{len(setups) - 1}" / "manifest.json").read_text())["jobs"]
        runner = Runner(cli, setup_step.run_cli)
        rng = random.Random(args.seed)
        print(f"workload {args.workload}, seed {args.seed}, {len(jobs)} job types")
        if args.trace:
            metrics = traced(runner, jobs, rng, args.seconds)
        else:
            metrics = end_to_end(runner, jobs, rng, args.seconds, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    golden_cases = setups[-1]["golden_cases"]
    golden_failed = max(s["golden_failed"] for s in setups)
    attempted = runner.attempted + golden_cases
    failed = runner.failed + golden_failed
    print(f"golden check: {golden_cases - golden_failed}/{golden_cases} corpus outputs identical")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"max_rel_err = {runner.max_rel_err:.3g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
