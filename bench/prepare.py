"""Set-up step of one benchmark run: inputs from a seed, then the golden check.

    python3 bench/prepare.py --workload NAME --seed N --out DIR

Writes the workload's input files and ``DIR/manifest.json`` (the job list
with each job's expected value), runs the corpus golden check, and prints
one JSON line: the set-up time in seconds (input generation, imports and
the golden check, measured from before the first import) and the golden
check's counts.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every knot and size below is fixed; the seed draws the representations,
# characters, evaluation points and cutoffs.  A fixed job mix keeps the cost
# of a run the same from seed to seed, and an odd number of job types with
# distinct costs keeps the median inside one job type.

# talex_highrank: (p, q, rank), relators of 30-70 letters, T(4,k)/T(5,k) at
# rank 4 only (rank 8 there takes over a second per job)
TALEX_JOBS = (
    (2, 15, 8), (2, 25, 8), (2, 33, 8), (3, 14, 8), (3, 16, 8),
    (3, 22, 4), (3, 32, 4), (4, 13, 4), (5, 11, 4),
)
# verify_longrel: (p, q), relators of 60-130 letters, rank 1
VERIFY_KNOTS = ((2, 29), (3, 28), (2, 37), (3, 44), (2, 51), (3, 53), (2, 63))
# ruelle_table: (rank, cutoff fractions of the entries); each job's
# cutoffs together use about one spectrum's worth of entries
SPECTRUM_ENTRIES = 20000
RUELLE_JOBS = (
    (1, (1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2)),
    (1, tuple(2.0 ** -k for k in range(8, 0, -1))),
    (2, tuple(2.0 ** -k for k in range(6, 0, -1))),
)
CORPUS_KNOTS = ("unknot", "trefoil", "figure_eight", "knot_5_2")
GOLDEN_FILE = HERE / "golden.json"


def import_cli():
    """torsionlab.cli imported from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "torsionlab" / "__init__.py").is_file():
        raise ImportError(f"no torsionlab package under {src}")
    sys.path.insert(0, str(src))
    import torsionlab.cli

    if Path(torsionlab.cli.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"torsionlab was imported from {torsionlab.cli.__file__}, not {src}")
    return torsionlab.cli


def golden_cases():
    """argv of every corpus CLI call whose output is pinned by golden.json."""
    return [
        [cmd, knot, f"--xi={xi}", f"--format={fmt}"]
        for knot in CORPUS_KNOTS
        for xi in ("0,1", "-1,0")
        for cmd in ("talex", "verify-knot")
        for fmt in ("text", "json-lines")
    ]


def run_cli(main, argv):
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def golden_check(main):
    """Number of corpus cases whose exit code or stdout differ from golden.json."""
    expected = {tuple(c["argv"]): (c["code"], c["stdout"])
                for c in json.loads(GOLDEN_FILE.read_text())}
    cases = golden_cases()
    failed = 0
    for argv in cases:
        if run_cli(main, argv) != expected.get(tuple(argv)):
            print(f"golden mismatch: {' '.join(argv)}", file=sys.stderr)
            failed += 1
    return len(cases), failed


def _z_arg(z):
    return f"{float(z.real)!r},{float(z.imag)!r}"


def talex_jobs(rng, out):
    jobs = []
    for p, q, rank in TALEX_JOBS:
        pres = out / f"T{p}_{q}.pres"
        pres.write_text(gen.torus_presentation(p, q))
        u, xis = gen.abelian_rep(rng, p, q, rank)
        rep = out / f"T{p}_{q}_r{rank}.rep"
        rep.write_text(gen.rep_text(p, u))
        jobs.append({
            "kind": "talex", "label": f"T({p},{q}) rank {rank}",
            "argv": ["talex", str(pres), f"--rep={rep}", "--format=json-lines"],
            "expect": gen.ruelle_oracle(p, q, xis),
        })
    return jobs


def verify_jobs(rng, out):
    jobs = []
    for p, q in VERIFY_KNOTS:
        pres = out / f"T{p}_{q}.pres"
        pres.write_text(gen.torus_presentation(p, q))
        xi = gen.unit_away_from_roots(rng, p, q)
        jobs.append({
            "kind": "verify", "label": f"T({p},{q})",
            "argv": ["verify-knot", str(pres), f"--xi={_z_arg(xi)}", "--format=json-lines"],
            "expect": gen.ruelle_oracle(p, q, [xi]),
        })
    return jobs


def ruelle_jobs(rng, out):
    jobs = []
    for k, (rank, fractions) in enumerate(RUELLE_JOBS):
        lengths, angles, hol = gen.spectrum(rng, SPECTRUM_ENTRIES, rank)
        spec = out / f"spectrum{k}_r{rank}.spec"
        spec.write_text(gen.spectrum_text(lengths, hol))
        z = complex(rng.uniform(2.5, 4.0), rng.uniform(-1.0, 1.0))
        jitter = rng.uniform(0.9, 1.1, size=len(fractions))
        cutoffs = [float(np.quantile(lengths, min(f * j, 1.0)))
                   for f, j in zip(fractions, jitter)]
        value = complex(np.exp(gen.ruelle_log_oracle(lengths, angles, z)))
        # one row per cutoff, ascending: entries used, then log value re, im
        rows = []
        for c in sorted(cutoffs):
            log_c = gen.ruelle_log_oracle(lengths, angles, z, c)
            rows.append([int(np.sum(lengths <= c)), log_c.real, log_c.imag])
        jobs.append({
            "kind": "ruelle", "label": f"{SPECTRUM_ENTRIES} entries rank {rank}",
            "argv": ["ruelle-eval", str(spec), f"--z={_z_arg(z)}",
                     "--cutoffs=" + ",".join(repr(c) for c in cutoffs),
                     "--format=json-lines"],
            "entries": SPECTRUM_ENTRIES,
            "expect": {"value": [value.real, value.imag], "rows": rows},
        })
    return jobs


BUILDERS = {"talex_highrank": talex_jobs, "verify_longrel": verify_jobs,
            "ruelle_table": ruelle_jobs}
WORKLOADS = tuple(BUILDERS)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
    jobs = BUILDERS[args.workload](rng, args.out)
    (args.out / "manifest.json").write_text(json.dumps({"jobs": jobs}))

    # the golden outputs are those of the bundled corpus
    os.environ.pop("TORSIONLAB_CORPUS", None)
    cases, failed = golden_check(import_cli().main)
    print(json.dumps({"setup_s": time.perf_counter() - T0,
                      "golden_cases": cases, "golden_failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
