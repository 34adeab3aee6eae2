"""Command-line front end.

Subcommands::

    talex <presentation> (--xi re,im | --rep path)
    verify-knot <presentation> --xi re,im [--tol x]
    torsion-cw <complex> (--xi re,im | --rep path)
    ruelle-eval <spectrum> --z re,im [--cutoffs l1,l2,...]

Presentation/complex/spectrum arguments are file paths; a bare name is
looked up in the bundled corpus (override the directory with the
TORSIONLAB_CORPUS environment variable).  Output is plain text or
json-lines (--format), numbers printed to 12 significant digits.

Exit codes: 0 success, 1 parse or I/O error, 2 the theorem's hypotheses
fail (special values withheld), 3 verification deviation breach.  Each
subcommand returns its exit code and its report's (key, value) fields, and
``main`` prints the report, named after the subcommand, with ``emit``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .cwcomplex import knot_complex, parse_complex, torsion_report
from .laurent import TRIM_TOL
from .presentations import NUM, parse_presentation
from .reps import UnitaryRep, parse_representation
from .ruelle import SpectrumWarning, parse_spectrum, ruelle_eval
from .twisted import boundary2, checked_square, twisted_alexander

NOTE = ("note", "hyperbolicity of the knot complement is assumed, not verified; "
                "the geometric meaning of R(0) requires it")
WITHHELD = ("values", "withheld (hypotheses fail)")


def corpus_dir():
    override = os.environ.get("TORSIONLAB_CORPUS")
    if override:
        return Path(override)
    return Path(__file__).parent / "corpus"


def resolve_input(arg, suffix):
    """A path if it exists, otherwise a corpus name."""
    p = Path(arg)
    if p.is_file():
        return p
    candidate = corpus_dir() / (arg if arg.endswith(suffix) else arg + suffix)
    if candidate.is_file():
        return candidate
    raise FileNotFoundError(f"no such file or corpus entry: {arg}")


def fmt(x):
    """Fixed 12-significant-digit rendering of a real number."""
    return f"{float(x):.12g}"


def fmt_complex(z):
    z = complex(z)
    return f"{z.real:.12g},{z.imag:.12g}"


def fmt_poly(p):
    """lowest exponent, then re,im coefficient pairs in increasing degree; a
    part of magnitude at most TRIM_TOL * max|c| is rounding noise and prints 0."""
    if p.is_zero:
        return "0"
    c, noise = np.array(p.coeffs), TRIM_TOL * p.max_abs_coeff()
    real, imag = (np.where(abs(x) <= noise, 0.0, x).tolist() for x in (c.real, c.imag))
    coeffs = " ".join(f"{a:.12g},{b:.12g}" for a, b in zip(real, imag))
    return f"low {p.low} coeffs {coeffs}"


_FLAG_NUMBER = re.compile(NUM)


def flag_numbers(s, what, form):
    """The comma-separated numbers of a flag, each a full match of the
    files' number grammar ``NUM`` and finite."""
    parts = s.split(",")
    if not all(map(_FLAG_NUMBER.fullmatch, parts)) or (form == "re,im" and len(parts) != 2):
        raise ValueError(f"{what} must be given as {form}, got {s!r}")
    values = [float(x) for x in parts]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite, got {s!r}")
    return values


def fmt_bool(b):
    """``true``, ``false``, or ``unknown`` for None."""
    return "unknown" if b is None else str(b).lower()


def emit(kind, fields, out_format):
    """Print a report, ``[kind]`` then one ``key = value`` line per field, or
    one json object."""
    if out_format == "json-lines":
        print(json.dumps({"report": kind, **dict(fields)}, separators=(",", ":")))
    else:
        print(f"[{kind}]")
        for k, v in fields:
            print(f"{k} = {v}")


def load_rep(args, names):
    """The representation of ``--rep``, or the character of ``--xi``, on the
    generators ``names``."""
    if args.rep:
        return parse_representation(Path(args.rep).read_text(), names)
    if args.xi is None:
        raise ValueError("one of --xi or --rep is required")
    return UnitaryRep.character(len(names), complex(*flag_numbers(args.xi, "--xi", "re,im")))


def load_knot(args):
    """The presentation of ``args.presentation`` and the representation on it."""
    pres = parse_presentation(resolve_input(args.presentation, ".pres").read_text())
    return pres, load_rep(args, pres.generator_names)


def cmd_talex(args):
    pres, rep = load_knot(args)
    result = twisted_alexander(pres, rep)
    fields = [("presentation", args.presentation), ("rank", rep.rank),
              ("pivot", result.pivot_column), ("delta0", fmt_poly(result.delta0)),
              ("delta1", fmt_poly(result.delta1)), ("cuspidal", fmt_bool(result.cuspidal)),
              ("h1_vanishes", fmt_bool(result.h1_vanishes))]
    if result.cuspidal is not True or result.torsion_at_1 is None:
        return 2, fields + [WITHHELD, NOTE]
    return 0, fields + [("torsion_at_1", fmt(result.torsion_at_1)),
                        ("ruelle_at_0", fmt(result.ruelle_at_0)), NOTE]


def cmd_verify_knot(args):
    if not 0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    pres, rep = load_knot(args)
    xi = complex(rep.images[0][0, 0])  # the --xi value, bit for bit

    result = twisted_alexander(pres, rep)
    fields = [("presentation", args.presentation), ("xi", fmt_complex(xi))]
    if result.cuspidal is not True or result.ruelle_at_0 is None:
        return 2, fields + [("h1_vanishes", fmt_bool(result.h1_vanishes)),
                            ("cuspidal", fmt_bool(result.cuspidal)), WITHHELD]

    # delta1 of the trivial rep, computed as twisted_alexander computes it
    trivial = UnitaryRep.character(pres.n_generators, 1.0)
    trivial_delta1 = boundary2(pres, trivial, skip_generator=result.pivot_column)[0].det()
    fox_value = result.ruelle_at_0
    cw_value = checked_square(torsion_report(knot_complex(pres), rep).torsion, "cw_route")
    # |A_K(xi)| from the trivial-rep delta1, which is A_K up to a unit of
    # modulus 1 on |t| = 1
    closed_form = checked_square(abs(trivial_delta1(xi)) / abs(1.0 - xi), "closed_form")

    values = [fox_value, cw_value, closed_form]
    deviation = max(
        abs(a - b) / max(abs(a), abs(b)) for a in values for b in values if a is not b
    )
    agree = deviation <= args.tol
    return 0 if agree else 3, fields + [
        ("fox_route", fmt(fox_value)), ("cw_route", fmt(cw_value)),
        ("closed_form", fmt(closed_form)), ("max_rel_deviation", fmt(deviation)),
        ("tolerance", fmt(args.tol)), ("agree", fmt_bool(agree)), NOTE]


def cmd_torsion_cw(args):
    cx = parse_complex(resolve_input(args.complex, ".cw").read_text())
    report = torsion_report(cx, load_rep(args, cx.generator_names))
    return 0, [
        ("complex", args.complex),
        ("betti", " ".join(str(b) for b in report.betti)),
        ("log_torsion", fmt(report.log_torsion)),
        ("torsion", fmt(report.torsion)),
        *((f"spectrum_{p}", " ".join(map(fmt, s))) for p, s in enumerate(report.spectra)),
    ]


def cmd_ruelle(args):
    with resolve_input(args.spectrum, ".spec").open() as f:
        spec = parse_spectrum(f)
    z = complex(*flag_numbers(args.z, "--z", "re,im"))
    cutoffs = (flag_numbers(args.cutoffs, "--cutoffs", "comma-separated numbers")
               if args.cutoffs else [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectrumWarning)
        rows, (value, tail) = ruelle_eval(spec, z, cutoffs)
    fields = [("spectrum", args.spectrum), ("z", fmt_complex(z)), ("entries", len(spec.lengths))]
    for L, logv, used, delta in rows:
        row = f"L={fmt(L)} log_value={fmt_complex(logv)} used={used}"
        if delta is not None:
            row += f" delta={fmt(delta)}"
        fields.append((f"cutoff_{fmt(L)}", row))
    return 0, fields + [("value", fmt_complex(value)), ("tail_bound", fmt(tail))]


@functools.cache
def build_parser():
    """The argument parser, built once per process: main reuses it for every call."""
    parser = argparse.ArgumentParser(
        prog="torsionlab",
        description="Twisted Alexander, combinatorial torsion, and Ruelle L-function tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json-lines"), default="text")

    p = sub.add_parser("talex", help="twisted Alexander pipeline on a presentation")
    p.add_argument("presentation")
    p.add_argument("--xi", help="rank-1 character value re,im")
    p.add_argument("--rep", help="path to a representation file")
    common(p)
    p.set_defaults(func=cmd_talex)

    p = sub.add_parser("verify-knot", help="compare Fox, CW, and closed-form routes")
    p.add_argument("presentation")
    p.add_argument("--xi", required=True, help="rank-1 character value re,im")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="relative agreement tolerance (default 1e-8)")
    common(p)
    p.set_defaults(func=cmd_verify_knot, rep=None)

    p = sub.add_parser("torsion-cw", help="torsion report of a twisted CW complex")
    p.add_argument("complex")
    p.add_argument("--xi", help="rank-1 character value re,im")
    p.add_argument("--rep", help="path to a representation file")
    common(p)
    p.set_defaults(func=cmd_torsion_cw)

    p = sub.add_parser("ruelle-eval", help="truncated Euler product over a length spectrum")
    p.add_argument("spectrum")
    p.add_argument("--z", required=True, help="evaluation point re,im")
    p.add_argument("--cutoffs", help="comma-separated length cutoffs for a convergence table")
    common(p)
    p.set_defaults(func=cmd_ruelle)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code, fields = args.func(args)
        emit(args.command, fields, args.format)
        return code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
