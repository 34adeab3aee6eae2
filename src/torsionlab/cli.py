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
fail (special values withheld), 3 verification deviation breach.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .cwcomplex import knot_complex, parse_complex, torsion_report
from .laurent import TRIM_TOL
from .presentations import parse_presentation
from .reps import UnitaryRep, parse_representation
from .ruelle import SpectrumWarning, parse_spectrum, ruelle_eval
from .twisted import boundary2, twisted_alexander

HYPERBOLICITY_NOTE = (
    "hyperbolicity of the knot complement is assumed, not verified; "
    "the geometric meaning of R(0) requires it"
)


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
    re, im = (np.where(abs(x) <= noise, 0.0, x).tolist() for x in (c.real, c.imag))
    coeffs = " ".join(f"{a:.12g},{b:.12g}" for a, b in zip(re, im))
    return f"low {p.low} coeffs {coeffs}"


def parse_complex_flag(s, what):
    try:
        re_s, im_s = s.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise ValueError(f"{what} must be given as re,im, got {s!r}") from None


class Report:
    """Ordered key/value report, rendered as text lines or one json object."""

    def __init__(self, kind):
        self.kind = kind
        self.fields = []

    def add(self, key, value):
        self.fields.append((key, value))

    def emit(self, out_format, file=None):
        if file is None:
            file = sys.stdout
        if out_format == "json-lines":
            obj = {"report": self.kind}
            obj.update({k: v for k, v in self.fields})
            print(json.dumps(obj, separators=(",", ":")), file=file)
        else:
            print(f"[{self.kind}]", file=file)
            for k, v in self.fields:
                print(f"{k} = {v}", file=file)


def load_rep(args, names):
    """The representation of ``--rep``, or the character of ``--xi``, on the
    generators ``names``."""
    if args.rep:
        return parse_representation(Path(args.rep).read_text(), names)
    if args.xi is None:
        raise ValueError("one of --xi or --rep is required")
    return UnitaryRep.character(len(names), parse_complex_flag(args.xi, "--xi"))


def cmd_talex(args):
    pres = parse_presentation(resolve_input(args.presentation, ".pres").read_text())
    rep = load_rep(args, pres.generator_names)
    result = twisted_alexander(pres, rep)

    rpt = Report("talex")
    rpt.add("presentation", args.presentation)
    rpt.add("rank", rep.rank)
    rpt.add("pivot", result.pivot_column)
    rpt.add("delta0", fmt_poly(result.delta0))
    rpt.add("delta1", fmt_poly(result.delta1))
    cusp = result.cuspidal
    rpt.add("cuspidal", "unknown" if cusp is None else str(cusp).lower())
    rpt.add("h1_vanishes", str(result.h1_vanishes).lower())
    hypotheses_ok = result.h1_vanishes and cusp is True and result.torsion_at_1 is not None
    if hypotheses_ok:
        rpt.add("torsion_at_1", fmt(result.torsion_at_1))
        rpt.add("ruelle_at_0", fmt(result.ruelle_at_0))
    else:
        rpt.add("values", "withheld (hypotheses fail)")
    rpt.add("note", HYPERBOLICITY_NOTE)
    rpt.emit(args.format)
    return 0 if hypotheses_ok else 2


def cmd_verify_knot(args):
    pres = parse_presentation(resolve_input(args.presentation, ".pres").read_text())
    rep = load_rep(args, pres.generator_names)
    xi = complex(rep.images[0][0, 0])  # the --xi value, bit for bit

    result = twisted_alexander(pres, rep)
    # delta1 of the trivial rep, computed as twisted_alexander computes it
    trivial = UnitaryRep.character(pres.n_generators, 1.0)
    trivial_delta1 = boundary2(pres, trivial, skip_generator=result.pivot_column).det()

    rpt = Report("verify-knot")
    rpt.add("presentation", args.presentation)
    rpt.add("xi", fmt_complex(xi))
    hypotheses_ok = (
        result.h1_vanishes and result.cuspidal is not False and result.ruelle_at_0 is not None
    )
    if not hypotheses_ok:
        rpt.add("h1_vanishes", str(result.h1_vanishes).lower())
        rpt.add("cuspidal", "unknown" if result.cuspidal is None else str(result.cuspidal).lower())
        rpt.add("values", "withheld (hypotheses fail)")
        rpt.emit(args.format)
        return 2

    fox_value = result.ruelle_at_0
    cw = torsion_report(knot_complex(pres), rep)
    cw_value = cw.torsion**2
    # |A_K(xi)| from the trivial-rep delta1, which is A_K up to a unit of
    # modulus 1 on |t| = 1
    closed_form = (abs(trivial_delta1(xi)) / abs(1.0 - xi)) ** 2

    values = [fox_value, cw_value, closed_form]
    deviation = max(
        abs(a - b) / max(abs(a), abs(b)) for a in values for b in values if a is not b
    )
    rpt.add("fox_route", fmt(fox_value))
    rpt.add("cw_route", fmt(cw_value))
    rpt.add("closed_form", fmt(closed_form))
    rpt.add("max_rel_deviation", fmt(deviation))
    rpt.add("tolerance", fmt(args.tol))
    rpt.add("agree", str(deviation <= args.tol).lower())
    rpt.add("note", HYPERBOLICITY_NOTE)
    rpt.emit(args.format)
    return 0 if deviation <= args.tol else 3


def cmd_torsion_cw(args):
    cx = parse_complex(resolve_input(args.complex, ".cw").read_text())
    rep = load_rep(args, cx.generator_names)
    report = torsion_report(cx, rep)
    rpt = Report("torsion-cw")
    rpt.add("complex", args.complex)
    rpt.add("betti", " ".join(str(b) for b in report.betti))
    rpt.add("log_torsion", fmt(report.log_torsion))
    rpt.add("torsion", fmt(report.torsion))
    for p, spectrum in enumerate(report.spectra):
        rpt.add(f"spectrum_{p}", " ".join(fmt(x) for x in spectrum))
    rpt.emit(args.format)
    return 0


def cmd_ruelle(args):
    spec = parse_spectrum(resolve_input(args.spectrum, ".spec").read_text())
    z = parse_complex_flag(args.z, "--z")
    cutoffs = [float(s) for s in args.cutoffs.split(",")] if args.cutoffs else []
    rpt = Report("ruelle-eval")
    rpt.add("spectrum", args.spectrum)
    rpt.add("z", fmt_complex(z))
    rpt.add("entries", len(spec.lengths))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectrumWarning)
        rows, (value, tail) = ruelle_eval(spec, z, cutoffs)
    for L, logv, used, delta in rows:
        row = f"L={fmt(L)} log_value={fmt_complex(logv)} used={used}"
        if delta is not None:
            row += f" delta={fmt(delta)}"
        rpt.add(f"cutoff_{fmt(L)}", row)
    rpt.add("value", fmt_complex(value))
    rpt.add("tail_bound", fmt(tail))
    rpt.emit(args.format)
    return 0


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
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
