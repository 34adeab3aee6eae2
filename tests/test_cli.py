"""Command-line interface: exit codes, output formats, corpus resolution."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import torsionlab.cli as cli
import torsionlab.ruelle as ruelle
from torsionlab.cli import main
from torsionlab import LaurentPoly, UnitaryRep, parse_presentation
from torsionlab.laurent import TRIM_TOL, LaurentMatrix
from torsionlab import presentations
from torsionlab.presentations import _TokenStream
from torsionlab.ruelle import parse_spectrum, truncated_ruelle
from torsionlab.twisted import twisted_alexander

from conftest import torus_braid_closure

CIRCLE_CW = """\
gens a ;
cells 0 1 ;
cells 1 1 ;
bd 1 0 -> (+, a, 0) (-, 1, 0) ;
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFmtPoly:
    def test_noise_parts_print_as_zero(self):
        # max|c| = 2, so a real or imaginary part of magnitude <= 2 TRIM_TOL is noise
        edge = 2 * TRIM_TOL
        under, over = np.nextafter(edge, 0), np.nextafter(edge, 1)
        coeffs = [2, complex(1, -under), complex(-edge, -1), complex(over, -over),
                  complex(under, -under), complex(-0.0, -0.0), complex(-0.0, 1)]
        p = LaurentPoly(-3, coeffs)
        # both parts under the edge, |c| above TRIM_TOL max|c|: kept, printed 0,0
        assert p.coeffs[4] == complex(under, -under)
        assert cli.fmt_poly(p) == (
            f"low -3 coeffs 2,0 1,0 0,-1 {over:.12g},{-over:.12g} 0,0 0,0 0,1"
        )

    def test_zero_prints_0(self):
        assert cli.fmt_poly(LaurentPoly(3, [0, 0])) == "0"


class TestTalex:
    def test_figure_eight_xi_i(self, capsys):
        code, out, _ = run(capsys, "talex", "figure_eight", "--xi=0,1")
        assert code == 0
        assert "torsion_at_1 = 2.12132034356" in out
        assert "ruelle_at_0 = 4.5" in out
        assert "cuspidal = true" in out

    def test_trivial_character_withholds_values(self, capsys):
        # the trivial character fixes every vector, so the peripheral
        # condition fails and the special values stay withheld
        code, out, _ = run(capsys, "talex", "trefoil", "--xi=1,0")
        assert code == 2
        assert "withheld" in out
        assert "torsion_at_1" not in out

    def test_h1_obstruction_withholds_values(self, capsys):
        code, out, _ = run(capsys, "talex", "synthetic_h1", "--xi=1,0")
        assert code == 2
        assert "h1_vanishes = false" in out

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "talex", "figure_eight", "--xi=0,1", "--format=json-lines")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["report"] == "talex"
        assert obj["ruelle_at_0"] == "4.5"
        assert obj["pivot"] == 1

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "talex", "knot_5_2", "--xi=0,1")
        _, out2, _ = run(capsys, "talex", "knot_5_2", "--xi=0,1")
        assert out1 == out2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "talex", "no_such_knot", "--xi=0,1")
        assert code == 1
        assert "no such file or corpus entry" in err

    def test_huge_power_exits_1(self, capsys, tmp_path):
        pres = tmp_path / "huge.pres"
        pres.write_text("gens a;\nrel a^1000000000;\n")
        code, _, err = run(capsys, "talex", str(pres), "--xi=0,1")
        assert code == 1
        assert "line 2, col 5" in err

    def test_fox_jacobian_past_cap_exits_1(self, capsys, tmp_path):
        # 64 relators a_i^k a_(i+1) A_i^k A_(i+1) of prefix degrees 0..k+1: a
        # 64 x 64 x 4097 Fox Jacobian, one column of 4096^2 past MAX_CELLS^2,
        # is refused before its 268 MB are allocated; the presentation itself
        # holds about 34 MB of letters
        k, n = 4095, 65
        pres = tmp_path / "wide.pres"
        pres.write_text("gens " + " ".join(f"a_{i}" for i in range(1, n + 1)) + ";\nwirtinger;\n"
                        + "".join(f"rel a_{i}^{k} a_{i + 1} A_{i}^{k} A_{i + 1};\n"
                                  for i in range(1, n)))
        assert pres.stat().st_size < 3000
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "talex", str(pres), "--xi=0,1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == ("error: Fox Jacobian of 64 x 64 x 4097 coefficients (rows x columns x "
                       "degrees) exceeds MAX_CELLS^2 = 16777216\n")
        assert peak < 128e6, f"{peak / 1e6:.1f} MB"

    def test_ill_defined_rep_past_cap_reports_the_cap(self, capsys, tmp_path):
        # the presentation above under a rank-2 rep that sends relator 1 to a
        # non-identity matrix: rho(a_1)^k is diagonal, not scalar, and rho(a_2)
        # a rotation.  The Fox cap is checked before any relator is walked,
        # so the cap is reported, and nothing of the Jacobian is allocated.
        # (verify-knot takes only --xi, a character, which every Wirtinger
        # relator sends to 1.)
        k, n = 4095, 65
        pres = tmp_path / "wide.pres"
        pres.write_text("gens " + " ".join(f"a_{i}" for i in range(1, n + 1)) + ";\nwirtinger;\n"
                        + "".join(f"rel a_{i}^{k} a_{i + 1} A_{i}^{k} A_{i + 1};\n"
                                  for i in range(1, n)))
        c, s = float(np.cos(0.3)), float(np.sin(0.3))
        diagonal = f"[ [{c!r},{s!r}], [0,0], [0,0], [{c!r},{-s!r}] ]"
        c, s = float(np.cos(0.7)), float(np.sin(0.7))
        rotation = f"[ [{c!r},0], [{-s!r},0], [{s!r},0], [{c!r},0] ]"
        rep = tmp_path / "ill.rep"
        rep.write_text("rank 2;\n" + "".join(f"mat a_{i} = {diagonal if i % 2 else rotation};\n"
                                             for i in range(1, n + 1)))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "talex", str(pres), "--rep", str(rep))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == ("error: Fox Jacobian of 128 x 128 x 4097 coefficients (rows x columns x "
                       "degrees) exceeds MAX_CELLS^2 = 16777216\n")
        assert peak < 128e6, f"{peak / 1e6:.1f} MB"
        # under the cap the same rep is refused for its relator
        pres.write_text("gens a_1 a_2;\nwirtinger;\nrel a_1^3 a_2 A_1^3 A_2;\n")
        rep.write_text(f"rank 2;\nmat a_1 = {diagonal};\nmat a_2 = {rotation};\n")
        code, out, err = run(capsys, "talex", str(pres), "--rep", str(rep))
        assert (code, out) == (1, "")
        assert err.startswith("error: relator 1 maps to a non-identity matrix (defect ")

    def test_rep_file(self, capsys, tmp_path):
        rep = tmp_path / "rep.rep"
        rep.write_text("rank 1;\nchar a = 0,1;\nchar b = 0,1;\n")
        code, out, _ = run(capsys, "talex", "figure_eight", "--rep", str(rep))
        assert code == 0
        assert "ruelle_at_0 = 4.5" in out

    def test_nonunit_xi_rejected(self, capsys):
        # the modulus is checked once, by UnitaryRep.character
        code, out, err = run(capsys, "talex", "trefoil", "--xi=2,0")
        assert (code, out) == (1, "")
        assert err == "error: character value must have modulus 1, got |xi|=2.0\n"

    @pytest.mark.parametrize("command", ["talex", "verify-knot", "torsion-cw"])
    def test_nan_xi_rejected_without_warnings(self, capsys, command, tmp_path):
        target = "trefoil"
        if command == "torsion-cw":
            target = tmp_path / "circle.cw"
            target.write_text(CIRCLE_CW)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, command, str(target), "--xi=nan,0")
        assert (code, out, caught) == (1, "", [])
        # nan is not a number of the file grammar
        assert err == "error: --xi must be given as re,im, got 'nan,0'\n"

    @pytest.mark.parametrize(
        "char,message",
        [
            ("char a = 1e999,0;", "generator image 1 is not unitary (defect nan)"),
            ("mat a = [ junk [0,1] ];",
             "matrix for 'a' must hold [re,im] pairs with one comma between (line 2)"),
        ],
    )
    def test_bad_rep_file_exits_1_without_warnings(self, capsys, tmp_path, char, message):
        rep = tmp_path / "bad.rep"
        rep.write_text(f"rank 1;\n{char}\nchar b = 0,1;\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "talex", "trefoil", "--rep", str(rep))
        assert (code, out, err, caught) == (1, "", f"error: {message}\n", [])

    def test_ill_defined_rep_rejected(self, capsys, tmp_path):
        rep = tmp_path / "rep.rep"
        rep.write_text("rank 2;\nmat a = [[0,0],[1,0],[1,0],[0,0]];\n"
                       "mat b = [[1,0],[0,0],[0,0],[-1,0]];\n")
        code, out, err = run(capsys, "talex", "figure_eight", "--rep", str(rep))
        assert (code, out) == (1, "")
        assert err.startswith("error: relator 1 maps to a non-identity matrix")

    def test_ill_defined_rep_on_non_wirtinger_reports_wirtinger(self, capsys, tmp_path):
        # the rep is checked once, inside twisted_alexander, after the
        # presentation is found not to be Wirtinger
        pres = tmp_path / "square.pres"
        pres.write_text("gens a b;\nrel a^2;\n")
        rep = tmp_path / "rep.rep"
        rep.write_text("rank 1;\nchar a = 0,1;\nchar b = 0,1;\n")
        code, out, err = run(capsys, "talex", str(pres), "--rep", str(rep))
        assert (code, out) == (1, "")
        assert err == "error: twisted_alexander requires a Wirtinger presentation\n"


class TestVerifyKnot:
    def test_figure_eight_xi_minus_one(self, capsys):
        code, out, _ = run(capsys, "verify-knot", "figure_eight", "--xi=-1,0")
        assert code == 0
        assert "fox_route = 6.25" in out
        assert "cw_route = 6.25" in out
        assert "closed_form = 6.25" in out
        assert "agree = true" in out

    @pytest.mark.parametrize("name", ["trefoil", "figure_eight", "knot_5_2"])
    def test_three_routes_agree(self, capsys, name):
        code, out, _ = run(capsys, "verify-knot", name, "--xi=0,1")
        assert code == 0
        assert "agree = true" in out

    def test_closed_form_without_a_second_pipeline(self, capsys, monkeypatch):
        calls = []

        def counting(pres, rep):
            calls.append(rep)
            return twisted_alexander(pres, rep)

        monkeypatch.setattr(cli, "twisted_alexander", counting)
        code, out, _ = run(capsys, "verify-knot", "knot_5_2", "--xi=0,1")
        assert code == 0 and len(calls) == 1
        # the closed form still reads delta1 of the full trivial-rep pipeline
        pres = parse_presentation((cli.corpus_dir() / "knot_5_2.pres").read_text())
        delta1 = twisted_alexander(pres, UnitaryRep.character(2, 1.0)).delta1
        assert f"closed_form = {cli.fmt((abs(delta1(1j)) / abs(1 - 1j)) ** 2)}\n" in out

    def test_memory_linear_in_relator_length(self, capsys, tmp_path):
        # <a, b | [a, b]^k> at L and 4L letters: a linear route peaks about 4
        # times higher at 4L, one that stores every Fox term as its own
        # prefix word about 16 times (400 MB at 8000 letters)
        peaks = []
        for length in (2000, 8000):
            pres = tmp_path / f"long{length}.pres"
            pres.write_text("gens a b; wirtinger; rel " + "a b A B " * (length // 4)
                            + ";\nmeridian a; longitude b;\n")
            tracemalloc.start()
            try:
                code = main(["verify-knot", str(pres), "--xi=0,1"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            assert "agree = true" in capsys.readouterr().out
        assert peaks[1] / peaks[0] < 6
        assert peaks[1] < 10_000_000

    def test_fox_terms_once_and_no_position_scan(self, capsys, monkeypatch, tmp_path):
        # verify-knot reads one presentation in two boundary2 calls (xi and
        # the trivial rep) and in knot_complex: its Fox table is derived once,
        # and a valid file never has a token's position found
        derived, scans = [], []
        fox_table, position = presentations.fox_table, _TokenStream.position
        monkeypatch.setattr(presentations, "fox_table",
                            lambda *arrays: derived.append(arrays) or fox_table(*arrays))
        monkeypatch.setattr(_TokenStream, "position",
                            lambda stream, k: scans.append(k) or position(stream, k))
        knot = torus_braid_closure(3, 7)
        names = knot.generator_names
        pres = tmp_path / "t37.pres"
        relators = f"gens {' '.join(names)}; wirtinger;\n" + "".join(
            "rel " + " ".join(names[abs(k) - 1] + ("" if k > 0 else "^-1") for k in r)
            + ";\n" for r in knot.relators)
        pres.write_text(relators + f"meridian x1; longitude {' '.join(names * 7)} x1^-21;\n")
        code, out, _ = run(capsys, "verify-knot", str(pres), "--xi=0,1")
        assert code == 0 and "agree = true" in out
        assert len(derived) == 1 and len(knot.relators) == 2
        assert derived[0][0].tolist() == [k for r in knot.relators for k in r]
        assert scans == []
        # an error names one token, found by one scan
        pres.write_text(relators + "rel ?;\n")
        code, _, err = run(capsys, "verify-knot", str(pres), "--xi=0,1")
        assert code == 1 and "(line 4, col 5)" in err
        assert len(scans) == 1

    def test_hypotheses_failure_exits_2(self, capsys):
        code, out, _ = run(capsys, "verify-knot", "trefoil", "--xi=1,0")
        assert code == 2
        assert "withheld" in out

    def test_withheld_run_skips_the_trivial_determinant(self, capsys, monkeypatch):
        # delta0 and delta1 of the --xi rep; the trivial rep's delta1 feeds only
        # the closed form, which a withheld run does not print
        calls = []
        det = LaurentMatrix.det
        monkeypatch.setattr(LaurentMatrix, "det", lambda m: calls.append(m.rows) or det(m))
        code, out, err = run(capsys, "verify-knot", "trefoil", "--xi=1,0")
        assert (code, err, len(calls)) == (2, "", 2)
        assert out == ("[verify-knot]\npresentation = trefoil\nxi = 1,0\nh1_vanishes = true\n"
                       "cuspidal = false\nvalues = withheld (hypotheses fail)\n")

    def test_deviation_breach_exits_3(self, capsys):
        # the trefoil routes differ by a few ulps, far above this tolerance
        code, out, _ = run(
            capsys, "verify-knot", "trefoil", "--xi=0,1", "--tol=1e-18"
        )
        assert code == 3
        assert "agree = false" in out

    @pytest.mark.xfail(strict=True, reason="the Laplacian kernel cutoff is relative to the "
                                           "spectral max, which grows with the relator")
    def test_long_commutator_power_routes_agree(self, capsys, tmp_path):
        # the knot group <a, b | (a b A B)^N>: at xi = i both routes are N^2
        # in exact arithmetic.  Delta_1's true eigenvalue 4 falls under the
        # cutoff ZERO_EIG_REL_TOL (1 + lambda_max), about 25 here, once
        # N > 10^4, so torsion_report reports betti (0, 1, 0) and verify-knot
        # withholds the values (test_cw_route_with_homology_is_withheld)
        n = 24990
        pres = tmp_path / "long.pres"
        pres.write_text(f"gens a b; wirtinger; rel {'a b A B ' * n}; meridian a; longitude b;")
        code, out, _ = run(capsys, "verify-knot", str(pres), "--xi=0,1")
        assert f"\nfox_route = {n * n}\n" in out
        assert (code, f"\ncw_route = {n * n}\n" in out) == (0, True)

    @pytest.mark.parametrize("fmt", ["text", "json-lines"])
    def test_cw_route_with_homology_is_withheld(self, capsys, tmp_path, fmt):
        # the case above: the Fox route's hypotheses hold, but the CW complex
        # is not acyclic, so its torsion is no special value and no route is
        # compared
        pres = tmp_path / "long.pres"
        pres.write_text(f"gens a b; wirtinger; rel {'a b A B ' * 24990}; meridian a; longitude b;")
        code, out, err = run(capsys, "verify-knot", str(pres), "--xi=0,1", f"--format={fmt}")
        assert (code, err) == (2, "")
        fields = {"presentation": str(pres), "xi": "0,1", "h1_vanishes": "true",
                  "cuspidal": "true", "cw_betti": "0 1 0",
                  "values": "withheld (hypotheses fail)"}
        assert out == ("[verify-knot]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
                       if fmt == "text" else
                       json.dumps({"report": "verify-knot", **fields},
                                  separators=(",", ":")) + "\n")


class TestTorsionCW:
    def test_circle_file(self, capsys, tmp_path):
        cw = tmp_path / "circle.cw"
        cw.write_text(CIRCLE_CW)
        code, out, _ = run(capsys, "torsion-cw", str(cw), "--xi=0,1")
        assert code == 0
        assert "torsion = 0.707106781187" in out
        assert "betti = 0 0" in out

    @pytest.mark.parametrize("text,report", [
        # no records in degree 1: B_1 is zero, so both Laplacians are
        ("gens a;\ncells 0 1;\ncells 1 1;\n",
         ["betti = 1 1", "log_torsion = 0", "torsion = 1", "spectrum_0 = 0", "spectrum_1 = 0"]),
        # no cells in degree 2: its Laplacian is 0 x 0, with an empty spectrum
        (CIRCLE_CW + "cells 2 0;\n",
         ["betti = 0 0 0", "log_torsion = -0.34657359028", "torsion = 0.707106781187",
          "spectrum_0 = 2", "spectrum_1 = 2", "spectrum_2 = "]),
    ], ids=["no-records", "no-cells"])
    def test_empty_degree(self, capsys, tmp_path, text, report):
        cw = tmp_path / "empty.cw"
        cw.write_text(text)
        code, out, err = run(capsys, "torsion-cw", str(cw), "--xi=0,1")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["[torsion-cw]", f"complex = {cw}", *report]

    def test_parse_error_exits_1(self, capsys, tmp_path):
        cw = tmp_path / "bad.cw"
        cw.write_text("gens a; cells 0 1; cells 1 1; bd 1 0 -> (*, a, 0);")
        code, _, err = run(capsys, "torsion-cw", str(cw), "--xi=0,1")
        assert code == 1
        assert "error:" in err


    def test_semicolon_inside_word_exits_1(self, capsys, tmp_path):
        cw = tmp_path / "semi.cw"
        cw.write_text(CIRCLE_CW.replace("(+, a, 0)", "(+, a ; junk junk, 0)"))
        code, out, err = run(capsys, "torsion-cw", str(cw), "--xi=0,1")
        assert (code, out) == (1, "")
        assert err == "error: expected a generator name, got ';' (line 4, col 17)\n"

    def test_eigensolver_failure_exits_1(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        cw = tmp_path / "circle.cw"
        cw.write_text(CIRCLE_CW)
        code, out, err = run(capsys, "torsion-cw", str(cw), "--xi=0,1")
        assert (code, out) == (1, "")
        assert err == "error: eigensolver failed in degree 0: Eigenvalues did not converge\n"

    def test_huge_cell_count_exits_1(self, capsys, tmp_path):
        cw = tmp_path / "huge.cw"
        cw.write_text("gens a;\ncells 0 1;\ncells 1 1000000000;\n")
        code, _, err = run(capsys, "torsion-cw", str(cw), "--xi=0,1")
        assert code == 1
        assert "line 3, col 9" in err

    def test_laplacian_side_past_cap_exits_1(self, capsys, tmp_path):
        # 2049 cells at rank 2: a 4098-square Laplacian (268 MB) is refused
        # before any boundary is built
        cw = tmp_path / "wide.cw"
        cw.write_text("gens a;\ncells 0 1;\ncells 1 2049;\n")
        rep = tmp_path / "diag.rep"
        rep.write_text("rank 2;\nmat a = [ [0,1], [0,0], [0,0], [0,-1] ];\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "torsion-cw", str(cw), "--rep", str(rep))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == "error: Laplacian side 4098 (cells x rank) exceeds MAX_CELLS = 4096\n"
        assert peak < 2e6, f"{peak / 1e6:.1f} MB"

    def test_non_chain_exits_1_at_its_cell(self, capsys, tmp_path):
        cw = tmp_path / "disc.cw"
        cw.write_text(CIRCLE_CW + "cells 2 1;\nbd 2 0 -> (+, 1, 0);\n")
        code, out, err = run(capsys, "torsion-cw", str(cw), "--xi=0,1")
        assert (code, out) == (1, "")
        assert err == ("error: untwisted boundary composition is nonzero on 2-cell 0 "
                       "(line 6, col 1)\n")

    # the projective plane: a 2-cell along a a, so rho(a)^2 must be I
    RP2_CW = ("gens a; rel a a; cells 0 1; cells 1 1; cells 2 1; "
              "bd 1 0 -> (+, a, 0) (-, 1, 0); bd 2 0 -> (+, 1, 0) (+, a, 0);\n")

    @pytest.mark.parametrize("xi,code,lines", [
        # rho(a a) = -1: a Laplacian of no chain complex is refused
        ("0,1", 1, ["error: relator 1 maps to a non-identity matrix (defect 2.00e+00)"]),
        ("-1,0", 0, ["betti = 0 0 1", "torsion = 0.5"]),
        ("1,0", 0, ["betti = 1 0 0"]),
    ], ids=["i", "minus-one", "one"])
    def test_rep_is_checked_against_the_relations(self, capsys, tmp_path, xi, code, lines):
        cw = tmp_path / "rp2.cw"
        cw.write_text(self.RP2_CW)
        got, out, err = run(capsys, "torsion-cw", str(cw), f"--xi={xi}")
        assert got == code
        if code:
            assert (out, err.splitlines()) == ("", lines)
        else:
            assert err == "" and set(lines) <= set(out.splitlines())

    def test_out_of_range_bd_exits_1(self, capsys, tmp_path):
        # once loaded as the circle, with both out-of-range statements dropped
        cw = tmp_path / "dropped.cw"
        cw.write_text(CIRCLE_CW + "bd 1 7 -> (+, a, 0) ;\nbd 4 0 -> (+, a, 0) ;\n")
        code, out, err = run(capsys, "torsion-cw", str(cw), "--xi=0,1")
        assert (code, out) == (1, "")
        assert "cell index 7" in err and "line 5, col 1" in err


class TestLibraryErrors:
    def test_no_peripheral_words_skip_cuspidality(self, capsys, tmp_path):
        # without peripheral words cuspidality is unknown: talex and
        # verify-knot both withhold the values
        pres = tmp_path / "bare.pres"
        pres.write_text("gens a b; wirtinger; rel a b a B A B;\n")
        code, out, err = run(capsys, "talex", str(pres), "--xi=0,1")
        assert (code, err) == (2, "")
        assert "cuspidal = unknown" in out
        code, out, err = run(capsys, "verify-knot", str(pres), "--xi=0,1")
        assert (code, err) == (2, "")
        assert out == (f"[verify-knot]\npresentation = {pres}\nxi = 0,1\nh1_vanishes = true\n"
                       "cuspidal = unknown\nvalues = withheld (hypotheses fail)\n")
        # with a meridian and a longitude the same relator gives values
        pres.write_text("gens a b; wirtinger; rel a b a B A B;\nmeridian a; longitude b;\n")
        code, out, err = run(capsys, "verify-knot", str(pres), "--xi=0,1")
        assert (code, err) == (0, "")
        assert "agree = true" in out

    @pytest.mark.parametrize("command", ["talex", "verify-knot"])
    def test_overflowing_square_exits_1(self, capsys, tmp_path, command):
        # rel k-th power of [x_i, x_{i+1}] for i <= n: at xi = -1 each Fox row
        # is k (1 + t) (e_i - e_{i+1}), so the torsion at t = 1 is k^n 2^(n-1),
        # 1.5e156 for k = 100 and n = 68: its square passes the largest float
        n, k = 68, 100
        pres = tmp_path / "wide.pres"
        pres.write_text(
            "gens " + " ".join(f"x{i}" for i in range(1, n + 2)) + "; wirtinger;\n"
            + "".join(f"rel {f'x{i} x{i + 1} X{i} X{i + 1} ' * k};\n" for i in range(1, n + 1))
            + "meridian x1; longitude x2;\n")
        code, out, err = run(capsys, command, str(pres), "--xi=-1,0")
        assert (code, out) == (1, "")
        assert err == "error: ruelle_at_0 = 1.4757395259e+156^2 is too large for a float\n"

    def test_overflowing_cw_route_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "torsion_report",
                            lambda cx, rep: SimpleNamespace(torsion=1e200, betti=(0, 0, 0)))
        code, out, err = run(capsys, "verify-knot", "figure_eight", "--xi=0,1")
        assert (code, out, err) == (1, "", "error: cw_route = 1e+200^2 is too large for a float\n")


class TestMalformedFlags:
    """A malformed flag is an input error: main returns 1 with one error line."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["talex", "trefoil", "--xi=1"], "--xi must be given as re,im, got '1'"),
            (["ruelle-eval", "SPEC", "--z=1"], "--z must be given as re,im, got '1'"),
            (["talex", "trefoil"], "one of --xi or --rep is required"),
            # ||xi| - 1| is 7e-11, ||xi|^2 - 1| is 1.4e-10: off the unit circle
            (["talex", "trefoil", "--xi=1.00000000007,0"],
             "character value must have modulus 1, got |xi|=1.00000000007"),
            # a flag's numbers are full matches of the files' number grammar, and finite
            (["talex", "trefoil", "--xi=1e999,0"], "--xi must be finite, got '1e999,0'"),
            (["talex", "trefoil", "--xi=0,1_0"], "--xi must be given as re,im, got '0,1_0'"),
            (["talex", "trefoil", "--xi=0, 1"], "--xi must be given as re,im, got '0, 1'"),
            (["ruelle-eval", "SPEC", "--z=nan,0"], "--z must be given as re,im, got 'nan,0'"),
            (["ruelle-eval", "SPEC", "--z=inf,0"], "--z must be given as re,im, got 'inf,0'"),
            (["ruelle-eval", "SPEC", "--z=3,-1e999"], "--z must be finite, got '3,-1e999'"),
            (["ruelle-eval", "SPEC", "--z=1_0,0"], "--z must be given as re,im, got '1_0,0'"),
            (["ruelle-eval", "SPEC", "--z=3,0", "--cutoffs=nan"],
             "--cutoffs must be given as comma-separated numbers, got 'nan'"),
            (["ruelle-eval", "SPEC", "--z=3,0", "--cutoffs=1,1e999"],
             "--cutoffs must be finite, got '1,1e999'"),
            (["ruelle-eval", "SPEC", "--z=3,0", "--cutoffs=1, 2"],
             "--cutoffs must be given as comma-separated numbers, got '1, 2'"),
            (["ruelle-eval", "SPEC", "--z=3,0", "--cutoffs=1,"],
             "--cutoffs must be given as comma-separated numbers, got '1,'"),
            (["verify-knot", "trefoil", "--xi=0,1", "--tol=nan"],
             "--tol must be finite and >= 0, got nan"),
            (["verify-knot", "trefoil", "--xi=0,1", "--tol=-1"],
             "--tol must be finite and >= 0, got -1.0"),
            (["verify-knot", "trefoil", "--xi=0,1", "--tol=inf"],
             "--tol must be finite and >= 0, got inf"),
            # --tol is read by the same number grammar, not by argparse's float
            (["verify-knot", "trefoil", "--xi=0,1", "--tol=abc"],
             "--tol must be finite and >= 0, got abc"),
            (["verify-knot", "trefoil", "--xi=0,1", "--tol=1_0"],
             "--tol must be finite and >= 0, got 1_0"),
        ],
        ids=["xi-one-number", "z-one-number", "neither-xi-nor-rep", "xi-off-circle",
             "xi-overflow", "xi-underscore", "xi-space", "z-nan", "z-inf", "z-overflow",
             "z-underscore", "cutoffs-nan", "cutoffs-overflow", "cutoffs-space",
             "cutoffs-empty-item", "tol-nan", "tol-negative", "tol-inf", "tol-word",
             "tol-underscore"],
    )
    def test_exits_1(self, capsys, tmp_path, argv, message):
        spec = tmp_path / "one.spec"
        spec.write_text("rank 1;\ngeo 1 ; 1,0 ;\n")
        code, out, err = run(capsys, *(str(spec) if a == "SPEC" else a for a in argv))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["talex", "ruelle-eval"])
    def test_number_grammar_forms(self, capsys, tmp_path, command):
        # signs, a trailing point, either exponent letter: the same two numbers
        spec = tmp_path / "one.spec"
        spec.write_text("rank 1;\ngeo 1 ; 1,0 ;\n")
        target, flag, a = ("trefoil", "--xi", 0) if command == "talex" else (str(spec), "--z", 3)
        forms = (f"{a},1", f"+{a},+1", f"{a}.,1.", f"{a}e0,1E0", f"{a}0e-1,10E-1", f"{a},.1e1")
        outputs = {run(capsys, command, target, f"{flag}={v}") for v in forms}
        assert len(outputs) == 1
        assert outputs.pop()[::2] == (0, "")

    @pytest.mark.parametrize("tol", ["0", "-0", "1e300"])
    def test_tol_edges_accepted(self, capsys, tol):
        code, out, err = run(capsys, "verify-knot", "trefoil", "--xi=0,1", f"--tol={tol}")
        assert err == ""
        assert code == (0 if tol == "1e300" else 3)
        assert f"tolerance = {cli.fmt(float(tol))}\n" in out

    def test_second_peripheral_pair_exits_1(self, capsys, tmp_path):
        pres = tmp_path / "two_pairs.pres"
        pres.write_text("gens a b; wirtinger; rel a b a B A B;\n"
                        "meridian a; longitude b a^2 b a^-4;\nmeridian b; longitude a;\n")
        code, out, err = run(capsys, "talex", str(pres), "--xi=0,1")
        assert (code, out) == (1, "")
        assert err == "error: expected end of input, got 'meridian' (line 3, col 1)\n"


class TestRuelleEval:
    def test_single_factor(self, capsys, tmp_path):
        sp = tmp_path / "one.spec"
        sp.write_text("rank 1;\ngeo 1 ; 1,0 ;\n")
        code, out, _ = run(capsys, "ruelle-eval", str(sp), "--z=3,0")
        assert code == 0
        # (1 - e^{-3})^{-1} = 1.05239569649...
        assert "value = 1.05239569649,0" in out
        assert "tail_bound = 0" in out

    def test_convergence_table(self, capsys, tmp_path):
        sp = tmp_path / "many.spec"
        lines = ["rank 1;"] + [f"geo {0.5 * k} ; 1,0 ;" for k in range(1, 9)]
        sp.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "ruelle-eval", str(sp), "--z=3,0", "--cutoffs=1,2,4")
        assert code == 0
        assert "used=2" in out and "used=4" in out and "used=8" in out

    @pytest.mark.parametrize("out_format", ["text", "json-lines"])
    def test_tail_bound_beyond_largest_cutoff(self, capsys, tmp_path, out_format):
        sp = tmp_path / "many.spec"
        lines = ["rank 1;"] + [f"geo {0.5 * k} ; 1,0 ;" for k in range(1, 9)]
        sp.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "ruelle-eval", str(sp), "--z=3,0", "--cutoffs=2,1",
                           f"--format={out_format}")
        assert code == 0
        fields = (json.loads(out) if out_format == "json-lines" else
                  dict(line.split(" = ", 1) for line in out.splitlines()[1:]))
        tail = truncated_ruelle(parse_spectrum(sp.read_text()), 3, 2.0)[1]
        assert tail > 0
        assert fields["tail_bound"] == cli.fmt(tail)

    def test_empty_spectrum_of_huge_rank(self, capsys, tmp_path):
        sp = tmp_path / "huge.spec"
        sp.write_text("rank 1000000000;\n")
        code, out, err = run(capsys, "ruelle-eval", str(sp), "--z=3,0", "--cutoffs=1,2")
        assert (code, err) == (0, "")
        assert out == (
            f"[ruelle-eval]\nspectrum = {sp}\nz = 3,0\nentries = 0\n"
            "cutoff_1 = L=1 log_value=0,0 used=0\n"
            "cutoff_2 = L=2 log_value=0,0 used=0 delta=0\n"
            "value = 1,0\ntail_bound = 0\n"
        )
        code, out, _ = run(capsys, "ruelle-eval", str(sp), "--z=3,0", "--format=json-lines")
        assert code == 0
        assert json.loads(out) == {"report": "ruelle-eval", "spectrum": str(sp), "z": "3,0",
                                   "entries": 0, "value": "1,0", "tail_bound": "0"}

    @pytest.mark.parametrize(
        "geo,message",
        [
            ("geo 1e999 ; 1,0 ;", "geodesic length must be finite and positive, got inf"),
            ("geo -1e999 ; 1,0 ;", "geodesic length must be finite and positive, got -inf"),
            ("geo 1 ; 1e999,0 ;", "holonomy is not unitary (defect nan)"),
            ("geo 1 ; 1e200,0 ;", "holonomy is not unitary (defect inf)"),
        ],
    )
    def test_overflowing_number_exits_1_without_warnings(self, capsys, tmp_path, geo, message):
        sp = tmp_path / "inf.spec"
        sp.write_text(f"rank 1;\ngeo 1 ; 1,0 ;\n{geo}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "ruelle-eval", str(sp), "--z=3,0")
        assert (code, out, err, caught) == (1, "", f"error: {message} (line 3)\n", [])

    @pytest.mark.parametrize(
        "z,shown",
        [
            ("--z=-800,0", "-800.0,0.0"),  # e^{-z l} overflows: the factor reads nan
            ("--z=0,0", "0.0,0.0"),  # a pole: 1 - mu = 0 for the trivial holonomy
        ],
    )
    def test_non_finite_factor_exits_1_without_warnings(self, capsys, tmp_path, z, shown):
        sp = tmp_path / "one.spec"
        sp.write_text("rank 1;\ngeo 1 ; 1,0 ;\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "ruelle-eval", str(sp), z, "--cutoffs=2,7")
        assert (code, out, caught) == (1, "", [])
        assert err == f"error: the Euler factor at length 1.0 is not finite at z = {shown}\n"

    def test_undecodable_byte_past_the_first_piece(self, capsys, tmp_path):
        # one error line, with the byte's position in the file, as when the
        # whole file is read with read_text()
        head = b"rank 1;\n" + b"geo 1 ; 1,0 ;\n" * (2 * ruelle.PIECE_CHARS // 14 + 1)
        sp = tmp_path / "bad.spec"
        sp.write_bytes(head + b"geo 2 ; 1,0 \xff;\n")
        with pytest.raises(UnicodeDecodeError) as whole:
            sp.read_text()
        code, out, err = run(capsys, "ruelle-eval", str(sp), "--z=3,0")
        assert (code, out, err) == (1, "", f"error: {whole.value}\n")
        assert f"can't decode byte 0xff in position {len(head) + 12}: " in err

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        sp = tmp_path / "bad.spec"
        sp.write_text("rank 1;\ngeo nonsense ;\n")
        code, _, err = run(capsys, "ruelle-eval", str(sp), "--z=3,0")
        assert code == 1
        assert "line 2" in err


class TestCorpusResolution:
    def test_env_override(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "mini.pres").write_text("gens a; wirtinger; meridian a; longitude 1;\n")
        monkeypatch.setenv("TORSIONLAB_CORPUS", str(tmp_path))
        code, _, _ = run(capsys, "talex", "mini", "--xi=0,1")
        assert code in (0, 2)  # resolved via the override, not exit 1
        code, _, err = run(capsys, "talex", "figure_eight", "--xi=0,1")
        assert code == 1  # bundled corpus is shadowed
        assert "no such file" in err

    def test_explicit_path_beats_corpus(self, capsys, tmp_path):
        p = tmp_path / "local.pres"
        p.write_text("gens a b; wirtinger; rel a b a b^-1 a^-1 b^-1;\n")
        code, out, _ = run(capsys, "talex", str(p), "--xi=0,1")
        assert code in (0, 2)
        assert "delta1" in out


class TestParserReuse:
    """main builds its argument parser once per process and reuses it."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_calls_match_fresh_processes(self, capsys, tmp_path):
        sp = tmp_path / "many.spec"
        sp.write_text("rank 1;\n" + "".join(f"geo {0.5 * k} ; 0,1 ;\n" for k in range(1, 9)))
        cx = tmp_path / "circle.cw"
        cx.write_text(CIRCLE_CW)
        calls = [
            ["ruelle-eval", str(sp), "--z=3,0", "--cutoffs=1,2,4"],
            ["ruelle-eval", str(sp), "--z=3,0"],
            ["ruelle-eval", str(sp), "--z=2.5,1", "--format=json-lines", "--cutoffs=3"],
            ["ruelle-eval", str(sp), "--z=2.5,1"],
            ["talex", "trefoil", "--xi=0,1", "--format=json-lines"],
            ["verify-knot", "figure_eight", "--xi=0,1", "--tol=1e-3"],
            ["verify-knot", "figure_eight", "--xi=0,1"],
            ["talex", "trefoil", "--xi=0,1"],
            ["torsion-cw", str(cx), "--xi=0,1", "--format=json-lines"],
            ["ruelle-eval", str(tmp_path / "missing.spec"), "--z=3,0"],
            ["ruelle-eval", str(sp), "--z=3,0"],
        ]
        in_process = [run(capsys, *argv)[:2] for argv in calls]
        script = ("import sys\nfrom torsionlab.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for argv, (code, out) in zip(calls, in_process):
            fresh = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                                   text=True, env=env, timeout=120)
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
