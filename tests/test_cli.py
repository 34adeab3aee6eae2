"""Command-line interface: exit codes, output formats, corpus resolution."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import torsionlab.cli as cli
from torsionlab.cli import main
from torsionlab import UnitaryRep, parse_presentation
from torsionlab.twisted import MissingPeripheralError, twisted_alexander

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

    def test_rep_file(self, capsys, tmp_path):
        rep = tmp_path / "rep.rep"
        rep.write_text("rank 1;\nchar a = 0,1;\nchar b = 0,1;\n")
        code, out, _ = run(capsys, "talex", "figure_eight", "--rep", str(rep))
        assert code == 0
        assert "ruelle_at_0 = 4.5" in out

    def test_nonunit_xi_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["talex", "trefoil", "--xi=2,0"])

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
            pres.write_text("gens a b; wirtinger; rel " + "a b A B " * (length // 4) + ";\n")
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

    def test_hypotheses_failure_exits_2(self, capsys):
        code, out, _ = run(capsys, "verify-knot", "trefoil", "--xi=1,0")
        assert code == 2
        assert "withheld" in out

    def test_deviation_breach_exits_3(self, capsys):
        # the trefoil routes differ by a few ulps, far above this tolerance
        code, out, _ = run(
            capsys, "verify-knot", "trefoil", "--xi=0,1", "--tol=1e-18"
        )
        assert code == 3
        assert "agree = false" in out


class TestTorsionCW:
    def test_circle_file(self, capsys, tmp_path):
        cw = tmp_path / "circle.cw"
        cw.write_text(CIRCLE_CW)
        code, out, _ = run(capsys, "torsion-cw", str(cw), "--xi=0,1")
        assert code == 0
        assert "torsion = 0.707106781187" in out
        assert "betti = 0 0" in out

    def test_parse_error_exits_1(self, capsys, tmp_path):
        cw = tmp_path / "bad.cw"
        cw.write_text("gens a; cells 0 1; cells 1 1; bd 1 0 -> (*, a, 0);")
        code, _, err = run(capsys, "torsion-cw", str(cw), "--xi=0,1")
        assert code == 1
        assert "error:" in err


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

    def test_out_of_range_bd_exits_1(self, capsys, tmp_path):
        # once loaded as the circle, with both out-of-range statements dropped
        cw = tmp_path / "dropped.cw"
        cw.write_text(CIRCLE_CW + "bd 1 7 -> (+, a, 0) ;\nbd 4 0 -> (+, a, 0) ;\n")
        code, out, err = run(capsys, "torsion-cw", str(cw), "--xi=0,1")
        assert (code, out) == (1, "")
        assert "cell index 7" in err and "line 5, col 1" in err


class TestLibraryErrors:
    def test_missing_peripheral_exits_1(self, capsys, monkeypatch):
        def fail(pres, rep):
            raise MissingPeripheralError("presentation has no meridian/longitude words")

        monkeypatch.setattr(cli, "twisted_alexander", fail)
        code, out, err = run(capsys, "talex", "trefoil", "--xi=0,1")
        assert (code, out) == (1, "")
        assert err == "error: presentation has no meridian/longitude words\n"


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
