"""Tests of the benchmark's generator, oracles, checks and layer timer.

    python3 -m pytest bench
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layertrace  # noqa: E402
import prepare  # noqa: E402
import run  # noqa: E402

cli = prepare.import_cli()

from torsionlab import (  # noqa: E402
    UnitaryRep,
    format_spectrum,
    parse_presentation,
    parse_spectrum,
    twisted_alexander,
)

GENERATED_KNOTS = sorted(
    {(p, q) for p, q, _ in prepare.TALEX_JOBS} | set(prepare.VERIFY_KNOTS) | {(2, 3)}
)


@pytest.mark.parametrize("p,q", GENERATED_KNOTS)
def test_trivial_rep_delta1_is_alexander_polynomial(p, q):
    pres = parse_presentation(gen.torus_presentation(p, q))
    delta1 = twisted_alexander(pres, UnitaryRep.character(pres.n_generators, 1.0)).delta1
    want = np.array(gen.alexander_coeffs(p, q), dtype=complex)
    got = np.array(delta1.coeffs)
    assert got.shape == want.shape
    unit = got[0] / want[0]  # equal up to a unit monomial c t^k, |c| = 1
    assert abs(abs(unit) - 1.0) < 1e-9
    np.testing.assert_allclose(got, unit * want, atol=1e-9)


def test_trefoil_matches_corpus_alexander_polynomial():
    lines = [ln for ln in (cli.corpus_dir() / "trefoil.alex").read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    assert int(lines[0]) == 0
    assert gen.alexander_coeffs(2, 3) == [int(c) for c in lines[1].split()]


def test_links_are_rejected():
    with pytest.raises(ValueError):
        gen.torus_presentation(4, 12)


def test_generated_relator_lengths_match_the_workload_ranges():
    assert all(30 <= gen.relator_letters(p, q) <= 70 for p, q, _ in prepare.TALEX_JOBS)
    assert all(60 <= gen.relator_letters(p, q) <= 130 for p, q in prepare.VERIFY_KNOTS)


def test_unit_stays_away_from_one_and_alexander_roots():
    rng = np.random.default_rng(0)
    roots = np.append(gen.alexander_roots(2, 33), 1.0)
    for _ in range(200):
        xi = gen.unit_away_from_roots(rng, 2, 33)
        assert np.min(np.abs(roots - xi)) >= gen.MIN_ROOT_DIST
        assert abs(gen.alexander_at(2, 33, xi)) > 0


def test_spectrum_round_trip_and_known_eigenvalues():
    rng = np.random.default_rng(3)
    lengths, angles, hol = gen.spectrum(rng, 40, 2)
    spec = parse_spectrum(gen.spectrum_text(lengths, hol))
    assert [e.length for e in spec.entries] == list(lengths)
    np.testing.assert_array_equal(np.array([e.holonomy for e in spec.entries]), hol)
    again = parse_spectrum(format_spectrum(spec))
    assert again.rank == spec.rank
    for a, b in zip(again.entries, spec.entries):
        assert a.length == pytest.approx(b.length, rel=1e-14)
        np.testing.assert_allclose(a.holonomy, b.holonomy, atol=1e-14)
    for h, theta in zip(hol, angles):
        got = np.sort(np.angle(np.linalg.eigvals(h)))
        np.testing.assert_allclose(got, np.sort(theta), atol=1e-10)


@pytest.fixture
def small_spectra(monkeypatch):
    monkeypatch.setattr(prepare, "SPECTRUM_ENTRIES", 300)


@pytest.mark.parametrize("workload", prepare.WORKLOADS)
def test_every_job_passes_its_oracle(workload, tmp_path, small_spectra):
    jobs = prepare.BUILDERS[workload](np.random.default_rng(7), tmp_path)
    runner = run.Runner(cli, prepare.run_cli)
    for job in jobs:
        runner.run(job)
    assert (runner.attempted, runner.failed) == (len(jobs), 0)
    assert runner.max_rel_err <= run.REL_TOL


@pytest.mark.parametrize("workload", prepare.WORKLOADS)
def test_wrong_expected_value_counts_as_failure(workload, tmp_path, small_spectra):
    job = prepare.BUILDERS[workload](np.random.default_rng(7), tmp_path)[0]
    if job["kind"] == "ruelle":
        job["expect"]["value"][0] *= 1.0 + 1e-6
    else:
        job["expect"] *= 1.0 + 1e-6
    runner = run.Runner(cli, prepare.run_cli)
    runner.run(job)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_failed_exit_code_counts_as_failure():
    runner = run.Runner(cli, prepare.run_cli)
    runner.run({"kind": "talex", "label": "missing", "argv": ["talex", "no_such_knot", "--xi=0,1"],
                "expect": 1.0})
    assert runner.failed == 1


def test_job_times_are_divided_by_the_calibration_around_them(monkeypatch):
    monkeypatch.setattr(run, "MIN_JOBS", 3)

    class FakeRunner:
        times = iter([2.0, 6.0, 4.0])

        def run(self, job):
            return next(self.times)

    class FakeCalibration:
        values = iter([1.0, 3.0, 1.0, 1.0])
        points = []

        def point(self, after_s=0.0):
            self.points.append(next(self.values))

    times, rel, _ = run.measure(FakeRunner(), [{}], random.Random(0),
                                seconds=0.0, calibration=FakeCalibration())
    assert times == [2.0, 6.0, 4.0]
    assert rel == [1.0, 3.0, 4.0]


def test_calibration_point_fills_its_share_of_the_job(monkeypatch):
    cal = run.Calibration()
    assert cal.kernel() > 0
    calls = []
    monkeypatch.setattr(cal, "kernel", lambda: calls.append(1) or 0.002)
    cal.point()
    assert len(calls) == 1
    cal.point(after_s=0.01 / run.CALIBRATION_SHARE)
    assert len(calls) == 1 + 5
    assert cal.points == [0.002, 0.002]


def test_golden_check_passes_on_the_corpus():
    assert prepare.golden_check(cli.main) == (len(prepare.golden_cases()), 0)


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    for n in (11, 20, 99, 100, 155, 1000):
        p = run.tail_percentile(n)
        assert n * (100 - p) / 100 >= run.TAIL_BEYOND - 1e-9
        assert n * (100 - p - 0.1) / 100 < run.TAIL_BEYOND


def test_tracer_spans_self_time_and_restore(tmp_path):
    import numpy.linalg
    import torsionlab.twisted

    job = prepare.BUILDERS["talex_highrank"](np.random.default_rng(1), tmp_path)[0]
    original_det = numpy.linalg.det
    original_ta = cli.twisted_alexander
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli.twisted_alexander is not original_ta
        assert torsionlab.twisted.twisted_alexander is cli.twisted_alexander
        prepare.run_cli(cli.main, job["argv"])
    finally:
        tracer.uninstall()
    tracer.end_job()
    assert numpy.linalg.det is original_det and cli.twisted_alexander is original_ta
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["twisted.twisted_alexander"] == 1
    assert tracer.calls["laurent.LaurentMatrix.det"] >= 2
    assert tracer.counts["laurent.det.lapack_calls"] > 0
    for name in tracer.calls:
        assert 0 <= tracer.self_s[name] <= tracer.total_s[name]
    assert tracer.self_s["cli.main"] < tracer.total_s["twisted.twisted_alexander"]


def test_tracer_reports_missing_function_as_absent(monkeypatch):
    monkeypatch.setattr(layertrace, "SPAN_TARGETS",
                        layertrace.SPAN_TARGETS + (("torsionlab.twisted", "no_such_function"),))
    tracer = layertrace.Tracer()
    assert tracer.absent == ["twisted.no_such_function"]


def test_tracer_counts_exceptions_raised_through_a_span(tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("gens a b ;\nrel a c ;\n")
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        code, _ = prepare.run_cli(cli.main, ["talex", str(bad), "--xi=0,1"])
    finally:
        tracer.uninstall()
    tracer.end_job()
    assert code == 1
    assert tracer.errors["presentations.parse_presentation"] == 1
    assert tracer.errors["cli.main"] == 0  # main turns the ParseError into exit code 1
