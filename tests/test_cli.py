import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasenorm.cli
from phasenorm import RootBudgetExceeded, ToleranceNotReached
from phasenorm.cli import main, run_mixtures, run_sweep
from phasenorm.quantifier import (CERTIFIED_QUANTUM, NEGATIVITY_WITNESS_MIN,
                                  NOGO_INSTANCE, baseline_with_error, classify)


def run_cli(*args):
    # the child sees this interpreter's import path, so it runs the same package
    return subprocess.run([sys.executable, "-m", "phasenorm", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


class TestBaselineCommand:
    def test_default_line(self):
        proc = run_cli("baseline")
        assert proc.returncode == 0
        fields = proc.stdout.strip().split(",")
        assert fields[0] == "baseline"
        assert fields[1] == "0.7698004"
        assert float(fields[2]) <= 1e-7

    def test_husimi(self):
        proc = run_cli("baseline", "--s", "-1")
        assert proc.returncode == 0
        assert proc.stdout.strip().split(",")[1] == "0.5"

    def test_p2(self):
        proc = run_cli("baseline", "--p", "2", "--tol", "1e-6")
        assert proc.returncode == 0
        assert proc.stdout.strip().split(",")[1] == "0.5773503"

    def test_invalid_s_usage_error(self):
        assert run_cli("baseline", "--s", "0.5").returncode == 2

    def test_invalid_p_usage_error(self):
        assert run_cli("baseline", "--p", "0.5").returncode == 2


@pytest.mark.parametrize("argv", [
    ["baseline", "--s", "nan"],
    ["baseline", "--s=-inf"],
    ["baseline", "--p", "inf"],
    ["baseline", "--tol", "nan"],
    ["sweep", "--tol", "nan", "--out", "x.csv"],
    ["sweep", "--nbar", "inf", "--out", "x.csv"],
    ["sweep", "--r-min", "nan", "--out", "x.csv"],
    ["sweep", "--r-max", "inf", "--out", "x.csv"],
    ["crossing", "--nbar", "nan"],
    ["mixtures", "--tol", "inf", "--out", "x.csv"],
])
def test_non_finite_float_flag_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err


class TestSweepCommand:
    def test_rows_and_classification_recompute(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--nbar", "1", "--r-min", "0", "--r-max", "1.2",
                     "--steps", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,n_value,err,baseline,m_value,quantum_by_variance,classification"
        assert len(lines) == 8
        rs = []
        for line in lines[1:]:
            r, n, err, base, m, flag, cls = line.split(",")
            rs.append(float(r))
            assert classify(float(m), float(err), bool(int(flag))) == cls
            assert abs(float(m) - (float(n) - float(base))) <= 1e-6
        assert rs == sorted(rs)

    def test_unwritable_out(self):
        proc = run_cli("sweep", "--steps", "2", "--r-max", "0.1",
                       "--out", "/nonexistent-dir/x.csv")
        assert proc.returncode == 1
        assert "cannot write" in proc.stderr

    def test_unrepresentable_squeezing_fails_cleanly(self, tmp_path):
        proc = run_cli("sweep", "--r-min", "399", "--r-max", "400", "--steps", "2",
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command,target,exc", [
        (["baseline"], "baseline_with_error", ToleranceNotReached("missed", None)),
        (["sweep", "--steps", "2"], "measure_m", ToleranceNotReached("missed", None)),
        (["mixtures", "--count", "2"], "measure_m", RootBudgetExceeded("too many")),
    ], ids=["baseline", "sweep", "mixtures"])
    def test_quadrature_failure_fails_cleanly(self, command, target, exc, tmp_path,
                                              monkeypatch, capsys):
        # a missed tolerance or root budget is a runtime failure (exit 1)
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(phasenorm.cli, target, fail)
        out = [] if command == ["baseline"] else ["--out", str(tmp_path / "x.csv")]
        assert main(command + out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("n_value,err", [(math.nan, 1e-7), (0.5, math.inf)],
                             ids=["nan_n", "inf_err"])
    def test_unclassifiable_result_fails_cleanly(self, n_value, err, tmp_path, monkeypatch,
                                                 capsys):
        # the baseline is cached first, so only the swept states see the bad norm
        baseline_with_error()
        monkeypatch.setattr(phasenorm.quantifier, "norm_value",
                            lambda *args: (n_value, err))
        assert main(["sweep", "--steps", "2", "--out", str(tmp_path / "x.csv")]) == 1
        err_text = capsys.readouterr().err
        assert err_text.startswith("error: cannot classify") and "Traceback" not in err_text

    def test_bad_steps_usage_error(self):
        proc = run_cli("sweep", "--steps", "1", "--out", "/tmp/x.csv")
        assert proc.returncode == 2

    def test_bad_range_usage_error(self):
        proc = run_cli("sweep", "--r-min", "1.0", "--r-max", "0.5",
                       "--out", "/tmp/x.csv")
        assert proc.returncode == 2


class TestCrossingCommand:
    def test_nbar1_crossing_in_paper_window(self, capsys):
        assert main(["crossing", "--nbar", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        onset = float(out[0].split(",")[1])
        assert onset == pytest.approx(0.5493061, abs=1e-6)
        fields = out[1].split(",")
        assert fields[0] == "crossing"
        r_star = float(fields[1])
        assert 0.90 <= r_star <= 1.00
        m_lo, m_hi = float(fields[2]), float(fields[3])
        assert m_lo <= 0.0 <= m_hi

    def test_nbar0_has_no_crossing(self, capsys):
        # the measure of pure squeezed vacuum is positive for every r > 0
        # (verified against brute-force quadrature), so there is no sign
        # change to bisect and the command reports the failure
        assert main(["crossing", "--nbar", "0"]) == 1
        err = capsys.readouterr().err
        assert "no certified sign change" in err

    @pytest.mark.parametrize("nbar", ["27", "1e6"])
    def test_onset_above_bracket_fails_before_quadrature(self, nbar, monkeypatch, capsys):
        # for nbar >= (e^4 - 1)/2 = 26.80 the onset lies at or above r = 2,
        # the bracket's upper end, so no crossing can be bracketed
        def fail(*args, **kwargs):
            raise AssertionError("measure_m ran")

        monkeypatch.setattr(phasenorm.cli, "measure_m", fail)
        assert main(["crossing", "--nbar", nbar]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: onset") and "Traceback" not in err

    def test_overflowing_nbar_fails_cleanly(self):
        # its squeezed state's major variance would overflow at any r
        proc = run_cli("crossing", "--nbar", "1e300")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


class TestMixturesCommand:
    def test_rows_normalized_and_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["mixtures", "--count", "12", "--seed", "7", "--out"]
        assert main(args + [str(out1)]) == 0
        assert main(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == ("p0,p1,p2,n_value,m_value,wigner_negativity,"
                            "classification,seed_index")
        assert len(lines) == 13
        for line in lines[1:]:
            parts = line.split(",")
            assert sum(float(x) for x in parts[:3]) == pytest.approx(1.0, abs=1e-6)

    def test_corners(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["mixtures", "--count", "1", "--seed", "3",
                     "--include-corners", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        corners = {line.split(",")[-1]: line.split(",") for line in lines[2:]}
        assert corners["-1"][6] == "classical_consistent"
        assert corners["-2"][6] == "certified_quantum"
        assert corners["-2"][5] == "0.4261226"
        assert corners["-3"][6] == "certified_quantum"

    def test_bad_count_usage_error(self):
        assert run_cli("mixtures", "--count", "0", "--out", "/tmp/x.csv").returncode == 2

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        # NumPy's Philox rejects it only once the scan starts, as a runtime error
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["mixtures", "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert "--seed >= 0" in capsys.readouterr().err
        assert not out.exists()


def tied(x, y):
    """True when x and y, each printed to 7 significant digits, cannot be ordered.

    Against 0 nothing is tied: the printed value keeps its sign and exact zeros.
    """
    return abs(x - y) <= 5e-7 * (abs(x) + abs(y))


class TestClassificationFromCsv:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.floats(0.0, 2.0), st.floats(0.0, 1.5), st.floats(0.05, 1.5),
           st.integers(2, 4))
    def test_sweep_rows_recompute_every_class(self, nbar, r_min, span, steps):
        for row in run_sweep(nbar, r_min, r_min + span, steps):
            r, n, err, base, m, flag, cls = row.csv().split(",")
            m, err = float(m), float(err)
            if tied(m, err):
                continue
            assert classify(m, err, bool(int(flag))) == cls

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.integers(0, 2**16), st.booleans())
    def test_mixture_rows_recompute_nogo(self, count, seed, corners):
        # no err column: only nogo_instance is recomputable, and a
        # certified row has m > err >= 0
        for row in run_mixtures(count, seed, corners):
            fields = row.csv().split(",")
            m, negativity, cls = float(fields[4]), float(fields[5]), fields[6]
            if tied(negativity, NEGATIVITY_WITNESS_MIN):
                continue
            nogo = negativity > NEGATIVITY_WITNESS_MIN and m <= 0.0
            assert (cls == NOGO_INSTANCE) == nogo
            assert cls != CERTIFIED_QUANTUM or m > 0.0


class TestVerifyCommand:
    def test_oracle_suite_passes(self, capsys):
        assert main(["verify", "--suite", "oracles"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert all(line.startswith("PASS,") for line in out[:-1])
        assert out[-1].startswith("summary,pass=")
        assert ",fail=0" in out[-1]
