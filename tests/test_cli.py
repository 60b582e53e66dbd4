import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshell
from oracles import csv_text_oracle
from treeshell import GeneralCoefficients, cli
from treeshell.cli import _write_csv, main

# Child interpreters import the package from the same source tree as this one.
SUBPROCESS_ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(treeshell.__file__)),
                      os.environ.get("PYTHONPATH")])))


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


def header_lines(text):
    return [ln for ln in text.splitlines() if ln.startswith("#")]


@pytest.fixture
def no_synthesis(monkeypatch):
    from treeshell import field

    def fail(*args, **kwargs):
        raise AssertionError("the field was built before the config check")

    monkeypatch.setattr(field, "_generations", fail)
    monkeypatch.setattr(field, "synthesize", fail)


class TestSpectraCommand:
    def test_default_run_emits_seven_curves(self, capsys):
        rc, out = run_cli(["spectra", "--p-max", "2", "--p-step", "1"], capsys)
        assert rc == 0
        rows = parse_csv(out)
        names = {r["model_name"] for r in rows}
        assert len(names) == 7
        assert {"k41", "log_normal", "beta", "she_leveque"} <= names

    def test_flat_lambda_zero_coincides_with_k41(self, capsys):
        rc, out = run_cli(["spectra", "--lambdas", "0",
                           "--p-max", "10", "--p-step", "0.5"], capsys)
        assert rc == 0
        rows = parse_csv(out)
        rcm = {r["p"]: float(r["zeta"]) for r in rows
               if r["model_name"].startswith("rcm")}
        k41 = {r["p"]: float(r["zeta"]) for r in rows if r["model_name"] == "k41"}
        assert rcm.keys() == k41.keys()
        assert all(abs(rcm[p] - k41[p]) <= 1e-12 for p in rcm)

    def test_all_curves_pass_through_three_one(self, capsys, tmp_path):
        summary = tmp_path / "s.json"
        rc, out = run_cli(["spectra", "--p-max", "4", "--p-step", "1",
                           "--summary", str(summary)], capsys)
        assert rc == 0
        for r in parse_csv(out):
            if r["p"] == "3":
                assert float(r["zeta"]) == pytest.approx(1.0, abs=1e-12)
        payload = json.loads(summary.read_text())
        assert all(abs(v["zeta3"] - 1.0) <= 1e-12 for v in payload.values())


    @pytest.mark.parametrize("extra", [["--mu", "nan"], ["--D", "nan"],
                                       ["--lambdas", "nan"],
                                       ["--p-min=-1"], ["--p-max", "nan"],
                                       ["--p-max", "inf"],
                                       ["--p-min", "5", "--p-max", "1"]])
    def test_rejects_bad_numbers_before_work(self, capsys, monkeypatch,
                                             extra):
        from treeshell import spectra

        def fail(*args, **kwargs):
            raise AssertionError("zeta ran before the config check")

        monkeypatch.setattr(spectra, "zeta", fail)
        monkeypatch.setattr(spectra, "reference_zeta", fail)
        rc, out = run_cli(["spectra"] + extra, capsys)
        assert rc == 2 and out == ""


class TestSolveCommand:
    def test_summary_table(self, capsys):
        # seed inside [a, b] so the containment invariant applies to all rows
        rc, out = run_cli(["solve", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", "6", "-x", "-1.0"],
                          capsys)
        assert rc == 0
        rows = parse_csv(out)
        assert len(rows) == 7
        for r in rows:
            assert float(r["band_lo"]) <= float(r["q_min"])
            assert float(r["q_max"]) <= float(r["band_hi"])
            assert float(r["residual_max"]) <= 1e-12

    def test_residual_computed_once(self, capsys, monkeypatch):
        from treeshell.solution import PullbackRun

        calls = []
        original = PullbackRun.residual_max

        def counted(run):
            calls.append(run)
            return original(run)

        monkeypatch.setattr(PullbackRun, "residual_max", counted)
        rc, out = run_cli(["solve", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", "6"], capsys)
        assert rc == 0 and len(parse_csv(out)) == 7
        assert len(calls) == 1

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_seed_before_work(self, capsys, monkeypatch,
                                                 x):
        from treeshell import solution

        def fail(*args, **kwargs):
            raise AssertionError("pullback ran before the config check")

        monkeypatch.setattr(solution, "_pull_row", fail)
        rc, out = run_cli(["solve", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", "4", f"-x={x}"], capsys)
        assert rc == 2 and out == ""


class TestDissipationCommands:
    def test_measure_atoms(self, capsys):
        rc, out = run_cli(["dissipation", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--n", "8"], capsys)
        assert rc == 0
        rows = parse_csv(out)
        assert len(rows) == 9
        total = np.exp2([float(r["log2_mass"]) for r in rows]).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_concentration_auto_band_centers_at_phi32(self, capsys, d12):
        rc, out = run_cli(["concentration", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--n-list", "20,40"], capsys)
        assert rc == 0
        for ln in header_lines(out):
            if ln.startswith("# config="):
                cfg = json.loads(ln.split("=", 1)[1])
        lo, hi = cfg["band"]
        assert 0.5 * (lo + hi) == pytest.approx(d12.phi(1.5), abs=1e-12)
        rows = parse_csv(out)
        assert float(rows[1]["mass_in_B"]) > float(rows[0]["mass_in_B"])
        for r in rows:
            assert float(r["tail"]) == pytest.approx(
                1.0 - float(r["mass_in_B"]), abs=1e-12)

    def test_concentration_tail_of_a_band_with_little_mass(self, capsys):
        # phi(3/2) lies outside the band, so mass_in_B is 1e-10 to 1e-35
        # and the tail is one minus it, not a sum of atoms near 1
        rc, out = run_cli(["concentration", "--deltas", "1,2,3,5", "--dim",
                           "2", "--alpha", "2", "--band", "0.1,0.3",
                           "--n-list", "10,20,40"], capsys)
        assert rc == 0
        rows = parse_csv(out)
        assert len(rows) == 3
        for r in rows:
            tail, mass = float(r["tail"]), float(r["mass_in_B"])
            assert tail <= 1
            assert float(r["point_rate"]) >= 0
            assert abs(mass + tail - 1) <= 1e-15

    def test_dissipation_band_auto_reports_band_mass(self, capsys, d12):
        rc, out = run_cli(["dissipation", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--n", "100", "--band", "auto"],
                          capsys)
        assert rc == 0
        band_line = [ln for ln in header_lines(out) if "band=" in ln]
        assert len(band_line) == 1
        lo = float(band_line[0].split("band=[")[1].split(",")[0])
        assert lo == pytest.approx(d12.phi(1.5) - 0.1, abs=1e-12)
        mass = float(band_line[0].split("mass_in_band=")[1])
        assert 0 < mass < 1

    def test_lln(self, capsys):
        rc, out = run_cli(["lln", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--n", "500",
                           "--samples", "200"], capsys)
        assert rc == 0
        row = parse_csv(out)[0]
        assert abs(float(row["sigma_mean"]) - 0.5) \
            <= 4 * float(row["standard_error"])

    def test_lln_header_is_the_report_fields(self, capsys):
        rc, out = run_cli(["lln", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--n", "10", "--samples", "5"],
                          capsys)
        assert rc == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == ("n,samples,sigma_mean,sigma_std,standard_error,"
                            "ell_zero,log_ratio_rate_mean,log_ratio_rate_limit")
        assert len(lines) == 2


class TestSimulateCommand:
    def test_constant_with_stationary_closure_does_not_drift(self, capsys):
        rc, out = run_cli(["simulate", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", "4",
                           "--dt", "1e-4", "--t-end", "0.05",
                           "--closure", "stationary", "--init", "constant"],
                          capsys)
        assert rc == 0
        rows = parse_csv(out)
        energies = [float(r["energy"]) for r in rows]
        assert abs(energies[-1] - energies[0]) <= 1e-9 * energies[0]
        assert float(rows[-1]["distance_to_u"]) <= 1e-18
        assert float(rows[-1]["clamp_total"]) == 0.0

    def test_perturbed_init(self, capsys):
        rc, out = run_cli(["simulate", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", "3",
                           "--dt", "1e-4", "--t-end", "0.01",
                           "--init", "perturbed:0.1"], capsys)
        assert rc == 0
        rows = parse_csv(out)
        assert float(rows[0]["distance_to_u"]) > 0


class TestStructureCommand:
    def test_json_summary_fields(self, capsys, tmp_path):
        summary = tmp_path / "zeta.json"
        rc, out = run_cli(["structure", "--deltas", "1,1", "--dim", "1",
                           "--alpha", "1.5", "--depth", "12",
                           "--p-list", "1,2", "--summary", str(summary)],
                          capsys)
        assert rc == 0
        payload = json.loads(summary.read_text())
        assert [entry["p"] for entry in payload] == [1.0, 2.0]
        for entry in payload:
            assert set(entry) == {"p", "zeta_hat", "zeta_formula", "rel_err"}
            assert entry["zeta_formula"] == pytest.approx(entry["p"] / 3,
                                                          abs=1e-12)


class TestCliContract:
    def test_outputs_are_byte_identical_across_runs(self, capsys):
        args = ["lln", "--deltas", "1,2", "--dim", "1", "--alpha", "1.5",
                "--n", "200", "--samples", "50", "--seed", "11"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_files_are_byte_identical_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            rc, _ = run_cli(["simulate", "--deltas", "1,2", "--dim", "1",
                             "--alpha", "1.5", "--depth", "3", "--dt", "1e-4",
                             "--t-end", "0.01", "--out", str(p)], capsys)
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_carries_hash_seed_version(self, capsys, d12):
        rc, out = run_cli(["solve", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", "3"], capsys)
        head = "\n".join(header_lines(out))
        assert f"model_hash={d12.hash()}" in head
        assert "seed=0" in head
        assert "treeshell" in head

    def test_config_error_exit_code(self, capsys):
        rc, _ = run_cli(["solve", "--dim", "1", "--alpha", "1.5"], capsys)
        assert rc == 2

    def test_missing_config_file(self, capsys):
        rc, _ = run_cli(["solve", "--config", "/nonexistent.json"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        "solve --deltas 1,2 --dim 1 --alpha 1.5 --depth 3 --out",
        "spectra --p-max 1 --p-step 1 --summary",
        "solve --depth 3 --config"])
    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    def test_unusable_paths_are_config_errors(self, capsys, tmp_path, argv,
                                              target):
        path = tmp_path if target == "directory" else tmp_path / "no" / "f"
        rc = main(argv.split() + [str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error: ") and err.count("\n") == 1

    def test_config_deltas_must_be_a_list(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text('{"d": 1, "alpha": 1.5, "deltas": "12"}')
        rc, out = run_cli(["solve", "--config", str(cfg)], capsys)
        assert rc == 2 and out == ""

    def test_config_d_must_be_an_integer(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text('{"d": 1.7, "alpha": 1.5, "deltas": [1, 2]}')
        rc, out = run_cli(["solve", "--config", str(cfg)], capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("argv", ["spectra --lambdas 400",
                                      "spectra --lambdas inf",
                                      "solve --lambda 400 --dim 3"])
    def test_overflowing_lambda_prints_one_line(self, argv):
        # a subprocess: pytest would capture numpy's warnings off stderr
        proc = subprocess.run(
            [sys.executable, "-m", "treeshell.cli"] + argv.split(),
            capture_output=True, text=True, timeout=120, env=SUBPROCESS_ENV)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("configuration error: all coefficients must "
                               "be strictly positive and finite\n")

    @pytest.mark.parametrize("argv", [
        # the band covers the whole sigma range [0, 1]
        "concentration --deltas 1,2 --band 0,1 --n-list 10",
        # a flat model's sigma range is the one point the band covers
        "concentration --deltas 1,1 --band auto --n-list 10,20",
        "lln --deltas 1,2 --seed -1"])
    def test_library_input_checks_are_config_errors(self, capsys, monkeypatch,
                                                    argv):
        from treeshell import dissipation

        def fail(*args, **kwargs):
            raise AssertionError("measure ran before the input check")

        monkeypatch.setattr(dissipation, "measure", fail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv.split() + ["--dim", "1", "--alpha", "1.5"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("configuration error: ")

    @pytest.mark.parametrize("call,value", [
        ("pullback", math.nan), ("pullback", math.inf),
        ("structure_function", -1.0), ("structure_function", 0.0),
        ("structure_function", math.nan), ("structure_function", math.inf)])
    def test_library_rejects_non_finite_seed_and_p(self, d12_solution,
                                                   monkeypatch, call, value):
        from treeshell import field, solution

        def fail(*args, **kwargs):
            raise AssertionError("work started before the input check")

        monkeypatch.setattr(solution, "_pull_row", fail)
        monkeypatch.setattr(field, "_generations", fail)
        with pytest.raises(ValueError):
            if call == "pullback":
                solution.pullback(
                    GeneralCoefficients.from_rcm(d12_solution.model), 1.5, 4,
                    seed=value)
            else:
                field.structure_function(d12_solution, 10, [1.0, value])

    @pytest.mark.parametrize("flag,value", [("--dt", "-1"), ("--t-end", "0"),
                                            ("--record-every", "0")])
    def test_simulate_rejects_non_positive_steps(self, capsys, flag, value):
        rc, out = run_cli(["simulate", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", "3", flag, value],
                          capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("flag", ["--n", "--samples"])
    def test_lln_rejects_zero_sizes(self, capsys, flag):
        rc, out = run_cli(["lln", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", flag, "0"], capsys)
        assert rc == 2 and out == ""

    def test_dissipation_rejects_zero_n(self, capsys):
        rc, out = run_cli(["dissipation", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--n", "0"], capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("command", ["dissipation", "concentration"])
    @pytest.mark.parametrize("width", ["0", "-0.1"])
    def test_auto_band_rejects_non_positive_width(self, capsys, command, width):
        rc, out = run_cli([command, "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--band", "auto",
                           "--band-width", width], capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("command", ["dissipation", "concentration"])
    @pytest.mark.parametrize("band", ["0.5,0.5", "0.8,0.2"])
    def test_band_rejects_lo_not_below_hi(self, capsys, command, band):
        rc, out = run_cli([command, "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--band", band], capsys)
        assert rc == 2 and out == ""

    def test_concentration_rejects_n_list_entry_below_one(self, capsys):
        rc, out = run_cli(["concentration", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--n-list", "20,0"], capsys)
        assert rc == 2 and out == ""

    def test_concentration_rejects_non_integer_n_list(self, capsys):
        rc, out = run_cli(["concentration", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--n-list", "20.7,40.2"], capsys)
        assert rc == 2 and out == ""

    def test_concentration_rejects_repeated_n_before_work(self, capsys,
                                                          monkeypatch):
        from treeshell import dissipation

        def fail(*args, **kwargs):
            raise AssertionError("measure ran before the n-list check")

        monkeypatch.setattr(dissipation, "measure", fail)
        rc, out = run_cli(["concentration", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--band", "0.3,1.5",
                           "--n-list", "20,20"], capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("steps, budget", [
        (["--dt", "1e-12", "--t-end", "1e3", "--record-every", "1"],
         "values"),
        # about 1e20 steps, beyond int64, in two records
        (["--dt", "1e-300", "--t-end", "1e-280",
          "--record-every", "100000000000000000000"], "node-steps"),
        (["--dt", "1e-12", "--t-end", "1e3", "--record-every", "1000000000"],
         "node-steps")], ids=["steps0", "steps1", "steps2"])
    def test_simulate_step_count_over_budget(self, capsys, monkeypatch,
                                             steps, budget):
        from treeshell import dynamics

        def fail(*args, **kwargs):
            raise AssertionError("stepped before the step-count check")

        monkeypatch.setattr(dynamics, "_Rk4", fail)
        rc = main(["simulate", "--deltas", "1,2", "--dim", "1",
                   "--alpha", "1.5", "--depth", "2"] + steps)
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("configuration error: ")
        assert f" {budget} exceed the " in err

    def test_simulate_blow_up_prints_one_line(self):
        # a subprocess: pytest would capture numpy's warnings off stderr
        proc = subprocess.run(
            [sys.executable, "-m", "treeshell.cli", "simulate", "--deltas",
             "1,2", "--dim", "1", "--alpha", "1.5", "--depth", "6", "--dt",
             "0.5", "--t-end", "5", "--closure", "zero", "--init", "constant"],
            capture_output=True, text=True, timeout=120, env=SUBPROCESS_ENV)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "numeric failure: non-finite state at t = 2.0\n"

    @pytest.mark.parametrize("init", ["perturbed:abc", "perturbed:-2",
                                      "perturbed:nan", "perturbed:inf"])
    def test_simulate_rejects_bad_perturbation(self, capsys, monkeypatch,
                                               init):
        from treeshell import dynamics

        def no_integration(*args, **kwargs):
            raise AssertionError("integrate ran before the init check")

        monkeypatch.setattr(dynamics, "integrate", no_integration)
        rc, out = run_cli(["simulate", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", "3", "--init", init],
                          capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("command,depth", [("solve", "0"), ("solve", "-1"),
                                               ("simulate", "-1")])
    def test_rejects_depth_out_of_range(self, capsys, command, depth):
        rc, out = run_cli([command, "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", depth], capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_structure_rejects_depth_below_one(self, capsys, depth):
        rc, out = run_cli(["structure", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", depth], capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("extra", [["--depth", "6"],
                                       ["--depth", "10", "--fit-window", "0,5"],
                                       ["--depth", "10", "--fit-window", "5,10"],
                                       ["--depth", "10", "--fit-window", "6,4"],
                                       ["--depth", "10", "--fit-window", "2.9,5.9"]])
    def test_structure_rejects_fit_window_outside_depth(self, capsys,
                                                        no_synthesis, extra):
        rc, out = run_cli(["structure", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5"] + extra, capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("extra", [["--p-list", "nan"],
                                       ["--p-list", "0,inf"],
                                       ["--p-list=-1,2"],
                                       ["--dim", "2", "--deltas", "1,2,3,5"]])
    def test_structure_rejects_config_before_synthesis(self, capsys,
                                                       no_synthesis, extra):
        rc, out = run_cli(["structure", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", "10"] + extra, capsys)
        assert rc == 2 and out == ""

    def test_spectra_rejects_zero_p_step(self, capsys):
        rc, out = run_cli(["spectra", "--p-step", "0"], capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("model_args", [["--deltas", "1,inf"],
                                            ["--deltas", "1,2", "--alpha", "inf"]])
    def test_non_finite_model_values_are_config_errors(self, capsys,
                                                       model_args):
        rc, out = run_cli(["solve", "--dim", "1", "--depth", "3"] + model_args,
                          capsys)
        assert rc == 2 and out == ""

    def test_numeric_error_exit_code(self, capsys):
        # dt = 1 is far beyond the stability limit: the state blows up
        with np.errstate(all="ignore"):
            rc, out = run_cli(["simulate", "--deltas", "1,2", "--dim", "1",
                               "--alpha", "1.5", "--depth", "3", "--dt", "1",
                               "--t-end", "50", "--init", "perturbed:1"],
                              capsys)
        assert rc == 1 and out == ""

    @pytest.mark.parametrize("argv", [
        # lattice budget: 8 distinct deltas at n = 500 and at n = 100
        "dissipation --dim 3 --alpha 2.5 --lambda 0.2 --n 500",
        "dissipation --dim 3 --lambda 0.2 --n 100",
        "solve --deltas 1,2 --dim 1 --alpha 1.5 --depth 40",
        "structure --deltas 1,2 --dim 1 --alpha 1.5 --depth 30",
        "simulate --deltas 1,2 --dim 1 --alpha 1.5 --depth 30",
        "simulate --lambda 0.2 --dim 3 --depth 10 --init zero"])
    def test_over_budget_sizes_are_config_errors(self, capsys, monkeypatch,
                                                 argv):
        def fail(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        monkeypatch.setattr(np, "zeros", fail)
        rc, out = run_cli(argv.split(), capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("argv", [
        # N**depth fits the 2**26 nodes budget; generations 0..depth do not
        "simulate --deltas 1,2 --dim 1 --alpha 1.5 --depth 26",
        "simulate --deltas 1,2 --dim 1 --alpha 1.5 --depth 26 --init zero",
        "simulate --deltas 1,2,3,5 --dim 2 --alpha 2 --depth 13",
        "simulate --deltas 1,2,3,5 --dim 2 --alpha 2 --depth 13 --init zero"])
    def test_simulate_state_budget_counts_every_generation(
            self, capsys, monkeypatch, argv):
        from treeshell import RcmModel

        def fail(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        for name in ("zeros", "empty", "full"):
            monkeypatch.setattr(np, name, fail)
        monkeypatch.setattr(RcmModel, "path_sum_rows", fail)
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "67108864 budget" in captured.err

    @pytest.mark.parametrize("argv", [
        # 7 models times about 10**301 p values, and a grid whose length
        # overflows to inf
        "spectra --p-max 1e300",
        "spectra --p-max 1e300 --p-step 1e-300",
        # 2**24 samples of N = 8 label counts
        "lln --lambda 0.2 --dim 3 --samples 16777216"])
    def test_p_grid_and_lln_samples_are_config_errors(self, capsys,
                                                      monkeypatch, argv):
        def fail(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        def arange(*args, **kwargs):
            # the models take integer ranges; only the p grid has float ends
            if any(isinstance(a, float) for a in args):
                fail()
            return real_arange(*args, **kwargs)

        real_arange = np.arange
        monkeypatch.setattr(np, "arange", arange)
        monkeypatch.setattr(np.random, "default_rng", fail)
        rc = main(argv.split())
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "budget" in captured.err

    def test_structure_depth_27_exceeds_the_cell_budget(self, capsys,
                                                        monkeypatch):
        # 2**27 cells: the budget check fails before any array exists
        def fail(*args, **kwargs):
            raise AssertionError("allocated before the budget check")

        for name in ("zeros", "empty", "full"):
            monkeypatch.setattr(np, name, fail)
        rc = main(["structure", "--deltas", "1,2", "--dim", "1",
                   "--alpha", "1.5", "--depth", "27"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "134217728 cells exceed the 67108864 budget" in captured.err

    def test_config_file_round_trip(self, capsys, tmp_path, d12):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(d12.to_dict()))
        rc, out = run_cli(["solve", "--config", str(cfg), "--depth", "3"],
                          capsys)
        assert rc == 0
        assert f"model_hash={d12.hash()}" in out

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "treeshell.cli", "spectra",
             "--p-max", "1", "--p-step", "1"],
            capture_output=True, text=True, timeout=120, env=SUBPROCESS_ENV)
        assert proc.returncode == 0
        assert "model_name,p,zeta" in proc.stdout

    def test_cli_and_dynamics_imports_do_not_load_scipy(self):
        # a None entry in sys.modules makes every import of scipy fail
        script = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import treeshell
from treeshell.cli import main
for mod in pkgutil.iter_modules(treeshell.__path__):
    importlib.import_module("treeshell." + mod.name)
model = ["--deltas", "1,2", "--dim", "1", "--alpha", "1.5"]
assert main(["dissipation", *model, "--n", "100"]) == 0
assert main(["concentration", *model, "--band", "auto"]) == 0
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("sigma_atom,") == 1
        assert proc.stdout.count("theoretical_rate") == 1

    def test_rcm_threads_env_is_accepted(self):
        env = dict(SUBPROCESS_ENV, RCM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "treeshell.cli", "lln", "--deltas", "1,2",
             "--dim", "1", "--alpha", "1.5", "--n", "100", "--samples", "10"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0

    def test_floats_round_trip_through_17_digits(self, capsys, d12):
        from treeshell import fixed_point_q

        rc, out = run_cli(["solve", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", "4", "-x",
                           repr(fixed_point_q(d12))], capsys)
        assert rc == 0
        rows = parse_csv(out)
        # the printed q values parse back to the exact double
        assert float(rows[0]["q_mean"]) == fixed_point_q(d12)


class TestCsvWriter:
    def test_columns_format_by_type_and_scalars_repeat(self, capsys, tmp_path):
        columns = {"n": np.arange(1, 4),
                   "x": np.array([0.1, -0.0, np.inf]),
                   "name": ["a", "b=1", "c"],
                   "k": 7,
                   "c": 1 / 3}
        want = ("# one\n# two\nn,x,name,k,c\n"
                "1,0.10000000000000001,a,7,0.33333333333333331\n"
                "2,-0,b=1,7,0.33333333333333331\n"
                "3,inf,c,7,0.33333333333333331\n")
        path = tmp_path / "t.csv"
        _write_csv(str(path), ["# one", "# two"], columns)
        assert path.read_text() == want
        _write_csv(None, ["# one", "# two"], columns)
        assert capsys.readouterr().out == want


CHUNK = cli._CHUNK_ROWS
# cell values the writer must render as str or '%.17g' does, '%' included
CELLS = {"float": st.floats(allow_nan=True, allow_infinity=True)
         | st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
         "int": st.integers(-2**63, 2**63 - 1),
         "bool": st.booleans(),
         "str": st.text(alphabet="a%s.,= ")}


def written_bytes(header, columns) -> tuple[bytes, bytes]:
    """What _write_csv writes to a file and to stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        _write_csv(path, header, columns)
        with open(path, "rb") as fh:
            to_file = fh.read()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _write_csv(None, header, columns)
    return to_file, out.getvalue().encode()


@st.composite
def tables(draw):
    """A chunk size, and columns of every kind, scalar or not, whose row
    count sits on a chunk boundary or anywhere up to three chunks."""
    chunk = draw(st.integers(1, 4))
    n_rows = draw(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1,
                                   2 * chunk + 1]) | st.integers(0, 3 * chunk))
    names = draw(st.lists(st.text(alphabet="xy%,", min_size=1), min_size=1,
                          max_size=5, unique=True))
    columns = {}
    for name in names:
        cells = CELLS[draw(st.sampled_from(sorted(CELLS)))]
        columns[name] = (draw(cells) if draw(st.booleans())
                         else draw(st.lists(cells, min_size=n_rows,
                                            max_size=n_rows)))
    return chunk, columns


class TestChunkedCsvWriter:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(tables(), st.lists(st.text(alphabet="# %s"), max_size=2))
    def test_bytes_match_the_oracle(self, table, header):
        chunk, columns = table
        with mock.patch.object(cli, "_CHUNK_ROWS", chunk):
            to_file, to_stdout = written_bytes(header, columns)
        want = csv_text_oracle(header, columns).encode()
        assert to_file == want and to_stdout == want

    @pytest.mark.parametrize("n_rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                        2 * CHUNK + 1])
    def test_bytes_match_the_oracle_at_the_chunk_size(self, n_rows):
        rng = np.random.default_rng(n_rows)
        special = np.array([-0.0, math.inf, -math.inf, math.nan, 0.1])
        columns = {"x": rng.standard_normal(n_rows) * 1e3,
                   "edge": np.resize(special, n_rows),
                   "k": rng.integers(-10**12, 10**12, n_rows),
                   "b": rng.random(n_rows) < 0.5,
                   "s": np.resize(["a%s", "100%", "%%"], n_rows),
                   "scalar": -0.0, "pct": "50% of %s %(x)d", "one": 1 / 3}
        to_file, to_stdout = written_bytes(["# h %s"], columns)
        want = csv_text_oracle(["# h %s"], columns).encode()
        assert to_file == want and to_stdout == want

    def test_dissipation_rows_span_chunks(self, tmp_path, capsys):
        # 4 distinct deltas at n = 57: C(60, 3) = 34,220 atoms, two chunks
        argv = ["dissipation", "--deltas", "1,2,3,5", "--dim", "2", "--n", "57"]
        atoms = math.comb(60, 3)
        assert CHUNK < atoms < 2 * CHUNK
        path = tmp_path / "mu.csv"
        assert main(argv + ["--out", str(path)]) == 0
        rc, out = run_cli(argv, capsys)
        assert rc == 0 and path.read_bytes() == out.encode()
        rows = parse_csv(out)
        assert len(rows) == atoms
        assert {r["n"] for r in rows} == {"57"}
