import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SUBPROCESS_ENV, run_capped, same_bits
from oracles import csv_text_oracle
from treeshell import ConstantSolution, GeneralCoefficients, cli
from treeshell.cli import _write_csv, main


D12_CONFIG = '{"d": 1, "alpha": 1.5, "deltas": [1, 2]}'


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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """JSON as its standard has it: a bare NaN or Infinity fails to parse."""
    return json.loads(text, parse_constant=_reject_constant)


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

    def test_rcm_rows_are_one_value_each(self, capsys):
        # the shared coefficient row keeps every pulled-back row at one
        # value, so a row's mean is its min and max to the last digit
        rc, out = run_cli(["solve", "--deltas", "1,2,3,5", "--dim", "2",
                           "--alpha", "2", "--depth", "10"], capsys)
        rows = parse_csv(out)
        assert rc == 0 and len(rows) == 11
        assert all(r["q_mean"] == r["q_min"] == r["q_max"] for r in rows)

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

    @pytest.mark.parametrize("deltas, dim", [("0.5,1", "1"),
                                             ("0.25,0.5,1,1", "2")])
    def test_measure_writes_no_negative_zero(self, capsys, deltas, dim):
        rc, out = run_cli(["dissipation", "--deltas", deltas, "--dim", dim,
                           "--n", "12"], capsys)
        assert rc == 0
        rows = parse_csv(out)
        assert any(float(r["sigma_atom"]) == 0 for r in rows)
        assert [cell for r in rows for cell in r.values()
                if cell.startswith("-") and float(cell) == 0] == []

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

    @pytest.mark.parametrize("init, scale", [
        ("zero", None), ("constant", 1.0), ("perturbed:0.05", 1.05),
        ("perturbed:-1", 0.0)])
    def test_csv_matches_the_library_trajectory(self, capsys, d12, init,
                                                scale):
        # one constructor for every --init gives the bits of the library's
        # zeros / from_constant states; the model flags take their defaults
        from treeshell import dynamics

        rc, out = run_cli(["simulate", "--deltas", "1,2", "--depth", "3",
                           "--dt", "1e-3", "--t-end", "0.05",
                           "--record-every", "7", "--init", init], capsys)
        assert rc == 0
        sol = ConstantSolution(d12)
        state = (dynamics.TruncatedState.zeros(d12, 3, "stationary")
                 if scale is None else dynamics.TruncatedState.from_constant(
                     sol, 3, "stationary", scale))
        traj = dynamics.integrate(state, 1e-3, 50, record_every=7)
        u = dynamics.constant_values(sol, 3)
        want = {"t": traj.times,
                "energy": (traj.states * traj.states).sum(axis=1),
                "v_root": traj.states[:, 0],
                "distance_to_u": ((traj.states - u) ** 2).sum(axis=1),
                "clamp_total": traj.clamp_total}
        rows = parse_csv(out)
        assert len(rows) == len(traj.times)
        for name, column in want.items():
            got = np.array([float(r[name]) for r in rows])
            want_col = np.broadcast_to(np.asarray(column, float), got.shape)
            assert same_bits(got, want_col), name

    def test_squares_beyond_the_double_range_exit_1_writing_nothing(
            self, capsys, tmp_path):
        # a finite start whose energy and distance_to_u overflow: these
        # used to print as inf with exit 0
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--deltas", "1,2", "--dim", "1", "--alpha",
                   "1.5", "--depth", "3", "--dt", "1", "--t-end", "0.1",
                   "--init", "perturbed:1e308", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == (
            "numeric failure: an energy or distance_to_u is not finite: the "
            "state's squares leave the double range\n")
        assert not out.exists()

    def test_a_start_past_the_double_range_is_a_configuration_error(
            self, capsys):
        # u (1 + EPS) overflows where u exceeds about 1.8
        rc = main(["simulate", "--deltas", "1,2", "--dim", "1", "--alpha",
                   "1.5", "--depth", "3", "--forcing", "10", "--init",
                   "perturbed:1e308"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == ("configuration error: componentwise states "
                                "are finite and non-negative\n")


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

    def test_s_p_beyond_the_double_range_exits_1_writing_nothing(
            self, capsys, tmp_path):
        # S_8 at f = 1e40 is about 2**1060: it used to print inf, and a bare
        # NaN zeta_hat made the summary invalid JSON
        out, summary = tmp_path / "s.csv", tmp_path / "s.json"
        rc = main(["structure", "--deltas", "1,2", "--dim", "1", "--alpha",
                   "1.5", "--depth", "12", "--p-list", "1,3,8", "--forcing",
                   "1e40", "--out", str(out), "--summary", str(summary)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("numeric failure: ")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("p_list, forcing", [("50", "1e-20"),
                                                 ("1,3,8", "1e-40")])
    def test_s_p_below_the_normal_range_exits_1_writing_nothing(
            self, capsys, tmp_path, p_list, forcing):
        # these S_p used to print as 0, or as subnormals such as
        # 4.3033117752772574e-321 with two or three significant digits
        out, summary = tmp_path / "s.csv", tmp_path / "s.json"
        rc = main(["structure", "--deltas", "1,2", "--dim", "1", "--alpha",
                   "1.5", "--depth", "12", "--p-list", p_list, "--forcing",
                   forcing, "--out", str(out), "--summary", str(summary)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("numeric failure: ")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("model, p_list, p, formula", [
        (["--deltas", "1,4", "--alpha", "0.6"], "1,20", 20.0, "negative"),
        (["--deltas", "1,2", "--alpha", "0.5"], "1,3", 3.0, "zero")])
    def test_summary_rel_err_is_valid_json_for_any_zeta_formula(
            self, capsys, tmp_path, model, p_list, p, formula):
        # rel_err used to be negative where zeta_formula < 0 and a bare NaN
        # where zeta_formula = 0
        summary = tmp_path / "s.json"
        rc = main(["structure", *model, "--dim", "1", "--depth", "10",
                   "--p-list", p_list, "--summary", str(summary),
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 0
        payload = strict_json(summary.read_text())
        entry = next(e for e in payload if e["p"] == p)
        assert {"negative": entry["zeta_formula"] < 0,
                "zero": entry["zeta_formula"] == 0}[formula]
        for e in payload:
            zh, zf = e["zeta_hat"], e["zeta_formula"]
            assert e["rel_err"] == (abs(zh - zf) / abs(zf) if zf else None)


class TestExactScaling:
    # v -> f w(f t) maps the f = 1 dynamics onto the forced ones; with f a
    # power of two, every product of the arithmetic scales exactly
    @pytest.mark.parametrize("closure", ["zero", "stationary"])
    def test_simulate_at_twice_the_forcing_is_a_scaled_copy(self, capsys,
                                                             closure):
        common = ["simulate", "--deltas", "1,2", "--depth", "5", "--init",
                  "perturbed:0.3", "--record-every", "1", "--closure",
                  closure]
        columns = []
        for forcing, dt, t_end in [("1", "1e-4", "0.01"),
                                   ("2", "5e-5", "0.005")]:
            rc, out = run_cli(common + ["--forcing", forcing, "--dt", dt,
                                        "--t-end", t_end], capsys)
            assert rc == 0
            rows = parse_csv(out)
            assert len(rows) == 101
            columns.append({name: np.array([float(r[name]) for r in rows])
                            for name in rows[0]})
        one, two = columns
        scale = {"t": 0.5, "energy": 4.0, "v_root": 2.0,
                 "distance_to_u": 4.0, "clamp_total": 2.0}
        assert set(scale) == set(one)
        for name, factor in scale.items():
            assert same_bits(two[name], factor * one[name]), name

    @pytest.mark.parametrize("command", [
        "dissipation --n 100", "concentration --band auto",
        "lln --n 1000 --samples 100"])
    def test_bodies_do_not_depend_on_the_forcing(self, capsys, command):
        # mu_n, its concentration and the path averages see only the
        # deltas; the header echoes f in the model and its hash
        texts = []
        for forcing in ("1", "2"):
            rc, out = run_cli([*command.split(), "--deltas", "1,2",
                               "--forcing", forcing], capsys)
            assert rc == 0
            texts.append(out)
        assert parse_csv(texts[0]) == parse_csv(texts[1])
        assert header_lines(texts[0]) != header_lines(texts[1])


# the README's seven commands, then bulk's simulate (d = 2, depth 7)
THREAD_RUNS = {
    "spectra": "spectra --summary {dir}/spectra.json",
    "solve": "solve --deltas 1,2 --dim 1 --alpha 1.5 --depth 8 -x -1.0",
    "dissipation": "dissipation --deltas 1,2 --dim 1 --alpha 1.5 --n 100",
    "concentration": "concentration --deltas 1,2 --dim 1 --alpha 1.5 "
                     "--band auto",
    "lln": "lln --deltas 1,2 --dim 1 --alpha 1.5",
    "simulate": "simulate --deltas 1,2 --dim 1 --alpha 1.5 --depth 5 "
                "--dt 1e-4 --t-end 0.1 --closure stationary --init constant",
    "structure": "structure --deltas 1,2 --dim 1 --alpha 1.5 --depth 16 "
                 "--p-list 1,2,3 --summary {dir}/structure.json",
    "simulate_d2": "simulate --deltas 1,2,3,5 --dim 2 --alpha 2 --depth 7 "
                   "--dt 1e-6 --t-end 2e-4 --closure zero --record-every 20",
}
# runs each argv of the JSON list in its first argument through cli.main
RUN_ALL = """
import json, sys
from treeshell.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"exit != 0: {argv}")
"""


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

    @pytest.mark.parametrize("text", [
        '{"d": 1, "alpha": true, "deltas": [1, 2]}',
        '{"d": 1, "alpha": 1.5, "f": "2", "deltas": [1, 2]}',
        '{"d": 3, "alpha": 2.5, "lambda": "0.2"}'],
        ids=["alpha-true", "f-str", "lambda-str"])
    def test_config_scalars_must_be_numbers(self, capsys, tmp_path, text):
        # each used to run, as alpha = 1, f = 2 and lambda = 0.2
        cfg = tmp_path / "model.json"
        cfg.write_text(text)
        rc = main(["solve", "--depth", "3", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("configuration error: '")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags, config", [
        ("--deltas 1,2 --dim BIG", None),
        ("--deltas 1,2 --dim BIG --alpha 1.5", None),
        ("", '{"d": BIG, "alpha": 1.5, "deltas": [1, 2]}'),
        ("", '{"d": 1, "alpha": BIG, "deltas": [1, 2]}'),
        ("", '{"d": 1, "alpha": 1.5, "f": BIG, "deltas": [1, 2]}'),
        ("", '{"d": 3, "alpha": 2.5, "lambda": BIG}'),
        ("", '{"d": 1, "alpha": 1.5, "deltas": [1, BIG]}')],
        ids=["dim", "dim-alpha", "d", "alpha", "f", "lambda", "deltas"])
    def test_numbers_past_the_double_range_are_config_errors(
            self, capsys, tmp_path, flags, config):
        # each used to exit 1 with "numeric failure: ... too large ... float"
        big = str(10**400)
        argv = ["solve", "--depth", "3"] + flags.replace("BIG", big).split()
        if config is not None:
            cfg = tmp_path / "model.json"
            cfg.write_text(config.replace("BIG", big))
            argv += ["--config", str(cfg)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("configuration error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, config", [
        ("lln --deltas 1,2 --lambda 0.3 --n 10 --samples 5", None),
        ("solve --depth 3", '{"d": 1, "alpha": 1.5, "deltas": [1, 2], '
                            '"lambda": 0.3}'),
        ("solve --depth 3 --deltas 1,2", '{"d": 1, "alpha": 1.5, '
                                         '"deltas": [1, 2]}'),
        ("solve --depth 3 --lambda 0.3", '{"d": 1, "alpha": 1.5, '
                                         '"deltas": [1, 2]}'),
        ("solve --depth 3 --dim 1", D12_CONFIG),
        ("solve --depth 3 --alpha 1.5", D12_CONFIG),
        ("solve --depth 3 --forcing 1", D12_CONFIG),
        ("solve --depth 3 --alpha 3 --dim 2 --forcing 5", D12_CONFIG)],
        ids=["deltas-and-lambda", "config-with-both", "config-and-deltas",
             "config-and-lambda", "config-and-dim", "config-and-alpha",
             "config-and-forcing", "config-and-three-flags"])
    def test_a_model_given_two_ways_is_rejected(self, capsys, tmp_path,
                                                argv, config):
        # each used to drop one of the two silently and exit 0, --dim,
        # --alpha and --forcing even when they differ from the config
        args = argv.split()
        if config is not None:
            cfg = tmp_path / "model.json"
            cfg.write_text(config)
            args += ["--config", str(cfg)]
        rc = main(args)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("configuration error: ")
        assert captured.err.count("\n") == 1
        if config is not None:  # the message names every model flag given
            assert all(flag in captured.err for flag in args
                       if flag in ("--deltas", "--lambda", "--dim", "--alpha",
                                   "--forcing"))
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

    @pytest.mark.parametrize("argv, message", [
        ("solve --deltas 1,2 --dim 1 --depth 10000000000000000000",
         "2**10000000000000000000 pull-back nodes exceed the 16777216 budget"),
        ("simulate --deltas 1,2 --dim 1 --depth 10000000000000000000",
         "2**10000000000000000000 nodes exceed the 67108864 budget"),
        ("structure --deltas 1,2 --dim 1 --depth 10000000000000000000",
         "2**10000000000000000000 cells exceed the 67108864 budget"),
        ("solve --deltas 1,2 --dim 400000000",
         "d = 400000000 needs 2**d coefficients, got 2"),
        ("lln --lambda 1e-7 --dim 22",
         "2**22 coefficients exceed the 1048576 budget"),
        ("lln --lambda 1e-7 --dim 27",
         "2**27 coefficients exceed the 1048576 budget")],
        ids=["solve-depth", "simulate-depth", "structure-depth", "solve-dim",
             "lambda-dim-22", "lambda-dim-27"])
    def test_huge_sizes_are_refused_before_they_are_formed(self, argv,
                                                           message):
        # in a child with capped memory: each used to run past 20 s, stop on
        # Python's int-to-text digit limit or build 290 MB of coefficients
        # or more before a check refused it
        proc = run_capped("import sys\nfrom treeshell.cli import main\n"
                          "sys.exit(main(sys.argv[1:]))", *argv.split())
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"configuration error: {message}\n"

    @pytest.mark.parametrize("argv, kind", [
        ("dissipation --deltas 1,2,3,5 --dim 2 --n 1" + "0" * 400,
         "atoms exceed the 4194304 budget"),
        ("dissipation --lambda 0.2 --dim 3 --n 1" + "0" * 1000,
         "atoms exceed the 4194304 budget"),
        ("solve --deltas 1,2 --dim 1 --depth 1" + "0" * 400,
         "pull-back nodes exceed the 16777216 budget")],
        ids=["atoms-1200-digits", "atoms-past-int-text-limit",
             "depth-400-digits"])
    def test_huge_sizes_are_named_in_one_short_line(self, capsys, argv,
                                                     kind):
        # a size past 2**64 is written as a power of two it exceeds: in
        # full it ran to 1254 characters, or stopped on Python's 4300-digit
        # int-to-text limit before the budget was named
        rc = main(argv.split())
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 2 and captured.out == "" and len(lines) == 1
        assert len(lines[0]) < 200 and kind in lines[0]

    @pytest.mark.parametrize("argv", [
        # the band covers the whole sigma range [0, 1]
        "concentration --deltas 1,2 --band 0,1 --n-list 10",
        # a flat model's sigma range is the one point the band covers
        "concentration --deltas 1,1 --band auto --n-list 10,20",
        "lln --deltas 1,2 --seed -1",
        # generations past int64, which numpy cannot take
        "lln --deltas 1,2 --n 10000000000000000000",
        "concentration --deltas 1,2 --n-list 1e19,10"])
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

    def test_negative_simulate_depth_is_named(self, capsys):
        rc = main(["simulate", "--deltas", "1,2", "--dim", "1", "--alpha",
                   "1.5", "--depth", "-5"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == ("configuration error: 'depth' must be an "
                                "integer >= 0, got -5\n")

    @pytest.mark.parametrize("argv, config", [
        ("concentration --n-list 20.7,40", None),
        ("concentration --n-list nan,40", None),
        ("concentration --n-list inf,40", None),
        ("concentration --n-list 0,40", None),
        ("structure --depth 10 --fit-window 2.5,6", None),
        ("dissipation --n 0", None), ("lln --n 0", None),
        ("lln --samples 0", None), ("solve --depth 0", None),
        ("simulate --depth -1", None), ("solve --dim 0", None),
        ("solve", "2.5"), ("solve", "true"), ("solve", '"3"'),
        ("solve", "NaN"), ("solve", "Infinity"), ("solve", "0")])
    def test_a_bad_integer_is_one_line(self, capsys, tmp_path, argv, config):
        # each integer goes through the library's one integer check
        if config is None:
            argv += " --deltas 1,2"
        else:
            cfg = tmp_path / "model.json"
            cfg.write_text(f'{{"d": {config}, "alpha": 1.5, "deltas": [1, 2]}}')
            argv += f" --config {cfg}"
        rc = main(argv.split())
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("configuration error: '")
        assert "' must be an integer >= " in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_structure_rejects_depth_below_one(self, capsys, depth):
        rc, out = run_cli(["structure", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", depth], capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("extra", [["--depth", "6"],
                                       # the default [3, 3]: one scale
                                       ["--depth", "7"],
                                       ["--depth", "10", "--fit-window", "3,3"],
                                       ["--depth", "10", "--fit-window", "0,5"],
                                       ["--depth", "10", "--fit-window", "5,10"],
                                       ["--depth", "10", "--fit-window", "6,4"],
                                       ["--depth", "10", "--fit-window", "2.9,5.9"]])
    def test_structure_rejects_fit_window_outside_depth(self, capsys,
                                                        no_synthesis, extra):
        rc, out = run_cli(["structure", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5"] + extra, capsys)
        assert rc == 2 and out == ""

    @pytest.mark.parametrize("window", ["3", "3,4,5"])
    def test_structure_names_a_fit_window_of_other_length(self, capsys,
                                                          no_synthesis,
                                                          window):
        rc = main(["structure", "--deltas", "1,2", "--dim", "1", "--alpha",
                   "1.5", "--depth", "10", "--fit-window", window])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == ("configuration error: --fit-window needs "
                                f"'m_lo,m_hi', got {window!r}\n")

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

    def test_closed_stdout_pipe_exits_quietly(self):
        # 5001 CSV rows, more than a pipe buffer: the write after the reader
        # closes raises BrokenPipeError, which is no configuration error
        proc = subprocess.Popen(
            [sys.executable, "-m", "treeshell.cli", "dissipation", "--deltas",
             "1,2", "--n", "5000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=SUBPROCESS_ENV)
        assert proc.stdout.readline().startswith("# treeshell ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == ""

    def test_unbuffered_stdout_writes_every_byte(self, tmp_path):
        # python -u's stdout: a text layer straight over the raw file, which
        # here takes at most 1000 bytes a write, as a pipe does on a signal
        # or a closed reader; what a short write leaves over is written next
        class ShortWrites(io.RawIOBase):
            def __init__(self):
                self.data = bytearray()

            def writable(self):
                return True

            def write(self, b):
                self.data += bytes(b[:1000])
                return min(len(b), 1000)

        raw = ShortWrites()
        argv = ["dissipation", "--deltas", "1,2", "--n", "500"]
        with mock.patch.object(sys, "stdout", io.TextIOWrapper(
                raw, encoding="utf-8", write_through=True)):
            assert main(argv) == 0
        assert main(argv + ["--out", str(tmp_path / "mu.csv")]) == 0
        assert bytes(raw.data) == (tmp_path / "mu.csv").read_bytes()

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

    def test_module_run_matches_in_process_main(self, tmp_path):
        # python -m treeshell.cli parses sys.argv[1:], whose first entry
        # picks the subcommand's parser
        argv = ["lln", "--deltas", "1,2", "--dim", "1", "--alpha", "1.5",
                "--n", "100", "--samples", "10", "--out"]
        env = {k: v for k, v in SUBPROCESS_ENV.items() if k != "RCM_THREADS"}
        proc = subprocess.run(
            [sys.executable, "-m", "treeshell.cli", *argv,
             str(tmp_path / "module.csv")],
            capture_output=True, text=True, timeout=120, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert main(argv + [str(tmp_path / "main.csv")]) == 0
        assert ((tmp_path / "module.csv").read_bytes()
                == (tmp_path / "main.csv").read_bytes())

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs two cores for two BLAS threads")
    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        # every README command and bulk's simulate, whose 21,845-node states
        # are long enough for OpenBLAS to split a dot product across threads
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            argvs = [cmd.format(dir=out).split() + ["--out", f"{out}/{name}"]
                     for name, cmd in THREAD_RUNS.items()]
            env = dict(SUBPROCESS_ENV, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", RUN_ALL, json.dumps(argvs)],
                capture_output=True, text=True, timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr
            runs[threads] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert len(runs["1"]) == len(THREAD_RUNS) + 2  # two JSON summaries
        for name, text in runs["1"].items():
            assert runs["2"][name] == text, name

    def test_floats_round_trip_through_17_digits(self, capsys, d12):
        from treeshell import fixed_point_q

        rc, out = run_cli(["solve", "--deltas", "1,2", "--dim", "1",
                           "--alpha", "1.5", "--depth", "4", "-x",
                           repr(fixed_point_q(d12))], capsys)
        assert rc == 0
        rows = parse_csv(out)
        # the printed q values parse back to the exact double
        assert float(rows[0]["q_mean"]) == fixed_point_q(d12)


def parse_outcome(parse, argv, capsys) -> tuple[str, str, object]:
    """stdout, stderr and the SystemExit code of parse(argv), which must
    exit (help or an error)."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    out, err = capsys.readouterr()
    return out, err, exit_info.value.code


COMMANDS = ("spectra", "solve", "dissipation", "concentration", "lln",
            "simulate", "structure")


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


class TestParser:
    """main builds the invoked subcommand's parser alone; what it prints
    and how it exits must match the parser of every subcommand."""

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["bogus"], ["bogus", "--help"],
        *([name, "--help"] for name in COMMANDS),
        *([name, "--bogus"] for name in COMMANDS),
        ["simulate", "--depth", "x"], ["simulate", "--closure", "bogus"],
        ["structure", "--mother", "bogus"], ["solve", "-x"],
        ["lln", "--deltas", "1,2", "extra"]], ids=" ".join)
    def test_text_and_exit_code_match_the_full_parser(self, argv, capsys):
        got = parse_outcome(main, argv, capsys)
        assert got == parse_outcome(full_parse, argv, capsys)
        assert "usage: treeshell" in got[0] + got[1]

    @pytest.mark.parametrize("name", COMMANDS)
    def test_unknown_flag_prints_every_command_in_the_usage(self, name,
                                                            capsys):
        _, err, code = parse_outcome(main, [name, "--bogus"], capsys)
        usage = "usage: treeshell [-h] {" + ",".join(COMMANDS) + "} ..."
        assert code == 2
        assert " ".join(err.split()) == (
            usage + " treeshell: error: unrecognized arguments: --bogus")

    def test_a_missing_or_unknown_command_is_named_command(self, capsys):
        # a metavar on the full parser would name it {spectra,...} here
        _, err, code = parse_outcome(main, [], capsys)
        assert code == 2
        assert err.endswith(
            "error: the following arguments are required: command\n")
        _, err, code = parse_outcome(main, ["bogus"], capsys)
        assert code == 2
        assert "error: argument command: invalid choice: 'bogus'" in err

    @pytest.mark.parametrize("name", list(THREAD_RUNS))
    def test_readme_argv_parses_the_same(self, name):
        argv = THREAD_RUNS[name].format(dir="out").split()
        one = cli.build_parser(argv[0]).parse_args(argv)
        assert one == full_parse(argv)
        assert one.func is getattr(cli, "cmd_" + argv[0])

    def test_a_call_adds_only_its_command_arguments(self, monkeypatch,
                                                    tmp_path):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def record(parser, *names, **kwargs):
            added.append(names[0])
            return add_argument(parser, *names, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", record)
        assert main(["lln", "--deltas", "1,2", "--dim", "1", "--alpha", "1.5",
                     "--n", "100", "--samples", "10",
                     "--out", str(tmp_path / "lln.csv")]) == 0
        # the -h of the top-level parser and of lln's
        assert added == ["-h", "-h", "--config", "--dim", "--alpha",
                         "--forcing", "--deltas", "--lambda", "--out",
                         "--seed", "--n", "--samples"]


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_refuses_non_finite_numbers(self, tmp_path, value):
        path = tmp_path / "s.json"
        with pytest.raises(ArithmeticError, match="not finite"):
            cli._write_json(str(path), [{"x": 1.0, "y": value}])
        assert not path.exists()


CHUNK = cli._CHUNK_ROWS
# cell values the writer must render as str or '%.17g' does, '%' and
# multi-byte UTF-8 included
CELLS = {"float": st.floats(allow_nan=True, allow_infinity=True)
         | st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
         "float_pool": st.sampled_from([-0.0, 0.0, 1 / 3]),
         "int": st.integers(-2**63, 2**63 - 1),
         "bool": st.booleans(),
         "str": st.text(alphabet="a%s.,= σ")}


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
    """A chunk size and columns of every kind, scalar or not, whose row
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
                                        2 * CHUNK - 1, 2 * CHUNK,
                                        2 * CHUNK + 1, 4 * CHUNK + 1])
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

    @pytest.mark.parametrize("n_rows", [CHUNK - 1, CHUNK, CHUNK + 1,
                                        2 * CHUNK - 1, 2 * CHUNK,
                                        2 * CHUNK + 1, 4 * CHUNK + 1])
    def test_repeated_floats_match_the_oracle(self, n_rows):
        # pooled columns repeat values: 0.0 and -0.0, and two NaN payloads,
        # must print apart wherever they repeat
        rng = np.random.default_rng(n_rows)
        nan_payload = np.array([0x7FF8000000000001], np.uint64).view(float)
        pool = np.array([0.0, -0.0, math.nan, nan_payload[0], math.inf,
                         -math.inf, 5e-324, 1 / 3])
        strided = np.empty((n_rows, 2))
        strided[:, 1] = rng.choice(pool, n_rows)
        columns = {"pooled": rng.choice(pool, n_rows),
                   "k": rng.integers(-10**12, 10**12, n_rows),
                   "strided": strided[:, 1],
                   "distinct": rng.standard_normal(n_rows) * 1e3,
                   "s": np.resize(["a%s", "100%"], n_rows),
                   "scalar": -0.0}
        to_file, to_stdout = written_bytes(["# h"], columns)
        want = csv_text_oracle(["# h"], columns).encode()
        assert to_file == want and to_stdout == want

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap trimming is glibc's")
    def test_chunks_reuse_their_memory_in_a_fresh_interpreter(self, tmp_path):
        # past its first two chunks, `dissipation` of the d = 2, n = 100
        # lattice (176,851 rows, 11 chunks) faults in almost no new pages.
        # Its largest freed blocks, 1.4 MB, set glibc's trim threshold at
        # 2.8 MB, so chunk-sized temporaries were trimmed and faulted in
        # again each chunk: the last nine read 7 faults, against 9,342 when
        # each chunk made every array anew and formatted all its values at
        # once, 2,776 with no buffers kept from chunk to chunk and 4,259
        # with a whole chunk made text at once
        code = """
import resource, sys
from treeshell import cli
faults, byte_chunk = [], cli._byte_chunk
def counted(*args):
    text = byte_chunk(*args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return text
cli._byte_chunk = counted
assert cli.main(["dissipation", "--deltas", "1,2,3,5", "--dim", "2",
                 "--n", "100", "--band", "auto", "--out", sys.argv[1]]) == 0
print(len(faults), faults[-1] - faults[1])
"""
        proc = subprocess.run([sys.executable, "-c", code,
                               str(tmp_path / "mu.csv")], capture_output=True,
                              text=True, timeout=120, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        chunks, faults = map(int, proc.stdout.split())
        assert chunks == 11
        assert faults < 450

    def test_dissipation_rows_span_chunks(self, tmp_path, capsys):
        # 4 distinct deltas at n = 50: C(53, 3) = 23,426 atoms, two chunks
        argv = ["dissipation", "--deltas", "1,2,3,5", "--dim", "2", "--n", "50"]
        atoms = math.comb(53, 3)
        assert CHUNK < atoms < 2 * CHUNK
        path = tmp_path / "mu.csv"
        assert main(argv + ["--out", str(path)]) == 0
        rc, out = run_cli(argv, capsys)
        assert rc == 0 and path.read_bytes() == out.encode()
        rows = parse_csv(out)
        assert len(rows) == atoms
        assert {r["n"] for r in rows} == {"50"}

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("n_rows", [1, 2, 71, 72, 255, 256, CHUNK + 1,
                                        2 * CHUNK + 1])
    def test_large_double_columns_go_through_the_kernel(self, n_rows, pooled):
        # every double of a chunk, a scalar one and a float32 one included,
        # reaches _format_floats once, in one call per float column a chunk
        # and in column order, at any row count
        rng = np.random.default_rng(n_rows)
        x = rng.standard_normal(n_rows) * 1e3
        if pooled:
            x = rng.choice(x[:7], n_rows)
        columns = {"n": 3, "x": x, "k": np.arange(n_rows), "c": -1 / 3,
                   "y": (x / 7).astype(np.float32)}
        with mock.patch.object(cli, "_format_floats",
                               wraps=cli._format_floats) as kernel:
            to_file, _ = written_bytes(["# h"], columns)
        assert to_file == csv_text_oracle(["# h"], columns).encode()
        want = [column for rows in (slice(start, start + CHUNK)
                                    for start in range(0, n_rows, CHUNK))
                for column in (x[rows], np.array([-1 / 3]),
                               columns["y"][rows].astype(np.float64))]
        got = [c.args[0] for c in kernel.call_args_list]
        # written twice: to a file and to stdout
        assert len(got) == 2 * len(want)
        assert all(same_bits(g, w) for g, w in zip(got, want + want))


def float_texts(x) -> list[str]:
    """The text _format_floats gives each value of x, its padding dropped."""
    slots = np.zeros((len(x), cli._SLOT), np.uint8)
    assert cli._format_floats(np.asarray(x, np.float64), slots) is slots
    return [row.tobytes().translate(None, b"\xff").decode() for row in slots]


def printf_texts(x) -> list[str]:
    return ["%.17g" % v for v in np.asarray(x, np.float64).tolist()]


# the bit patterns of the doubles in the fast range [1e-4, 1e16)
FAST_BITS = tuple(int(b) for b in np.array([1e-4, 1e16]).view(np.uint64))


class TestFormatFloats:
    def test_block_edges_keep_every_slot(self):
        # values are formatted _FORMAT_BLOCK at a time: at each block edge,
        # a value of the slow path ('%.17g' one by one) and one redone at
        # E -/+ 1 keep their slots
        block = cli._FORMAT_BLOCK
        rng = np.random.default_rng(7)
        x = rng.standard_normal(2 * block + 3) * 10.0 ** rng.integers(
            -6, 18, 2 * block + 3)
        for edge in (block - 1, block, 2 * block):
            x[edge] = [0.0, math.inf, 5e-324][edge % 3]
            x[edge + 1] = 9.999999999999999e15
        assert float_texts(x) == printf_texts(x)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.integers(0, 2**64 - 1)
                    | st.tuples(st.booleans(), st.integers(*FAST_BITS)).map(
                        lambda t: t[0] << 63 | t[1]), max_size=40))
    def test_matches_printf_on_any_bit_pattern(self, bits):
        x = np.array(bits, np.uint64).view(np.float64)
        assert float_texts(x) == printf_texts(x)

    def test_powers_of_ten_and_their_neighbours(self):
        # log10 rounds the double below most powers up to the power: those
        # are rounded again one decade lower
        p = np.array([float(f"1e{m}") for m in range(-5, 18)])
        x = np.concatenate([np.nextafter(p, 0), p, np.nextafter(p, np.inf)])
        x = np.concatenate([x, -x])
        assert float_texts(x) == printf_texts(x)

    def test_exact_ties_round_half_even(self):
        # an odd j / 2**(k+1) in [1e(16-k), 1e(17-k)) has 18 significant
        # digits, the last a 5: a tie at 17 digits, which rounds up where
        # the 17th digit is odd and down where it is even
        rng = np.random.default_rng(7)
        x, parities = [], set()
        for k in range(1, 21):
            lo = math.ceil(Fraction(10)**(16 - k) * 2**(k + 1))
            hi = min(math.ceil(Fraction(10)**(17 - k) * 2**(k + 1)), 2**53)
            for j in rng.integers(lo // 2, hi // 2, 60) * 2 + 1:
                v = int(j) / 2**(k + 1)
                scaled = Fraction(v) * 10**k
                assert scaled.denominator == 2
                parities.add(math.floor(scaled) % 2)
                x.append(v)
        x.append(1000000000000000.25)
        assert parities == {0, 1}
        texts = float_texts(x)
        assert texts == printf_texts(x)
        assert texts[-1] == "1000000000000000.2"

    def test_decade_round_ups(self):
        # no double in [1e-4, 1e16) rounds up across a decade at 17 digits;
        # these doubles lie below 10**m and print as 10**m, by '%.17g'
        m = [-14, -70, 98, 129]
        x = [float(f"1e{e}") for e in m]
        assert all(Fraction(v) < Fraction(10)**e for v, e in zip(x, m))
        assert float_texts(x) == printf_texts(x) == [
            "1e-14", "1e-70", "1e+98", "1e+129"]

    def test_ends_of_the_fast_range_and_special_values(self):
        nan_payload = np.array([0x7FF8000000000001, 0xFFF0000000000F00],
                               np.uint64).view(np.float64)
        ends = [1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0)]
        x = np.concatenate([ends, np.negative(ends), [-0.0, 0.0, 5e-324,
                            math.inf, -math.inf], nan_payload])
        assert float_texts(x) == printf_texts(x)
        assert float_texts(ends) == ["0.0001", "9.9999999999999991e-05",
                                     "10000000000000000", "9999999999999998"]

    def test_strided_and_empty_input(self):
        x = np.random.default_rng(3).standard_normal((50, 3))[:, 1] * 10
        assert float_texts(x) == printf_texts(x)
        assert float_texts(np.array([])) == []


# small sizes for every model subcommand; "{summary}" is a path in the run's
# directory
EDGE_SIZES = {
    "solve": "--depth 5",
    "dissipation": "--n 20",
    "concentration": "--n-list 10,20",
    "lln": "--n 100 --samples 20",
    "simulate": "--depth 3 --dt 1e-3 --t-end 0.01 --record-every 5",
    "structure": "--depth 8 --p-list 1,2,3 --summary {summary}",
}


@st.composite
def edge_models(draw):
    """Model flags with d in {1, 2}, log2 deltas within +-1000, alpha in
    [0.01, 60] and f = 2**U(-60, 60).  Half the models make the second
    delta a near tie of the first, delta * 2**(+-10**-k) with k in 9..15,
    which an absolute tolerance in log2 delta would take for a tie."""
    d = draw(st.sampled_from([1, 2]))
    deltas = [2.0**x for x in draw(st.lists(
        st.floats(-1000, 1000), min_size=2**d, max_size=2**d))]
    if draw(st.booleans()):
        tilt = draw(st.sampled_from([-1.0, 1.0])) * 10.0**-draw(
            st.integers(9, 15))
        deltas[1] = deltas[0] * 2.0**tilt
    alpha = draw(st.floats(0.01, 60))
    log2_f = draw(st.floats(-60, 60))
    return [f"--dim={d}", f"--alpha={alpha!r}", f"--forcing={2.0**log2_f!r}",
            "--deltas=" + ",".join(map(repr, deltas))]


def run_edge_case(argv: list[str], fail_codes=(1, 2)) -> None:
    """One CLI run either exits 0 with finite numbers, apart from the first
    slope_rate of `concentration`, and strict JSON, or exits with one of
    `fail_codes` and one stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        out, summary = os.path.join(tmp, "o.csv"), os.path.join(tmp, "s.json")
        argv = [a.format(summary=summary) for a in argv] + ["--out", out]
        with contextlib.redirect_stdout(io.StringIO()) as stdout, \
                contextlib.redirect_stderr(io.StringIO()) as stderr, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        # a warning would reach a terminal as more stderr lines
        assert not caught, [f"{w.filename}:{w.lineno}: {w.message}"
                            for w in caught]
        err = stderr.getvalue()
        assert stdout.getvalue() == ""
        if rc != 0:
            assert rc in fail_codes and len(err.splitlines()) == 1, (rc, err)
            return
        assert err == ""
        with open(out) as fh:
            text = fh.read()
        for line in header_lines(text):
            if line.startswith("# config="):
                strict_json(line.split("=", 1)[1])
        rows = parse_csv(text)
        assert rows, argv
        for i, row in enumerate(rows):
            for name, cell in row.items():
                if name == "model_name":
                    continue
                if argv[0] == "concentration" and name == "slope_rate" \
                        and i == 0:
                    assert cell == "nan"
                    continue
                assert math.isfinite(float(cell)), (argv, name, cell)
        if "--summary" in argv:
            with open(summary) as fh:
                strict_json(fh.read())


class TestEdgeModels:
    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(edge_models(), st.floats(-1000 / 7, 1000 / 7))
    def test_every_subcommand_exits_cleanly(self, model, lam):
        # spectra's only model input is the d = 3 lambda family, whose
        # log2 deltas lam * i, i < 8, stay in the same +-1000
        run_edge_case(["spectra", f"--lambdas={lam!r}", "--p-max", "4",
                       "--p-step", "1", "--summary", "{summary}"])
        for command, sizes in EDGE_SIZES.items():
            run_edge_case([command, *model, *sizes.split()])

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(edge_models(), st.booleans(), st.floats(0.0, 1e-9))
    def test_band_edge_at_a_range_end(self, model, lower, gap):
        # the band's one edge lies within 1e-9 of an end of the sigma range,
        # and at least an ulp inside it, so the complement is that sliver,
        # evaluated at the edge itself
        x = [math.log2(float(v)) for v in model[-1].split("=")[1].split(",")]
        lo, hi = min(x), max(x)
        if lower:
            band = (max(lo + gap, math.nextafter(lo, hi + 1.0)), hi + 1.0)
        else:
            band = (lo - 1.0, min(hi - gap, math.nextafter(hi, lo - 1.0)))
        run_edge_case(["concentration", *model, "--n-list", "10,20",
                       "--band={!r},{!r}".format(*band)], fail_codes=(2,))
