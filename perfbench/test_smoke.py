"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# The end-to-end metrics every report prints, with their units.
E2E = {"wall_s": "s", "wall_ref_s": "s", "setup_s": "s",
       "setup_wall_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
       "spectra_s": "s", "solve_s": "s", "dissipation_s": "s",
       "concentration_s": "s", "lln_s": "s", "simulate_s": "s",
       "structure_s": "s", "model_s": "s"}

# The traced functions that report "<name>.calls" and "<name>.self_s" ...
LAYER_FUNCTIONS = [
    "coefficients.phi", "coefficients.phi_inverse", "coefficients.ell",
    "spectra.zeta", "spectra.dim_D",
    "dissipation.theoretical_tail_rate", "dissipation.measure",
    "dissipation.lln_sample", "dissipation.concentration_curve",
    "cli.main",
    "solution.pullback", "solution.residual_max", "solution.log2_u_rows",
    "dynamics.step", "dynamics.integrate",
    "field.synthesize", "field.structure_function",
]

# ... and the other per-layer metrics of the traced run.
LAYER_EXTRAS = {
    "coefficients.phi.per_phi_inverse": "ratio",
    "spectra.dim_D.per_tail_rate": "ratio",
    "dissipation.measure.atoms": "count",
    "dissipation.measure.atoms_per_s": "1/s",
    "cli.rows_written": "count", "cli.bytes_written": "bytes",
    "cli.rows_per_s": "1/s",
    "solution.pullback.nodes": "count",
    "solution.residual_max.per_pullback": "ratio",
    "dynamics.node_steps": "count", "dynamics.node_steps_per_s": "1/s",
    "field.synthesize.cells": "count", "field.cells_per_s": "1/s",
    "trace.overhead_s": "s",
}


@pytest.fixture(scope="module")
def reports():
    """Report lines and result of every workload, untraced and traced."""
    return {(w, trace): run.run_workload(w, 1, 0, trace, "tiny")
            for w in run.WORKLOADS for trace in (False, True)}


def test_every_metric_is_emitted_with_its_unit(reports):
    layer = dict(LAYER_EXTRAS)
    for name in LAYER_FUNCTIONS:
        layer[f"{name}.calls"] = "count"
        layer[f"{name}.self_s"] = "s"
    layer.update({f"{c}_s": "s" for c in run.CASE_METRICS})
    spec = run.load_spec()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    spec_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert spec_e2e.items() <= E2E.items()

    for (workload, trace), (lines, result) in reports.items():
        assert result["correct"], (workload, trace, lines)
        for name, unit in E2E.items():
            assert any(line.startswith(f"{name:<16} [{unit}]")
                       for line in lines), (workload, name)
        want = layer if trace else spec_e2e
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (workload, trace)
        assert all(isinstance(v["value"], float)
                   for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["bulk", "sweep"])
def test_root_self_times_sum_to_traced_wall(workload, tmp_path):
    raw = worker.measure(workload, 1, 0, True, "tiny", str(tmp_path))
    traced_wall = sum(r["seconds"] for r in raw["records"]
                      if r["phase"] == "traced")
    spans = raw["spans"]
    assert spans["root_total_s"] == pytest.approx(traced_wall, rel=1e-9)
    assert spans["self_total_s"] == pytest.approx(traced_wall, rel=1e-9)
    assert all(own >= 0 for _, own in spans["spans"].values())


def test_corrupted_output_raises_failed_frac(tmp_path, monkeypatch):
    worker.import_program()
    from treeshell import cli

    real_main = cli.main

    def corrupting_main(argv):
        rc = real_main(argv)
        path = argv[argv.index("--out") + 1]
        with open(path) as fh:
            lines = fh.read().splitlines()
        fields = lines[-1].split(",")
        fields[-1] = repr(float(fields[-1]) * 1.5 + 1.0)
        lines[-1] = ",".join(fields)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return rc

    clean = worker.measure("bulk", 1, 0, False, "tiny", str(tmp_path))
    monkeypatch.setattr(cli, "main", corrupting_main)
    corrupt = worker.measure("bulk", 1, 0, False, "tiny", str(tmp_path))
    lines = {}
    for name, raw in (("clean", clean), ("corrupt", corrupt)):
        report, result = run.summarize("bulk", 1, 0, False, raw, {})
        lines[name] = next(x for x in report if x.startswith("failed_frac"))
        assert result["correct"] == (name == "clean")
    assert lines["clean"].split()[2] == "0"
    assert float(lines["corrupt"].split()[2]) > 0


def test_hung_case_is_counted_as_failed(monkeypatch):
    def hang():
        while True:
            pass

    monkeypatch.setattr(worker, "CASE_LIMIT_S", 0.2)
    previous = signal.signal(signal.SIGALRM, worker._expire)
    try:
        seconds, ref_loop, problems = worker.time_case(
            workloads.Case("model", "hang", hang, lambda out: []),
            worker.plain_timer)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert 0.2 <= seconds < 5
    assert ref_loop > 0
    assert problems and problems[0].startswith("CaseTimeout")


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "readme", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_more_threads_than_cores():
    env = dict(os.environ, RCM_THREADS=str(len(os.sched_getaffinity(0)) + 1))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "sweep", "--seed", "1",
                           "--seconds", "1"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "RCM_THREADS" in proc.stderr
