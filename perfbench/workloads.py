"""The benchmark's workloads: the cases one pass runs, and their output checks.

A case is one unit the closed loop times: one CLI invocation through
``treeshell.cli.main`` (workloads ``readme`` and ``bulk``) or all library
calls for one random model (workload ``sweep``).  Every case has a check
that runs after the timer stops.  It tests the paper invariant the case
computes, with the tolerance the acceptance suite uses for it, and, for
the fixed CLI configurations, compares the outputs with values recorded
from the seed commit (``reference.json``, written by ``record.py``).

Inputs depend only on (workload, seed, pass index, size).  ``size`` is
"full" for the benchmark and "tiny" for the smoke test.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SIZES = ("full", "tiny")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# Tolerance for agreement with the recorded seed-commit values: far above
# rounding noise from a reordered sum, far below any change of meaning.
REF_RTOL = 1e-9
REF_ATOL = 1e-12


@dataclass
class Case:
    name: str                       # CLI subcommand, or "model" in sweep
    key: str                        # unique within the workload
    run: Callable[[], object]       # the timed call
    check: Callable[[object], list[str]]   # failure messages, empty if ok
    outputs: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

# (key, argv) with "{out}" / "{summary}" replaced by paths in the work dir.
# readme: the seven README commands verbatim, outputs sent to files.
README = {
    "full": [
        ("spectra", "spectra --out {out} --summary {summary}"),
        ("solve", "solve --deltas 1,2 --dim 1 --alpha 1.5 --depth 8 -x -1.0"),
        ("dissipation", "dissipation --deltas 1,2 --dim 1 --alpha 1.5 --n 100"),
        ("concentration",
         "concentration --deltas 1,2 --dim 1 --alpha 1.5 --band auto"),
        ("lln", "lln --deltas 1,2 --dim 1 --alpha 1.5"),
        ("simulate", "simulate --deltas 1,2 --dim 1 --alpha 1.5 --depth 5 "
                     "--dt 1e-4 --t-end 0.1 --closure stationary --init constant"),
        ("structure", "structure --deltas 1,2 --dim 1 --alpha 1.5 --depth 16 "
                      "--p-list 1,2,3 --summary {summary}"),
    ],
    "tiny": [
        ("spectra", "spectra --lambdas 0.2 --p-max 4 --out {out} "
                    "--summary {summary}"),
        ("solve", "solve --deltas 1,2 --dim 1 --alpha 1.5 --depth 4 -x -1.0"),
        ("dissipation", "dissipation --deltas 1,2 --dim 1 --alpha 1.5 --n 10"),
        ("concentration", "concentration --deltas 1,2 --dim 1 --alpha 1.5 "
                          "--band 0.3,1.5 --n-list 10,20"),
        ("lln", "lln --deltas 1,2 --dim 1 --alpha 1.5 --n 100 --samples 50"),
        ("simulate", "simulate --deltas 1,2 --dim 1 --alpha 1.5 --depth 3 "
                     "--dt 1e-4 --t-end 0.002 --closure stationary --init constant"),
        ("structure", "structure --deltas 1,2 --dim 1 --alpha 1.5 --depth 10 "
                      "--p-list 1,2,3 --summary {summary}"),
    ],
}

# bulk: the same CLI at sizes where the arrays, not the Legendre path, cost.
BULK = {
    "full": [
        ("dissipation_d2", "dissipation --deltas 1,2,3,5 --dim 2 --alpha 2 "
                           "--n 100 --band auto"),
        ("dissipation_lambda", "dissipation --lambda 0.2 --dim 3 --alpha 2.5 "
                               "--n 16"),
        ("solve", "solve --deltas 1,2,3,5 --dim 2 --alpha 2 --depth 10"),
        ("simulate", "simulate --deltas 1,2,3,5 --dim 2 --alpha 2 --depth 7 "
                     "--dt 1e-6 --t-end 2e-4 --closure zero --record-every 20"),
        ("structure", "structure --deltas 1,2 --dim 1 --alpha 1.5 --depth 22 "
                      "--p-list 1,2,3 --summary {summary}"),
    ],
    "tiny": [
        ("dissipation_d2", "dissipation --deltas 1,2,3,5 --dim 2 --alpha 2 "
                           "--n 10 --band auto"),
        ("dissipation_lambda", "dissipation --lambda 0.2 --dim 3 --alpha 2.5 "
                               "--n 3"),
        ("solve", "solve --deltas 1,2,3,5 --dim 2 --alpha 2 --depth 4"),
        ("simulate", "simulate --deltas 1,2,3,5 --dim 2 --alpha 2 --depth 3 "
                     "--dt 1e-6 --t-end 2e-5 --closure zero --record-every 5"),
        ("structure", "structure --deltas 1,2 --dim 1 --alpha 1.5 --depth 10 "
                      "--p-list 1,2,3 --summary {summary}"),
    ],
}


def cli_argv(template: str, out: str, summary: str) -> list[str]:
    argv = [a.format(out=out, summary=summary) for a in template.split()]
    if "--out" not in argv:
        argv += ["--out", out]
    return argv


def _option(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def cli_model_configs(argv: list[str]) -> list[dict]:
    """The model configurations a CLI invocation builds."""
    if argv[0] == "spectra":
        lams = _option(argv, "--lambdas", "0.1,0.2,0.2307")
        return [{"d": 3, "alpha": 2.5, "lambda": float(x)}
                for x in lams.split(",")]
    d = int(_option(argv, "--dim", 1))
    cfg = {"d": d, "alpha": float(_option(argv, "--alpha", d / 2 + 1))}
    if "--deltas" in argv:
        cfg["deltas"] = [float(x) for x in _option(argv, "--deltas").split(",")]
    else:
        cfg["lambda"] = float(_option(argv, "--lambda"))
    return [cfg]


def cli_cases(workload: str, seed: int, pass_index: int, size: str,
              workdir: str, reference: dict) -> list[Case]:
    """One pass of a CLI workload, in an order drawn from the seed."""
    from treeshell import cli

    table = (README if workload == "readme" else BULK)[size]
    order = np.random.default_rng([seed, pass_index]).permutation(len(table))
    cases = []
    for i in order:
        key, template = table[i]
        out = os.path.join(workdir, f"{key}.csv")
        summary = os.path.join(workdir, f"{key}.json")
        argv = cli_argv(template, out, summary)
        outputs = [out] + ([summary] if "--summary" in argv else [])
        ref = reference.get(f"{workload}.{size}.{key}")
        cases.append(Case(argv[0], key,
                          lambda argv=argv: cli.main(argv),
                          _cli_checker(argv, out, summary, ref),
                          outputs))
    return cases


# -- reading outputs -----------------------------------------------------------


def read_csv(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Comment lines and the columns of a treeshell CSV (text columns as str)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        k += 1
    names = lines[k].split(",")
    body = lines[k + 1:]
    if names[0] == "model_name":
        split = [row.split(",") for row in body]
        cols = {"model_name": np.array([r[0] for r in split])}
        for j, name in enumerate(names[1:], start=1):
            cols[name] = np.array([float(r[j]) for r in split])
        return lines[:k], cols
    data = np.loadtxt(body, delimiter=",", ndmin=2) if body \
        else np.empty((0, len(names)))
    return lines[:k], {name: data[:, j] for j, name in enumerate(names)}


def _fingerprint(x: np.ndarray) -> list[float]:
    """[count, finite count, sum, sum of squares, min, max] of the finite part."""
    x = np.asarray(x, dtype=float)
    f = x[np.isfinite(x)]
    if len(f) == 0:
        return [len(x), 0, 0.0, 0.0, 0.0, 0.0]
    return [len(x), len(f), math.fsum(f), math.fsum(f * f),
            float(f.min()), float(f.max())]


def _json_numbers(obj) -> list[float]:
    if isinstance(obj, dict):
        return [v for k in sorted(obj) for v in _json_numbers(obj[k])]
    if isinstance(obj, list):
        return [v for item in obj for v in _json_numbers(item)]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [float(obj)]
    return []


def output_record(out: str, summary: str | None) -> dict:
    """The values of a CLI case compared against the seed commit."""
    comments, cols = read_csv(out)
    rec = {"columns": {}}
    groups = np.unique(cols["model_name"]) if "model_name" in cols else [None]
    for name, col in cols.items():
        if name == "model_name":
            continue
        for g in groups:
            sel = col if g is None else col[cols["model_name"] == g]
            rec["columns"][name if g is None else f"{g}:{name}"] = \
                _fingerprint(sel)
    band = [c for c in comments if c.startswith("# band=")]
    if band:
        rec["mass_in_band"] = float(band[0].split("mass_in_band=")[1])
    if summary is not None and os.path.exists(summary):
        with open(summary) as fh:
            rec["summary"] = _json_numbers(json.load(fh))
    return rec


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= max(REF_ATOL, REF_RTOL * max(abs(a), abs(b)))


def compare_record(got: dict, want: dict) -> list[str]:
    """Differences between an output record and the recorded one."""
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"{key}: present in only one of output/reference")
            continue
        g, w = got[key], want[key]
        if isinstance(w, dict):
            problems += [f"{key}.{p}" for p in compare_record(g, w)]
        elif isinstance(w, list):
            if len(g) != len(w) or not all(map(_close, g, w)):
                problems.append(f"{key}: {g} != recorded {w}")
        elif not _close(g, w):
            problems.append(f"{key}: {g} != recorded {w}")
    return problems


# -- invariant checks per subcommand ---------------------------------------------


def _ell(log2_deltas: np.ndarray, s: float) -> float:
    """log2 of the s-power mean of the weights, computed here independently."""
    if s == 0:
        return float(log2_deltas.mean())
    a = s * log2_deltas
    top = a.max()
    return float((top + np.log2(np.mean(np.exp2(a - top)))) / s)


def _check_spectra(argv, cols, summary):
    problems = []
    for name, entry in summary.items():
        # criterion 1: zeta_3 = min{3, alpha - d/2} (the CLI uses d=3, alpha=5/2)
        want = min(3.0, 2.5 - 1.5)
        if abs(entry["zeta3"] - want) > 1e-12:
            problems.append(f"{name}: zeta3 {entry['zeta3']!r} != {want}")
    if not np.all(np.isfinite(cols["zeta"])):
        problems.append("non-finite zeta")
    return problems


def _check_solve(argv, cols, summary):
    depth = int(_option(argv, "--depth", 8))
    problems = []
    if len(cols["generation"]) != depth + 1:
        problems.append(f"{len(cols['generation'])} rows for depth {depth}")
    if np.max(cols["residual_max"]) > 1e-12:
        problems.append(f"residual_max {np.max(cols['residual_max']):.3e} > 1e-12")
    # distance of each row from the invariant band [a, b]: zero at every
    # generation when the seed row lies in the band, and never growing
    # towards the root otherwise (the backward map contracts onto the band)
    dist = np.maximum(0.0, np.maximum(cols["band_lo"] - cols["q_min"],
                                      cols["q_max"] - cols["band_hi"]))
    if dist[-1] <= 1e-12 and np.any(dist > 1e-12):
        problems.append("rows leave the containment band")
    if np.any(dist[:-1] > dist[1:] + 1e-12):
        problems.append("distance to the band grows towards the root")
    return problems


def _check_dissipation(argv, cols, summary):
    n = int(_option(argv, "--n", 100))
    cfg = cli_model_configs(argv)[0]
    distinct = (len(set(cfg["deltas"])) if "deltas" in cfg
                else 2**cfg["d"] if cfg["lambda"] else 1)
    atoms = math.comb(n + distinct - 1, distinct - 1)
    problems = []
    if len(cols["log2_mass"]) != atoms:
        problems.append(f"{len(cols['log2_mass'])} atoms, expected {atoms}")
    # criterion 6: the fractions of a generation sum to one
    total = math.fsum(np.exp2(cols["log2_mass"]))
    if abs(total - 1.0) > 1e-10:
        problems.append(f"|sum F - 1| = {abs(total - 1.0):.3e} > 1e-10")
    return problems


def _check_concentration(argv, cols, summary):
    problems = []
    total = cols["mass_in_B"] + cols["tail"]
    if np.max(np.abs(total - 1.0)) > 1e-10:
        problems.append(f"mass_in_B + tail off 1 by {np.max(np.abs(total - 1)):.3e}")
    if not np.all(np.diff(cols["mass_in_B"]) > 0):
        problems.append("mass_in_B not increasing with n")
    if "--n-list" not in argv and "--band-width" not in argv:
        # criterion 7 at its own configuration: slope rate within 15%
        lam = cols["theoretical_rate"][-1]
        rel = abs(cols["slope_rate"][-1] - lam) / lam
        if rel > 0.15:
            problems.append(f"slope rate off inf[R-D] by {rel:.1%}")
    return problems


def _check_lln(argv, cols, summary):
    problems = []
    # criterion 8: sample mean of sigma within 3 standard errors of ell_0
    dev = abs(cols["sigma_mean"][0] - cols["ell_zero"][0])
    if dev > 3 * cols["standard_error"][0]:
        problems.append(f"|mean - ell0| = {dev:.3e} > 3 SE")
    return problems


def _check_simulate(argv, cols, summary):
    problems = []
    if np.any(cols["clamp_total"] != 0):
        problems.append(f"clamp_total {cols['clamp_total'][-1]!r} != 0")
    if not np.all(np.isfinite(cols["energy"])) or np.any(cols["energy"] <= 0):
        problems.append("energy not finite and positive")
    steps = int(round(float(_option(argv, "--t-end", 0.1))
                      / float(_option(argv, "--dt", 1e-4))))
    every = int(_option(argv, "--record-every", 10))
    if len(cols["t"]) != steps // every + 1:
        problems.append(f"{len(cols['t'])} rows for {steps} steps / {every}")
    if _option(argv, "--closure") == "stationary" and \
            _option(argv, "--init", "constant") == "constant":
        # criterion 9: the constant solution is a fixed point, drift <= 1e-9
        drift = np.max(np.abs(cols["v_root"] / cols["v_root"][0] - 1.0))
        if drift > 1e-9:
            problems.append(f"root drift {drift:.3e} > 1e-9")
        if np.max(cols["distance_to_u"]) > 1e-18 * cols["energy"][0]:
            problems.append("distance to u exceeds a 1e-9 relative drift")
    return problems


def _check_structure(argv, cols, summary):
    cfg = cli_model_configs(argv)[0]
    d, alpha = cfg["d"], cfg["alpha"]
    log2d = np.log2(np.asarray(cfg["deltas"], dtype=float))
    problems = []
    if not np.all(np.isfinite(cols["S_p"])) or np.any(cols["S_p"] <= 0):
        problems.append("S_p not finite and positive")
    for entry in summary:
        p = entry["p"]
        # criterion 10a: zeta_formula = min(p, p * s0(p))
        s0 = (alpha - d / 2) / 3 + 0.5 * (_ell(log2d, 1.5) - _ell(log2d, p / 2))
        want = min(p, p * s0)
        if abs(entry["zeta_formula"] - want) > 1e-12:
            problems.append(f"p={p}: zeta_formula {entry['zeta_formula']!r} "
                            f"!= p*s0(p) = {want!r}")
    return problems


INVARIANTS = {
    "spectra": _check_spectra,
    "solve": _check_solve,
    "dissipation": _check_dissipation,
    "concentration": _check_concentration,
    "lln": _check_lln,
    "simulate": _check_simulate,
    "structure": _check_structure,
}


def _cli_checker(argv, out, summary, reference):
    def check(rc) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        summary_path = summary if "--summary" in argv else None
        _, cols = read_csv(out)
        payload = None
        if summary_path is not None:
            with open(summary_path) as fh:
                payload = json.load(fh)
        problems = INVARIANTS[argv[0]](argv, cols, payload)
        if reference is None:
            problems.append("no recorded reference values")
        else:
            problems += compare_record(output_record(out, summary_path),
                                       reference)
        return problems
    return check


# ---------------------------------------------------------------------------
# sweep: many random models, library calls only
# ---------------------------------------------------------------------------

SWEEP = {
    # models per pass; measure generation per d; lln (n, samples);
    # dynamics depth and steps; synthesis cells (2**(d * depth)); zeta's
    # p grid; the tilts at which D is sampled
    "full": {"models": 60, "measure_n": {1: 200, 2: 20, 3: 6},
             "lln": (1000, 100), "depth": 4, "steps": 50, "log2_cells": 12,
             "p_grid": np.linspace(0.0, 20.0, 41),
             "gammas": np.linspace(-8.0, 8.0, 21)},
    "tiny": {"models": 3, "measure_n": {1: 20, 2: 4, 3: 2},
             "lln": (100, 10), "depth": 2, "steps": 5, "log2_cells": 6,
             "p_grid": np.linspace(0.0, 4.0, 9),
             "gammas": np.linspace(-8.0, 8.0, 5)},
}


def sweep_models(seed: int, pass_index: int, size: str):
    """Random models drawn as in the test suite's ``random_rcm``, with d
    cycling through 1, 2, 3 so every pass has the same mix of sizes."""
    from treeshell import RcmModel

    rng = np.random.default_rng([seed, pass_index])
    models = []
    for i in range(SWEEP[size]["models"]):
        d = 1 + i % 3
        alpha = float(rng.uniform(0.6, 6.0))
        forcing = float(rng.uniform(0.3, 3.0))
        deltas = np.exp(rng.uniform(-1.5, 1.5, size=2**d))
        models.append(RcmModel.create(d, alpha, deltas, forcing))
    return [models[i] for i in rng.permutation(len(models))]


def _sweep_run(model, cfg, lln_seed):
    from treeshell import ConstantSolution, dissipation, dynamics, field, spectra

    out = {}
    out["zeta"] = spectra.zeta(model, cfg["p_grid"], check_h=False)
    out["delta"] = spectra.dim_delta(model)
    out["asymptote"] = spectra.asymptote(model)
    # a = phi(gamma) on a fixed tilt grid samples the whole spectrum of
    # every model; phi_inverse does not return once |gamma| passes ~8192
    # (its 1e-12 bracket is then below one ulp), which a grid of fixed
    # fractions of [log2 min, log2 max] reaches on near-flat models
    a = np.array([model.phi(float(g)) for g in cfg["gammas"]])
    out["D"] = np.array([spectra.dim_D(model, float(x)) for x in a])
    out["R"] = spectra.rate_R(model, a)
    sol = ConstantSolution(model)
    out["energy"] = sol.energy()
    out["recursion_residual"] = sol.recursion_residual()
    out["mass"] = dissipation.measure(model, cfg["measure_n"][model.d]).total_mass()
    out["lln"] = dissipation.lln_sample(model, *cfg["lln"], seed=lln_seed)
    depth = cfg["depth"]
    start = dynamics.TruncatedState.from_constant(sol, depth, "stationary")
    dt = 0.1 * 2.0 ** (-model.alpha * depth)
    out["start"] = start.values
    out["traj"] = dynamics.integrate(start, dt, cfg["steps"],
                                     record_every=cfg["steps"])
    out["cells"] = field.synthesize(sol, depth=cfg["log2_cells"] // model.d).cells
    return out


def _sweep_check(model, cfg, out) -> list[str]:
    problems = []
    p = cfg["p_grid"]
    i3 = int(np.flatnonzero(p == 3.0)[0])
    want = min(3.0, model.alpha - model.d / 2)
    if abs(out["zeta"][i3] - want) > 1e-12:  # criterion 1
        problems.append(f"zeta3 {out['zeta'][i3]!r} != {want!r}")
    gap = out["R"] - out["D"]
    if gap.min() < -1e-9:  # criterion 5: R >= D
        problems.append(f"min(R - D) = {gap.min():.3e} < -1e-9")
    if out["recursion_residual"] > 1e-12:
        problems.append(f"recursion residual {out['recursion_residual']:.3e}")
    if not out["energy"] > 0:
        problems.append(f"energy {out['energy']!r}")
    if abs(out["mass"] - 1.0) > 1e-10:  # criterion 6
        problems.append(f"|sum F - 1| = {abs(out['mass'] - 1):.3e}")
    rep = out["lln"]
    lo, hi = model.coeffs.ell_neg_inf(), model.coeffs.ell_pos_inf()
    if not lo <= rep.sigma_mean <= hi:
        problems.append(f"sigma mean {rep.sigma_mean!r} outside [{lo}, {hi}]")
    traj = out["traj"]
    drift = float(np.max(np.abs(traj.states[-1] / out["start"] - 1.0)))
    if drift > 1e-9 or traj.clamp_total != 0:  # criterion 9
        problems.append(f"drift {drift:.3e}, clamp {traj.clamp_total!r}")
    if out["cells"] != 2 ** (model.d * (cfg["log2_cells"] // model.d)):
        problems.append(f"{out['cells']} cells")
    return problems


def sweep_cases(seed: int, pass_index: int, size: str) -> list[Case]:
    cfg = SWEEP[size]
    cases = []
    for i, model in enumerate(sweep_models(seed, pass_index, size)):
        lln_seed = [seed, pass_index, i]
        cases.append(Case(
            "model", f"model{i}",
            lambda m=model, s=lln_seed: _sweep_run(m, cfg, s),
            lambda out, m=model: _sweep_check(m, cfg, out)))
    return cases


# ---------------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def cases(workload: str, seed: int, pass_index: int, size: str,
          workdir: str, reference: dict) -> list[Case]:
    """The cases of one pass, in the order they run."""
    if workload == "sweep":
        return sweep_cases(seed, pass_index, size)
    return cli_cases(workload, seed, pass_index, size, workdir, reference)


def build_models(workload: str, seed: int, size: str) -> list:
    """Every model the first pass of a workload uses (the set-up probe)."""
    from treeshell import model_from_dict

    if workload == "sweep":
        return sweep_models(seed, 0, size)
    table = (README if workload == "readme" else BULK)[size]
    return [model_from_dict(cfg) for _, template in table
            for cfg in cli_model_configs(cli_argv(template, "-", "-"))]
