"""The timed closed loop of one workload, run in its own process.

One client runs the cases of a pass one after the other; each case starts
when the previous one has ended, and a pass starts when the previous pass
and its output checks have ended.  Passes repeat until the next one would
overrun the time budget (at least one pass always runs).  With tracing,
untraced and traced passes alternate.  A fixed reference loop is timed
before each pass and after each case, so that every case also has a time
at the reference host speed (see reference_loop).  Between passes, spread
over the run, the worker times fresh interpreters that set the program up
(see setup_probe).

    python3 perfbench/worker.py --workload readme --seed 1 --seconds 30 \\
        --trace 0 --size full --result out.json
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time

CASE_LIMIT_S = 30.0
# What reference_loop takes at the reference host speed: about its median
# on a shared 2-core x86-64 box with Python 3.11 and numpy 2.4.
REF_LOOP_S = 0.0075
# Set-up probes per timed run, spread evenly over its budget.
SETUP_PROBES = 8
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PROBE = """
import sys
sys.path[:0] = sys.argv[1:3]
import treeshell.cli, treeshell.dissipation, treeshell.dynamics
import treeshell.field, treeshell.spectra
import workloads
workloads.build_models(sys.argv[3], int(sys.argv[4]), sys.argv[5])
"""


def import_program():
    """Import every treeshell module a workload touches (set-up, untimed)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import treeshell.cli  # noqa: F401
    import treeshell.dissipation  # noqa: F401
    import treeshell.dynamics  # noqa: F401
    import treeshell.field  # noqa: F401
    import treeshell.spectra  # noqa: F401


def output_size(paths: list[str]) -> tuple[int, int]:
    """(CSV data rows, bytes) over the files a case wrote."""
    rows = nbytes = 0
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        nbytes += len(data)
        if path.endswith(".csv"):
            lines = data.splitlines()
            rows += sum(1 for line in lines if not line.startswith(b"#")) - 1
    return rows, nbytes


# -- host speed ------------------------------------------------------------------
# On a shared host the CPU speed a process gets drifts by up to 1.5x within
# seconds, and can stay low for a whole run; CPU time drifts with wall time,
# so it is not preemption.  A loop that calls nothing of the program is
# timed before the first case of a pass, after every case, and around every
# set-up probe; a case's (or probe's) time at reference speed is its wall
# time times REF_LOOP_S over the mean of the two loop times around it.  The loop mixes what the workloads do: Python
# calls into math, many numpy calls on small arrays and one pass over
# arrays larger than the caches.


@functools.cache
def _ref_arrays():
    import numpy as np  # not at module level: threads are pinned first

    return np.linspace(0.0, 1.0, 64), np.linspace(0.0, 1.0, 1 << 20)


def _ref_call(x: float) -> float:
    return math.log(1.0 + x * x)


def reference_loop() -> float:
    """Seconds one run of the fixed reference loop takes now."""
    import numpy as np

    small, large = _ref_arrays()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(8000):
        acc += _ref_call(i * 1e-3)
    x = small
    for _ in range(3000):
        x = np.add(x, small)
    y = large * 2.0
    y += large
    acc += float(y.sum()) + float(x[0])
    return time.perf_counter() - t0


def plain_timer(name: str, fn):
    """Untraced counterpart of Tracer.root: (result, t0, t1)."""
    t0 = time.perf_counter()
    out = fn()
    return out, t0, time.perf_counter()


def setup_probe(workload: str, seed: int, size: str) -> float:
    """Wall time of a fresh interpreter that imports the program and builds
    the workload's models, as every CLI invocation does."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE, SRC, HERE,
                             workload, str(seed), size])
    # wait() with a timeout polls in sleeps of up to 50 ms, which would
    # quantise the measurement; a timer kills a hung probe instead
    guard = threading.Timer(120, proc.kill)
    guard.start()
    try:
        rc = proc.wait()
    finally:
        guard.cancel()
    seconds = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"set-up probe exited {rc}")
    return seconds


class CaseTimeout(Exception):
    pass


def _expire(signum, frame):
    raise CaseTimeout(f"no result after {CASE_LIMIT_S:g} s")


def time_case(case, timer) -> tuple[float, float, list[str]]:
    """(seconds, reference loop seconds right after, failure messages) of
    one case; the loop and the check run untimed.

    A case that has not returned after CASE_LIMIT_S is interrupted (SIGALRM,
    handled by measure) and counted as failed, so a hung call cannot hold
    the run past its deadline.
    """
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CASE_LIMIT_S)
    error = None
    try:
        out, t0, t1 = timer(f"case.{case.name}", case.run)
    except Exception as exc:  # a failed case is counted, not fatal
        t1 = time.perf_counter()
        error = [f"{type(exc).__name__}: {exc}"]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    ref = reference_loop()
    if error:
        return t1 - t0, ref, error
    try:
        return t1 - t0, ref, case.check(out)
    except Exception as exc:
        return t1 - t0, ref, [f"check raised {type(exc).__name__}: {exc}"]


def run_passes(workload, seed, size, workdir, reference, budget, tracer=None):
    """Run passes until the budget is spent; one record per case, and the
    set-up probe times, as wall time and at the reference host speed.

    With a tracer, passes alternate between untraced and traced, so both
    kinds sample the same stretch of time; at least one of each runs.
    """
    import workloads

    records, written = [], [0, 0]
    setup = {"seconds": [], "ref_seconds": []}

    def probe():
        ref_before = reference_loop()
        seconds = setup_probe(workload, seed, size)
        ref_loop = 0.5 * (ref_before + reference_loop())
        setup["seconds"].append(seconds)
        setup["ref_seconds"].append(seconds * REF_LOOP_S / ref_loop)

    start = time.perf_counter()
    passes = traced_passes = 0
    while True:
        # probe k is due once k/SETUP_PROBES of the budget is spent
        if (len(setup["seconds"]) * budget
                <= SETUP_PROBES * (time.perf_counter() - start)):
            probe()
        traced = tracer is not None and passes % 2 == 1
        cases = workloads.cases(workload, seed, passes, size, workdir,
                                reference)
        if traced:
            tracer.install()
        try:
            ref_before = reference_loop()
            for case in cases:
                seconds, ref_after, problems = time_case(
                    case, tracer.root if traced else plain_timer)
                ref_loop = 0.5 * (ref_before + ref_after)
                ref_before = ref_after
                if traced and case.outputs and not problems:
                    rows, nbytes = output_size(case.outputs)
                    written[0] += rows
                    written[1] += nbytes
                records.append({"phase": "traced" if traced else "plain",
                                "pass": passes, "case": case.name,
                                "key": case.key, "seconds": seconds,
                                "ref_loop_s": ref_loop,
                                "ref_seconds": seconds * REF_LOOP_S / ref_loop,
                                "problems": problems})
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
        traced_passes += traced
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > budget and (
                tracer is None or traced_passes > 0):
            while len(setup["seconds"]) < (SETUP_PROBES if budget > 0 else 1):
                probe()
            return records, traced_passes, written, setup


# -- per-layer metrics from the spans ----------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, passes: int, written) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and the full per-span table.

    Every traced function has "<span>.calls" and "<span>.self_s", also when
    the workload never calls it; BENCHMARK.json picks the reported ones.
    """
    stats, root_total, self_total = tracer.self_times()
    calls = {n: c for n, (c, _) in stats.items()}
    own = {n: s for n, (_, s) in stats.items()}
    m = {}
    for name in stats:
        m[f"{name}.calls"] = calls[name] / passes
        m[f"{name}.self_s"] = own[name] / passes
    m["coefficients.phi.per_phi_inverse"] = _ratio(
        tracer.calls_under("coefficients.phi", "coefficients.phi_inverse"),
        calls.get("coefficients.phi_inverse", 0))
    m["spectra.dim_D.per_tail_rate"] = _ratio(
        tracer.calls_under("spectra.dim_D", "dissipation.theoretical_tail_rate"),
        calls.get("dissipation.theoretical_tail_rate", 0))
    work = tracer.work
    m["dissipation.measure.atoms"] = work.get("dissipation.atoms", 0) / passes
    m["dissipation.measure.atoms_per_s"] = _ratio(
        work.get("dissipation.atoms", 0), own.get("dissipation.measure", 0.0))
    m["cli.rows_written"] = written[0] / passes
    m["cli.bytes_written"] = written[1] / passes
    m["cli.rows_per_s"] = _ratio(written[0], own.get("cli.main", 0.0))
    m["solution.pullback.nodes"] = work.get("solution.nodes", 0) / passes
    m["solution.residual_max.per_pullback"] = _ratio(
        calls.get("solution.residual_max", 0), calls.get("solution.pullback", 0))
    m["dynamics.node_steps"] = work.get("dynamics.node_steps", 0) / passes
    m["dynamics.node_steps_per_s"] = _ratio(
        work.get("dynamics.node_steps", 0), own.get("dynamics.step", 0.0))
    m["field.synthesize.cells"] = work.get("field.cells", 0) / passes
    m["field.cells_per_s"] = _ratio(work.get("field.cells", 0),
                                    own.get("field.synthesize", 0.0))
    table = {"spans": {n: [calls[n] / passes, own[n] / passes] for n in stats},
             "root_total_s": root_total, "self_total_s": self_total}
    return m, table


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", outdir: str | None = None) -> dict:
    """Run the workload's timed loop in this process; return the raw result."""
    import_program()
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import workloads
    from tracer import Tracer

    outdir = outdir or os.path.join(HERE, "out")
    workdir = os.path.join(outdir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    reference = workloads.load_reference()
    for _ in range(3):  # warm-up: first-call costs stay out of the ratio
        reference_loop()
    result = {"layers": None, "spans": None}
    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        tracer = Tracer() if trace else None
        records, traced_passes, written, setup = run_passes(
            workload, seed, size, workdir, reference, seconds, tracer)
        if trace:
            result["layers"], result["spans"] = layer_metrics(
                tracer, traced_passes, written)
            tracer.save(os.path.join(outdir, f"spans-{workload}.npz"))
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy
    import scipy
    result.update(
        records=records, setup=setup,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__})
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--result", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.size)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
