"""The treeshell benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh worker process (worker.py) as one client in
a closed loop; between its passes the worker also times fresh interpreters
that set the program up (the set-up time).  The output is a human-readable
report followed, as the last line, by one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("readme", "bulk", "sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# The CLI subcommands and the sweep's per-model latency, timed per case.
CASE_METRICS = ("spectra", "solve", "dissipation", "concentration", "lln",
                "simulate", "structure", "model")


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units every result carries."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class BenchError(Exception):
    """The benchmark cannot run here; nothing was measured."""


def pin_threads() -> tuple[int, int]:
    """Pin the BLAS/OpenMP pools before any worker imports numpy.

    The count comes from RCM_THREADS (the program's own setting), default
    1; more threads than usable cores is refused.
    """
    nproc = len(os.sched_getaffinity(0))
    raw = os.environ.get("RCM_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise BenchError(f"RCM_THREADS={raw!r} is not an integer") from None
    if not 1 <= threads <= nproc:
        raise BenchError(f"RCM_THREADS={threads} outside 1..nproc={nproc}")
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads, nproc


def read_commit() -> str:
    """HEAD of the checkout's git directory, or 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               size: str) -> dict:
    path = os.path.join(OUT, f"worker-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--size", size, "--result", path]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        # a run must end within 180 s; a pass and the final probes may
        # overrun the budget by a few seconds
        out, err = proc.communicate(timeout=seconds + 100)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n"
                         f"{out}{err}")
    try:
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.remove(path)


# -- statistics ----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """(q, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, sorted(values)[math.ceil(q / 100.0 * n) - 1]
    return None


def timing_line(name: str, values: list[float], unit: str = "s") -> str:
    """'name [unit] median ..., tail ..., n=...' for one timing metric."""
    head = f"{name:<16} [{unit}]"
    if not values:
        return f"{head} n/a: not run by this workload"
    t = tail(values)
    tail_text = (f"p{t[0]:g} {t[1]:.6g}" if t
                 else "no tail percentile (needs >= 40 samples)")
    return (f"{head} median {statistics.median(values):.6g}, {tail_text}, "
            f"n={len(values)}")


def pass_walls(records: list[dict], phase: str,
               field: str = "seconds") -> list[float]:
    """Per-pass sums of a case time: the wall time ("seconds") or the time
    at the reference host speed ("ref_seconds")."""
    walls: dict[int, float] = {}
    for r in records:
        if r["phase"] == phase:
            walls[r["pass"]] = walls.get(r["pass"], 0.0) + r[field]
    return [walls[k] for k in sorted(walls)]


def summarize(workload: str, seed: int, seconds: float, trace: bool,
              raw: dict, env: dict) -> tuple[list[str], dict]:
    """The report lines and the result object of one workload run."""
    records, setup = raw["records"], raw["setup"]
    failed = [r for r in records if r["problems"]]
    walls = pass_walls(records, "plain")
    ref_walls = pass_walls(records, "plain", "ref_seconds")
    per_case = {name: [r["seconds"] for r in records
                       if r["phase"] == "plain" and r["case"] == name]
                for name in CASE_METRICS}
    lines = [f"# workload={workload} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)}",
             "env " + json.dumps(env, sort_keys=True),
             timing_line("wall_s", walls),
             timing_line("wall_ref_s", ref_walls),
             timing_line("ref_loop_s", [r["ref_loop_s"] for r in records]),
             timing_line("setup_s", setup["ref_seconds"]),
             timing_line("setup_wall_s", setup["seconds"]),
             f"{'peak_rss_mb':<16} [MB] {raw['rss_mb']:.6g} (worker process)",
             f"{'failed_frac':<16} [ratio] {len(failed) / len(records):.6g} "
             f"({len(failed)}/{len(records)} cases)"]
    lines += [timing_line(f"{name}_s", per_case[name]) for name in CASE_METRICS]
    for r in failed[:20]:
        lines.append(f"FAILED pass {r['pass']} {r['key']}: "
                     + "; ".join(r["problems"]))

    if trace:
        traced = pass_walls(records, "traced")
        metrics = dict(raw["layers"])
        metrics["trace.overhead_s"] = (
            statistics.median(pass_walls(records, "traced", "ref_seconds"))
            - statistics.median(ref_walls))
        for name in CASE_METRICS:
            vals = per_case[name]
            metrics[f"{name}_s"] = statistics.median(vals) if vals else 0.0
        spans = raw["spans"]
        lines.append(timing_line("traced wall_s", traced))
        lines.append(f"{'span':<36}{'calls/pass':>14}{'self_s/pass':>14}")
        for name, (calls, own) in sorted(spans["spans"].items(),
                                         key=lambda kv: -kv[1][1]):
            lines.append(f"{name:<36}{calls:>14.6g}{own:>14.6g}")
        lines.append(f"spans: root total {spans['root_total_s']:.6f} s, "
                     f"self total {spans['self_total_s']:.6f} s")
    else:
        metrics = {"wall_ref_s": statistics.median(ref_walls),
                   "setup_s": statistics.median(setup["ref_seconds"]),
                   "peak_rss_mb": raw["rss_mb"]}
    spec = load_spec()["per_layer" if trace else "end_to_end"]
    result = {"correct": not failed, "attempted": len(records),
              "failed": len(failed),
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in spec}}
    return lines, result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[list[str], dict]:
    threads, nproc = pin_threads()
    os.makedirs(OUT, exist_ok=True)
    raw = run_worker(workload, seed, seconds, trace, size)
    env = {"commit": read_commit(), **raw["versions"], "nproc": nproc,
           "blas_threads": threads, "seed": seed, "workload": workload,
           "size": size}
    lines, result = summarize(workload, seed, seconds, trace, raw, env)
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace"
                                f"{int(trace)}.json"), "w") as fh:
        json.dump({"env": env, "report": lines, **result,
                   "records": raw["records"]}, fh)
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run the treeshell benchmark; the last output line is "
                    "the JSON result.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time per workload; 0 runs one checked pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treeshell", "__init__.py")):
        print(f"benchmark: no treeshell sources under {SRC}", file=sys.stderr)
        return 2
    correct = True
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            lines, result = run_workload(workload, args.seed, args.seconds,
                                         bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
            correct &= result["correct"]
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
