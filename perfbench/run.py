"""swdisp benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/swdisp``).
For ``--seconds`` seconds it launches the workload again and again, each
launch a fresh interpreter (``child.py``) with numpy/BLAS pinned to one
thread, one launch at a time.  Every launch is checked for correctness and
counted as attempted or failed.

``--trace 0`` reports the end-to-end metrics as medians over launches:
``setup_s`` (launch until the scenario is ready to step), ``wall_s`` (launch
until every output is written), ``cell_steps_per_s`` (n_cells * steps /
(wall_s - setup_s)) and ``peak_rss_mb``.

``--trace 1`` alternates untraced and traced launches and reports the
per-layer metrics of ``tracer.summarize`` (medians over traced launches) plus
``trace.overhead_ratio``, the median traced over the median untraced wall_s.
The spans of the last traced launch are written to
``.perfbench_runs/spans/<workload>-s<seed>.jsonl``.

The last stdout line is the result JSON; the line before it records the
environment.  Exit code 2, with no result, when the checkout holds no swdisp
sources or an argument is invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import UNITS as LAYER_UNITS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_text, inputs_from_seed  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 120.0
MIN_LAUNCHES = 3


def _child_env(root):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_commit(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _launch(root, env, wl, run_dir, index, options):
    """One child launch; returns its parsed report, or a failure record."""
    out = run_dir / f"out{index}"
    child = [sys.executable, str(HERE / "child.py"), "--workload", wl.name,
             "--config", str(run_dir / "scenario.cfg"), "--out", str(out),
             *options]
    launch = time.perf_counter()
    try:
        proc = subprocess.run(child + ["--launch", repr(launch)], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": ["launch timed out"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "failures": [
            f"launch exited with code {proc.returncode}: {tail[0]}"]}
    report = json.loads(lines[-1])
    report["launch"] = launch
    return report


def _e2e(report, n_cells):
    marks = report["marks"]
    setup = marks["ready"] - report["launch"]
    wall = marks["done"] - report["launch"]
    return {"setup_s": setup, "wall_s": wall,
            "cell_steps_per_s": n_cells * report["steps"] / (wall - setup),
            "peak_rss_mb": report["rss_mb"]}


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cell_steps_per_s": "1/s",
             "peak_rss_mb": "MB"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cells", type=int,
                    help="override the workload's cell count (self-test)")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this launch's final state as the reference "
                         "for the default seed, then exit")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the launch
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "swdisp" / "__init__.py").is_file():
        print(f"error: {root} holds no swdisp sources (src/swdisp)",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    n_cells = args.cells or wl.n_cells
    stock = args.cells is None
    if args.write_reference and not (stock and args.seed == DEFAULT_SEED):
        print(f"error: references are written at the default seed "
              f"({DEFAULT_SEED}) and the workload's own cell count",
              file=sys.stderr)
        return 2
    reference = HERE / "reference" / f"{wl.name}.npz"
    reference = reference if stock and args.seed == DEFAULT_SEED else None

    runs = root / ".perfbench_runs"
    run_dir = runs / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spans = None
    if args.trace:
        (runs / "spans").mkdir(exist_ok=True)
        spans = runs / "spans" / f"{wl.name}-s{args.seed}.jsonl"
    (run_dir / "scenario.cfg").write_text(
        config_text(wl, inputs_from_seed(args.seed), n_cells))
    env = _child_env(root)

    try:
        # compile bytecode and warm the page cache before anything is timed
        subprocess.run([sys.executable, "-c",
                        "import swdisp.cli, swdisp.diagnostics"],
                       cwd=root, env=env, capture_output=True, timeout=120)
        if args.write_reference:
            target = HERE / "reference" / f"{wl.name}.npz"
            target.parent.mkdir(exist_ok=True)
            report = _launch(root, env, wl, run_dir, 0,
                             ["--write-reference", str(target)])
            print(json.dumps(report))
            return 0 if report["ok"] else 1
        plain, traced, failures = [], [], []
        cpus = sorted(os.sched_getaffinity(0))
        started = time.perf_counter()
        index = 0
        while True:
            want_trace = bool(args.trace) and index % 2 == 1
            # The speed of each CPU drifts by up to 2x over tens of seconds on
            # a shared host, and independently per CPU.  Spreading launches
            # evenly over the CPUs averages those drifts within every run.
            # Launches inherit this process's affinity; a traced launch runs
            # on the CPU of the untraced launch it is compared with.
            slot = index // 2 if args.trace else index
            os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
            options = ["--trace", str(int(want_trace))]
            if reference is not None:
                options += ["--reference", str(reference)]
            if want_trace:
                options += ["--spans", str(spans)]
            report = _launch(root, env, wl, run_dir, index, options)
            index += 1
            if not report["ok"]:
                failures.append(report["failures"])
            (traced if want_trace else plain).append(report)
            enough = (len(plain) >= MIN_LAUNCHES if not args.trace
                      else len(traced) >= 2)
            if enough and time.perf_counter() - started >= args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    good_plain = [r for r in plain if r["ok"]]
    good_traced = [r for r in traced if r["ok"]]
    metrics = {}
    if not args.trace:
        for name, unit in E2E_UNITS.items():
            values = [_e2e(r, n_cells)[name] for r in good_plain]
            metrics[name] = {"value": statistics.median(values) if values
                             else 0.0, "unit": unit}
    else:
        for name, unit in LAYER_UNITS.items():
            values = [r["layers"][name] for r in good_traced
                      if name in r["layers"]]
            metrics[name] = {"value": statistics.median(values) if values
                             else 0.0, "unit": unit}
        if good_plain and good_traced:
            plain_wall = statistics.median(
                _e2e(r, n_cells)["wall_s"] for r in good_plain)
            traced_wall = statistics.median(
                _e2e(r, n_cells)["wall_s"] for r in good_traced)
            metrics["trace.overhead_ratio"]["value"] = traced_wall / plain_wall
        absent = good_traced[-1]["absent"] if good_traced else []
        metrics["trace.absent_hooks"]["value"] = len(absent)

    sample = (good_traced or good_plain or [{}])[-1]
    env_record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n_cells": n_cells,
        "launches": len(plain) + len(traced),
        **sample.get("versions", {}),
        "nproc": os.cpu_count(),
        "launch_cpus": cpus,
        "threads": {var: "1" for var in THREAD_VARS},
        "git_commit": _git_commit(root),
        "absent_hooks": sample.get("absent", []),
        "failures": failures,
    }
    print(json.dumps({"env": env_record}))
    print(json.dumps({"correct": not failures and bool(plain or traced),
                      "attempted": len(plain) + len(traced),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
