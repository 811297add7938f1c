"""One launch of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line with
the launch's time marks (on the monotonic clock shared with ``run.py``),
step count, peak RSS, correctness verdict and, when traced, the per-layer
summary.  In-process workloads call ``run_simulation``; the CLI workload
calls ``swdisp.cli.main`` exactly as ``python -m swdisp.cli`` would.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

MASS_TOL = 1e-12
REFERENCE_TOL = 1e-10
PROBE_STEPS = 5


def _run_in_process(wl, args, tracer, marks):
    from swdisp import io as swio
    from swdisp import solver

    if tracer is not None:
        tracer.open("setup.scenario")
    cfg = swio.load_config(args.config)
    state = swio.build_initial_state(cfg)
    if tracer is not None:
        tracer.close()
    marks["ready"] = time.perf_counter()
    result = solver.run_simulation(state, cfg.bathymetry, cfg.params,
                                   cfg.grid, cfg.tier, cfg.controls,
                                   collect_reports=wl.collect_reports)
    marks["done"] = time.perf_counter()
    final = result.states[-1]
    return {"H0": state.H, "H": final.H, "q": final.q,
            "steps": result.stats["steps"],
            "clamps": result.stats["positivity_clamps"],
            "mass_drift": None, "failures": []}


def _read_csv(path):
    import numpy as np
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def _run_cli(wl, args, tracer, marks):
    import numpy as np
    from swdisp import cli

    inner = cli.run_simulation

    def marked(*a, **kw):
        marks.setdefault("ready", time.perf_counter())
        return inner(*a, **kw)

    cli.run_simulation = marked
    argv = ["run", "--config", args.config, "--out", args.out]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    marks["done"] = time.perf_counter()

    out = {"H0": None, "H": None, "q": None, "steps": 0, "clamps": 0,
           "mass_drift": None, "failures": []}
    fail = out["failures"]
    out_dir = Path(args.out)
    if rc != 0:
        fail.append(f"cli exited with code {rc}")
        return out
    if "ready" not in marks:
        fail.append("the cli never called run_simulation")
        return out
    snaps = sorted(out_dir.glob("snapshot_*.csv"))
    manifest = out_dir / "manifest.txt"
    series = out_dir / "timeseries.csv"
    if not snaps or not manifest.is_file() or not series.is_file():
        fail.append("cli wrote no snapshot, manifest or timeseries file")
        return out
    entries = dict(ln.split(" = ", 1) for ln in manifest.read_text()
                   .splitlines() if " = " in ln)
    out["steps"] = int(entries["steps"])
    out["clamps"] = int(entries["positivity_clamps"])
    out["mass_drift"] = float(entries["mass_drift"])
    rows = len(series.read_text().splitlines()) - 1
    if rows != out["steps"] + 1:
        fail.append(f"timeseries.csv holds {rows} rows, expected "
                    f"steps + 1 = {out['steps'] + 1}")
    header, data = _read_csv(snaps[-1])
    H = data[:, header.index("H")]
    out["H"] = H
    out["q"] = H * data[:, header.index("u_bar")]
    if not np.all(np.isfinite(data)):
        fail.append("final snapshot holds non-finite values")
    return out


def _check(run, args):
    import numpy as np
    fail = run["failures"]
    H, q = run["H"], run["q"]
    if H is None:
        return fail
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(q))):
        fail.append("final H or q is non-finite")
    elif np.any(H < 0.0):
        fail.append("final H is negative somewhere")
    drift = run["mass_drift"]
    if drift is None:
        m0, m1 = float(np.sum(run["H0"])), float(np.sum(H))
        drift = (m1 - m0) / abs(m0)
    if not abs(drift) <= MASS_TOL:
        fail.append(f"relative mass drift {drift:.3e} exceeds {MASS_TOL:g}")
    if run["clamps"]:
        fail.append(f"{run['clamps']} positivity clamps")
    if args.reference:
        ref = np.load(args.reference, allow_pickle=False)
        for key, value in (("H", H), ("q", q)):
            want = ref[key]
            if value.shape != want.shape:
                fail.append(f"final {key} has shape {value.shape}, "
                            f"reference {want.shape}")
                continue
            rel = float(np.max(np.abs(value - want))
                        / max(float(np.max(np.abs(want))), 1e-300))
            if not rel <= REFERENCE_TOL:
                fail.append(f"final {key} differs from the reference by "
                            f"{rel:.3e} relative (> {REFERENCE_TOL:g})")
    return fail


def _memory_probe(config):
    """Median over a few steps of the tracemalloc peak minus the value at
    the step's start, in kB: the temporaries one step allocates.  0 when
    ``solver.step`` is absent."""
    import tracemalloc

    import numpy as np
    from swdisp import io as swio
    from swdisp import solver

    if not hasattr(solver, "step"):
        return 0.0
    cfg = swio.load_config(config)
    s = swio.build_initial_state(cfg)
    # a CFL-safe step computed here, so the probe needs only solver.step
    dt = 0.2 * cfg.grid.dx / float(np.sqrt(cfg.params.g * np.max(s.H)))
    samples = []
    for _ in range(PROBE_STEPS):
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        s = solver.step(s, cfg.bathymetry, cfg.params, cfg.grid, cfg.tier, dt,
                        stats={}, first_order=cfg.controls.first_order)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        samples.append((peak - base) / 1e3)
    return statistics.median(samples)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    ap.add_argument("--reference")
    ap.add_argument("--write-reference")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    import numpy as np
    import scipy
    import swdisp.cli  # noqa: F401  (imports every module but manufactured)
    import swdisp.diagnostics  # noqa: F401
    t_imported = time.perf_counter()

    tracer = None
    absent = []
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.record("setup.launch", args.launch, T0)
        tracer.record("setup.import", T0, t_imported)
        t_install = time.perf_counter()
        absent = tracing.install(tracer)
        tracer.record(tracing.POST, t_install, time.perf_counter())

    marks = {"t0": T0, "imported": t_imported}
    runner = _run_cli if wl.via_cli else _run_in_process
    run = runner(wl, args, tracer, marks)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.active = False
        layers = tracing.summarize(tracer, args.launch, marks["done"])
        layers["solver.step.peak_temp_kb"] = _memory_probe(args.config)
        if args.spans:
            tracing.dump(tracer, args.spans)

    if args.write_reference:
        np.savez_compressed(args.write_reference, H=run["H"], q=run["q"])
    failures = _check(run, args)
    print(json.dumps({
        "ok": not failures, "failures": failures, "marks": marks,
        "steps": run["steps"], "rss_mb": rss_mb, "layers": layers,
        "absent": absent, "swdisp": swdisp.__file__,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
