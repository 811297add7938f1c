"""Outside-in span tracing of swdisp's public functions.

:func:`install` wraps the public functions of the modules ``core``,
``closures``, ``models``, ``solver``, ``diagnostics``, ``io`` and ``cli``
(plus the few methods the per-layer metrics name) and rebinds every import
site in the loaded ``swdisp`` modules, because modules import functions from
each other by name.  Nothing under ``src/`` changes.

Each wrapped call records one span (name, start, end, parent) in memory.
Work the tracer does itself (installing the hooks, the solve residual, a
snapshot's file size) is recorded as a ``perfbench.post`` span, so it is
excluded from its parent's self time and shows as tracing overhead rather
than as program time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

MODULES = ("core", "closures", "models", "solver", "diagnostics", "io", "cli")

# methods traced in addition to each module's public functions
METHODS = {
    "core": {"FlowState": ("velocity",),
             "BathymetryField": ("elevation",)},
    "solver": {"BandedMatrix": ("from_stencils", "solve")},
}

# hooks the per-layer metrics depend on; a missing one is reported as absent
EXPECTED = (
    "core.FlowState.velocity", "core.BathymetryField.elevation",
    "closures.friction_kappa",
    "models.hydrostatic_tendency", "models.assemble_dispersive",
    "models.pointwise_friction_coefficient",
    "solver.BandedMatrix.from_stencils", "solver.BandedMatrix.solve",
    "solver.step", "solver.stable_dt", "solver.run_simulation",
    "diagnostics.energy_hydro", "diagnostics.energy_extended",
    "io.load_config", "io.write_snapshot", "io.write_timeseries",
    "io.write_manifest",
    "cli.main", "cli.cmd_run",
)

POST = "perfbench.post"

now = time.perf_counter


class Tracer:
    """In-memory span store.  Spans are ``[name, start, end, parent]``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = True
        self.solve_corners = []
        self.solve_residuals = []
        self.snapshot_bytes = []

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, now(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = now()

    def record(self, name, start, end):
        """A closed span under the current parent."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent])

    def wrap(self, name, fn, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if post is not None:
                start = now()
                post(self, args, kwargs, result)
                self.record(POST, start, now())
            return result
        return traced


def _solve_post(matvec):
    def post(tracer, args, kwargs, x):
        import numpy as np
        A = args[0]
        b = np.asarray(args[1] if len(args) > 1 else kwargs["b"], dtype=float)
        scale = float(np.max(np.abs(b))) if b.size else 0.0
        resid = float(np.max(np.abs(matvec(A, x) - b))) if b.size else 0.0
        tracer.solve_residuals.append(resid / scale if scale > 0.0 else resid)
        tracer.solve_corners.append(len(getattr(A, "corners", ())))
    return post


def _snapshot_post(tracer, args, kwargs, result):
    path = args[5] if len(args) > 5 else kwargs["path"]
    tracer.snapshot_bytes.append(os.path.getsize(path))


def _public_functions(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr, value


def install(tracer):
    """Wrap and rebind; return the expected hooks that are absent."""
    replaced = {}       # id(original function) -> wrapper
    present = set()
    for short in MODULES:
        module = sys.modules.get(f"swdisp.{short}")
        if module is None:
            continue
        for attr, fn in _public_functions(module):
            name = f"{short}.{attr}"
            post = _snapshot_post if name == "io.write_snapshot" else None
            replaced[id(fn)] = tracer.wrap(name, fn, post)
            present.add(name)
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(module, cls_name, None)
            for meth in methods:
                raw = vars(cls).get(meth) if cls is not None else None
                name = f"{short}.{cls_name}.{meth}"
                post = None
                if name == "solver.BandedMatrix.solve" and hasattr(cls, "matvec"):
                    post = _solve_post(cls.matvec)
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        tracer.wrap(name, raw.__func__, post)))
                elif inspect.isfunction(raw):
                    setattr(cls, meth, tracer.wrap(name, raw, post))
                else:
                    continue
                present.add(name)

    # rebind every import site, including ``from .models import ...``
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "swdisp":
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return [name for name in EXPECTED if name not in present]


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    k = (len(ordered) - 1) * q
    lo, hi = int(k), min(int(k) + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


ENERGY = ("diagnostics.energy_hydro", "diagnostics.energy_extended")

# spans whose self time and calls per step are reported
PER_STEP = ("models.hydrostatic_tendency", "models.assemble_dispersive",
            "solver.BandedMatrix.solve", "models.pointwise_friction_coefficient",
            "closures.friction_kappa", "core.FlowState.velocity",
            "core.BathymetryField.elevation", "diagnostics.energy_report")
# spans whose self time per step is reported
SELF_ONLY = ("solver.BandedMatrix.from_stencils", "solver.step",
             "solver.stable_dt", "solver.run_simulation")
# spans whose total self time per process is reported
ONCE = ("io.write_timeseries", "io.write_manifest", "io.load_config",
        "cli.cmd_run")

#: every per-layer metric and its unit
UNITS = {
    **{f"{n}.self_us_per_step": "us" for n in PER_STEP + SELF_ONLY},
    **{f"{n}.calls_per_step": "calls/step" for n in PER_STEP},
    "solver.BandedMatrix.solve.corners": "count",
    "solver.BandedMatrix.solve.residual_rel": "ratio",
    "solver.step.p50_us": "us",
    "solver.step.p99_us": "us",
    "solver.step.peak_temp_kb": "kB",
    "io.write_snapshot.self_ms_per_call": "ms",
    "io.write_snapshot.bytes_per_call": "bytes",
    **{f"{n}.self_ms": "ms" for n in ONCE},
    "setup.import_s": "s",
    "trace.span_coverage": "ratio",
    "trace.unattributed_ms": "ms",
    "trace.post_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.absent_hooks": "count",
}


def summarize(tracer, wall_start, wall_end):
    """Per-layer metrics of one traced process, in the units of ``UNITS``.

    ``solver.step.peak_temp_kb``, ``trace.overhead_ratio`` and
    ``trace.absent_hooks`` need more than one process's spans and are left
    to the caller.
    """
    spans = tracer.spans
    self_total = {}
    calls = {}
    for (name, _, _, parent), st in zip(spans, self_times(spans)):
        if name in ENERGY:
            name = "diagnostics.energy_report"
            # energy_extended calls energy_hydro: count outermost reports only
            if parent >= 0 and spans[parent][0] in ENERGY:
                self_total[name] += st
                continue
        self_total[name] = self_total.get(name, 0.0) + st
        calls[name] = calls.get(name, 0) + 1

    step_durations = [end - start for name, start, end, _ in spans
                      if name == "solver.step"]
    steps = max(len(step_durations), 1)
    n_snap = calls.get("io.write_snapshot", 0)
    covered = sum(end - start for _, start, end, parent in spans
                  if parent < 0)
    wall = wall_end - wall_start

    metrics = {}
    for name in PER_STEP + SELF_ONLY:
        metrics[f"{name}.self_us_per_step"] = (
            self_total.get(name, 0.0) * 1e6 / steps)
    for name in PER_STEP:
        metrics[f"{name}.calls_per_step"] = calls.get(name, 0) / steps
    for name in ONCE:
        metrics[f"{name}.self_ms"] = self_total.get(name, 0.0) * 1e3
    metrics.update({
        "solver.BandedMatrix.solve.corners": float(
            max(tracer.solve_corners, default=0)),
        "solver.BandedMatrix.solve.residual_rel": max(
            tracer.solve_residuals, default=0.0),
        "solver.step.p50_us": _percentile(step_durations, 0.50) * 1e6,
        "solver.step.p99_us": _percentile(step_durations, 0.99) * 1e6,
        "io.write_snapshot.self_ms_per_call": (
            self_total["io.write_snapshot"] * 1e3 / n_snap if n_snap else 0.0),
        "io.write_snapshot.bytes_per_call": (
            sum(tracer.snapshot_bytes) / n_snap if n_snap else 0.0),
        "setup.import_s": self_total.get("setup.import", 0.0),
        "trace.span_coverage": covered / wall,
        "trace.unattributed_ms": (wall - covered) * 1e3,
        "trace.post_ms": self_total.get(POST, 0.0) * 1e3,
    })
    return metrics


def dump(tracer, path):
    """Write the spans as JSON lines: name, start_s, end_s, parent index."""
    import json
    with open(path, "w") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps([name, start, end, parent]) + "\n")
