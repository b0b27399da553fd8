"""What a result is recorded with: the machine, the problem and the layer metrics."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess

import numpy as np
import scipy

from stabsim import dynamics
from spans import layer_totals

# per-layer fields reported for each span name: "calls", "s" (wall time in the
# layer, nested same-layer calls counted once) or "self_s" (minus child spans)
LAYER_FIELDS = {
    "hilbert.operators": ("calls", "s"),
    "hilbert.state_check": ("calls", "s"),
    "hilbert.partial_trace": ("calls", "self_s"),
    "hilbert.eigendecompose": ("calls", "s"),
    "builders.hamiltonian": ("calls", "self_s"),
    "builders.plan": ("calls", "self_s"),
    "builders.lindblad": ("calls", "self_s"),
    "dynamics.liouvillian": ("calls", "s"),
    "dynamics.steady_state": ("calls", "self_s", "ms_p50", "ms_tail", "ms_tail_pct", "samples",
                              "residual_max"),
    "dynamics.evolve": ("calls", "self_s", "steps", "steps_per_s"),
    "dynamics.evolve_schedule": ("self_s",),
    "dynamics.fit": ("calls", "s"),
    "targets.metrics": ("calls", "s"),
    "ratemodel": ("calls", "s"),
    "tomography.simulate": ("calls", "self_s"),
    "tomography.reconstruct": ("calls", "self_s"),
    "calibration.load": ("calls", "s"),
    "scenarios.run": ("self_s",),
    "scenarios.write": ("s",),
    "cli": ("self_s",),
}
UNITS = {"calls": "count", "s": "s", "self_s": "s", "ms_p50": "ms", "ms_tail": "ms",
         "ms_tail_pct": "%", "samples": "count", "residual_max": "abs", "steps": "count",
         "steps_per_s": "1/s"}
TAIL_BEYOND = 10


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine(root: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": _git_sha(root),
    }


def _evolve_args(capture) -> tuple:
    problem, grid = capture.args[0], capture.args[2]
    max_step = capture.kwargs.get("max_step", capture.args[4] if len(capture.args) > 4 else None)
    return problem, np.asarray(grid, dtype=float), max_step


def rk4_steps(capture) -> list:
    """RK4 steps per grid interval of one evolve call, as evolve subdivides it."""
    problem, grid, max_step = _evolve_args(capture)
    step = max_step if max_step is not None else dynamics.default_step(problem)
    return [max(1, int(math.ceil((t1 - t0) / step - 1e-12))) for t0, t1 in zip(grid, grid[1:])]


def problem_descriptors(outputs: list, host: dict) -> dict:
    """Size of the problem a workload poses, computed from its first pass."""
    captures = [c for o in outputs for c in o.captures]
    problems = [c.args[0] for c in captures
                if c.name in ("dynamics.steady_state", "dynamics.evolve")]
    steps = sorted({n for c in captures if c.name == "dynamics.evolve" for n in rk4_steps(c)})
    out = {"rows_per_pass": sum(len(o.rows) for o in outputs), "rk4_steps_per_interval": steps}
    if problems:
        gen = dynamics.liouvillian(problems[0])
        out.update(d=problems[0].layout.total_dim, generator_bytes=int(gen.nbytes),
                   liouvillian_nonzero_fraction=float(np.count_nonzero(gen) / gen.size))
        for level in ("l2", "l3"):
            if host.get(f"{level}_bytes"):
                out[f"generator_over_{level}"] = gen.nbytes / host[f"{level}_bytes"]
    return out


def tail(values_ms: list) -> tuple:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum is
    reported at percentile 100.
    """
    ordered = sorted(values_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return (ordered[-1] if ordered else 0.0), 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def pass_layers(outputs: list) -> dict:
    """What one traced pass contributes to the per-layer metrics."""
    totals: dict = {}
    for o in outputs:
        for name, values in layer_totals(o.spans).items():
            totals[name] = [a + b for a, b in zip(totals.get(name, (0, 0.0, 0.0)), values)]
    return {
        "totals": totals,
        "steady_ms": [1e3 * (s.end - s.start) for o in outputs for s in o.spans
                      if s.name == "dynamics.steady_state"],
        "steps": sum(sum(rk4_steps(c)) for o in outputs for c in o.captures
                     if c.name == "dynamics.evolve"),
        "failed_jobs": sum(o.failed_jobs for o in outputs),
    }


def layer_metrics(passes: list, residuals: list) -> dict:
    """Per-layer metrics as means per traced pass, from `pass_layers` results."""
    n = len(passes)
    sums: dict = {}
    for p in passes:
        for name, values in p["totals"].items():
            sums[name] = [a + b for a, b in zip(sums.get(name, (0, 0.0, 0.0)), values)]
    steady_ms = [ms for p in passes for ms in p["steady_ms"]]
    steps = sum(p["steps"] for p in passes) / n
    tail_ms, tail_pct = tail(steady_ms)
    evolve_self = sums.get("dynamics.evolve", (0, 0.0, 0.0))[2] / n
    extra = {
        "dynamics.steady_state": {
            "ms_p50": statistics.median(steady_ms) if steady_ms else 0.0,
            "ms_tail": tail_ms,
            "ms_tail_pct": tail_pct,
            "samples": len(steady_ms),
            "residual_max": max(residuals, default=0.0),
        },
        "dynamics.evolve": {"steps": steps, "steps_per_s": steps / evolve_self if evolve_self else 0.0},
    }
    metrics = {}
    for name, fields in LAYER_FIELDS.items():
        calls, seconds, self_s = sums.get(name, (0, 0.0, 0.0))
        values = {"calls": calls / n, "s": seconds / n, "self_s": self_s / n}
        values.update(extra.get(name, {}))
        for field in fields:
            metrics[f"{name}.{field}"] = (values[field], UNITS[field])
        if name == "scenarios.run":
            metrics["scenarios.failed_jobs"] = (sum(p["failed_jobs"] for p in passes) / n, "count")
    return metrics
