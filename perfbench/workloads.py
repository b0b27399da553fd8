"""Seeded workloads: a seed becomes the inputs of one pass.

Every pass of a workload runs the same inputs. The seed picks grid points,
families and orders, never the amount of work, so two seeds cost the same
and their run-to-run spread shows the machine, not the inputs.

Scenario sweeps run whole through the public entry point
``stabsim.cli.main(["run", ...])`` with ``--workers 1``, so a later change
that batches a sweep shows its effect. Functions are looked up on their
module at call time, so the benchmark's wrappers see these calls too.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from stabsim import calibration, cli, scenarios, targets, tomography

# candidate grid values the seed draws from; every one runs without a failed job
THETA_STARTS_DEG = (5.0, 6.0, 7.0, 8.0, 9.0)
TPHI_US = (2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 70.0, 100.0, 150.0)
KAPPA_OVER_W = (0.25, 0.35, 0.5, 0.7, 1.0, 1.4, 2.0, 2.8, 4.0)
MAP_OMEGA_MHZ = tuple(round(0.5 * k, 6) for k in range(1, 22))
MAP_KAPPA_MHZ = tuple(round(0.2 + 0.1 * k, 6) for k in range(21))
A1_OVER_OMEGA = tuple(round(0.1 * k, 6) for k in range(21))
RABI_GRID = tuple(round(0.05 * k, 6) for k in range(21))

TOMOGRAPHY_ROWS = 20
TOMOGRAPHY_COLUMNS = ("family", "noise", "fidelity_true", "fidelity_estimate", "purity_estimate")


@dataclass(frozen=True)
class Sweep:
    """One scenario config and the jobs and rows it must produce."""

    name: str
    config: dict
    jobs: int
    rows: int


def _sample(rng: random.Random, values, k: int) -> list:
    return sorted(rng.sample(list(values), k))


def _steady_d2(rng: random.Random) -> list:
    start, rate_start = rng.choice(THETA_STARTS_DEG), rng.choice(THETA_STARTS_DEG)
    return [
        Sweep("theta_spectroscopy", {
            "kind": "theta_spectroscopy", "family": rng.choice(["psi", "phi"]),
            "swap_colors": rng.random() < 0.5,
            "grid": {"start_deg": start, "stop_deg": start + 160.0, "step_deg": 20.0},
        }, 9, 9),
        Sweep("tphi_sweep", {
            "kind": "tphi_sweep", "w_convention": rng.choice(["as_listed", "double_listed"]),
            "grid": {"tphi_us": _sample(rng, TPHI_US, 4)},
        }, 8, 8),
        Sweep("kappa_sweep", {
            "kind": "kappa_sweep", "grid": {"kappa_over_w": _sample(rng, KAPPA_OVER_W, 3)},
        }, 6, 6),
        Sweep("dressed_parity_sweep", {
            "kind": "dressed_parity_sweep", "grid": {"a1_over_omega": _sample(rng, A1_OVER_OMEGA, 5)},
        }, 10, 10),
        Sweep("rate_model_compare", {
            "kind": "rate_model_compare", "family": rng.choice(["psi", "phi"]),
            "grid": {"start_deg": rate_start, "stop_deg": rate_start + 160.0, "step_deg": 40.0},
        }, 5, 5),
        Sweep("omega_kappa_map", {
            "kind": "omega_kappa_map", "family": rng.choice(["psi", "phi"]),
            "grid": {"omega_mhz": _sample(rng, MAP_OMEGA_MHZ, 4),
                     "kappa_mhz": _sample(rng, MAP_KAPPA_MHZ, 3)},
        }, 12, 12),
        Sweep("rabi_dressed_map", {
            "kind": "rabi_dressed_map", "grid": {"delta_over_omega": _sample(rng, RABI_GRID, 3),
                                                 "a1_over_omega": _sample(rng, RABI_GRID, 4)},
        }, 12, 12),
    ]


def _trace_d2(rng: random.Random) -> list:
    # both families run: their RK4 step counts differ by half, so letting the
    # seed pick one would make the pass cost depend on the seed
    families = ["psi", "phi"]
    rng.shuffle(families)
    first = rng.choice(["even", "odd"])
    other = "odd" if first == "even" else "even"
    odd_durations = [10.0, 12.5]
    rng.shuffle(odd_durations)
    segments = []
    for parity in (first, other, first, other):
        duration = odd_durations.pop() if parity == "odd" else 10.0
        segments.append({"parity": parity, "duration_us": duration})
    sweeps = [
        Sweep(f"time_domain_{family}", {
            "kind": "time_domain", "family": family, "grid": {"t_max_us": 15.0, "dt_us": 0.25},
        }, 1, 61)
        for family in families
    ]
    sweeps.append(Sweep("parity_switch", {
        "kind": "parity_switch", "segments": segments, "fit_window_us": 8.0,
    }, 1, 426))
    return sweeps


def _mixed_d3(rng: random.Random) -> list:
    family = rng.choice(["psi", "phi"])
    theta = rng.choice(THETA_STARTS_DEG) + 10.0 * rng.randrange(17)
    points = {
        "theta_spectroscopy": {"family": family, "swap_colors": rng.random() < 0.5,
                               "grid": {"start_deg": theta, "stop_deg": theta, "step_deg": 10.0}},
        "tphi_sweep": {"families": [family], "grid": {"tphi_us": [rng.choice(TPHI_US)]}},
        "kappa_sweep": {"families": [family], "grid": {"kappa_over_w": [rng.choice(KAPPA_OVER_W)]}},
        "omega_kappa_map": {"family": family, "grid": {"omega_mhz": [rng.choice(MAP_OMEGA_MHZ)],
                                                       "kappa_mhz": [rng.choice(MAP_KAPPA_MHZ)]}},
        "dressed_parity_sweep": {"branches": [rng.choice(["blue", "red"])],
                                 "grid": {"a1_over_omega": [rng.choice(A1_OVER_OMEGA)]}},
        "rabi_dressed_map": {"grid": {"delta_over_omega": [rng.choice(RABI_GRID)],
                                      "a1_over_omega": [rng.choice(RABI_GRID)]}},
    }
    kind = rng.choice(sorted(points))
    return [
        Sweep(kind, dict(points[kind], kind=kind, resonator_dim=3), 1, 1),
        Sweep("time_domain_psi", {
            "kind": "time_domain", "family": "psi", "resonator_dim": 3,
            "grid": {"t_max_us": 0.5, "dt_us": 0.25},
        }, 1, 3),
    ]


# one small job run once during set-up
STEADY_WARMUP = Sweep("warmup", {"kind": "tphi_sweep", "families": ["psi"],
                                 "grid": {"tphi_us": [20.0]}}, 1, 1)
TRACE_WARMUP = Sweep("warmup", {"kind": "time_domain",
                                "grid": {"t_max_us": 0.5, "dt_us": 0.25}}, 1, 3)

# workload -> (seeded sweep generator, tomography reconstructions per pass, warm-up)
WORKLOADS = {
    "steady_d2": (_steady_d2, 0, STEADY_WARMUP),
    "trace_d2": (_trace_d2, 0, TRACE_WARMUP),
    "mixed_d3": (_mixed_d3, TOMOGRAPHY_ROWS, STEADY_WARMUP),
}


@dataclass
class SweepOutput:
    """What one sweep of one pass produced."""

    sweep: Sweep
    exit_code: int
    columns: tuple
    rows: list
    failed_jobs: int
    spans: list
    captures: list
    tomography: object = None  # the TomographyJobs whose estimates these rows are
    estimates: list = ()


def read_rows(csv_path: str) -> tuple:
    """Header and rows of a result.csv, numbers parsed as floats."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        columns = tuple(next(reader))
        rows = []
        for record in reader:
            row = []
            for cell in record:
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
            rows.append(tuple(row))
    return columns, rows


class Workload:
    """Scenario sweeps run through the CLI, then optional tomography jobs."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed = name, seed
        make_sweeps, tomography_rows, self.warmup = WORKLOADS[name]
        rng = random.Random(seed)
        self.sweeps = make_sweeps(rng)
        self.tomography = TomographyJobs(rng, tomography_rows) if tomography_rows else None
        self.workdir = workdir

    def _all_sweeps(self) -> list:
        return self.sweeps + ([self.tomography.sweep] if self.tomography else [])

    @property
    def rows_per_pass(self) -> int:
        return sum(s.rows for s in self._all_sweeps())

    @property
    def jobs_per_pass(self) -> int:
        return sum(s.jobs for s in self._all_sweeps())

    def setup(self) -> None:
        """Write and validate the configs, load the device table, warm up."""
        os.makedirs(self.workdir, exist_ok=True)
        for sweep in self.sweeps:
            scenarios.validate_config(sweep.config)
            self._write_config(sweep)
        calibration.load_device_table()
        self._write_config(self.warmup)
        if self._run(self.warmup) != 0:
            raise RuntimeError("the warm-up job failed")
        if self.tomography:
            self.tomography.setup()

    def _config_path(self, sweep: Sweep) -> str:
        return os.path.join(self.workdir, f"{sweep.name}.json")

    def _out_dir(self, sweep: Sweep) -> str:
        return os.path.join(self.workdir, sweep.name)

    def _write_config(self, sweep: Sweep) -> None:
        with open(self._config_path(sweep), "w", encoding="utf-8") as fh:
            json.dump(sweep.config, fh, sort_keys=True)

    def _run(self, sweep: Sweep) -> int:
        argv = ["run", self._config_path(sweep), "--out", self._out_dir(sweep), "--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def run_pass(self, tracer, clock) -> tuple:
        """Run every sweep and tomography job once; returns (seconds, outputs)."""
        codes, captures = [], []
        start = clock()
        for sweep in self.sweeps:
            codes.append(self._run(sweep))
            captures.append(tracer.take())
        tomography_output = self.tomography.run(tracer) if self.tomography else None
        seconds = clock() - start
        outputs = []
        for sweep, code, (spans, caps) in zip(self.sweeps, codes, captures):
            columns, rows = read_rows(os.path.join(self._out_dir(sweep), "result.csv"))
            with open(os.path.join(self._out_dir(sweep), "summary.json"), encoding="utf-8") as fh:
                failed = len(json.load(fh)["metadata"]["failed_jobs"])
            outputs.append(SweepOutput(sweep, code, columns, rows, failed, spans, caps))
        if tomography_output:
            outputs.append(tomography_output)
        return seconds, outputs


def _tomography_target(rng: random.Random):
    family = rng.choice(["psi_theta", "phi_theta", "product", "dressed_parity", "rabi_dressed"])
    if family == "psi_theta":
        return family, targets.psi_theta(rng.uniform(0.05, math.pi - 0.05))
    if family == "phi_theta":
        return family, targets.phi_theta(rng.uniform(0.05, math.pi - 0.05))
    if family == "product":
        return family, targets.product_state(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
    if family == "dressed_parity":
        return family, targets.dressed_parity_state(rng.uniform(0.05, math.pi - 0.05))
    omega = 2.0 * math.pi * 5.0
    _, target = targets.rabi_dressed_state(rng.uniform(0, 1) * omega, rng.uniform(0, 1) * omega,
                                           omega)
    return family, target


class TomographyJobs:
    """Seeded noisy members of the target families through simulated tomography.

    Readout fidelities come from the bundled device table, which each pass
    loads again. The table holds no shot count, so the settings keep the
    default shots per setting.
    """

    def __init__(self, rng: random.Random, count: int):
        self.jobs = []
        for _ in range(count):
            family, target = _tomography_target(rng)
            self.jobs.append((family, target, rng.uniform(0.0, 0.3), rng.randrange(2**31)))
        self.sweep = Sweep("tomography", {}, count, count)
        self.states = [(1.0 - p) * target.density() + p * np.eye(4) / 4.0
                       for _, target, p, _ in self.jobs]

    def setup(self) -> None:
        self.device = calibration.load_device_table()
        self._reconstruct(self.device, 0)

    def settings(self, index: int, device=None):
        fid = (device or self.device).readout_fidelity
        return tomography.TomographySettings(
            readout_fidelity_q1=fid["q1"], readout_fidelity_q2=fid["q2"],
            rng_seed=self.jobs[index][3],
        )

    def _reconstruct(self, device, index: int):
        family, target, p, _ = self.jobs[index]
        rho = self.states[index]
        counts = tomography.simulate_tomography(rho, self.settings(index, device))
        estimate = tomography.reconstruct(counts)
        row = (family, p, targets.fidelity(rho, target), targets.fidelity(estimate, target),
               targets.purity(estimate))
        return row, estimate

    def run(self, tracer) -> SweepOutput:
        device = calibration.load_device_table()
        rows, estimates = zip(*(self._reconstruct(device, i) for i in range(len(self.jobs))))
        spans, _ = tracer.take()
        return SweepOutput(self.sweep, 0, TOMOGRAPHY_COLUMNS, list(rows), 0, spans, [], self,
                           list(estimates))
