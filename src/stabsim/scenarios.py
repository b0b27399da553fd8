"""Config-driven scenario runner for the stabilization experiments.

Each scenario kind reproduces one figure-level experiment: a
stabilization time trace, blending-angle spectroscopy, dissipative
parity switching, or one of the robustness / manifold sweeps.  Configs
are plain JSON with frequencies in MHz (value = omega / 2 pi) and times
in microseconds; all physics runs in rad/us internally.

A scenario kind is one entry of :data:`KINDS`: its defaults, CSV
columns, job list and point function, plus optional validation and
summary hooks and the rate-model inputs of a job.

Grid points are embarrassingly parallel: every point is computed from
(config, index) alone and results are merged by index, so output files
are byte-identical regardless of the worker count.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import __version__
from .builders import (
    RECIPES,
    NoiseSpec,
    RabiDrive,
    SidebandDrive,
    build_even_parity_system,
    build_from_plan,
    build_lindblad,
    build_odd_parity_system,
    build_qubit_block,
    plan_stabilization,
)
from .dynamics import (
    DriveSchedule,
    FitError,
    ScheduleSegment,
    evolve,
    evolve_schedule,
    fit_time_constant,
    steady_state,
)
from .hilbert import DensityMatrix, SpaceLayout, partial_trace
from .ratemodel import refilling_rate, steady_fidelity
from .targets import (
    bell_phi_minus,
    bell_psi_minus,
    delta_for_blending_angle,
    dressed_parity_state,
    dressing_angle,
    fidelity,
    parity_signature,
    phi_theta,
    psi_theta,
    purity,
    rabi_dressed_block,
)

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Scenario configuration violates the schema."""


# drive sets measured for the two Bell-state stabilization experiments
FAMILY_DRIVES = {
    "psi": {"omega_mhz": 2.0, "w1_mhz": 0.47, "w2_mhz": 0.47, "delta_mhz": 0.0},
    "phi": {"omega_mhz": 3.0, "w1_mhz": 0.36, "w2_mhz": 0.36, "delta_mhz": 0.0},
}

# drive sets of the dephasing-robustness sweep (one per family)
ROBUSTNESS_DRIVES = {
    "psi": {"omega_mhz": 1.4, "w1_mhz": 0.35, "w2_mhz": 0.35},
    "phi": {"omega_mhz": 3.0, "w1_mhz": 0.32, "w2_mhz": 0.32},
}

MEASURED_NOISE = {
    "kappa1_mhz": 0.33,
    "kappa2_mhz": 0.43,
    "t1_us": [25.0, 12.0],
    "tphi_us": [25.0, 25.0],
}

ROBUSTNESS_NOISE = {
    "kappa1_mhz": 0.30,
    "kappa2_mhz": 0.33,
    "t1_us": [21.0, 9.0],
    "tphi_us": None,
}

MANIFOLD_NOISE = {
    "kappa1_mhz": 0.30,
    "kappa2_mhz": 0.33,
    "t1_us": [30.0, 30.0],
    "tphi_us": [30.0, 30.0],
}

MANIFOLD_DRIVES = {"omega_mhz": 5.0, "w1_mhz": 0.5, "w2_mhz": 0.5}

_THETA_GRID_DEFAULT = {"start_deg": 5.0, "stop_deg": 175.0, "step_deg": 5.0}

# the last three columns of every solver versus rate-model table
_COMPARISON = ("lindblad_fidelity", "rate_fidelity", "abs_difference")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _number(test: Callable, what: str) -> tuple:
    return (lambda v: _is_number(v) and test(v), "a finite number" + what)


def _whole(minimum: int) -> tuple:
    return _number(lambda v: v == int(v) and v >= minimum, f" that is whole and >= {minimum}")


def _one_of(*allowed) -> tuple:
    return (lambda v: v in allowed, f"one of {allowed}")


# field name -> (test, description) for every value outside the noise block:
# rates and times must be positive, ratio grids non-negative (0 is in their
# defaults), detunings and angles finite
_FIELD_RULES = {
    "seed": _whole(0),
    "resonator_dim": _whole(2),
    "swap_colors": (lambda v: isinstance(v, bool), "true or false"),
    **dict.fromkeys(("omega_mhz", "w1_mhz", "w2_mhz", "tphi_us", "kappa_mhz", "kappa_over_w",
                     "t_max_us", "dt_us", "duration_us", "fit_window_us", "step_deg"),
                    _number(lambda v: v > 0, " > 0")),
    **dict.fromkeys(("a1_over_omega", "delta_over_omega"), _number(lambda v: v >= 0, " >= 0")),
    **dict.fromkeys(("start_deg", "stop_deg"), _number(lambda v: 0 < v < 180, " in (0, 180)")),
    "delta_mhz": _number(lambda v: True, ""),
    **dict.fromkeys(("family", "families"), _one_of("psi", "phi")),
    "branches": _one_of("blue", "red"),
    "w_convention": _one_of("as_listed", "double_listed"),
    "parity": _one_of("even", "odd"),
}


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        _require(key in base, f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            _require(isinstance(value, dict), f"{path + key!r} must be an object")
            out[key] = _merge(base[key], value, path + key + ".")
        else:
            # noise entries may be a number or a pair; elsewhere lists stay lists
            listed = isinstance(base[key], list)
            _require(path == "noise." or isinstance(value, list) == listed,
                     f"{path + key!r} must {'' if listed else 'not '}be a list")
            out[key] = value
    return out


def _check_fields(node, field: Optional[str] = None, path: str = ""):
    """Apply ``_FIELD_RULES`` below `node` and reject empty or nested lists
    (noise aside: :func:`_noise_from_config` checks it)."""
    if isinstance(node, list):
        _require(len(node) > 0, f"{path[:-1]} must not be empty")
        for i, value in enumerate(node):
            _require(not isinstance(value, list), f"{path[:-1]} must not hold lists")
            _check_fields(value, field, f"{path[:-1]}[{i}].")
    elif field in _FIELD_RULES:
        ok, what = _FIELD_RULES[field]
        _require(ok(node), f"{path[:-1]} must be {what}, got {node!r}")
    elif isinstance(node, dict):
        for key, value in node.items():
            if key != "noise":
                _check_fields(value, key, f"{path}{key}.")


def default_config(kind: str) -> dict:
    """Fully-populated default configuration for a scenario kind."""
    # a JSON list or object is unhashable, so test the type before the dict lookup
    _require(isinstance(kind, str) and kind in KINDS, f"unknown scenario kind {kind!r}; see list-scenarios")
    # a deep copy, so callers never share the module's default constants
    return {"kind": kind, "seed": 0, "resonator_dim": 2, **copy.deepcopy(KINDS[kind].defaults)}


def validate_config(raw: dict) -> dict:
    """Merge a raw config over the kind defaults and check the schema."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    _require("kind" in raw, "config needs a 'kind' field")
    cfg = _merge(default_config(raw["kind"]), raw)
    _check_fields(cfg)
    cfg["seed"], cfg["resonator_dim"] = int(cfg["seed"]), int(cfg["resonator_dim"])
    try:
        _noise_from_config(cfg["noise"])
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc
    check = KINDS[cfg["kind"]].check
    if check is not None:
        check(cfg, raw)
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _noise_times(value, name: str) -> tuple:
    """A time or a pair of times (us); Infinity turns the channel off."""
    pair = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, value)
    _require(all(_is_number(v) or v == math.inf for v in pair),
             f"{name} must be a number or a pair of numbers, got {value!r}")
    return float(pair[0]), float(pair[1])


def _noise_from_config(noise: dict) -> NoiseSpec:
    for key in ("kappa1_mhz", "kappa2_mhz"):
        _require(_is_number(noise[key]), f"{key} must be a finite number, got {noise[key]!r}")
    t1 = _noise_times(noise["t1_us"], "t1_us")
    # a null Tphi turns dephasing off, like an infinite one
    tphi = _noise_times(math.inf if noise["tphi_us"] is None else noise["tphi_us"], "tphi_us")
    return NoiseSpec(TWO_PI * float(noise["kappa1_mhz"]), TWO_PI * float(noise["kappa2_mhz"]),
                     t1_q1=t1[0], t1_q2=t1[1], tphi_q1=tphi[0], tphi_q2=tphi[1])


def _drives_rad(drives: dict) -> dict:
    return {
        "omega": TWO_PI * float(drives["omega_mhz"]),
        "w1": TWO_PI * float(drives["w1_mhz"]),
        "w2": TWO_PI * float(drives["w2_mhz"]),
        "delta": TWO_PI * float(drives.get("delta_mhz", 0.0)),
    }


def _family_drives(cfg: dict, family: str) -> dict:
    """One family's listed drives, with W doubled under ``double_listed``."""
    drives = dict(cfg["drives"][family])
    if cfg.get("w_convention") == "double_listed":
        drives["w1_mhz"] = 2.0 * drives["w1_mhz"]
        drives["w2_mhz"] = 2.0 * drives["w2_mhz"]
    return drives


def _bell_problem(family: str, d: dict, noise: NoiseSpec, layout: SpaceLayout):
    """The Bell recipe of `family` at rad/us drives `d`, and its target."""
    if family == "psi":
        h = build_even_parity_system(d["omega"], d["delta"], d["w1"], d["w2"], layout)
        return build_lindblad(h, noise), bell_psi_minus()
    h = build_odd_parity_system(d["omega"], d["delta"], d["w1"], d["w2"], layout)
    return build_lindblad(h, noise), bell_phi_minus()


def _ground_state(layout: SpaceLayout) -> DensityMatrix:
    return DensityMatrix.from_ket(layout, layout.basis_state([0] * len(layout.subsystems)))


# blending family -> (qubit-qubit color, qubit-resonator colors, swapped colors, target)
_BLENDING = {
    "psi": ("blue", ("blue", "blue"), ("red", "red"), psi_theta),
    "phi": ("red", ("blue", "red"), ("red", "blue"), phi_theta),
}


def _qubit_state(state: DensityMatrix) -> np.ndarray:
    return partial_trace(state, {"q1", "q2"}).entries


def _planned_qubit_state(hqq, d: dict, colors: tuple, noise: NoiseSpec, layout: SpaceLayout):
    """Reduced two-qubit steady state of a planned stabilization of `hqq`,
    and the plan's target (the ground state of `hqq`)."""
    plan = plan_stabilization(hqq, d["w1"], d["w2"], colors)
    rq = _qubit_state(steady_state(build_lindblad(build_from_plan(plan, layout), noise)))
    return rq, plan.target


def _theta_values(grid: dict) -> list:
    start, stop, step = grid["start_deg"], grid["stop_deg"], grid["step_deg"]
    n = int(round((stop - start) / step)) + 1
    return [round(start + k * step, 9) for k in range(n) if start + k * step <= stop + 1e-9]


# ---------------------------------------------------------------------------
# per-kind job lists, point functions and hooks


def _single_job(cfg: dict) -> list:
    return [None]


def _theta_jobs(cfg: dict) -> list:
    return [("point", t) for t in _theta_values(cfg["grid"])]


def _check_theta_grid(cfg: dict, raw: dict):
    # with the field rules: step > 0 and 0 < start <= stop < 180
    _require(cfg["grid"]["start_deg"] <= cfg["grid"]["stop_deg"], "theta grid needs start <= stop")


def _pull_family_drives(cfg: dict, raw: dict):
    # a named family's drives, with any listed in the raw config on top
    if "family" in raw:
        cfg["drives"] = _merge(FAMILY_DRIVES[cfg["family"]], raw.get("drives", {}), "drives.")


def _check_rate_model_compare(cfg: dict, raw: dict):
    _check_theta_grid(cfg, raw)
    _pull_family_drives(cfg, raw)


def _check_segments(cfg: dict, raw: dict):
    for i, seg in enumerate(cfg["segments"]):
        _require(isinstance(seg, dict) and {"parity", "duration_us"} <= seg.keys(),
                 "every segment needs a parity and a duration_us")
        for key in seg:
            _require(key in ("parity", "duration_us"), f"unknown config key 'segments[{i}].{key}'")


def _time_domain_point(cfg: dict, job, layout: SpaceLayout, noise: NoiseSpec) -> list:
    problem, target = _bell_problem(cfg["family"], _drives_rad(cfg["drives"]), noise, layout)
    dt = cfg["grid"]["dt_us"]
    grid = np.arange(0.0, cfg["grid"]["t_max_us"] + 1e-9 * dt, dt)
    traj = evolve(problem, _ground_state(layout), grid, target=target)
    return [(float(t), float(f), float(p), float(par))
            for t, f, p, par in zip(traj.times, traj.fidelity, traj.purity, traj.parity)]


def _parity_switch_point(cfg: dict, job, layout: SpaceLayout, noise: NoiseSpec) -> list:
    segments = tuple(
        ScheduleSegment(seg["duration_us"], seg["parity"] + "_parity",
                        **_drives_rad(cfg["drives"][seg["parity"]]))
        for seg in cfg["segments"]
    )
    schedule = DriveSchedule(segments, _ground_state(layout), noise)
    dt = cfg["grid"]["dt_us"]
    grid = np.arange(0.0, schedule.total_duration + 1e-9 * dt, dt)
    traj = evolve_schedule(schedule, grid)
    psi_m, phi_m = bell_psi_minus(), bell_phi_minus()
    rows = []
    for t, reduced in zip(traj.times, partial_trace(traj.states, {"q1", "q2"})):
        rq = reduced.entries
        rows.append((float(t), parity_signature(rq), fidelity(rq, psi_m), fidelity(rq, phi_m)))
    return rows


def _fit_switches(cfg: dict, named: dict) -> dict:
    times = np.asarray(named["t_us"])
    parity = np.asarray(named["parity"])
    window = cfg["fit_window_us"]
    fits = []
    t_switch = 0.0
    segments = cfg["segments"]
    for seg, following in zip(segments, segments[1:]):
        t_switch += seg["duration_us"]
        mask = (times >= t_switch) & (times <= t_switch + min(window, following["duration_us"]))
        if mask.sum() < 5:
            continue
        try:
            fit = fit_time_constant(times[mask], parity[mask])
        except FitError:  # no time constant in this window
            continue
        fits.append({"switch_t_us": t_switch, "to_parity": following["parity"],
                     "tau_us": fit.tau, "residual": fit.residual})
    return {"switch_fits": fits}


def _theta_inputs(cfg: dict, job, noise: NoiseSpec) -> tuple:
    return cfg["family"], _drives_rad(cfg["drives"]), noise, math.radians(job[1])


def _theta_spectroscopy_point(cfg: dict, job, layout: SpaceLayout, noise: NoiseSpec) -> list:
    family, d, noise, theta = _theta_inputs(cfg, job, noise)
    delta = delta_for_blending_angle(d["omega"], theta)
    qq_color, colors, swapped, target = _BLENDING[family]
    hqq = build_qubit_block(qq=SidebandDrive(qq_color, d["omega"], delta))
    rq, _ = _planned_qubit_state(hqq, d, swapped if cfg.get("swap_colors") else colors,
                                 noise, layout)
    target = target(theta)
    return [(job[1], delta / TWO_PI, fidelity(rq, target), purity(rq), parity_signature(rq))]


def _with_kappa(noise: NoiseSpec, kappa_mhz: float) -> NoiseSpec:
    return replace(noise, kappa1=TWO_PI * kappa_mhz, kappa2=TWO_PI * kappa_mhz)


def _tphi_inputs(cfg: dict, job, noise: NoiseSpec) -> tuple:
    family, tphi = job[0], float(job[1])
    noise = replace(noise, tphi_q1=tphi, tphi_q2=tphi)
    return family, _drives_rad(_family_drives(cfg, family)), noise, math.pi / 2.0


def _kappa_inputs(cfg: dict, job, noise: NoiseSpec) -> tuple:
    family, ratio = job
    drives = _family_drives(cfg, family)
    noise = _with_kappa(noise, ratio * float(drives["w1_mhz"]))
    return family, _drives_rad(drives), noise, math.pi / 2.0


def _omega_kappa_inputs(cfg: dict, job, noise: NoiseSpec) -> tuple:
    om_mhz, kappa_mhz = job
    drives = _drives_rad({"omega_mhz": om_mhz, "w1_mhz": kappa_mhz, "w2_mhz": kappa_mhz})
    return cfg["family"], drives, _with_kappa(noise, kappa_mhz), math.pi / 2.0


def _bell_steady(cfg: dict, job, layout: SpaceLayout, noise: NoiseSpec):
    """Reduced steady state and target of the job's Bell recipe."""
    family, d, noise, _ = KINDS[cfg["kind"]].inputs(cfg, job, noise)
    problem, target = _bell_problem(family, d, noise, layout)
    return _qubit_state(steady_state(problem)), target


def _tphi_point(cfg: dict, job, layout: SpaceLayout, noise: NoiseSpec) -> list:
    rq, target = _bell_steady(cfg, job, layout, noise)
    return [(job[0], float(job[1]), fidelity(rq, target), purity(rq))]


def _kappa_point(cfg: dict, job, layout: SpaceLayout, noise: NoiseSpec) -> list:
    family, ratio = job
    kappa_mhz = ratio * float(_family_drives(cfg, family)["w1_mhz"])
    rq, target = _bell_steady(cfg, job, layout, noise)
    return [(family, float(ratio), kappa_mhz, fidelity(rq, target), purity(rq))]


def _kappa_peaks(cfg: dict, named: dict) -> dict:
    points = list(zip(named["family"], named["kappa_over_w"], named["fidelity"]))
    peak = {}
    for fam in cfg["families"]:
        best = max((p for p in points if p[0] == fam), key=lambda p: p[2], default=None)
        if best is not None:
            peak[fam] = {"kappa_over_w": best[1], "fidelity": best[2]}
    return {"peak": peak}


def _omega_kappa_point(cfg: dict, job, layout: SpaceLayout, noise: NoiseSpec) -> list:
    rq, target = _bell_steady(cfg, job, layout, noise)
    f = fidelity(rq, target)
    return [(float(job[0]), float(job[1]), f, 1.0 - f)]


def _dressed_parity_point(cfg: dict, job, layout: SpaceLayout, noise: NoiseSpec) -> list:
    branch, a_over_om = job
    d = _drives_rad(cfg["drives"])
    a1 = a_over_om * d["omega"]
    theta1 = dressing_angle(d["omega"], a1, branch)
    target = dressed_parity_state(theta1)
    hqq = build_qubit_block(qq=SidebandDrive(branch, d["omega"], 0.0), rabi_q1=RabiDrive(a1, 0.0))
    # each branch refills like the parity recipe with its qubit-qubit color
    colors = RECIPES["even_parity" if branch == "blue" else "odd_parity"].qr
    rq, _ = _planned_qubit_state(hqq, d, colors, noise, layout)
    return [(branch, float(a_over_om), math.degrees(theta1), fidelity(rq, target), purity(rq))]


def _rabi_dressed_point(cfg: dict, job, layout: SpaceLayout, noise: NoiseSpec) -> list:
    d_over_om, a_over_om = job
    d = _drives_rad(cfg["drives"])
    delta, a1 = d_over_om * d["omega"], a_over_om * d["omega"]
    # the plan's target is rabi_dressed_state's: the block's phase-fixed ground state
    hqq = rabi_dressed_block(delta, a1, d["omega"])
    rq, target = _planned_qubit_state(hqq, d, RECIPES["even_parity"].qr, noise, layout)
    return [(float(d_over_om), float(a_over_om), fidelity(rq, target), purity(rq))]


def _rate_model_point(cfg: dict, job, layout: SpaceLayout, noise: NoiseSpec) -> list:
    f = _theta_spectroscopy_point(cfg, job, layout, noise)[0][2]
    f_rate = _rate_model_fidelity(cfg, job, noise)
    return [(job[1], f, f_rate, abs(f - f_rate))]


def _rate_model_fidelity(cfg: dict, job, noise: NoiseSpec) -> float:
    """Analytic steady-state fidelity of one job with scalar (mean) rates."""
    family, d, noise, theta = KINDS[cfg["kind"]].inputs(cfg, job, noise)
    w = (d["w1"] + d["w2"]) / 2.0
    kappa = (noise.kappa1 + noise.kappa2) / 2.0
    gamma = (1.0 / noise.t1_q1 + 1.0 / noise.t1_q2) / 2.0
    # default odd-family colors refill through the cos^2 branch like the
    # pair-pumping scheme; the swapped combination behaves like exchange
    swapped = family != "psi" and cfg.get("swap_colors")
    color = "red" if swapped else "blue"
    gamma_t = refilling_rate(w, kappa, theta, color)
    return steady_fidelity(gamma_t, gamma, theta, color)


@dataclass(frozen=True)
class KindSpec:
    """Everything the runner knows about one scenario kind.

    `point(cfg, job, layout, noise)` returns the rows of one job from
    `jobs(cfg)`.  Optional hooks: `check(cfg, raw)` validates (and may
    fill in) kind-specific fields, `summary(cfg, named_columns)` adds
    summary entries.  A kind with a rate-model counterpart has
    `inputs(cfg, job, noise)`, the job's (family, rad/us drives, NoiseSpec,
    blending angle), which its point and the rate model both read; with a
    `label`, a format string of the job's fields, :func:`compare_analytic`
    tabulates it.
    """

    mirrors: str
    defaults: dict
    columns: tuple
    jobs: Callable
    point: Callable
    check: Optional[Callable] = None
    summary: Optional[Callable] = None
    inputs: Optional[Callable] = None
    label: Optional[str] = None


KINDS = {
    "time_domain": KindSpec(
        mirrors="Bell-state stabilization fidelity versus time from the ground state",
        defaults={"family": "psi", "drives": FAMILY_DRIVES["psi"], "noise": MEASURED_NOISE,
                  "grid": {"t_max_us": 60.0, "dt_us": 0.25}},
        columns=("t_us", "fidelity", "purity", "parity"),
        jobs=_single_job, point=_time_domain_point, check=_pull_family_drives,
        summary=lambda cfg, named: {"final_fidelity": named["fidelity"][-1]},
    ),
    "theta_spectroscopy": KindSpec(
        mirrors="steady-state fidelity across the blending-angle family",
        # drive strengths follow the manifold sweeps; the measured-device
        # rates are too slow near the dead angle to resolve the full shape
        defaults={"family": "phi", "swap_colors": False,
                  "drives": dict(MANIFOLD_DRIVES, delta_mhz=0.0),
                  "noise": dict(MEASURED_NOISE, tphi_us=None), "grid": _THETA_GRID_DEFAULT},
        columns=("theta_deg", "delta_mhz", "fidelity", "purity", "parity"),
        jobs=_theta_jobs, point=_theta_spectroscopy_point, check=_check_theta_grid,
        inputs=_theta_inputs, label="theta={1:g}deg",
    ),
    "parity_switch": KindSpec(
        mirrors="dissipative switching of the stabilized Bell-state parity",
        defaults={
            "noise": MEASURED_NOISE,
            "segments": [
                {"parity": "even", "duration_us": 20.0},
                {"parity": "odd", "duration_us": 20.0},
                {"parity": "even", "duration_us": 20.0},
                {"parity": "odd", "duration_us": 25.0},
            ],
            "drives": {"even": FAMILY_DRIVES["psi"], "odd": FAMILY_DRIVES["phi"]},
            "grid": {"dt_us": 0.1},
            "fit_window_us": 12.0,
        },
        columns=("t_us", "parity", "fidelity_even", "fidelity_odd"),
        jobs=_single_job, point=_parity_switch_point, check=_check_segments,
        summary=_fit_switches,
    ),
    "tphi_sweep": KindSpec(
        mirrors="steady-state fidelity versus qubit dephasing time",
        defaults={"families": ["psi", "phi"], "drives": ROBUSTNESS_DRIVES,
                  "noise": ROBUSTNESS_NOISE, "w_convention": "as_listed",
                  "grid": {"tphi_us": [2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0]}},
        columns=("family", "tphi_us", "fidelity", "purity"),
        jobs=lambda cfg: [(f, t) for f in cfg["families"] for t in cfg["grid"]["tphi_us"]],
        point=_tphi_point, inputs=_tphi_inputs, label="{0}:tphi={1:g}us",
    ),
    "kappa_sweep": KindSpec(
        mirrors="steady-state fidelity versus resonator decay over sideband rate",
        defaults={"families": ["psi", "phi"], "drives": FAMILY_DRIVES, "noise": ROBUSTNESS_NOISE,
                  "grid": {"kappa_over_w": [0.25, 0.5, 1.0, 2.0, 4.0]}},
        columns=("family", "kappa_over_w", "kappa_mhz", "fidelity", "purity"),
        jobs=lambda cfg: [(f, r) for f in cfg["families"] for r in cfg["grid"]["kappa_over_w"]],
        point=_kappa_point, summary=_kappa_peaks, inputs=_kappa_inputs,
        label="{0}:kappa/W={1:g}",
    ),
    "omega_kappa_map": KindSpec(
        mirrors="fidelity map over qubit-qubit rate and resonator decay at matched W",
        defaults={"family": "psi", "noise": dict(MANIFOLD_NOISE, tphi_us=None),
                  "grid": {"omega_mhz": [round(0.5 * k, 6) for k in range(1, 22)],
                           "kappa_mhz": [round(0.2 + 0.1 * k, 6) for k in range(21)]}},
        columns=("omega_mhz", "kappa_mhz", "fidelity", "infidelity"),
        jobs=lambda cfg: [(om, kap) for om in cfg["grid"]["omega_mhz"]
                          for kap in cfg["grid"]["kappa_mhz"]],
        point=_omega_kappa_point, inputs=_omega_kappa_inputs, label="omega={0:g},kappa={1:g}",
    ),
    "dressed_parity_sweep": KindSpec(
        mirrors="fidelity across the dressed-parity target family",
        defaults={"branches": ["blue", "red"], "drives": MANIFOLD_DRIVES, "noise": MANIFOLD_NOISE,
                  "grid": {"a1_over_omega": [round(0.1 * k, 6) for k in range(21)]}},
        columns=("branch", "a1_over_omega", "theta1_deg", "fidelity", "purity"),
        jobs=lambda cfg: [(b, a) for b in cfg["branches"] for a in cfg["grid"]["a1_over_omega"]],
        point=_dressed_parity_point,
    ),
    "rabi_dressed_map": KindSpec(
        mirrors="fidelity map over the two-parameter Rabi-dressed target family",
        defaults={"drives": MANIFOLD_DRIVES, "noise": MANIFOLD_NOISE,
                  "grid": {"delta_over_omega": [round(0.05 * k, 6) for k in range(21)],
                           "a1_over_omega": [round(0.05 * k, 6) for k in range(21)]}},
        columns=("delta_over_omega", "a1_over_omega", "fidelity", "purity"),
        jobs=lambda cfg: [(d, a) for d in cfg["grid"]["delta_over_omega"]
                          for a in cfg["grid"]["a1_over_omega"]],
        point=_rabi_dressed_point,
    ),
    "rate_model_compare": KindSpec(
        mirrors="solver steady-state fidelity against the analytic rate model",
        defaults={"family": "psi", "drives": FAMILY_DRIVES["psi"],
                  "noise": dict(MEASURED_NOISE, tphi_us=None),
                  "grid": dict(_THETA_GRID_DEFAULT, step_deg=10.0)},
        columns=("theta_deg",) + _COMPARISON,
        jobs=_theta_jobs, point=_rate_model_point, check=_check_rate_model_compare,
        inputs=_theta_inputs,
    ),
}


# ---------------------------------------------------------------------------
# job enumeration and execution


def _run_job(cfg: dict, job) -> list:
    dim = cfg["resonator_dim"]
    layout = SpaceLayout((("q1", 2), ("q2", 2), ("r1", dim), ("r2", dim)))
    return KINDS[cfg["kind"]].point(cfg, job, layout, _noise_from_config(cfg["noise"]))


@dataclass(frozen=True)
class SweepResult:
    """Tabular scenario output plus run metadata and a per-kind summary."""

    kind: str
    columns: tuple
    rows: tuple
    summary: dict
    metadata: dict
    failures: tuple = ()

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _summarize(cfg: dict, columns, rows) -> dict:
    summary: dict = {"row_count": len(rows)}
    if not rows:
        return summary
    named = {c: [r[i] for r in rows] for i, c in enumerate(columns)}
    hook = KINDS[cfg["kind"]].summary
    if hook is not None:
        summary.update(hook(cfg, named))
    if "fidelity" in named:
        summary["max_fidelity"] = max(named["fidelity"])
        summary["min_fidelity"] = min(named["fidelity"])
    return summary


def _job_outcome(cfg: dict, job) -> tuple:
    """(rows, None), or ([], the error) when the job raises."""
    try:
        return _run_job(cfg, job), None
    except Exception as exc:  # noqa: BLE001 - worker errors are data
        return [], f"{type(exc).__name__}: {exc}"


def _collect(future) -> tuple:
    try:
        return future.result()
    except BrokenExecutor as exc:  # the worker died, as under an out-of-memory kill
        return [], f"{type(exc).__name__}: {exc}"


def run_scenario(raw_config: dict, workers: Optional[int] = None) -> SweepResult:
    """Validate, run and summarize one scenario.

    Results are deterministic for a fixed config and seed, and
    independent of `workers` (rows merge by grid index).  `workers` None
    runs serially; an integer below 1 raises :class:`ConfigError`.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    cfg = validate_config(raw_config)
    spec = KINDS[cfg["kind"]]
    jobs = spec.jobs(cfg)
    if workers is not None and workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_job_outcome, cfg, job) for job in jobs]
            outcomes = [_collect(f) for f in futures]
    else:
        outcomes = [_job_outcome(cfg, job) for job in jobs]
    # a failed job has no rows
    rows = [row for job_rows, _ in outcomes for row in job_rows]
    failures = [(i, error) for i, (_, error) in enumerate(outcomes) if error is not None]
    summary = _summarize(cfg, spec.columns, rows)
    metadata = {
        "artifact_version": __version__,
        "kind": cfg["kind"],
        "mirrors": spec.mirrors,
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "seed": cfg["seed"],
        "row_count": len(rows),
        "failed_jobs": [{"index": i, "error": e} for i, e in failures],
    }
    return SweepResult(cfg["kind"], spec.columns, tuple(rows), summary, metadata, tuple(failures))


def write_csv(path, columns, rows):
    """Write a header line and one line per row, floats as %.12g; a cell
    that holds a comma is quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_result(path) -> SweepResult:
    """Read back what :func:`write_result` wrote: `path` is the output
    directory or its result.csv, with summary.json beside it.  Cells that
    parse as numbers come back as floats."""
    if os.path.isdir(path):
        path = os.path.join(path, "result.csv")
    with open(os.path.join(os.path.dirname(path), "summary.json"), encoding="utf-8") as fh:
        saved = json.load(fh)
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    meta = saved.get("metadata") if isinstance(saved, dict) else None
    _require(isinstance(meta, dict) and {"kind", "config", "failed_jobs"} <= meta.keys()
             and "summary" in saved, f"the summary.json beside {path} is not a stabsim summary")
    _require(table and all(len(line) == len(table[0]) for line in table),
             f"{path} is not a stabsim result table")
    rows = tuple(tuple(_cell(c) for c in line) for line in table[1:])
    return SweepResult(meta["kind"], tuple(table[0]), rows, saved["summary"], meta)


def write_result(result: SweepResult, outdir) -> dict:
    """Write result.csv and summary.json; returns the file paths."""
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "result.csv")
    write_csv(csv_path, result.columns, result.rows)
    summary_path = os.path.join(outdir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"metadata": result.metadata, "summary": result.summary},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return {"result_csv": csv_path, "summary_json": summary_path}


def compare_analytic(result: SweepResult):
    """Tabulate solver steady-state fidelities against the rate model.

    Returns (columns, rows) with the absolute difference per grid point.
    Each row is paired with its job (the kind's jobs less the failed
    ones), and the rate model reads that job's inputs, so a result read
    back from disk compares like the one in memory.  Only scenario kinds
    with a `label` support the comparison.
    """
    if result.columns[1:] == _COMPARISON:  # the run already is a comparison
        return result.columns, list(result.rows)
    spec = KINDS.get(result.kind)
    if spec is None or spec.label is None:
        raise ConfigError(f"scenario kind {result.kind!r} has no analytic counterpart")
    cfg = validate_config(result.metadata["config"])
    _require(cfg["kind"] == result.kind,
             f"metadata.kind {result.kind!r} does not match the config's kind {cfg['kind']!r}")
    failures = result.metadata["failed_jobs"]
    _require(isinstance(failures, list)
             and all(isinstance(f, dict) and type(f.get("index")) is int for f in failures),
             f"metadata.failed_jobs must list objects with an integer index, got {failures!r}")
    failed = {f["index"] for f in failures}
    jobs = [job for i, job in enumerate(spec.jobs(cfg)) if i not in failed]
    _require(len(jobs) == len(result.rows),
             f"result has {len(result.rows)} rows but its config gives {len(jobs)} jobs")
    noise = _noise_from_config(cfg["noise"])
    _require("fidelity" in result.columns, f"result has no fidelity column: {result.columns}")
    col = result.columns.index("fidelity")
    bad = [row[col] for row in result.rows if not isinstance(row[col], float)]
    _require(not bad, f"fidelity column holds non-numbers: {bad}")
    rows = []
    for job, row in zip(jobs, result.rows):
        f, f_rate = row[col], _rate_model_fidelity(cfg, job, noise)
        rows.append((spec.label.format(*job), f, f_rate, abs(f - f_rate)))
    return ("label",) + _COMPARISON, rows
