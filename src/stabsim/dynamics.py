"""Lindblad time evolution, steady states and drive schedules.

The master equation

    drho/dt = -i [H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)

is integrated with fixed-step classical 4th-order Runge-Kutta on the
vectorized density matrix.  For this linear, time-independent generator
the RK4 update is exactly the degree-4 truncated exponential, so the
one-step propagator is precomputed once per step size and applied as a
matrix-vector product.  Steady states come from the dense null space of
the vectorized generator (smallest singular vector), Hermitized and
trace-normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import curve_fit

from .builders import RECIPES, LindbladProblem, NoiseSpec, build_lindblad
from .hilbert import ComplexOperator, DensityMatrix, SpaceLayout, partial_trace
from .targets import StabilizationTarget, fidelity as state_fidelity, parity_signature, purity

DEFAULT_MAX_STEP = 0.005  # us
RATE_STEP_FACTOR = 50.0

TRAJECTORY_TRACE_TOL = 1e-6
TRAJECTORY_EIG_TOL = 1e-6

# s[-2]/s[0] of the generator below which the steady state is not unique
KERNEL_TOL = 1e-8

# how far (us) a schedule grid time may pass a segment's end and still sample it
BOUNDARY_TOL = 1e-12


class IntegrationError(RuntimeError):
    """The integrator produced a state outside physical tolerances."""


class DegenerateSteadyStateError(RuntimeError):
    """The generator kernel is not one-dimensional."""


def liouvillian(problem: LindbladProblem) -> np.ndarray:
    """Dense generator acting on row-major vectorized density matrices."""
    h = problem.hamiltonian.entries
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in problem.collapse_ops:
        l = op.entries
        ldl = l.conj().T @ l
        gen += np.kron(l, l.conj())
        gen -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return gen


def max_rate(problem: LindbladProblem) -> float:
    """Fastest rate in the problem, used to bound the integration step."""
    rate = float(np.linalg.norm(problem.hamiltonian.entries, 2))
    for op in problem.collapse_ops:
        rate = max(rate, float(np.linalg.norm(op.entries, 2)) ** 2)
    return rate


def default_step(problem: LindbladProblem) -> float:
    rate = max_rate(problem)
    if rate <= 0:
        return DEFAULT_MAX_STEP
    return min(DEFAULT_MAX_STEP, 1.0 / (RATE_STEP_FACTOR * rate))


def _rk4_propagator(gen: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 propagator I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24."""
    hl = h * gen
    p = np.eye(gen.shape[0], dtype=complex) + hl
    term = hl
    for k in (2.0, 3.0, 4.0):
        term = term @ hl / k
        p += term
    return p


@dataclass(frozen=True)
class Trajectory:
    """Time grid, states and, when a target is declared, per-time metrics."""

    times: np.ndarray
    states: tuple
    target: Optional[StabilizationTarget] = None
    fidelity: Optional[np.ndarray] = None
    purity: Optional[np.ndarray] = None
    parity: Optional[np.ndarray] = None

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))

    def final_state(self) -> DensityMatrix:
        return self.states[-1]


def _qubit_metrics(state: DensityMatrix, target: StabilizationTarget):
    if set(state.layout.labels) == {"q1", "q2"}:
        reduced = state
    else:
        reduced = partial_trace(state, {"q1", "q2"})
    arr = reduced.entries
    return (
        state_fidelity(arr, target),
        purity(arr),
        parity_signature(arr),
    )


def _check_grid(grid: np.ndarray):
    if grid.size < 1:
        raise ValueError("time grid must not be empty")
    if not np.isfinite(grid).all():
        raise ValueError("time grid must be finite")
    if grid[0] < 0:
        raise ValueError("time grid must start at t >= 0")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly ascending")


def _wrap_state(layout: SpaceLayout, mat: np.ndarray, when: float) -> DensityMatrix:
    try:
        return DensityMatrix(
            layout, mat, trace_tol=TRAJECTORY_TRACE_TOL, eig_tol=TRAJECTORY_EIG_TOL
        )
    except ValueError as exc:
        raise IntegrationError(f"state at t = {when:.6g} us left physical bounds: {exc}") from exc


def evolve(
    problem: LindbladProblem,
    rho0: DensityMatrix,
    grid: Sequence[float],
    target: Optional[StabilizationTarget] = None,
    max_step: Optional[float] = None,
) -> Trajectory:
    """Integrate the master equation, sampling the state on `grid`.

    `rho0` is the state at the first grid time.  The integration step is
    at most min(0.005 us, 1/(50 x fastest rate)) unless `max_step`
    overrides it; each grid interval is subdivided evenly so grid points
    are hit exactly.  States that drift outside trace or positivity
    tolerances raise :class:`IntegrationError` rather than passing
    silently.
    """
    grid = np.asarray(grid, dtype=float)
    _check_grid(grid)
    if rho0.layout != problem.layout:
        raise ValueError("initial state layout does not match the problem")
    gen = liouvillian(problem)
    step = max_step if max_step is not None else default_step(problem)
    if step <= 0:
        raise ValueError("max_step must be positive")
    layout = problem.layout
    d = layout.total_dim
    vec = rho0.entries.reshape(-1).astype(complex)
    states = [_wrap_state(layout, vec.reshape(d, d), grid[0])]
    propagators = {}
    for t0, t1 in zip(grid[:-1], grid[1:]):
        span = t1 - t0
        n = max(1, int(math.ceil(span / step - 1e-12)))
        h = span / n
        key = round(h, 15)
        if key not in propagators:
            propagators[key] = _rk4_propagator(gen, h)
        p = propagators[key]
        for _ in range(n):
            vec = p @ vec
        states.append(_wrap_state(layout, vec.reshape(d, d), t1))
    if target is None:
        return Trajectory(grid, states)
    metrics = np.array([_qubit_metrics(s, target) for s in states], dtype=float)
    return Trajectory(grid, states, target, *metrics.T)


def steady_state(problem: LindbladProblem) -> DensityMatrix:
    """Steady state from the dense null space of the vectorized generator.

    The smallest right singular vector is reshaped, Hermitized and
    normalized to unit trace.  A second singular value below
    ``KERNEL_TOL`` times the largest signals a degenerate kernel and
    raises :class:`DegenerateSteadyStateError`.
    """
    gen = liouvillian(problem)
    _, s, vt = np.linalg.svd(gen)
    scale = max(float(s[0]), 1e-300)
    if s.size > 1 and s[-2] < KERNEL_TOL * scale:
        raise DegenerateSteadyStateError(
            f"generator kernel is degenerate (s[-2]/s[0] = {s[-2] / scale:.3e})"
        )
    d = problem.layout.total_dim
    rho = vt[-1].conj().reshape(d, d)
    rho = (rho + rho.conj().T) / 2.0
    trace = float(np.real(np.trace(rho)))
    if abs(trace) < 1e-12:
        raise DegenerateSteadyStateError("kernel vector has vanishing trace")
    rho = rho / trace
    return DensityMatrix(problem.layout, rho, trace_tol=1e-9, eig_tol=1e-7)


def generator_residual(problem: LindbladProblem, rho: DensityMatrix) -> float:
    """max|L(rho)| as a consistency check for steady states."""
    gen = liouvillian(problem)
    return float(np.max(np.abs(gen @ rho.entries.reshape(-1))))


@dataclass(frozen=True)
class ScheduleSegment:
    """One constant stretch of a drive schedule: the recipe named `builder`
    (a key of :data:`stabsim.builders.RECIPES`) at qubit-qubit rate `omega`
    with detuning `delta` on q1 and qubit-resonator rates `w1`, `w2`
    (rad/us); the recipe places the resonator detunings."""

    duration: float
    builder: str
    omega: float
    delta: float
    w1: float
    w2: float

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"segment duration must be finite and positive, got {self.duration}")
        if self.builder not in RECIPES:
            raise ValueError(f"unknown builder {self.builder!r}; expected one of {tuple(RECIPES)}")


def _hamiltonian_for_segment(seg: ScheduleSegment, layout: SpaceLayout) -> ComplexOperator:
    """The segment's recipe at its rates, built through the named builders."""
    from . import builders

    args = (seg.omega, seg.delta, seg.w1, seg.w2)
    if seg.builder == "even_parity":
        return builders.build_even_parity_system(*args, layout)
    if seg.builder == "odd_parity":
        return builders.build_odd_parity_system(*args, layout)
    return builders.build_color_variant(*args, seg.builder, layout)


@dataclass(frozen=True)
class DriveSchedule:
    """Piecewise-constant drive program applied to one initial state."""

    segments: tuple
    initial_state: DensityMatrix
    noise: NoiseSpec

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        object.__setattr__(self, "segments", segs)

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)


def evolve_schedule(
    schedule: DriveSchedule,
    grid: Sequence[float],
    max_step: Optional[float] = None,
) -> Trajectory:
    """Evolve through the schedule's segments, keeping the state continuous.

    The Lindblad problem is rebuilt for each segment from its drives and
    the shared noise specification.  Grid times must lie within
    [0, total duration + ``BOUNDARY_TOL``]; segment boundaries are crossed
    exactly.  A grid time within ``BOUNDARY_TOL`` after a segment's end is
    sampled in that segment.
    """
    grid = np.asarray(grid, dtype=float)
    _check_grid(grid)
    if grid[-1] > schedule.total_duration + BOUNDARY_TOL:
        raise ValueError("grid extends past the end of the schedule")
    layout = schedule.initial_state.layout
    states: list = []
    rho = schedule.initial_state
    t_start = 0.0
    for seg in schedule.segments:
        if len(states) == grid.size:
            break
        t_end = t_start + seg.duration
        seg_times = grid[len(states):np.searchsorted(grid, t_end + BOUNDARY_TOL, side="right")]
        # samples within BOUNDARY_TOL of the segment start take its initial state,
        # and the end joins the sub-grid unless the last sample already lies there
        n_start = int(np.searchsorted(seg_times, t_start + BOUNDARY_TOL, side="right"))
        local = np.concatenate(([t_start], seg_times[n_start:]))
        if t_end > local[-1] + BOUNDARY_TOL:
            local = np.append(local, t_end)
        h = _hamiltonian_for_segment(seg, layout)
        sub = evolve(build_lindblad(h, schedule.noise), rho, local, max_step=max_step)
        states += [sub.states[0]] * n_start + list(sub.states[1:1 + seg_times.size - n_start])
        rho = sub.states[-1]
        t_start = t_end
    return Trajectory(grid[:len(states)], states)


class FitError(RuntimeError):
    """Exponential fit did not converge."""


@dataclass(frozen=True)
class TimeConstantFit:
    tau: float
    v0: float
    v_inf: float
    residual: float


def fit_time_constant(times, values, direction: str = "auto") -> TimeConstantFit:
    """Least-squares fit of v(t) = v_inf + (v0 - v_inf) exp(-(t - t0)/tau).

    `direction` ("up", "down" or "auto") sets the initial guess for
    whether the trace rises or decays.  Needs at least 5 samples; a
    non-convergent fit raises :class:`FitError`.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size != v.size:
        raise ValueError("times and values must have equal length")
    if t.size < 5:
        raise ValueError("need at least 5 samples after the switch to fit")
    if direction not in ("up", "down", "auto"):
        raise ValueError(f"unknown direction {direction!r}")
    t0 = t[0]

    def model(tt, tau, v0, v_inf):
        return v_inf + (v0 - v_inf) * np.exp(-(tt - t0) / tau)

    if direction == "auto":
        v0_guess, vinf_guess = v[0], v[-1]
    elif direction == "up":
        v0_guess, vinf_guess = min(v[0], v[-1]), max(v[0], v[-1])
    else:
        v0_guess, vinf_guess = max(v[0], v[-1]), min(v[0], v[-1])
    span = max(t[-1] - t0, 1e-9)
    try:
        popt, _ = curve_fit(
            model,
            t,
            v,
            p0=[span / 5.0, v0_guess, vinf_guess],
            bounds=([1e-6, -2.0, -2.0], [100.0 * span, 2.0, 2.0]),
            maxfev=20000,
        )
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"exponential fit failed: {exc}") from exc
    tau, v0, v_inf = (float(x) for x in popt)
    residual = float(np.sqrt(np.mean((model(t, *popt) - v) ** 2)))
    return TimeConstantFit(tau, v0, v_inf, residual)
