"""Lindblad time evolution, steady states and drive schedules.

The master equation

    drho/dt = -i [H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)

is vectorized row-major in effective-Hamiltonian form, -i (H_eff (x) I -
I (x) conj(H_eff)) + sum_k L_k (x) conj(L_k) with H_eff = H - (i/2) sum_k
L_k^dag L_k, each term scattered only onto its nonzero entries.  When H
commutes with a charge C = sum_s c_s n_s and every L_k shifts C by a fixed
amount (a weak U(1) symmetry), the generator is block-diagonal in the
charge gap k = C(i) - C(j) of a matrix entry rho_ij, so steady states are
solved and states evolved one sector at a time; a problem without such a
charge has one sector, the whole space.  Evolution is fixed-step classical
4th-order Runge-Kutta; for this linear, time-independent generator the RK4
update is exactly the degree-4 truncated exponential P_h.  Grid intervals
that repeat often enough to pay for it are crossed with one precomputed
product P_h^n each; the others take n Horner-form steps of four sparse
products with the generator.  A steady state solves the k = 0 block with
its first row replaced by the trace functional, through one sparse LU
factorization; the same factor gives the conditioning estimate that
rejects a kernel that is not one-dimensional.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import curve_fit
from scipy.sparse import csc_array, csr_array
from scipy.sparse.linalg import splu

from .builders import RECIPES, LindbladProblem, NoiseSpec, build_color_variant, build_lindblad
from .hilbert import DensityMatrix, SpaceLayout, StateError, partial_trace
from .targets import StabilizationTarget, fidelity as state_fidelity, parity_signature, purity

DEFAULT_MAX_STEP = 0.005  # us
RATE_STEP_FACTOR = 50.0

TRAJECTORY_TRACE_TOL = 1e-6
TRAJECTORY_EIG_TOL = 1e-6

# estimated sigma_min/sigma_max of the trace-bordered generator (2-norm)
# below which the steady state is not unique
KERNEL_TOL = 1e-8
# power steps taken at each end of that estimate
CONDITION_STEPS = 4

# how far (us) a schedule grid time may pass a segment's end and still sample it
BOUNDARY_TOL = 1e-12

# a fitted parameter within FIT_BOUND_TOL (1 + |bound|) of a bound ends on it
FIT_BOUND_TOL = 1e-9


class IntegrationError(RuntimeError):
    """The integrator produced a state outside physical tolerances."""


class DegenerateSteadyStateError(RuntimeError):
    """The generator kernel is not one-dimensional."""


def _levels(layout: SpaceLayout) -> np.ndarray:
    """(d, n) level of each subsystem in each basis state, in basis-index order."""
    return np.indices(layout.dims).reshape(len(layout.dims), -1).T


def conserved_charge(problem: LindbladProblem) -> np.ndarray:
    """Integer vector c in {-1, 0, 1}^n, one entry per subsystem, of a charge
    C = sum_s c_s n_s that H conserves and every collapse operator shifts by
    a fixed amount.

    All 3^n candidates are tested at once against the exact zeros of the
    operators.  Each candidate's sign is fixed by its first nonzero entry
    being -1; of the charges that hold, the one with the smallest k = 0
    sector wins, the first in lexicographic order on a tie.  Without such a
    charge the result is c = 0, whose one sector is the whole space.
    """
    levels = _levels(problem.layout)
    n = levels.shape[1]
    candidates = np.indices((3,) * n).reshape(n, -1) - 1  # columns in lexicographic order
    pairs = [np.nonzero(op.entries) for op in (problem.hamiltonian, *problem.collapse_ops)]
    sizes = [len(r) for r, _ in pairs]
    shifts = np.concatenate([levels[r] - levels[c] for r, c in pairs]
                            + [np.zeros((1, n), dtype=int)]) @ candidates
    # each entry shifts C as its operator's first entry does; H's as the zero row appended last
    first = np.cumsum([0] + sizes[:-1])
    first[0] = -1
    holds = (shifts[:-1] == shifts[np.repeat(first, sizes)]).all(axis=0)
    holds &= candidates[(candidates != 0).argmax(axis=0), np.arange(3 ** n)] == -1
    if not holds.any():
        return np.zeros(n, dtype=int)
    charges = levels @ candidates[:, holds]
    sector_sizes = (charges[:, None, :] == charges[None, :, :]).sum(axis=(0, 1))
    return candidates[:, holds][:, np.argmin(sector_sizes)]


def charge_gaps(problem: LindbladProblem) -> np.ndarray:
    """k = C(i) - C(j) of each row-major entry i d + j, for the conserved charge C."""
    charge = _levels(problem.layout) @ conserved_charge(problem)
    return (charge[:, None] - charge[None, :]).reshape(-1)


def liouvillian(problem: LindbladProblem, sector: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense H_eff-form generator acting on row-major vectorized density matrices.

    With `sector`, an ascending array of row-major indices i d + j, only the
    block of those rows and columns is scattered and returned.
    """
    h_eff = problem.hamiltonian.entries.astype(complex)
    for op in problem.collapse_ops:
        h_eff -= 0.5j * (op.entries.conj().T @ op.entries)
    d = len(h_eff)
    if sector is None:
        sector = np.arange(d * d)
    where = np.full(d * d, -1)  # row-major index -> position in the sector, -1 outside it
    where[sector] = np.arange(len(sector))
    gen = np.zeros((len(sector), len(sector)), dtype=complex)

    def scatter(rows, cols, values):
        # each call writes an entry at most once, so += adds every value
        rows, cols = where[rows], where[cols]
        inside = (rows >= 0) & (cols >= 0)
        gen[rows[inside], cols[inside]] += np.broadcast_to(values, inside.shape)[inside]

    r, c = np.nonzero(h_eff)
    v = h_eff[r, c][:, None]
    other = np.arange(d)
    scatter(d * r[:, None] + other, d * c[:, None] + other, -1j * v)  # <i j|L|k j> = -i H_eff[i, k]
    scatter(r[:, None] + d * other, c[:, None] + d * other, 1j * v.conj())  # <i j|L|i l>
    for op in problem.collapse_ops:
        r, c = np.nonzero(op.entries)
        v = op.entries[r, c]
        scatter(d * r[:, None] + r, d * c[:, None] + c, v[:, None] * v.conj())
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


@dataclass(frozen=True)
class Trajectory:
    """Time grid, states and, when a target is declared, per-time metrics."""

    times: np.ndarray
    states: tuple
    fidelity: Optional[np.ndarray] = None
    purity: Optional[np.ndarray] = None
    parity: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("times", "fidelity", "purity", "parity"):
            if getattr(self, name) is not None:
                values = np.array(getattr(self, name), dtype=float)
                values.setflags(write=False)
                object.__setattr__(self, name, values)
        object.__setattr__(self, "states", tuple(self.states))

    def final_state(self) -> DensityMatrix:
        return self.states[-1]


def _qubit_metrics(states: tuple, target: StabilizationTarget) -> np.ndarray:
    """(n, 3) fidelity, purity and parity of each state's two-qubit reduction."""
    reduced = [r.entries for r in partial_trace(states, {"q1", "q2"})]
    return np.array([(state_fidelity(arr, target), purity(arr), parity_signature(arr))
                     for arr in reduced], dtype=float)


def _check_grid(grid: np.ndarray):
    if grid.size < 1:
        raise ValueError("time grid must not be empty")
    if not np.isfinite(grid).all():
        raise ValueError("time grid must be finite")
    if grid[0] < 0:
        raise ValueError("time grid must start at t >= 0")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly ascending")


def _rk4_steps(gen, h: float, n: int, vec: np.ndarray) -> np.ndarray:
    """`n` RK4 steps of size `h` in Horner form, four products with `gen` each.

    Each step applies I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24 without
    forming it, so `gen` may be sparse; with `vec` the identity, one step
    returns that polynomial P_h.
    """
    for _ in range(n):
        out = vec
        for k in (4.0, 3.0, 2.0, 1.0):
            out = vec + (h / k) * (gen @ out)
        vec = out
    return vec


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
    overrides it; each grid interval is subdivided evenly into n steps of
    size h so grid points are hit exactly.  The state is split by charge
    gap k, and each sector that `rho0` occupies is evolved on its own block
    of size B.  When the u intervals sharing (h, n) would spend more flops
    on dense steps (u n B^2) than forming P_h^n is charged ((3 + m) B^3, m
    the products of the power), P_h^n is formed once per sector and applied
    once per interval; otherwise the n steps run on the sparse block.
    Each sample is written into one (n, d, d) array, and after stepping the
    whole array is checked once (:meth:`DensityMatrix.stack`) and, with a
    target, reduced to the qubits by one :func:`partial_trace` call.  A
    sample outside the trace or positivity tolerances raises
    :class:`IntegrationError` naming the first such sample's time, rather
    than passing silently.
    """
    grid = np.asarray(grid, dtype=float)
    _check_grid(grid)
    if rho0.layout != problem.layout:
        raise ValueError("initial state layout does not match the problem")
    step = max_step if max_step is not None else default_step(problem)
    if not (math.isfinite(step) and step > 0):
        raise ValueError("max_step must be finite and positive")
    layout = problem.layout
    d = layout.total_dim
    samples = np.zeros((grid.size, d, d), dtype=complex)
    samples[0] = rho0.entries
    vec = samples[0].reshape(-1)
    gaps = charge_gaps(problem)
    sectors = [np.flatnonzero(gaps == k) for k in np.unique(gaps[vec != 0])]
    gens = [csr_array(liouvillian(problem, sector)) for sector in sectors]
    parts = [vec[sector] for sector in sectors]
    keys = []
    step_size = {}  # (round(h, 15), n) -> h of the first interval with that key
    for span in np.diff(grid):
        n = max(1, int(math.ceil(span / step - 1e-12)))
        key = (round(span / n, 15), n)
        step_size.setdefault(key, span / n)
        keys.append(key)
    uses = Counter(keys)
    propagators = {}  # (sector number, key) -> P_h^n on that sector
    for i, key in enumerate(keys, start=1):
        h, n = step_size[key], key[1]
        vec = samples[i].reshape(-1)  # a view: writing it fills sample i
        for q, (sector, gen) in enumerate(zip(sectors, gens)):
            # matrix_power takes bit_length + popcount - 2 products; forming P_h from the
            # sparse generator costs less than the 3 dense products the rule still charges
            if uses[key] * n > (3 + n.bit_length() + n.bit_count() - 2) * len(sector):
                if (q, key) not in propagators:
                    p_h = _rk4_steps(gen, h, 1, np.eye(len(sector), dtype=complex))
                    propagators[q, key] = np.linalg.matrix_power(p_h, n)
                parts[q] = propagators[q, key] @ parts[q]
            else:
                parts[q] = _rk4_steps(gen, h, n, parts[q])
            vec[sector] = parts[q]
    try:
        states = DensityMatrix.stack(layout, samples, TRAJECTORY_TRACE_TOL, TRAJECTORY_EIG_TOL)
    except StateError as exc:
        raise IntegrationError(
            f"state at t = {grid[exc.index]:.6g} us left physical bounds: {exc}") from exc
    if target is None:
        return Trajectory(grid, states)
    return Trajectory(grid, states, *_qubit_metrics(states, target).T)


def _inverse_condition(mat, lu) -> float:
    """Estimate of sigma_min/sigma_max of `mat` in the 2-norm.

    ``CONDITION_STEPS`` power steps on mat^H mat give sigma_max, and as many
    on its inverse, through the LU factor `lu`, give 1/sigma_min.  Both
    converge from below, so the estimate is never below the exact ratio.
    The start vector is fixed, so the estimate is deterministic.
    """
    rng = np.random.default_rng(0)
    n = mat.shape[0]
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    adjoint = mat.conj().T
    v = start
    for _ in range(CONDITION_STEPS):
        u = mat @ v
        sigma_max = np.linalg.norm(u)
        v = adjoint @ u
        v /= np.linalg.norm(v)
    v = start
    for _ in range(CONDITION_STEPS):
        u = lu.solve(v)
        inv_sigma_min = np.linalg.norm(u)
        v = lu.solve(u, trans="H")
        v /= np.linalg.norm(v)
    return float(1.0 / (inv_sigma_min * sigma_max))


def steady_state(problem: LindbladProblem) -> DensityMatrix:
    """Steady state from one sparse LU solve of the trace-bordered k = 0 block.

    Every diagonal entry rho_ii has charge gap k = 0, and the generator maps
    each sector of :func:`charge_gaps` into itself, so the state is solved
    on the k = 0 block alone.  Its row for rho_00 (which the others imply,
    because the generator preserves the trace) is replaced by the trace
    functional, and the block is solved for unit trace.  The solution is
    reshaped, Hermitized and normalized to unit trace.  An exactly singular
    factor, or an estimated sigma_min/sigma_max of the bordered block below
    ``KERNEL_TOL``, signals a kernel that is not one-dimensional and raises
    :class:`DegenerateSteadyStateError`.

    The k = 0 block alone decides uniqueness: a steady X != 0 with k != 0
    forces a second steady state with k = 0.  Suppose the k = 0 kernel is
    spanned by one state rho_0.  (1) The kernel is closed under X -> X^dag,
    so it holds Y = X + X^dag, Hermitian, nonzero (X and X^dag lie in the
    sectors k and -k) and traceless.  Y's positive and negative parts are
    nonzero steady states (the semigroup is positive and trace preserving).
    Their k = 0 parts, the averages over the U(1) action, are steady, so
    both are multiples of rho_0, and a positive operator's support lies in
    that of its average: every steady state, and so every kernel element,
    lives on the support P of rho_0.
    (2) P commutes with C and is invariant under H_eff and the L_j, so on
    operators on P the generator is a Lindbladian with rho_0 faithful.  Its
    adjoint's kernel is then the algebra F commuting with H, L_j and
    L_j^dag on P (Frigerio, Commun. Math. Phys. 63, 269 (1978)), and each
    sector's block of the adjoint is the adjoint of that block, so F holds
    an A != 0 with charge gap k.  (3) A^dag A lies in F with k = 0 and is
    no multiple of the identity: A raises C by k, so it annihilates P's
    subspace of the highest charge (the lowest, for k < 0).  With the
    identity it gives a two-dimensional k = 0 kernel, a contradiction.
    """
    d = problem.layout.total_dim
    sector = np.flatnonzero(charge_gaps(problem) == 0)
    block = liouvillian(problem, sector)
    block[0] = 0.0  # sector[0] is the rho_00 entry, and every rho_ii lies in k = 0
    block[0, np.searchsorted(sector, np.arange(0, d * d, d + 1))] = 1.0
    bordered = csc_array(block)
    try:
        lu = splu(bordered)
    except RuntimeError as exc:  # SuperLU reports an exactly singular factor
        raise DegenerateSteadyStateError(f"generator kernel is degenerate ({exc})") from exc
    ratio = _inverse_condition(bordered, lu)
    if not ratio >= KERNEL_TOL:
        raise DegenerateSteadyStateError(
            f"generator kernel is degenerate (estimated sigma_min/sigma_max = {ratio:.3e})"
        )
    rhs = np.zeros(len(sector), dtype=complex)
    rhs[0] = 1.0
    rho = np.zeros(d * d, dtype=complex)
    rho[sector] = lu.solve(rhs)
    rho = rho.reshape(d, d)
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / float(np.real(np.trace(rho)))
    return DensityMatrix(problem.layout, rho, trace_tol=1e-9, eig_tol=1e-7)


def generator_residual(problem: LindbladProblem, rho: DensityMatrix) -> float:
    """max|L(rho)| as a consistency check for steady states, formed from the master
    equation on the d x d matrix: it shares no code with :func:`liouvillian` or
    the charge sectors."""
    r = rho.entries
    h = problem.hamiltonian.entries
    out = -1j * (h @ r - r @ h)
    for op in problem.collapse_ops:
        l = op.entries
        ldl = l.conj().T @ l
        out += l @ r @ l.conj().T - 0.5 * (ldl @ r + r @ ldl)
    return float(np.max(np.abs(out)))


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


def evolve_schedule(schedule: DriveSchedule, grid: Sequence[float]) -> Trajectory:
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
        h = build_color_variant(seg.omega, seg.delta, seg.w1, seg.w2, seg.builder, layout)
        sub = evolve(build_lindblad(h, schedule.noise), rho, local)
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


def fit_time_constant(times, values) -> TimeConstantFit:
    """Least-squares fit of v(t) = v_inf + (v0 - v_inf) exp(-(t - t0)/tau).

    The first and last samples are the initial guesses for v0 and v_inf.
    Needs at least 5 samples.  A fit that does not converge, or that ends
    with a parameter on its bound (tau at 1e-6 or 100 x the window span,
    v0 or v_inf at +-2), raises :class:`FitError`.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size != v.size:
        raise ValueError("times and values must have equal length")
    if t.size < 5:
        raise ValueError("need at least 5 samples after the switch to fit")
    t0 = t[0]

    def model(tt, tau, v0, v_inf):
        return v_inf + (v0 - v_inf) * np.exp(-(tt - t0) / tau)

    span = max(t[-1] - t0, 1e-9)
    lower, upper = np.array([1e-6, -2.0, -2.0]), np.array([100.0 * span, 2.0, 2.0])
    try:
        popt, _ = curve_fit(model, t, v, p0=[span / 5.0, v[0], v[-1]],
                            bounds=(lower, upper), maxfev=20000)
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"exponential fit failed: {exc}") from exc
    # the bounds only keep the search finite: a fit that ends on one has no interior
    # minimum, and its tau says where the bound lies, not how fast the trace moves
    if any(np.isclose(popt, b, rtol=FIT_BOUND_TOL, atol=FIT_BOUND_TOL).any()
           for b in (lower, upper)):
        raise FitError(f"exponential fit ended on a parameter bound (tau, v0, v_inf = {popt})")
    tau, v0, v_inf = (float(x) for x in popt)
    residual = float(np.sqrt(np.mean((model(t, *popt) - v) ** 2)))
    return TimeConstantFit(tau, v0, v_inf, residual)
