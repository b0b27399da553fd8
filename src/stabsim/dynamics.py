"""Lindblad time evolution, steady states and drive schedules.

The master equation

    drho/dt = -i [H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2)

is vectorized row-major in effective-Hamiltonian form, -i (H_eff (x) I -
I (x) conj(H_eff)) + sum_k L_k (x) conj(L_k) with H_eff = H - (i/2) sum_k
L_k^dag L_k; each block of it is one fixed scatter of the terms' nonzero
values (:class:`_Scatter`).  When H commutes with a charge C = sum_s c_s
n_s and every L_k shifts C by a fixed amount (a weak U(1) symmetry), the
generator is block-diagonal in the charge gap k = C(i) - C(j) of a matrix
entry rho_ij, so states are solved and evolved one sector at a time
(without such a charge, the whole space is one sector).  The generator
maps Hermitian matrices to Hermitian matrices, so sector -k is the adjoint
of sector k, and the k = 0 block is real in the orthonormal coordinates
x_ii = rho_ii, a_ij = sqrt2 Re rho_ij, b_ij = sqrt2 Im rho_ij (i < j).
Evolution is fixed-step RK4, exactly the degree-4 truncated exponential
P_h of this linear generator, on the real k = 0 block and the sectors
k > 0, with each k < 0 written as an adjoint, so every evolved state is
Hermitian by construction (:func:`evolve`).  A steady state solves the
trace-bordered k = 0 block by one LU, dense and real up to
``DENSE_STEADY_ROWS`` rows and sparse and complex above, whose factor also
gives the conditioning estimate that rejects a kernel that is not
one-dimensional (:func:`steady_state`).  Everything but the generator's
values is built once per layout and nonzero pattern of the operators, and
a sweep's points of one pattern only scatter their values.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.optimize import brentq
from scipy.sparse import csc_array, csr_array
from scipy.sparse.linalg import splu

from .builders import (RECIPES, LindbladProblem, NoiseSpec, build_color_variant, build_lindblad,
                       embedded_operators)
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
# k = 0 blocks of up to this many rows are solved by a dense real LU (LAPACK
# dgetrf), larger ones by a sparse complex LU (SuperLU).  Per whole
# steady_state call with a known pattern (best of 5 rounds, one BLAS thread,
# 2-core x86-64) the dense path took 0.43x the sparse one's time at B = 70,
# 0.49x at 262, 0.65x at 404 and 1.08x at 646 (even-parity Bell points).
DENSE_STEADY_ROWS = 500

# Cost model that picks how an interval key is crossed, in
# seconds.  Fitted to best-of-5 and best-of-7 timings on a 2-core x86-64
# machine with one BLAS thread (OpenBLAS 0.3.31, numpy 2.4), on the
# even-parity generator's charge sectors of B = 28 ... 1,296 rows and 124
# ... 7,847 stored entries.  At the k = 0 sectors, B = 70 / 262 / 646 with
# 389 / 1,713 / 4,541 entries, repeated runs gave:
#   a sparse Horner step   29-45 / 55-63 / 60-94 us
#   forming dense P_h      0.20-0.28 / 2.9-4.4 / 25-31 ms
#   zgemv (P @ vector)     2.7-4.5 / 23-33 / 289-348 us
#   zgemm (P @ P)          0.06-0.08 / 2.4-3.7 / 36-37 ms
# zgemv takes about 0.45 ns an entry while P fits in cache and 0.8 ns from
# B = 480 on; the model's 0.6 ns lies between.  The real k = 0 block that
# evolve steps (385 / 1,785 / 4,829 entries) is priced by the same complex
# timings: its kernels run 2-6x faster, but every key that
# TestEvolvePaths.test_path_choice pins keeps the path and J it had as a
# complex block.
SPARSE_STEP_S = 30e-6  # a sparse Horner step: per step,
SPARSE_STEP_S_PER_NNZ = 15e-9  # plus per stored generator entry
FORM_S_PER_NNZ_ROW = 10e-9  # forming P_h, per stored entry and row
MATVEC_S = 1.5e-6  # a dense matrix-vector product: per product,
MATVEC_S_PER_ENTRY = 0.6e-9  # plus per matrix entry
SQUARE_S_PER_CUBE = 0.15e-9  # a dense square, per B^3

# how far (us) a schedule grid time may pass a segment's end and still sample it
BOUNDARY_TOL = 1e-12


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


def _term_entries(nonzeros: list, d: int, rows: np.ndarray, cols: np.ndarray) -> tuple:
    """(rows, cols, source) of the generator entries inside the block of `rows`
    and `cols` (distinct row-major indices): where each sits in the block and
    among the values of :func:`_term_values`, term by term X (x) Y: -i H_eff (x)
    I, I (x) i conj(H_eff), then L (x) conj(L) per collapse operator, over its
    factors' `nonzeros` (H_eff's, then each L's).  No term writes an entry twice."""
    row_at, col_at = np.full((2, d * d), -1)  # row-major index -> row, column in the block or -1
    row_at[rows], col_at[cols] = np.arange(len(rows)), np.arange(len(cols))
    eye, h = (np.arange(d),) * 2, nonzeros[0]
    pairs = [(h, eye), (eye, h)] + [(nz, nz) for nz in nonzeros[1:]]
    entries, start = [], 0
    for (rx, cx), (ry, cy) in pairs:  # <i j|X (x) Y|k l> = X[i, k] Y[j, l]
        r, c = row_at[d * rx[:, None] + ry], col_at[d * cx[:, None] + cy]
        inside = (r >= 0) & (c >= 0)
        entries.append((r[inside], c[inside], start + np.flatnonzero(inside)))
        start += inside.size
    return tuple(np.concatenate(part) for part in zip(*entries))


def _term_values(problem: LindbladProblem) -> tuple:
    """H_eff = H - (i/2) sum_k L_k^dag L_k, the nonzeros of H_eff and of each
    L_k, and each term's value grid, flattened in turn (:func:`_term_entries`)."""
    h_eff = problem.hamiltonian.entries.astype(complex)
    for op in problem.collapse_ops:
        h_eff -= 0.5j * (op.entries.conj().T @ op.entries)
    nonzeros = [np.nonzero(m) for m in (h_eff, *(op.entries for op in problem.collapse_ops))]
    v, d = h_eff[nonzeros[0]], len(h_eff)
    grids = [np.broadcast_to((-1j * v)[:, None], (len(v), d)),
             np.broadcast_to(1j * v.conj(), (d, len(v)))]
    for op, nonzero in zip(problem.collapse_ops, nonzeros[1:]):
        v = op.entries[nonzero]
        grids.append(v[:, None] * v.conj())
    return h_eff, nonzeros, np.concatenate([grid.reshape(-1) for grid in grids])


class _Scatter:
    """A fixed linear map from the term values of :func:`_term_values` to the
    entries of a block, flattened in memory order: value `source` is added to
    entry `dest`, in the given order.  With `factor`, the values are read as
    floats (Re, Im) and scaled, and the block is real."""

    def __init__(self, source: np.ndarray, dest: np.ndarray, factor: Optional[np.ndarray] = None):
        self.source, self.dest, self.factor = source, dest, factor

    def __call__(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self.factor is None:
            np.add.at(out, self.dest, values[self.source])
        else:
            np.add.at(out, self.dest, self.factor * values.view(float)[self.source])
        return out


def _real_scatter(nonzeros: list, d: int, index: tuple, first: int = 0) -> _Scatter:
    """The :class:`_Scatter` into a Fortran-ordered U^H L U: the real block of
    the k = 0 sector of (ii, ij, ji) `index` in its coordinates (x, a, b), U
    the unitary from (x, a, b) to (rho_ii, rho_ij, rho_ji); rows before `first`
    get no terms.  Row ji of L U is the conjugate of row ij, so only L's rows
    ii and ij are read: an entry v of row ii adds Re v to row x_i, one of row
    ij sqrt2 Re v to row a_ij and sqrt2 Im v to row b_ij.  Column kk of L is
    column x_k of L U, and columns kl and lk (k < l) both feed a_kl and b_kl,
    by 1/sqrt2 and +-i/sqrt2: each value lands on up to four real entries,
    columns kl and lk on the same ones, with factors 1 for (ii, kk) and (ij,
    kl or lk), sqrt2 for (ij, kk) and 1/sqrt2 for (ii, kl or lk), and signs."""
    pairs, order = len(index[1]), np.concatenate(index)
    r, c, s = _term_entries(nonzeros, d, order[first:d + pairs], order)
    r, lk = r + first, c >= d + pairs
    off_row, off_col = r >= d, c >= d
    col, sign = c - pairs * lk, 1.0 - 2.0 * lk  # x_k or a_kl (for kl and lk); b_kl's sign
    f = np.where(off_row == off_col, 1.0, np.where(off_row, math.sqrt(2.0), math.sqrt(0.5)))
    # from Re v, Im v, Im v, Re v: (x_i or a_ij, x_k or a_kl), (b_ij, .), (., b_kl), (b_ij, b_kl)
    rows = np.concatenate([r, r + pairs, r, r + pairs])
    cols = np.concatenate([col, col, col + pairs, col + pairs])
    keep = np.concatenate([np.ones(len(r), dtype=bool), off_row, off_col, off_row & off_col])
    source = np.concatenate([2 * s, 2 * s + 1, 2 * s + 1, 2 * s])
    factor = np.concatenate([f, f, -sign * f, sign * f])
    return _Scatter(source[keep], (cols * len(order) + rows)[keep], factor[keep])


def liouvillian(problem: LindbladProblem, sector: Optional[np.ndarray] = None,
                hermitian: Optional[tuple] = None) -> np.ndarray:
    """Dense H_eff-form generator acting on row-major vectorized density matrices.

    With `sector`, an array of distinct row-major indices i d + j, only the
    block of those rows and columns is scattered and returned, in that order.
    With `hermitian`, the (ii, ij, ji) index of a k = 0 sector, only that
    sector's real block in the coordinates (x, a, b) is, Fortran-ordered.
    """
    h_eff, nonzeros, values = _term_values(problem)
    d = len(h_eff)
    if hermitian is not None:
        block = np.zeros((len(np.concatenate(hermitian)),) * 2, order="F")
        _real_scatter(nonzeros, d, hermitian)(values, block.reshape(-1, order="F"))
        return block
    sector = np.arange(d * d) if sector is None else sector
    rows, cols, source = _term_entries(nonzeros, d, sector, sector)
    gen = np.zeros((len(sector), len(sector)), dtype=complex)
    _Scatter(source, rows * len(sector) + cols)(values, gen.reshape(-1))
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


def _qubit_metrics(states: tuple, target: StabilizationTarget) -> tuple:
    """(n,) fidelity, purity and parity of each state's two-qubit reduction,
    each computed once on the (n, 4, 4) stack of reductions."""
    reduced = np.stack([r.entries for r in partial_trace(states, {"q1", "q2"})])
    return state_fidelity(reduced, target), purity(reduced), parity_signature(reduced)


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


def _crossing(gen, h: float, n: int, uses: int) -> list:
    """How each of `uses` intervals of n steps of size h crosses the block `gen`:
    (dense matrix, products) pairs applied in order, or [] for n sparse steps.

    The cost model prices each way and the cheapest wins, dense steps on a
    tie: dense steps for each J < n.bit_length(), P_h^n (matrix_power takes
    bit_length + popcount - 2 products) and n sparse steps per interval.
    """
    size, nnz = gen.shape[0], gen.nnz
    form = FORM_S_PER_NNZ_ROW * nnz * size
    square = SQUARE_S_PER_CUBE * size ** 3
    matvec = MATVEC_S + MATVEC_S_PER_ENTRY * size ** 2
    costs = [form + j * square + uses * ((n >> j) + n % (1 << j)) * matvec
             for j in range(n.bit_length())]
    costs.append(form + (n.bit_length() + n.bit_count() - 2) * square + uses * matvec)
    costs.append(uses * n * (SPARSE_STEP_S + SPARSE_STEP_S_PER_NNZ * nnz))
    choice = int(np.argmin(costs))  # J, then bit_length for P_h^n, then sparse steps
    if choice > n.bit_length():
        return []
    p_h = _rk4_steps(gen, h, 1, np.eye(size, dtype=gen.dtype))
    if choice == n.bit_length():
        return [(np.linalg.matrix_power(p_h, n), 1)]
    q = p_h
    for _ in range(choice):
        q = q @ q
    return [(q, n >> choice), (p_h, n % (1 << choice))]


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
    size h so grid points are hit exactly.  Intervals share a key when they
    take the same n and their h / step agree to 12 digits, and all take the
    first one's h.  The state is split by charge gap k.  The k = 0 sector
    is evolved as its real block in the coordinates (x, a, b)
    (:func:`liouvillian` with `hermitian`), and of the other sectors only
    each k > 0 whose k or -k `rho0` occupies, on its own complex block;
    sector -k is the adjoint of sector k, so every sample after the first
    is Hermitian by construction.  The intervals of one key cross a block
    in whichever way the cost model of ``SPARSE_STEP_S`` and the constants
    after it charges least (:func:`_crossing`): P_h^n formed once; dense
    steps, floor(n / 2^J) products with P_h^(2^J) and n mod 2^J with P_h;
    or n Horner-form steps on the sparse block.  Each sample is written into
    one (n, d, d) array, and after stepping the whole array is checked once
    (:meth:`DensityMatrix.stack`) and, with a target, reduced to the qubits
    by one :func:`partial_trace` call.  A sample outside the trace or
    positivity tolerances raises :class:`IntegrationError` naming the first
    such sample's time, rather than passing silently.
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
    flat = samples.reshape(grid.size, d * d)  # a view: row i is sample i, row-major
    gaps = charge_gaps(problem)
    index = _hermitian_index(gaps, d)
    sectors = [np.flatnonzero(gaps == k) for k in np.unique(np.abs(gaps[flat[0] != 0])) if k > 0]
    gens = [csr_array(liouvillian(problem, hermitian=index))]
    gens += [csr_array(liouvillian(problem, sector)) for sector in sectors]
    off = flat[0, index[1]] * math.sqrt(2.0)
    parts = [np.concatenate([flat[0, index[0]].real, off.real, off.imag])]  # (x, a, b)
    parts += [flat[0, sector] for sector in sectors]
    # row i of tracks[q]: block q's part of sample i
    tracks = [np.empty((grid.size, len(part)), dtype=part.dtype) for part in parts]
    spans = np.diff(grid)
    counts = np.maximum(1.0, np.ceil(spans / step - 1e-12)).astype(int)
    sizes = spans / counts
    keys = list(zip(np.round(sizes / step, 12).tolist(), counts.tolist()))
    step_size = {}  # (round(h / step, 12), n) -> h of the first interval with that key
    for key, h in zip(keys, sizes.tolist()):
        step_size.setdefault(key, h)
    uses = Counter(keys)
    crossings = {}  # (block number, key) -> _crossing on that block
    for i, key in enumerate(keys, start=1):
        h, n = step_size[key], key[1]
        for q, gen in enumerate(gens):
            crossing = crossings.get((q, key))
            if crossing is None:
                crossing = crossings[q, key] = _crossing(gen, h, n, uses[key])
            if not crossing:
                parts[q] = _rk4_steps(gen, h, n, parts[q])
            for mat, products in crossing:
                for _ in range(products):
                    parts[q] = mat @ parts[q]
            tracks[q][i] = parts[q]
    _from_coordinates(tracks[0][1:], index, flat[1:])
    for sector, track in zip(sectors, tracks[1:]):
        flat[1:, sector] = track[1:]
        flat[1:, sector % d * d + sector // d] = track[1:].conj()  # sector -k at (j, i)
    try:
        states = DensityMatrix.stack(layout, samples, TRAJECTORY_TRACE_TOL, TRAJECTORY_EIG_TOL)
    except StateError as exc:
        raise IntegrationError(
            f"state at t = {grid[exc.index]:.6g} us left physical bounds: {exc}") from exc
    if target is None:
        return Trajectory(grid, states)
    return Trajectory(grid, states, *_qubit_metrics(states, target))


def _inverse_condition(mat) -> tuple:
    """Estimate of sigma_min/sigma_max of `mat` in the 2-norm, and solve(v)
    = mat^-1 v, solve(v, "H") = mat^-H v from mat's LU: LAPACK's, in place,
    for a dense real `mat`, SuperLU's for a sparse complex one.

    ``CONDITION_STEPS`` power steps on mat^H mat, before the LU overwrites
    mat, give sigma_max, and as many through solve give 1/sigma_min.  Both
    converge from below, so the estimate is never below the exact ratio.
    The start vector is fixed, and real for a real `mat`, so the estimate is
    deterministic.  An exactly singular factor raises
    :class:`DegenerateSteadyStateError`.
    """
    rng = np.random.default_rng(0)
    n = mat.shape[0]
    start = rng.standard_normal(n)
    if np.iscomplexobj(mat):
        start = start + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    adjoint = mat.conj().T
    v = start
    for _ in range(CONDITION_STEPS):
        u = mat @ v
        sigma_max = np.linalg.norm(u)
        v = adjoint @ u
        v /= np.linalg.norm(v)
    if isinstance(mat, np.ndarray):
        lu, piv, info = dgetrf(mat, overwrite_a=1)
        if info > 0:
            raise DegenerateSteadyStateError(
                f"generator kernel is degenerate (pivot {info} of the dense LU is exactly zero)")

        def solve(rhs, trans="N"):
            return dgetrs(lu, piv, rhs, trans=int(trans == "H"))[0]
    else:
        try:
            solve = splu(mat).solve
        except RuntimeError as exc:  # SuperLU reports an exactly singular factor
            raise DegenerateSteadyStateError(f"generator kernel is degenerate ({exc})") from exc
    v = start
    for _ in range(CONDITION_STEPS):
        u = solve(v)
        inv_sigma_min = np.linalg.norm(u)
        v = solve(u, "H")
        v /= np.linalg.norm(v)
    return float(1.0 / (inv_sigma_min * sigma_max)), solve


def _hermitian_index(gaps: np.ndarray, d: int) -> tuple:
    """Row-major indices (ii, ij, ji) of the k = 0 sector of `gaps`: its `d`
    entries rho_ii, its entries rho_ij (i < j), then the rho_ji of the same
    pairs, the order of :func:`_real_scatter`."""
    i, j = np.nonzero(np.triu((gaps == 0).reshape(d, d), 1))
    return np.arange(0, d * d, d + 1), i * d + j, j * d + i


def _from_coordinates(coords: np.ndarray, index: tuple, out: np.ndarray) -> np.ndarray:
    """Write the Hermitian matrix of real Hermitian coordinates (x, a, b)
    into the row-major `out`, along the last axis of both: rho_ii = x_i,
    rho_ij = (a_ij + i b_ij) / sqrt2 and rho_ji = conj rho_ij at the
    `index` of :func:`_hermitian_index`."""
    ii, ij, ji = index
    d, m = len(ii), len(ii) + len(ij)
    off = (coords[..., d:m] + 1j * coords[..., m:]) / math.sqrt(2.0)
    out[..., ii] = coords[..., :d]
    out[..., ij] = off
    out[..., ji] = off.conj()
    return out


class _Pattern:
    """What steady solves with one layout and one nonzero pattern of H, H_eff and
    each L_k share: the k = 0 index sets and order, the trace-bordered block, its
    row 0's trace entries and the :class:`_Scatter` of the terms into its rows
    after row 0.  A dense block is real, one array for the dense patterns of one
    shape in a `patterns` dict; a sparse one is complex CSC."""

    def __init__(self, problem: LindbladProblem, nonzeros: list, patterns: dict):
        d = problem.layout.total_dim
        gaps = charge_gaps(problem)
        self.index = _hermitian_index(gaps, d)
        size = d + 2 * len(self.index[1])
        self.dense = size <= DENSE_STEADY_ROWS
        self.order = np.concatenate(self.index) if self.dense else np.flatnonzero(gaps == 0)
        trace = np.flatnonzero(self.order % (d + 1) == 0) * size  # each rho_ii sits at i (d + 1)
        if self.dense:
            self.scatter, self.trace = _real_scatter(nonzeros, d, self.index, first=1), trace
            twins = [p for p in patterns.values() if p.dense and p.block.shape == (size, size)]
            self.block = twins[0].block if twins else np.empty((size, size), order="F")
            return
        rows, cols, source = _term_entries(nonzeros, d, self.order[1:], self.order)
        keys = cols * size + rows + 1  # column-major, as CSC
        stored = np.unique(np.concatenate([keys, trace]))
        self.block = csc_array((np.zeros(len(stored), dtype=complex), stored % size,
                                np.searchsorted(stored, np.arange(size + 1) * size)),
                               shape=(size, size))
        self.scatter = _Scatter(source, np.searchsorted(stored, keys))
        self.trace = np.searchsorted(stored, trace)

    def fill(self, values: np.ndarray):
        """Write a generator's term values (:func:`_term_values`) into the block."""
        target = self.block.reshape(-1, order="F") if self.dense else self.block.data
        target[:] = 0.0  # what the last fill or LU left
        target[self.trace] = 1.0  # row 0: the trace functional
        self.scatter(values, target)
        return self.block


def steady_state(problem: LindbladProblem, patterns: Optional[dict] = None) -> DensityMatrix:
    """Steady state from one LU solve of the trace-bordered k = 0 block.

    Every diagonal entry rho_ii has charge gap k = 0, and the generator maps
    each sector of :func:`charge_gaps` into itself, so the state is solved
    on the k = 0 block alone.  Its row for rho_00 (which the others imply,
    because the generator preserves the trace) is replaced by the trace
    functional, and the block is solved for unit trace.  Only the factoring
    depends on the size: a block of up to ``DENSE_STEADY_ROWS`` rows is
    scattered straight into real Hermitian coordinates (:func:`_real_scatter`,
    with the same singular values) and factored in place by a dense LAPACK
    LU, a larger one by a sparse complex LU in ascending row-major order,
    which SuperLU factors faster.  An exactly singular factor, or an estimated
    sigma_min/sigma_max of the bordered block below ``KERNEL_TOL``, signals
    a kernel that is not one-dimensional and raises
    :class:`DegenerateSteadyStateError`.  rho is assembled from its diagonal
    and its rho_ij (i < j), with rho_ji = conj rho_ij, so it is Hermitian by
    construction; from complex entries, rho_ij is the Hermitian part
    (rho_ij + conj rho_ji)/2 of the solution.

    `patterns`, one dict that a sweep passes to all its points, keeps a
    :class:`_Pattern` per layout and nonzero pattern of H, H_eff and each
    L_k, so a point of a known pattern only writes its values.  Without it
    each call builds its own; rho is bit for bit the same either way.

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
    h_eff, nonzeros, values = _term_values(problem)
    operators = (problem.hamiltonian.entries, h_eff, *(op.entries for op in problem.collapse_ops))
    key = (problem.layout, *((op != 0).tobytes() for op in operators))
    patterns = {} if patterns is None else patterns
    pattern = patterns[key] = patterns.get(key) or _Pattern(problem, nonzeros, patterns)
    block = pattern.fill(values)
    ratio, solve = _inverse_condition(block)
    if not ratio >= KERNEL_TOL:
        raise DegenerateSteadyStateError(
            f"generator kernel is degenerate (estimated sigma_min/sigma_max = {ratio:.3e})")
    solution = solve((pattern.order == 0).astype(block.dtype))  # e_0: unit trace, zero elsewhere
    rho = np.zeros(d * d, dtype=complex)
    if pattern.dense:  # (x, a, b)
        solution /= solution[:d].sum()
        _from_coordinates(solution, pattern.index, rho)
    else:  # complex entries in ascending row-major order
        ii, ij, ji = pattern.index
        rho[pattern.order] = solution
        rho /= rho[ii].real.sum()
        off = (rho[ij] + rho[ji].conj()) / 2.0
        rho[ii], rho[ij], rho[ji] = rho[ii].real, off, off.conj()
    return DensityMatrix(problem.layout, rho.reshape(d, d), trace_tol=1e-9, eig_tol=1e-7)


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
    the shared noise specification, on one set of embedded operators for
    the whole call.  Grid times must lie within
    [0, total duration + ``BOUNDARY_TOL``]; segment boundaries are crossed
    exactly.  A grid time within ``BOUNDARY_TOL`` after a segment's end is
    sampled in that segment.
    """
    grid = np.asarray(grid, dtype=float)
    _check_grid(grid)
    if grid[-1] > schedule.total_duration + BOUNDARY_TOL:
        raise ValueError("grid extends past the end of the schedule")
    ops = embedded_operators(schedule.initial_state.layout)
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
        h = build_color_variant(seg.omega, seg.delta, seg.w1, seg.w2, seg.builder, ops)
        sub = evolve(build_lindblad(h, schedule.noise, ops), rho, local)
        states += [sub.states[0]] * n_start + list(sub.states[1:1 + seg_times.size - n_start])
        rho = sub.states[-1]
        t_start = t_end
    return Trajectory(grid[:len(states)], states)


class FitError(RuntimeError):
    """The samples have no least-squares exponential with an interior time constant."""


@dataclass(frozen=True)
class TimeConstantFit:
    tau: float
    v0: float
    v_inf: float
    residual: float


def fit_time_constant(times, values) -> TimeConstantFit:
    """Least-squares fit of v(t) = v_inf + (v0 - v_inf) exp(-(t - t0)/tau).

    By variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)): v0 and v_inf are a linear fit for each tau, so the cost depends on
    tau alone, and tau is the least-cost root where its closed-form derivative
    turns from - to + on a log grid over [1e-6, 100 x span], refined by
    ``brentq``.  Needs 5 samples.  Non-finite samples, times that do not strictly
    increase, or no such root (a flat, straight or growing trace) raise FitError.
    """
    t, v = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if t.size != v.size:
        raise ValueError("times and values must have equal length")
    if t.size < 5:
        raise ValueError("need at least 5 samples after the switch to fit")
    if not (np.isfinite(t).all() and np.isfinite(v).all() and (np.diff(t) > 0).all()):
        raise FitError("fit needs finite samples at strictly increasing times")
    x, vc = t - t[0], v - v[0]
    vc -= vc.mean()  # exactly zero for a constant trace

    def projected(tau):  # the cost, d cost / d tau times tau^2 q^2 / 2, e and its weight
        e = np.exp(-x / tau)
        ec, u = e - e.mean(axis=-1, keepdims=True), x * e  # u = tau^2 de/dtau
        s, q, su, qu = (ec * vc).sum(-1), (ec * ec).sum(-1), (u * vc).sum(-1), (u * ec).sum(-1)
        return vc @ vc - s * s / q, s * (s * qu - su * q), e, s / q

    grid = np.geomspace(1e-6, 100.0 * x[-1], 100)
    slope = projected(grid[:, None])[1]  # one (grid, n) evaluation
    turns = np.flatnonzero((slope[:-1] < 0) & (slope[1:] > 0))
    if not turns.size:
        raise FitError(f"the projected cost has no minimum for tau in [1e-6, {grid[-1]:g}]")
    roots = [brentq(lambda r: projected(r)[1], grid[i], grid[i + 1], xtol=1e-300) for i in turns]
    tau = min(roots, key=lambda root: projected(root)[0])
    _, _, e, b = projected(tau)
    v_inf = v.mean() - b * e.mean()
    residual = float(np.sqrt(np.mean((v_inf + b * e - v) ** 2)))
    return TimeConstantFit(float(tau), float(v_inf + b), float(v_inf), residual)
