"""Composite Hilbert-space layout, dense operators and validated states.

The simulations run on a small composite space of two qubits and two
resonators, ordered (q1, q2, r1, r2) with basis index

    idx = (((i_q1 * d_q2) + i_q2) * d_r1 + i_r1) * d_r2 + i_r2

so a basis ket reads |Q1 Q2 R1 R2>.  Everything is dense complex numpy;
all value types are immutable after construction and safe to share
between workers.

Units convention for the whole package: rates and energies are angular
frequencies in rad/us, times in microseconds.  Configuration files take
ordinary frequencies in MHz (value = omega / 2 pi) and are converted on
load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

CANONICAL_ORDER = ("q1", "q2", "r1", "r2")

HERMITIAN_ATOL = 1e-9

# a stacked check or partial trace takes its states in blocks of at most this many
# bytes, so its temporaries stay small next to the stack itself
BLOCK_BYTES = 2 ** 18


class LayoutError(ValueError):
    """Unknown subsystem label, bad dimension or mismatched layouts."""


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered subsystem layout of the composite Hilbert space.

    Parameters
    ----------
    subsystems : sequence of (label, dim)
        Labels must be a subset of ("q1", "q2", "r1", "r2") in that
        order; every dimension is at least 2.  Default is the full
        four-subsystem space with all dimensions 2 (resonators truncated
        to one photon).
    """

    subsystems: tuple = (("q1", 2), ("q2", 2), ("r1", 2), ("r2", 2))
    labels: tuple = field(init=False, compare=False, repr=False)
    dims: tuple = field(init=False, compare=False, repr=False)
    total_dim: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        labels = tuple(str(lbl) for lbl, _ in self.subsystems)
        if not labels:
            raise LayoutError("layout needs at least one subsystem")
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate labels in {labels}")
        unknown = [l for l in labels if l not in CANONICAL_ORDER]
        if unknown:
            raise LayoutError(f"unknown labels {unknown}")
        order = [CANONICAL_ORDER.index(l) for l in labels]
        if order != sorted(order):
            raise LayoutError(f"labels must follow order {CANONICAL_ORDER}, got {labels}")
        for lbl, (_, dim) in zip(labels, self.subsystems):
            if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
                raise LayoutError(f"dimension of {lbl} must be an integer, got {dim!r}")
            if dim < 2:
                raise LayoutError(f"dimension of {lbl} must be >= 2, got {dim}")
        dims = tuple(int(dim) for _, dim in self.subsystems)
        vars(self).update(subsystems=tuple(zip(labels, dims)), labels=labels, dims=dims,
                          total_dim=math.prod(dims))

    def axis(self, label: str) -> int:
        """Position of `label` in the tensor ordering."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise LayoutError(f"no subsystem {label!r} in layout {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def basis_index(self, levels: Sequence[int]) -> int:
        """Flat index of the product basis state with the given levels."""
        if len(levels) != len(self.subsystems):
            raise LayoutError(f"expected {len(self.subsystems)} levels, got {len(levels)}")
        idx = 0
        for (lbl, dim), lv in zip(self.subsystems, levels):
            if not 0 <= lv < dim:
                raise LayoutError(f"level {lv} out of range for {lbl} (dim {dim})")
            idx = idx * dim + lv
        return idx

    def basis_state(self, key) -> np.ndarray:
        """Product basis ket as a flat complex vector.

        `key` is either a sequence of level indices or a string with one
        character per subsystem: 'g'/'e' for qubit levels 0/1, digits for
        photon numbers (e.g. "eg01").
        """
        if isinstance(key, str):
            if len(key) != len(self.subsystems):
                raise LayoutError(f"state string {key!r} does not match layout {self.labels}")
            if not set(key) <= set("ge0123456789"):
                raise LayoutError(f"state string {key!r} may hold only g, e and digits")
            levels = ["ge".index(ch) if ch in "ge" else int(ch) for ch in key]
        else:
            levels = list(key)
        vec = np.zeros(self.total_dim, dtype=complex)
        vec[self.basis_index(levels)] = 1.0
        return vec

    def restricted(self, keep: Iterable[str]) -> "SpaceLayout":
        """New layout containing only the kept labels, order preserved."""
        keep = set(keep)
        subs = tuple((l, d) for l, d in self.subsystems if l in keep)
        missing = keep - {l for l, _ in subs}
        if missing:
            raise LayoutError(f"labels {sorted(missing)} not in layout {self.labels}")
        return SpaceLayout(subs)


def _checked_entries(arr: np.ndarray, layout: SpaceLayout, what: str, ndim: int = 2) -> np.ndarray:
    """`arr` made read-only, once its last two axes are checked to hold square
    matrices of the layout's dimension: one matrix, or a stack of them (ndim 3)."""
    if arr.ndim != ndim or arr.shape[-2] != arr.shape[-1]:
        shape = "a square matrix" if ndim == 2 else "a stack of square matrices"
        raise LayoutError(f"expected {shape}, got shape {arr.shape}")
    if arr.shape[-1] != layout.total_dim:
        raise LayoutError(
            f"{what} dimension {arr.shape[-1]} does not match layout dimension {layout.total_dim}"
        )
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ComplexOperator:
    """Dense complex operator on a :class:`SpaceLayout`."""

    layout: SpaceLayout
    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        object.__setattr__(self, "entries", _checked_entries(entries, self.layout, "operator"))

    @property
    def hermitian(self) -> bool:
        """Whether max|M - M^dag| < 1e-9 element-wise."""
        arr = self.entries
        return bool(np.max(np.abs(arr - arr.conj().T)) < HERMITIAN_ATOL)


class StateError(ValueError):
    """Density matrix violates hermiticity, trace or positivity bounds.

    `index` is the position of the failing state in a checked stack (0 for one
    state).
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def _block_size(d: int) -> int:
    """States of dimension d in one block of at most ``BLOCK_BYTES``."""
    return max(1, BLOCK_BYTES // (16 * d * d))


def _check_states(stack: np.ndarray, trace_tol: float, eig_tol: float) -> None:
    """Raise :class:`StateError` for the first state of an (n, d, d) stack that
    is not a density matrix within the tolerances, with the message a check of
    that state alone gives.  The stack is checked block by block, in order."""
    size = _block_size(stack.shape[-1])
    for start in range(0, len(stack), size):
        found = _first_violation(stack[start:start + size], trace_tol, eig_tol)
        if found is not None:
            raise StateError(found[1], start + found[0])


def _first_violation(stack: np.ndarray, trace_tol: float, eig_tol: float):
    """(position, message) of the first state of an (n, d, d) stack that fails
    a check, or None.

    The checks run in this order: finite entries (before any arithmetic, so
    no RuntimeWarning is raised), Hermiticity against max(1e-9, trace_tol),
    unit trace, and positivity.  Positivity is screened by one batched
    Cholesky factorization of (rho + rho^dag)/2 + eig_tol I.  Only if that
    fails does eigvalsh decide each state, so the screen never rejects a
    state that eigvalsh passes; it passes one that eigvalsh rejects only if
    lambda_min lies within the factorization's backward error (about
    d u ||rho||, 1e-14 here) of -eig_tol.
    """
    finite = np.isfinite(stack).all(axis=(1, 2))
    n_finite = len(stack) if finite.all() else int(finite.argmin())
    head = stack[:n_finite]
    adjoint = head.conj().swapaxes(1, 2)
    herm_err = np.abs(head - adjoint).max(axis=(1, 2))
    trace = np.trace(head, axis1=1, axis2=2)
    non_hermitian = herm_err >= max(HERMITIAN_ATOL, trace_tol)
    bad = non_hermitian | (np.abs(trace - 1.0) >= trace_tol)
    # the first state that fails a check before positivity; only those before it are factored
    end = int(bad.argmax()) if bad.any() else n_finite
    sym = (head[:end] + adjoint[:end]) / 2.0
    try:
        np.linalg.cholesky(sym + eig_tol * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        min_eig = np.linalg.eigvalsh(sym)[:, 0]
        low = min_eig < -eig_tol
        if low.any():
            i = int(low.argmax())
            return i, f"minimum eigenvalue {min_eig[i]:.3e} below -{eig_tol:.1e}"
    if end == len(stack):
        return None
    if end == n_finite:
        return end, "state has non-finite entries"
    if non_hermitian[end]:
        return end, f"not Hermitian: max|rho - rho^dag| = {herm_err[end]:.3e}"
    return end, f"trace {trace[end]} deviates from 1 beyond {trace_tol:.1e}"


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state on a layout.

    Construction checks finite entries, hermiticity (max(1e-9, trace_tol)),
    unit trace (default 1e-9) and positivity (default min eigenvalue
    >= -1e-8).  Looser tolerances can be passed for states coming out of
    finite-step integration.  :meth:`stack` runs the same checks once on a
    whole stack of states.
    """

    layout: SpaceLayout
    entries: np.ndarray
    trace_tol: float = 1e-9
    eig_tol: float = 1e-8

    def __post_init__(self):
        arr = _checked_entries(np.array(self.entries, dtype=complex), self.layout, "state")
        object.__setattr__(self, "entries", arr)
        _check_states(arr[None], self.trace_tol, self.eig_tol)

    @classmethod
    def stack(cls, layout: SpaceLayout, entries, trace_tol: float = 1e-9,
              eig_tol: float = 1e-8) -> tuple:
        """Check an (n, d, d) array of states once and return them as a tuple
        of states that are read-only views of it, not checked again one by one.

        A failing state raises :class:`StateError` with its position as
        `index`.  `entries` is taken over, not copied, when it is a C-ordered
        complex array that owns its memory; it is made read-only as a whole.
        """
        arr = np.require(entries, dtype=complex, requirements=["C", "O"])
        arr = _checked_entries(arr, layout, "state", ndim=3)
        _check_states(arr, trace_tol, eig_tol)
        states = tuple(object.__new__(cls) for _ in range(len(arr)))
        for state, view in zip(states, arr):
            vars(state).update(layout=layout, entries=view, trace_tol=trace_tol, eig_tol=eig_tol)
        return states

    @classmethod
    def from_ket(cls, layout: SpaceLayout, ket: np.ndarray) -> "DensityMatrix":
        ket = np.asarray(ket, dtype=complex).reshape(-1)
        if not np.isfinite(ket).all():
            raise StateError("non-finite ket")
        norm = np.linalg.norm(ket)
        if norm == 0:
            raise StateError("zero-norm ket")
        ket = ket / norm
        return cls(layout, np.outer(ket, ket.conj()))


def local_annihilation(dim: int) -> np.ndarray:
    """Lowering operator on a single dim-level factor: (m, m+1) entries sqrt(m+1)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def embed_local(layout: SpaceLayout, label: str, local: np.ndarray) -> ComplexOperator:
    """Embed a single-subsystem operator as I_left (x) local (x) I_right, block by block."""
    axis = layout.axis(label)
    if local.shape != (layout.dims[axis], layout.dims[axis]):
        raise LayoutError(
            f"local operator shape {local.shape} does not match dim {layout.dims[axis]} of {label}"
        )
    left, right = math.prod(layout.dims[:axis]), math.prod(layout.dims[axis + 1:])
    mat = np.zeros((left, layout.dims[axis], right) * 2, dtype=complex)
    a, b = np.ogrid[:left, :right]
    mat[a, :, b, a, :, b] = local  # only the diagonal blocks are written
    return ComplexOperator(layout, mat.reshape(layout.total_dim, layout.total_dim))


def annihilation(layout: SpaceLayout, subsystem: str) -> ComplexOperator:
    """Annihilation operator of one subsystem embedded in the full space."""
    return embed_local(layout, subsystem, local_annihilation(layout.dim_of(subsystem)))


def number_op(layout: SpaceLayout, subsystem: str) -> ComplexOperator:
    a = annihilation(layout, subsystem).entries
    return ComplexOperator(layout, a.conj().T @ a)


def fix_eigenvector_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive.

    Magnitudes within 1e-12 of the column maximum tie and the lowest index wins,
    so the output is deterministic; a zero column stays as it is.
    """
    out = np.array(vectors, dtype=complex)
    mags = np.abs(out)
    pivots = out[np.argmax(mags.max(axis=0) - mags <= 1e-12, axis=0), np.arange(out.shape[1])]
    live = np.abs(pivots) > 0
    # numpy's scalar complex division: on some builds its array loop rounds differently
    out[:, live] *= [abs(p) / p for p in pivots[live]]
    return out


def eigendecompose(op: ComplexOperator) -> tuple:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian
    operator, read-only, with the phases fixed by :func:`fix_eigenvector_phases`.

    Raises
    ------
    ValueError
        If the operator is not Hermitian.
    """
    if not op.hermitian:
        raise ValueError("eigendecompose requires a Hermitian operator")
    sym = (op.entries + op.entries.conj().T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    vectors = fix_eigenvector_phases(vectors)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return values, vectors


def partial_trace(rho, keep: Iterable[str]):
    """Reduced density matrix on the kept subsystem labels.

    `rho` is one state, or a tuple of states on one layout with equal
    tolerances: the tuple is traced as stacked tensors of at most
    ``BLOCK_BYTES``, and its reduced states are checked once
    (:meth:`DensityMatrix.stack`) and returned as a tuple.  The kept
    factors preserve their canonical order; the trace is preserved exactly
    up to floating point.
    """
    keep = set(keep)
    if not keep:
        raise LayoutError("keep set must not be empty")
    states = rho if isinstance(rho, tuple) else (rho,)
    if not states:
        raise ValueError("partial_trace needs at least one state")
    first = states[0]
    if any((s.layout, s.trace_tol, s.eig_tol) != (first.layout, first.trace_tol, first.eig_tol)
           for s in states[1:]):
        raise LayoutError("states traced together need one layout and equal tolerances")
    layout = first.layout
    reduced_layout = layout.restricted(keep)
    n = len(layout.subsystems)
    dims = layout.dims
    traced_axes = [i for i, (lbl, _) in enumerate(layout.subsystems) if lbl not in keep]
    d_red = reduced_layout.total_dim
    entries = np.empty((len(states), d_red, d_red), dtype=complex)
    size = _block_size(layout.total_dim)
    for start in range(0, len(states), size):
        block = states[start:start + size]
        tensor = np.stack([s.entries for s in block]).reshape((len(block),) + dims + dims)
        for offset, ax in enumerate(traced_axes):
            ax_eff = 1 + ax - offset  # axis 0 numbers the states
            tensor = np.trace(tensor, axis1=ax_eff, axis2=ax_eff + (n - offset))
        entries[start:start + len(block)] = tensor.reshape(len(block), d_red, d_red)
    reduced = DensityMatrix.stack(
        reduced_layout,
        entries,
        trace_tol=max(first.trace_tol, 1e-9),
        eig_tol=max(first.eig_tol, 1e-8),
    )
    return reduced if isinstance(rho, tuple) else reduced[0]


def expectation(rho: DensityMatrix, op: ComplexOperator) -> complex:
    """Tr(rho . op) for matching layouts."""
    if rho.layout != op.layout:
        raise LayoutError("state and operator layouts differ")
    return complex(np.trace(rho.entries @ op.entries))
