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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

CANONICAL_ORDER = ("q1", "q2", "r1", "r2")

HERMITIAN_ATOL = 1e-9


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

    def __post_init__(self):
        subs = tuple((str(lbl), int(dim)) for lbl, dim in self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        labels = [lbl for lbl, _ in subs]
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
        for lbl, dim in subs:
            if dim < 2:
                raise LayoutError(f"dimension of {lbl} must be >= 2, got {dim}")

    @property
    def labels(self) -> tuple:
        return tuple(lbl for lbl, _ in self.subsystems)

    @property
    def dims(self) -> tuple:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

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
            levels = [{"g": 0, "e": 1}.get(ch, None) if ch in "ge" else int(ch) for ch in key]
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


def _checked_entries(entries, layout: SpaceLayout, what: str) -> np.ndarray:
    """Read-only complex copy of a square matrix of the layout's dimension."""
    arr = np.array(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise LayoutError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] != layout.total_dim:
        raise LayoutError(
            f"{what} dimension {arr.shape[0]} does not match layout dimension {layout.total_dim}"
        )
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ComplexOperator:
    """Dense complex operator on a :class:`SpaceLayout`."""

    layout: SpaceLayout
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _checked_entries(self.entries, self.layout, "operator"))

    @property
    def hermitian(self) -> bool:
        """Whether max|M - M^dag| < 1e-9 element-wise."""
        arr = self.entries
        return bool(np.max(np.abs(arr - arr.conj().T)) < HERMITIAN_ATOL)


class StateError(ValueError):
    """Density matrix violates hermiticity, trace or positivity bounds."""


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state on a layout.

    Construction checks finite entries, hermiticity (1e-9), unit trace
    (default 1e-9) and positivity (default min eigenvalue >= -1e-8).
    Looser tolerances can be passed for states coming out of finite-step
    integration.
    """

    layout: SpaceLayout
    entries: np.ndarray
    trace_tol: float = 1e-9
    eig_tol: float = 1e-8

    def __post_init__(self):
        arr = _checked_entries(self.entries, self.layout, "state")
        object.__setattr__(self, "entries", arr)
        if not np.isfinite(arr).all():
            raise StateError("state has non-finite entries")
        herm_err = np.max(np.abs(arr - arr.conj().T))
        if herm_err >= max(HERMITIAN_ATOL, self.trace_tol):
            raise StateError(f"not Hermitian: max|rho - rho^dag| = {herm_err:.3e}")
        tr = arr.trace()
        if abs(tr - 1.0) >= self.trace_tol:
            raise StateError(f"trace {tr} deviates from 1 beyond {self.trace_tol:.1e}")
        min_eig = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)[0])
        if min_eig < -self.eig_tol:
            raise StateError(f"minimum eigenvalue {min_eig:.3e} below -{self.eig_tol:.1e}")

    @classmethod
    def from_ket(cls, layout: SpaceLayout, ket: np.ndarray) -> "DensityMatrix":
        ket = np.asarray(ket, dtype=complex).reshape(-1)
        ket = ket / np.linalg.norm(ket)
        return cls(layout, np.outer(ket, ket.conj()))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vecs = np.array(self.vectors, dtype=complex)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "vectors", vecs)

    def vector(self, k: int) -> np.ndarray:
        return self.vectors[:, k]


def local_annihilation(dim: int) -> np.ndarray:
    """Lowering operator on a single dim-level factor: (m, m+1) entries sqrt(m+1)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def embed_local(layout: SpaceLayout, label: str, local: np.ndarray) -> ComplexOperator:
    """Embed a single-subsystem operator by tensoring identities around it."""
    axis = layout.axis(label)
    if local.shape != (layout.dims[axis], layout.dims[axis]):
        raise LayoutError(
            f"local operator shape {local.shape} does not match dim {layout.dims[axis]} of {label}"
        )
    mat = np.eye(1, dtype=complex)
    for i, (_, dim) in enumerate(layout.subsystems):
        mat = np.kron(mat, local if i == axis else np.eye(dim, dtype=complex))
    return ComplexOperator(layout, mat)


def annihilation(layout: SpaceLayout, subsystem: str) -> ComplexOperator:
    """Annihilation operator of one subsystem embedded in the full space."""
    return embed_local(layout, subsystem, local_annihilation(layout.dim_of(subsystem)))


def number_op(layout: SpaceLayout, subsystem: str) -> ComplexOperator:
    a = annihilation(layout, subsystem).entries
    return ComplexOperator(layout, a.conj().T @ a)


def fix_eigenvector_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive.

    Magnitude ties are broken by the lowest index, making the output
    deterministic for identical input.
    """
    out = np.array(vectors, dtype=complex)
    for k in range(out.shape[1]):
        col = out[:, k]
        mags = np.abs(col)
        # np.argmax returns the first maximal index, which implements the tie rule
        j = int(np.argmax(np.isclose(mags, mags.max(), rtol=0, atol=1e-12)))
        pivot = col[j]
        if abs(pivot) > 0:
            out[:, k] = col * (abs(pivot) / pivot)
    return out


def eigendecompose(op: ComplexOperator) -> EigenSystem:
    """Eigendecomposition of a Hermitian operator with a fixed phase convention.

    Raises
    ------
    ValueError
        If the operator is not Hermitian.
    """
    if not op.hermitian:
        raise ValueError("eigendecompose requires a Hermitian operator")
    sym = (op.entries + op.entries.conj().T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    return EigenSystem(values, fix_eigenvector_phases(vectors))


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix on the kept subsystem labels.

    The kept factors preserve their canonical order; the trace is
    preserved exactly up to floating point.
    """
    keep = set(keep)
    if not keep:
        raise LayoutError("keep set must not be empty")
    layout = rho.layout
    reduced_layout = layout.restricted(keep)
    n = len(layout.subsystems)
    dims = layout.dims
    tensor = rho.entries.reshape(dims + dims)
    traced_axes = [i for i, (lbl, _) in enumerate(layout.subsystems) if lbl not in keep]
    for offset, ax in enumerate(traced_axes):
        ax_eff = ax - offset
        tensor = np.trace(tensor, axis1=ax_eff, axis2=ax_eff + (n - offset))
    d_red = reduced_layout.total_dim
    return DensityMatrix(
        reduced_layout,
        tensor.reshape(d_red, d_red),
        trace_tol=max(rho.trace_tol, 1e-9),
        eig_tol=max(rho.eig_tol, 1e-8),
    )


def expectation(rho: DensityMatrix, op: ComplexOperator) -> complex:
    """Tr(rho . op) for matching layouts."""
    if rho.layout != op.layout:
        raise LayoutError("state and operator layouts differ")
    return complex(np.trace(rho.entries @ op.entries))
