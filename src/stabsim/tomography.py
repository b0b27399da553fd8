"""Simulated two-qubit state tomography and linear-inversion reconstruction.

Measurement model: one of nine pre-rotation settings {I, X90, Y90} x
{I, X90, Y90} is applied (X90 = exp(-i pi sigma_x / 4), Y90 likewise),
the qubits are read out in the computational basis, and each qubit's
record passes through an independent symmetric bit-flip channel with
flip probability 1 - readout fidelity.  Counts are multinomial with a
seeded generator.

Reconstruction inverts the per-qubit confusion matrices on the outcome
frequencies, estimates the 15 two-qubit Pauli expectations by linear
least squares and projects the assembled matrix to the nearest physical
state by eigenvalue clipping.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hilbert import DensityMatrix
from .targets import TWO_QUBIT_LAYOUT

_SQ2 = np.sqrt(2.0)

_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# exp(-i pi sigma / 4) for sigma = x, y
_ROTATIONS = {
    "I": np.eye(2, dtype=complex),
    "X90": (np.eye(2) - 1j * _SIGMA["X"]) / _SQ2,
    "Y90": (np.eye(2) - 1j * _SIGMA["Y"]) / _SQ2,
}

# the two-qubit pre-rotation of every (a, b) setting, built once
_PAIR_ROTATIONS = {(a, b): np.kron(_ROTATIONS[a], _ROTATIONS[b])
                   for a in _ROTATIONS for b in _ROTATIONS}

# the 15 non-identity two-qubit Pauli operators, labels and matrices in the same order
_PAULI_LABELS = tuple(a + b for a in "IXYZ" for b in "IXYZ")[1:]
_PAULIS = np.stack([np.kron(_SIGMA[a], _SIGMA[b]) for a, b in _PAULI_LABELS])

DEFAULT_PRE_ROTATIONS = tuple(
    (a, b) for a in ("I", "X90", "Y90") for b in ("I", "X90", "Y90")
)

OUTCOMES = ("gg", "ge", "eg", "ee")


class TomographyError(ValueError):
    pass


@dataclass(frozen=True)
class TomographySettings:
    """Shots, pre-rotation settings, per-qubit readout fidelities and seed."""

    shots_per_setting: int = 5000
    pre_rotations: tuple = DEFAULT_PRE_ROTATIONS
    readout_fidelity_q1: float = 1.0
    readout_fidelity_q2: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        for name, value, least in (
            ("shots_per_setting", self.shots_per_setting, 1),
            ("rng_seed", self.rng_seed, 0),
        ):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise TomographyError(f"{name} must be an integer >= {least}, got {value!r}")
        rotations = tuple((str(a), str(b)) for a, b in self.pre_rotations)
        if not rotations:
            raise TomographyError("need at least one pre-rotation setting")
        for a, b in rotations:
            if a not in _ROTATIONS or b not in _ROTATIONS:
                raise TomographyError(f"unknown pre-rotation pair ({a}, {b})")
        if len(set(rotations)) != len(rotations):
            raise TomographyError("duplicate pre-rotation settings")
        object.__setattr__(self, "pre_rotations", rotations)
        for name, f in (
            ("readout_fidelity_q1", self.readout_fidelity_q1),
            ("readout_fidelity_q2", self.readout_fidelity_q2),
        ):
            if not 0.5 < f <= 1.0:
                raise TomographyError(f"{name} must be in (0.5, 1], got {f}")

    def confusion_matrix(self) -> np.ndarray:
        """4x4 map from true to measured outcome probabilities."""
        mats = []
        for f in (self.readout_fidelity_q1, self.readout_fidelity_q2):
            mats.append(np.array([[f, 1.0 - f], [1.0 - f, f]]))
        return np.kron(mats[0], mats[1])


@dataclass(frozen=True)
class CountsTable:
    """Measured counts per setting over the outcomes (gg, ge, eg, ee)."""

    settings: TomographySettings
    counts: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.counts, dtype=float)
        if not np.all(np.isfinite(values) & (values >= 0) & (values == np.round(values))):
            raise TomographyError("counts must be finite, non-negative whole numbers")
        arr = values.astype(np.int64)
        n = len(self.settings.pre_rotations)
        if arr.shape != (n, 4):
            raise TomographyError(f"counts must have shape ({n}, 4), got {arr.shape}")
        shots = self.settings.shots_per_setting
        if not np.all(arr.sum(axis=1) == shots):
            raise TomographyError("each setting's counts must sum to shots_per_setting")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    def frequencies(self) -> np.ndarray:
        return self.counts / self.settings.shots_per_setting

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["setting", "outcome", "count"])
            for (a, b), row in zip(self.settings.pre_rotations, self.counts):
                for outcome, count in zip(OUTCOMES, row):
                    writer.writerow([f"{a}:{b}", outcome, int(count)])


def _rho_array(rho) -> np.ndarray:
    arr = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if arr.shape != (4, 4):
        raise TomographyError(f"expected a 4x4 two-qubit state, got shape {arr.shape}")
    if not np.isfinite(arr).all() or not np.trace(arr).real > 0:
        raise TomographyError("state must be finite with a positive trace")
    return arr


def _setting_unitaries(s: TomographySettings) -> np.ndarray:
    """Each setting's two-qubit pre-rotation, stacked as (settings, 4, 4)."""
    return np.stack([_PAIR_ROTATIONS[pair] for pair in s.pre_rotations])


def setting_probabilities(rho, s: TomographySettings, readout_error: bool = True) -> np.ndarray:
    """Analytic outcome distribution for every setting (rows sum to 1)."""
    arr = _rho_array(rho)
    confusion = s.confusion_matrix() if readout_error else np.eye(4)
    probs = np.empty((len(s.pre_rotations), 4))
    # one setting at a time, in this order: the multinomial draws of
    # simulate_tomography change when these probabilities move by one ulp
    for i, u in enumerate(_setting_unitaries(s)):
        born = np.real(np.diag(u @ arr @ u.conj().T))
        born = np.clip(born, 0.0, None)
        probs[i] = confusion @ (born / born.sum())
    return probs


def simulate_tomography(rho, s: TomographySettings) -> CountsTable:
    """Sample multinomial counts for every pre-rotation setting."""
    probs = setting_probabilities(rho, s, readout_error=True)
    rng = np.random.default_rng(s.rng_seed)
    counts = np.stack(
        [rng.multinomial(s.shots_per_setting, p / p.sum()) for p in probs]
    )
    return CountsTable(s, counts)


def pauli_estimates(frequencies: np.ndarray, s: TomographySettings) -> dict:
    """Linear-inversion estimates of the 15 non-identity Pauli expectations.

    Applies the inverse readout confusion to the per-setting outcome
    frequencies, then solves the overdetermined linear system by least
    squares.  These estimates are unbiased; only the positivity
    projection in :func:`reconstruct_from_frequencies` introduces bias
    near the boundary of state space.
    """
    freqs = np.asarray(frequencies, dtype=float)
    n = len(s.pre_rotations)
    if freqs.shape != (n, 4):
        raise TomographyError(f"frequencies must have shape ({n}, 4)")
    if not np.isfinite(freqs).all():
        raise TomographyError("frequencies must be finite")
    confusion = s.confusion_matrix()
    if abs(np.linalg.det(confusion)) < 1e-12:
        raise TomographyError("confusion matrix is singular; readout fidelity too low")
    corrected = freqs @ np.linalg.inv(confusion).T
    # outcome o of setting s has probability 1/4 + sum_p c_p (U_s P_p U_s^dag)_oo / 4
    u = _setting_unitaries(s)
    design = np.einsum("soi,pij,soj->sop", u, _PAULIS, u.conj()).real.reshape(4 * n, -1) / 4.0
    coeffs, *_ = np.linalg.lstsq(design, corrected.reshape(-1) - 0.25, rcond=None)
    return {label: float(c) for label, c in zip(_PAULI_LABELS, coeffs)}


def reconstruct_from_frequencies(frequencies: np.ndarray, s: TomographySettings) -> DensityMatrix:
    """Density matrix from per-setting outcome frequencies.

    Applies the inverse readout confusion, solves the 15 Pauli
    expectations by least squares and clips negative eigenvalues (then
    renormalizes the trace) to return a physical state.
    """
    coeffs = pauli_estimates(frequencies, s)
    rho = (np.eye(4) + np.tensordot([coeffs[label] for label in _PAULI_LABELS], _PAULIS, 1)) / 4.0
    rho = (rho + rho.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    rho = (vecs * vals) @ vecs.conj().T
    rho /= np.real(np.trace(rho))
    return DensityMatrix(TWO_QUBIT_LAYOUT, rho)


def reconstruct(counts: CountsTable, s: Optional[TomographySettings] = None) -> DensityMatrix:
    """Reconstruct a physical state from measured counts."""
    settings = s if s is not None else counts.settings
    if settings.pre_rotations != counts.settings.pre_rotations:
        raise TomographyError("counts were taken with different pre-rotations")
    return reconstruct_from_frequencies(counts.frequencies(), settings)
