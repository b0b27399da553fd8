"""Parametric families of stabilizable two-qubit states and state metrics.

Amplitudes are always given in the basis (gg, ge, eg, ee).  The closed
angle formulas follow the conventions:

* blending angle  theta = 2 arctan((delta + Delta)/Omega), Delta =
  sqrt(Omega^2 + delta^2), so that delta = 0 gives theta = pi/2 and the
  family member is the minimal-energy eigenvector of the corresponding
  two-qubit block;
* dressing angle  theta1 = 2 arctan(2 A1 / (Omega + sqrt(4 A1^2 +
  Omega^2))) for the pair-pumping qubit-qubit drive, and pi minus that
  for the exchange drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import ComplexOperator, DensityMatrix, SpaceLayout, eigendecompose

TWO_QUBIT_LAYOUT = SpaceLayout((("q1", 2), ("q2", 2)))

COLORS = ("red", "blue")


def check_color(color: str):
    """Raise ValueError unless `color` names a sideband color."""
    if color not in COLORS:
        raise ValueError(f"unknown sideband color {color!r}; expected one of {COLORS}")


def mirror_angle(theta: float, color: str) -> float:
    """`theta` under a blue sideband, pi - theta under a red one: an exchange
    drive swaps the two branches of a mixing angle."""
    check_color(color)
    return theta if color == "blue" else math.pi - theta


@dataclass(frozen=True)
class StabilizationTarget:
    """A pure two-qubit target state with its family tag and parameters."""

    family: str
    params: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(4)
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"target amplitudes have norm {norm}, expected 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "params", tuple(self.params))

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def embed_with_vacuum(self, layout: SpaceLayout) -> np.ndarray:
        """Full-space ket with both resonators in the vacuum state."""
        vec = np.zeros(layout.total_dim, dtype=complex)
        zeros = [0] * (len(layout.subsystems) - 2)
        for amp, (i, j) in zip(self.amplitudes, [(0, 0), (0, 1), (1, 0), (1, 1)]):
            vec[layout.basis_index([i, j] + zeros)] = amp
        return vec


def _normalized(family: str, params: tuple, amps) -> StabilizationTarget:
    amps = np.asarray(amps, dtype=complex)
    return StabilizationTarget(family, params, amps / np.linalg.norm(amps))


def psi_theta(theta: float) -> StabilizationTarget:
    """Even-parity family sin(theta/2)|gg> - cos(theta/2)|ee>."""
    return _normalized(
        "psi_theta", (theta,), [math.sin(theta / 2), 0.0, 0.0, -math.cos(theta / 2)]
    )


def phi_theta(theta: float) -> StabilizationTarget:
    """Odd-parity family sin(theta/2)|ge> - cos(theta/2)|eg>."""
    return _normalized(
        "phi_theta", (theta,), [0.0, math.sin(theta / 2), -math.cos(theta / 2), 0.0]
    )


def bell_psi_minus() -> StabilizationTarget:
    return psi_theta(math.pi / 2)


def bell_phi_minus() -> StabilizationTarget:
    return phi_theta(math.pi / 2)


def product_state(phi1: float, phi2: float) -> StabilizationTarget:
    """Tensor product of cos(phi/2)|g> + sin(phi/2)|e> single-qubit states."""
    q1 = np.array([math.cos(phi1 / 2), math.sin(phi1 / 2)])
    q2 = np.array([math.cos(phi2 / 2), math.sin(phi2 / 2)])
    return _normalized("product", (phi1, phi2), np.kron(q1, q2))


def dressed_parity_state(theta1: float) -> StabilizationTarget:
    """cos(theta1/2) (gg - ee)/sqrt2 + sin(theta1/2) (ge - eg)/sqrt2."""
    c, s = math.cos(theta1 / 2), math.sin(theta1 / 2)
    amps = np.array([c, s, -s, -c]) / math.sqrt(2.0)
    return _normalized("dressed_parity", (theta1,), amps)


def blending_angle(omega: float, delta: float) -> float:
    """Blending angle selected by the qubit-qubit drive detuning.

    theta = 2 arctan((delta + Delta)/Omega) with Delta = sqrt(Omega^2 +
    delta^2); delta = 0 gives pi/2, delta -> -inf gives 0, delta -> +inf
    gives pi.
    """
    if omega <= 0:
        raise ValueError("blending angle needs a positive drive rate")
    big_delta = math.hypot(omega, delta)
    return 2.0 * math.atan2(delta + big_delta, omega)


def delta_for_blending_angle(omega: float, theta: float) -> float:
    """Inverse of :func:`blending_angle` on theta in (0, pi)."""
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie strictly between 0 and pi")
    t = math.tan(theta / 2)
    return omega * (t - 1.0 / t) / 2.0


def dressing_angle(omega: float, a1: float, color: str) -> float:
    """Mixing angle of the dressed-parity family for a given drive pair.

    `color` is the qubit-qubit sideband color: "blue" (pair pumping)
    gives 2 arctan(2 A1/(Omega + sqrt(4 A1^2 + Omega^2))), "red"
    (exchange) gives pi minus that.
    """
    if omega <= 0:
        raise ValueError("dressing angle needs a positive drive rate")
    if a1 < 0:
        raise ValueError("Rabi rate must be non-negative")
    return mirror_angle(2.0 * math.atan2(2.0 * a1, omega + math.hypot(2.0 * a1, omega)), color)


@dataclass(frozen=True)
class RabiDressedCoefficients:
    """Closed-form coefficients of the Rabi-dressed family.

    The unnormalized closed-form vector is (E00, E01, E10, -1) in the
    (gg, ge, eg, ee) basis.  The closed form printed alongside the model
    is internally inconsistent at some parameter points, so callers
    should rely on :func:`rabi_dressed_state`'s numerical eigenvector and
    use :func:`closed_form_residual` to quantify the discrepancy.
    """

    x: float
    y: float
    e00: float
    e01: float
    e10: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"coefficient y must be positive, got {self.y}")
        if self.x < 0:
            raise ValueError(f"coefficient x must be non-negative, got {self.x}")

    def vector(self) -> np.ndarray:
        return np.array([self.e00, self.e01, self.e10, -1.0], dtype=complex)


def rabi_dressed_coefficients(delta: float, a1: float, omega: float) -> RabiDressedCoefficients:
    if omega <= 0:
        raise ValueError("coefficients need a positive drive rate")
    x = math.sqrt(4 * delta**2 * a1**2 + 4 * a1**2 * omega**2 + omega**4)
    y = math.sqrt(delta**2 + 2 * (2 * a1**2 + omega**2 + x))
    denom = 2 * a1**2 + omega**2 + x
    e00 = (delta - y) * (delta**2 + omega**2 + x + delta * y) / (2 * omega * denom)
    e01 = a1 * (delta - y) / denom
    e10 = -a1 * (delta**2 + omega**2 + x + delta * y) / (omega * denom)
    return RabiDressedCoefficients(x, y, e00, e01, e10)


def rabi_dressed_block(delta: float, a1: float, omega: float) -> ComplexOperator:
    """4x4 two-qubit block of the Rabi-dressed family: a blue qubit-qubit
    sideband at Omega, a Rabi drive A1 on q1, and the detuning delta split
    as -+delta/2 across the diagonal."""
    h = np.zeros((4, 4), dtype=complex)
    h[0, 3] = h[3, 0] = omega / 2.0
    h[0, 2] = h[2, 0] = a1 / 2.0
    h[1, 3] = h[3, 1] = a1 / 2.0
    h += np.diag([-delta / 2.0, delta / 2.0, -delta / 2.0, delta / 2.0])
    return ComplexOperator(TWO_QUBIT_LAYOUT, h)


def rabi_dressed_state(delta: float, a1: float, omega: float):
    """Rabi-dressed target: closed-form coefficients plus numerical state.

    Returns
    -------
    (RabiDressedCoefficients, StabilizationTarget)
        The target is the minimal-energy eigenvector of the two-qubit
        block, with the phase fixed so its largest component is real
        positive; the coefficients are returned for cross-checking only.
    """
    coeffs = rabi_dressed_coefficients(delta, a1, omega)
    ground = eigendecompose(rabi_dressed_block(delta, a1, omega)).vector(0)
    target = _normalized("rabi_dressed", (delta, a1, omega), ground)
    return coeffs, target


def closed_form_residual(delta: float, a1: float, omega: float) -> float:
    """||H v - lambda_min v|| for the normalized closed-form vector v."""
    coeffs = rabi_dressed_coefficients(delta, a1, omega)
    v = coeffs.vector()
    v = v / np.linalg.norm(v)
    h = rabi_dressed_block(delta, a1, omega).entries
    lam = np.linalg.eigvalsh(h)[0]
    return float(np.linalg.norm(h @ v - lam * v))


def _as_two_qubit_array(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        arr = rho.entries
    else:
        arr = np.asarray(rho, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {arr.shape}")
    return arr


def fidelity(rho, target: StabilizationTarget) -> float:
    """<psi| rho |psi> for a pure target against a two-qubit state."""
    arr = _as_two_qubit_array(rho)
    psi = target.amplitudes
    return float(np.real(psi.conj() @ arr @ psi))


def purity(rho) -> float:
    """Tr(rho^2), between 1/4 (maximally mixed) and 1 (pure)."""
    arr = _as_two_qubit_array(rho)
    return float(np.real(np.trace(arr @ arr)))


def parity_signature(rho) -> float:
    """2 (|<ee|rho|gg>| - |<ge|rho|eg>|); +1 for (gg-ee)/sqrt2, -1 for (ge-eg)/sqrt2."""
    arr = _as_two_qubit_array(rho)
    return float(2.0 * (abs(arr[3, 0]) - abs(arr[1, 2])))
