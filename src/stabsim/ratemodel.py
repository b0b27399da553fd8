"""Closed-form four-state rate model of the stabilization process.

The model tracks classical populations (w, x, y, z) on the basis
(target, ge, eg, orthogonal partner).  Refilling moves population toward
the target at a rate set by the qubit-resonator sideband and the
resonator linewidth; qubit decay redistributes population with
branching ratios sin^2(theta/2) / cos^2(theta/2).

A numerical steady state of the explicit 4x4 rate matrix is provided as
an independent oracle for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RateModel:
    """Refilling rate, qubit decay rate, blending angle and the resulting
    steady-state populations."""

    gamma_t: float
    gamma: float
    theta: float
    populations: tuple

    def __post_init__(self):
        pops = tuple(float(p) for p in self.populations)
        if len(pops) != 4:
            raise ValueError("expected four populations (w, x, y, z)")
        if any(p < 0 for p in pops):
            raise ValueError(f"negative population in {pops}")
        if abs(sum(pops) - 1.0) > 1e-12:
            raise ValueError(f"populations sum to {sum(pops)}, expected 1")
        object.__setattr__(self, "populations", pops)

    @property
    def fidelity(self) -> float:
        return self.populations[0]


def refilling_rate(w: float, kappa: float, theta: float, color: str = "blue") -> float:
    """Two-step refilling rate through a lossy resonator.

    blue: W^2 cos^2(theta/2) kappa / (kappa^2 + W^2 cos^2(theta/2));
    red uses sin^2(theta/2) instead.
    """
    if w <= 0 or kappa <= 0:
        raise ValueError("refilling rate needs positive W and kappa")
    proj = _branching(theta, color)
    coupling_sq = w * w * proj
    return coupling_sq * kappa / (kappa * kappa + coupling_sq)


def _branching(theta: float, color: str) -> float:
    if color == "blue":
        return math.cos(theta / 2.0) ** 2
    if color == "red":
        return math.sin(theta / 2.0) ** 2
    raise ValueError(f"unknown sideband color {color!r}")


def optimal_kappa(w: float, theta: float, color: str = "blue") -> float:
    """Resonator decay rate maximizing :func:`refilling_rate` at fixed W."""
    if w <= 0:
        raise ValueError("optimal kappa needs positive W")
    return w * math.sqrt(_branching(theta, color))


def steady_populations(gamma_t: float, gamma: float, theta: float) -> tuple:
    """Closed-form steady-state populations (w, x, y, z).

    w = ((Gamma_t + gamma sin^2(theta/2)) / (Gamma_t + gamma))^2, with x,
    y, z following from detailed balance of the refilling and decay
    processes.  The four populations sum to one identically.
    """
    if gamma_t < 0:
        raise ValueError("refilling rate must be non-negative")
    if gamma < 0 or gamma_t + gamma <= 0:
        raise ValueError("decay rate must be non-negative and not both rates zero")
    s2 = math.sin(theta / 2.0) ** 2
    c2 = math.cos(theta / 2.0) ** 2
    a = gamma_t + gamma * s2
    b = gamma_t + gamma
    w = (a / b) ** 2
    x = gamma * c2 * a / (b * b)
    z = (gamma * c2 / b) ** 2
    return (w, x, x, z)


def _theta_eff(theta: float, color: str) -> float:
    """theta for the blue sideband; pi - theta for the red one, whose decay branching flips."""
    if color not in ("blue", "red"):
        raise ValueError(f"unknown sideband color {color!r}")
    return theta if color == "blue" else math.pi - theta


def steady_fidelity(gamma_t: float, gamma: float, theta: float, color: str = "blue") -> float:
    """Steady-state target fidelity of the rate model.

    The blue-sideband scheme gives ((Gamma_t + gamma sin^2(theta/2)) /
    (Gamma_t + gamma))^2; the red-sideband variant swaps in
    cos^2(theta/2) because the decay branching toward the target flips.
    """
    return steady_populations(gamma_t, gamma, _theta_eff(theta, color))[0]


def rate_model(w: float, kappa: float, gamma: float, theta: float, color: str = "blue") -> RateModel:
    """Assemble the full rate model for one drive configuration."""
    gamma_t = refilling_rate(w, kappa, theta, color)
    pops = steady_populations(gamma_t, gamma, _theta_eff(theta, color))
    return RateModel(gamma_t, gamma, theta, pops)


def transition_rates(gamma_t: float, gamma: float, theta: float) -> np.ndarray:
    """Rate matrix R[i, j] = rate of j -> i over (target, ge, eg, partner).

    Refilling feeds ge/eg into the target and the partner into ge/eg;
    qubit decay branches with sin^2(theta/2) toward the target and
    cos^2(theta/2) toward the partner, and the reverse from both.
    """
    s2 = math.sin(theta / 2.0) ** 2
    c2 = math.cos(theta / 2.0) ** 2
    r = np.zeros((4, 4))
    r[0, 1] = r[0, 2] = gamma_t + gamma * s2
    r[1, 0] = r[2, 0] = gamma * c2
    r[1, 3] = r[2, 3] = gamma_t + gamma * s2
    r[3, 1] = r[3, 2] = gamma * c2
    return r


def rate_matrix_steady_state(rates: np.ndarray) -> np.ndarray:
    """Normalized null vector of the generator built from a rate matrix.

    `rates[i, j]` is the transition rate j -> i with zero diagonal.  The
    chain must be irreducible (unique steady state); a second
    near-null singular value raises ValueError.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
        raise ValueError("rate matrix must be square")
    if np.any(rates < 0):
        raise ValueError("transition rates must be non-negative")
    generator = rates - np.diag(rates.sum(axis=0))
    u, s, vt = np.linalg.svd(generator)
    scale = max(s[0], 1e-300)
    if s.size > 1 and s[-2] < 1e-10 * scale:
        raise ValueError("rate matrix is reducible: steady state is not unique")
    pi = vt[-1].real
    total = pi.sum()
    if abs(total) < 1e-12:
        raise ValueError("null vector has zero total population")
    pi = pi / total
    if np.any(pi < -1e-10):
        raise ValueError(f"steady state has negative entries: {pi}")
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()
