"""Rotating-frame Hamiltonians and Lindblad problems for all drive combinations.

Sideband colors follow the usual convention: a "red" qubit-resonator (or
qubit-qubit) sideband exchanges excitations (a^dag b + h.c.), a "blue"
one pumps pairs (a b + h.c.).  All rates and detunings are angular
frequencies in rad/us.

The named builders reproduce fixed drive recipes with their printed
detuning placement; :func:`plan_stabilization` derives resonator
detunings for an arbitrary two-qubit block from its eigenstructure and
assigns them to the resonator that actually mediates each refilling
transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .hilbert import (
    ComplexOperator,
    EigenSystem,
    SpaceLayout,
    annihilation,
    eigendecompose,
    number_op,
)
from .targets import TWO_QUBIT_LAYOUT, StabilizationTarget, _normalized, check_color

# plan tolerances relative to max|E|: E_A+E_D-E_B-E_C, and the least ground gap E_B-E_A
MATCHING_TOL = 1e-6
DEGENERATE_GAP_TOL = 1e-12


class EnergyMatchingError(ValueError):
    """The two-qubit block violates E_A + E_D = E_B + E_C."""


def _check_rate_and_detuning(kind: str, rate: float, detuning: float):
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError(f"{kind} rate must be finite and non-negative, got {rate}")
    if not math.isfinite(detuning):
        raise ValueError(f"{kind} detuning must be finite, got {detuning}")


@dataclass(frozen=True)
class SidebandDrive:
    """A two-body parametric drive: color, rate and frequency detuning."""

    color: str
    rate: float
    detuning: float = 0.0

    def __post_init__(self):
        check_color(self.color)
        _check_rate_and_detuning("sideband", self.rate, self.detuning)


@dataclass(frozen=True)
class RabiDrive:
    """A single-qubit drive: rate and frequency detuning."""

    rate: float
    detuning: float = 0.0

    def __post_init__(self):
        _check_rate_and_detuning("Rabi", self.rate, self.detuning)


@dataclass(frozen=True)
class NoiseSpec:
    """Dissipation rates: resonator decay (1/us), qubit T1 and pure-dephasing
    times (us).  Infinite times switch the corresponding channel off; the
    resonator decay rates must be finite."""

    kappa1: float
    kappa2: float
    t1_q1: float
    t1_q2: float
    tphi_q1: float = math.inf
    tphi_q2: float = math.inf

    def __post_init__(self):
        for name in ("kappa1", "kappa2", "t1_q1", "t1_q2", "tphi_q1", "tphi_q2"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            if name.startswith("kappa") and value == math.inf:
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class LindbladProblem:
    """A Hermitian Hamiltonian plus collapse operators on one layout."""

    hamiltonian: ComplexOperator
    collapse_ops: tuple

    def __post_init__(self):
        if not self.hamiltonian.hermitian:
            raise ValueError("Lindblad Hamiltonian must be Hermitian")
        ops = tuple(self.collapse_ops)
        for op in ops:
            if op.layout != self.hamiltonian.layout:
                raise ValueError("all collapse operators must share the Hamiltonian layout")
        object.__setattr__(self, "collapse_ops", ops)

    @property
    def layout(self) -> SpaceLayout:
        return self.hamiltonian.layout


def assemble(
    hqq: ComplexOperator, qr1: SidebandDrive, qr2: SidebandDrive, layout: SpaceLayout
) -> ComplexOperator:
    """Full-system Hamiltonian: a two-qubit block plus one sideband per pair.

    H = hqq (x) 1 + (W1/2)(o_q1 a_r1 + h.c.) + (W2/2)(o_q2 a_r2 + h.c.)
        + det1 n_r1 + det2 n_r2
    with o_q = a_q for a blue sideband and a_q^dag for a red one, and each
    resonator's photon energy taken from its sideband detuning.
    """
    res_dim = layout.total_dim // 4
    a = {label: annihilation(layout, label).entries for label in ("q1", "q2", "r1", "r2")}
    h = np.kron(hqq.entries, np.eye(res_dim, dtype=complex))
    for aq, ar, drive in ((a["q1"], a["r1"], qr1), (a["q2"], a["r2"], qr2)):
        term = (aq if drive.color == "blue" else aq.conj().T) @ ar
        h += (drive.rate / 2.0) * (term + term.conj().T)
    h += (
        qr1.detuning * (a["r1"].conj().T @ a["r1"])
        + qr2.detuning * (a["r2"].conj().T @ a["r2"])
    )
    return ComplexOperator(layout, h)


class Recipe(NamedTuple):
    """Qubit-qubit color, qubit-resonator colors, sign of the resonator detunings."""

    qq: str
    qr: tuple
    sign: float = 1.0


# the named drive recipes; at given rates each selects one stabilized state
RECIPES = {
    "even_parity": Recipe("blue", ("blue", "blue")),
    "odd_parity": Recipe("red", ("red", "blue")),
    "red_red": Recipe("blue", ("red", "red")),
    "opposite_detuning": Recipe("blue", ("blue", "blue"), -1.0),
}


def _sideband_recipe(
    name: str, omega: float, delta: float, w1: float, w2: float, layout: Optional[SpaceLayout]
) -> ComplexOperator:
    """A named recipe: the qubit-qubit sideband at Omega with detuning delta
    on q1, and resonator detunings sign*(Delta +- delta)/2."""
    qq_color, (c1, c2), sign = RECIPES[name]
    big_delta = math.hypot(omega, delta)
    hqq = build_qubit_block(qq=SidebandDrive(qq_color, omega, delta))
    return assemble(
        hqq,
        SidebandDrive(c1, w1, sign * (big_delta + delta) / 2.0),
        SidebandDrive(c2, w2, sign * (big_delta - delta) / 2.0),
        layout or SpaceLayout(),
    )


def build_even_parity_system(
    omega: float, delta: float, w1: float, w2: float, layout: Optional[SpaceLayout] = None
) -> ComplexOperator:
    """Pair-pumping stabilization Hamiltonian for the (gg, ee) blending family.

    H = (Omega/2)(a_q1 a_q2 + h.c.) + delta n_q1
        + (W1/2)(a_q1 a_r1 + h.c.) + (W2/2)(a_q2 a_r2 + h.c.)
        + ((Delta+delta)/2) n_r1 + ((Delta-delta)/2) n_r2
    """
    return _sideband_recipe("even_parity", omega, delta, w1, w2, layout)


def build_odd_parity_system(
    omega: float, delta: float, w3: float, w4: float, layout: Optional[SpaceLayout] = None
) -> ComplexOperator:
    """Exchange-pumping Hamiltonian for the (ge, eg) blending family.

    Qubit-qubit red sideband at Omega with detuning delta on q1, a red
    sideband on the first qubit-resonator pair (rate W3) and a blue one
    on the second (rate W4); resonator detunings (Delta+delta)/2 and
    (Delta-delta)/2.
    """
    return _sideband_recipe("odd_parity", omega, delta, w3, w4, layout)


def build_color_variant(
    omega: float,
    delta: float,
    w1: float,
    w2: float,
    variant: str,
    layout: Optional[SpaceLayout] = None,
) -> ComplexOperator:
    """The system of any recipe named in :data:`RECIPES`.

    The two parity recipes go through their named builders.  "red_red"
    swaps both qubit-resonator sidebands of the even-parity recipe to
    exchange form with the same resonator detunings; "opposite_detuning"
    keeps the blue sidebands and flips the sign of both resonator diagonal
    terms, which moves the stabilized point to the orthogonal member of
    the family.
    """
    if variant not in RECIPES:
        raise ValueError(f"unknown variant {variant!r}; expected one of {tuple(RECIPES)}")
    if variant == "even_parity":
        return build_even_parity_system(omega, delta, w1, w2, layout)
    if variant == "odd_parity":
        return build_odd_parity_system(omega, delta, w1, w2, layout)
    return _sideband_recipe(variant, omega, delta, w1, w2, layout)


def build_qubit_block(
    qq: Optional[SidebandDrive] = None,
    rabi_q1: Optional[RabiDrive] = None,
    rabi_q2: Optional[RabiDrive] = None,
) -> ComplexOperator:
    """4x4 rotating-frame two-qubit Hamiltonian in the basis (gg, ge, eg, ee)
    of at most one qubit-qubit sideband and one Rabi drive per qubit.

    The qubit-qubit sideband detuning sits on the q1-excited states; the
    split-detuning block of the Rabi-dressed family is
    :func:`stabsim.targets.rabi_dressed_block`.
    """
    h = np.zeros((4, 4), dtype=complex)
    # a Rabi drive flips one qubit; its detuning shifts the states where it is excited
    for rabi, pairs, excited in (
        (rabi_q1, ((0, 2), (1, 3)), [2, 3]),
        (rabi_q2, ((0, 1), (2, 3)), [1, 3]),
    ):
        if rabi is not None:
            for i, j in pairs:
                h[i, j] = h[j, i] = h[i, j] + rabi.rate / 2.0
            h[excited, excited] += rabi.detuning
    if qq is not None:
        i, j = (0, 3) if qq.color == "blue" else (1, 2)
        h[i, j] = h[j, i] = h[i, j] + qq.rate / 2.0
        h[[2, 3], [2, 3]] += qq.detuning
    return ComplexOperator(TWO_QUBIT_LAYOUT, h)


@dataclass(frozen=True)
class StabilizationPlan:
    """Resonator detunings derived from a two-qubit block's eigenstructure."""

    hqq: ComplexOperator
    eigen: EigenSystem
    delta_big: float
    qr1: SidebandDrive
    qr2: SidebandDrive
    target: StabilizationTarget


def _refill_coupling(eigen: EigenSystem, qubit: int, color: str) -> np.ndarray:
    """|<A| o_q |X>| for X = each eigenstate, with o_q the refilling operator.

    A blue sideband refills the target through o_q = a_q^dag (the photon
    is created together with a qubit excitation), a red one through
    o_q = a_q."""
    aq = annihilation(TWO_QUBIT_LAYOUT, f"q{qubit}").entries
    op = aq.conj().T if color == "blue" else aq
    a = eigen.vector(0)
    return np.abs(a.conj() @ op @ eigen.vectors)


def plan_stabilization(
    hqq: ComplexOperator,
    w1: float,
    w2: float,
    colors: tuple = ("blue", "blue"),
) -> StabilizationPlan:
    """Derive resonator photon energies that put all refilling paths on resonance.

    The two detunings are the eigen-gaps E_B - E_A and E_C - E_A of the
    two-qubit block; each gap goes to the resonator whose qubit actually
    couples the target to that eigenstate (ties fall back to ascending
    order).  Raises :class:`EnergyMatchingError` when
    E_A + E_D != E_B + E_C beyond ``MATCHING_TOL`` relative to max|E|,
    and ValueError when the ground state is degenerate (E_B - E_A at most
    ``DEGENERATE_GAP_TOL`` relative to max|E|).
    """
    if hqq.entries.shape != (4, 4):
        raise ValueError("plan_stabilization expects a 4x4 two-qubit block")
    if len(colors) != 2:
        raise ValueError(f"plan_stabilization needs one color per qubit, got {colors!r}")
    for color in colors:
        check_color(color)
    eigen = eigendecompose(hqq)
    e = eigen.values
    scale = max(np.max(np.abs(e)), 1e-30)
    mismatch = abs(e[0] + e[3] - e[1] - e[2])
    if mismatch > MATCHING_TOL * scale:
        raise EnergyMatchingError(
            f"E_A+E_D-E_B-E_C = {mismatch:.3e} exceeds {MATCHING_TOL:.1e} x max|E| = "
            f"{MATCHING_TOL * scale:.3e}; this block cannot be stabilized"
        )
    gap_b = e[1] - e[0]
    gap_c = e[2] - e[0]
    if gap_b <= DEGENERATE_GAP_TOL * scale:
        raise ValueError(f"degenerate ground state (E_B-E_A = {gap_b:.3e}); no unique target")
    m1 = _refill_coupling(eigen, 1, colors[0])
    m2 = _refill_coupling(eigen, 2, colors[1])
    # r1 takes the gap of whichever middle state q1 connects to the target
    if m1[1] * m2[2] >= m1[2] * m2[1]:
        det1, det2 = gap_b, gap_c
    else:
        det1, det2 = gap_c, gap_b
    target = _normalized("eigenstate", tuple(np.round(e, 12)), eigen.vector(0))
    return StabilizationPlan(
        hqq=hqq,
        eigen=eigen,
        delta_big=float(e[3] - e[0]),
        qr1=SidebandDrive(colors[0], w1, float(det1)),
        qr2=SidebandDrive(colors[1], w2, float(det2)),
        target=target,
    )


def build_from_plan(plan: StabilizationPlan, layout: Optional[SpaceLayout] = None) -> ComplexOperator:
    """Assemble the full-system Hamiltonian described by a stabilization plan."""
    return assemble(plan.hqq, plan.qr1, plan.qr2, layout or SpaceLayout())


def build_lindblad(h: ComplexOperator, noise: NoiseSpec) -> LindbladProblem:
    """Attach decay and dephasing collapse operators to a Hamiltonian.

    Collapse operators: sqrt(kappa_j) a_rj for each resonator present,
    sqrt(1/T1_qj) a_qj and sqrt(2/Tphi_qj) n_qj for each qubit present.
    A pure-dephasing operator normalized this way makes a lone qubit's
    coherence decay at exactly 1/Tphi.
    """
    layout = h.layout
    ops = []
    for label, rate in (("r1", noise.kappa1), ("r2", noise.kappa2)):
        if label in layout.labels:
            ops.append(math.sqrt(rate) * annihilation(layout, label).entries)
    for label, t1, tphi in (
        ("q1", noise.t1_q1, noise.tphi_q1),
        ("q2", noise.t1_q2, noise.tphi_q2),
    ):
        if label not in layout.labels:
            continue
        if math.isfinite(t1):
            ops.append(math.sqrt(1.0 / t1) * annihilation(layout, label).entries)
        if math.isfinite(tphi):
            ops.append(math.sqrt(2.0 / tphi) * number_op(layout, label).entries)
    return LindbladProblem(h, tuple(ComplexOperator(layout, op) for op in ops))
