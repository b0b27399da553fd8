"""Effective sideband-rate formulas and the measured device constant table.

The inductive coupler is treated adiabatically as a flux-controlled
linear inductance, valid when the coupler Josephson energy dominates the
qubit ones (ratio above 10).  Flux-modulating the coupler at a sideband
frequency then yields a qubit-qubit rate proportional to the modulation
amplitude; a charge drive at half the pair-transition frequency yields
the qubit-resonator pair-pumping rate.

Josephson energies and capacitances enter only through ratios, so any
consistent unit works for them; qubit frequencies carry the output unit
(rad/us throughout this package).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional

ADIABATIC_MIN_RATIO = 10.0


class CalibrationError(ValueError):
    """Parameters outside the validity range of the effective formulas."""


@dataclass(frozen=True)
class CircuitParams:
    """Circuit constants and drive amplitudes for the rate formulas.

    `phi_dc` is the DC coupler flux phase in units of pi.  `epsilon` is
    the dimensionless flux-modulation amplitude.
    """

    ej1: float
    ej2: float
    ejc: float
    phi_dc: float
    epsilon: float = 0.0
    omega_q1: float = 0.0
    omega_q2: float = 0.0
    c_q1: float = 0.0
    c_q2: float = 0.0
    c_q12: float = 0.0

    @property
    def adiabatic_valid(self) -> bool:
        return self.ejc > ADIABATIC_MIN_RATIO * max(self.ej1, self.ej2)

    @property
    def phi_dc_rad(self) -> float:
        return self.phi_dc * math.pi


def _check_adiabatic(p: CircuitParams):
    if not p.adiabatic_valid:
        raise CalibrationError(
            f"coupler energy {p.ejc} is not >> qubit energies ({p.ej1}, {p.ej2}); "
            "the adiabatic coupler elimination does not apply"
        )


def _check_flux(p: CircuitParams):
    if abs(math.cos(p.phi_dc_rad)) < 1e-12:
        raise CalibrationError("flux bias at pi/2 makes the coupler inductance singular")


def qq_sideband_rate(p: CircuitParams) -> float:
    """Qubit-qubit sideband rate from flux modulation of the coupler.

    epsilon x sqrt(Ej1 Ej2)/(2 Ejc) x sqrt(w_q1 w_q2) x tan(phi)/cos(phi),
    the first-order modulation coefficient of the tunable coupling.
    """
    _check_adiabatic(p)
    _check_flux(p)
    phi = p.phi_dc_rad
    base = math.sqrt(p.ej1 * p.ej2) / (2.0 * p.ejc) * math.sqrt(p.omega_q1 * p.omega_q2)
    return p.epsilon * base * math.tan(phi) / math.cos(phi)


def static_couplings(p: CircuitParams) -> tuple:
    """Static inductive and capacitive qubit-qubit couplings (g1, g2)."""
    _check_adiabatic(p)
    _check_flux(p)
    g1 = (
        math.sqrt(p.ej1 * p.ej2)
        / (2.0 * p.ejc * math.cos(p.phi_dc_rad))
        * math.sqrt(p.omega_q1 * p.omega_q2)
    )
    g2 = math.sqrt(p.c_q1 * p.c_q2) / (2.0 * p.c_q12) * math.sqrt(p.omega_q1 * p.omega_q2)
    return g1, g2


def qr_blue_rate(g_qr: float, epsilon_q: float, delta_qr: float) -> float:
    """Pair-pumping qubit-resonator rate from a half-frequency charge drive:
    W = 16 g^3 epsilon_q^2 / Delta^4."""
    if g_qr <= 0 or epsilon_q <= 0 or delta_qr <= 0:
        raise CalibrationError("qr_blue_rate needs positive coupling, drive and detuning")
    return 16.0 * g_qr**3 * epsilon_q**2 / delta_qr**4


def kappa_from_resonator_t1(t1_res: float) -> float:
    """Resonator energy decay rate kappa = 1/T1 (1/us)."""
    if not t1_res > 0:
        raise CalibrationError("resonator lifetime must be positive")
    return 1.0 / t1_res


_QUBITS, _RESONATORS, _FLUX_POINTS = ("q1", "q2"), ("r1", "r2"), ("bias_point", "sweet_spot")

# every value a device table must hold, as its key path from the top; each is a
# finite number, and a t_ram or t_echo may be null, as the sweet-spot q2 echo time is
_REQUIRED_PATHS = (
    ("zz_shift_khz",),
    *((field, q) for field in ("qubit_ge_frequency_ghz", "anharmonicity_mhz", "readout_fidelity")
      for q in _QUBITS),
    *(("readout_frequency_ghz", r) for r in _RESONATORS),
    *(("coherence_us", point, "phi_dc_over_pi") for point in _FLUX_POINTS),
    *(("coherence_us", point, q, t) for point in _FLUX_POINTS for q in _QUBITS
      for t in ("t1", "t_ram", "t_echo")),
    *(("coherence_us", "bias_point", r, "t1") for r in _RESONATORS),
)


@dataclass(frozen=True)
class DeviceTable:
    """Measured device constants: frequencies, readout fidelities and
    coherence times at both coupler flux points.

    The stored ZZ shift is informational only; no operation applies it.
    """

    qubit_ge_frequency_ghz: dict
    anharmonicity_mhz: dict
    readout_frequency_ghz: dict
    zz_shift_khz: float
    readout_fidelity: dict
    coherence_us: dict

    def resonator_kappas(self) -> tuple:
        """(kappa1, kappa2) in 1/us from the bias-point resonator lifetimes."""
        bias = self.coherence_us["bias_point"]
        return (
            kappa_from_resonator_t1(bias["r1"]["t1"]),
            kappa_from_resonator_t1(bias["r2"]["t1"]),
        )

    def qubit_t1s(self, flux_point: str = "bias_point") -> tuple:
        point = self.coherence_us[flux_point]
        return point["q1"]["t1"], point["q2"]["t1"]


def load_device_table(path: Optional[str] = None) -> DeviceTable:
    """Load the bundled (or an explicit) device table; _REQUIRED_PATHS says what it must hold."""
    if path is None:
        raw = resources.files("stabsim.data").joinpath("device_table.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    data = json.loads(raw)
    for keys in _REQUIRED_PATHS:
        node = data
        for depth, key in enumerate(keys):
            if not isinstance(node, dict):
                where = repr(".".join(keys[:depth])) if depth else "top level"
                raise CalibrationError(f"device table {where} must be an object")
            if key not in node:
                raise CalibrationError(f"device table missing {'.'.join(keys[:depth + 1])!r}")
            node = node[key]
        number = isinstance(node, (int, float)) and not isinstance(node, bool)
        if not (number and math.isfinite(node) or node is None and keys[-1] in ("t_ram", "t_echo")):
            raise CalibrationError(f"device table {'.'.join(keys)!r} must be a finite number, "
                                   f"got {node!r}")
    return DeviceTable(
        qubit_ge_frequency_ghz=data["qubit_ge_frequency_ghz"],
        anharmonicity_mhz=data["anharmonicity_mhz"],
        readout_frequency_ghz=data["readout_frequency_ghz"],
        zz_shift_khz=float(data["zz_shift_khz"]),
        readout_fidelity=data["readout_fidelity"],
        coherence_us=data["coherence_us"],
    )
