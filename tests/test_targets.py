import math

import numpy as np
import pytest
from scipy.optimize import brentq

from stabsim.builders import RabiDrive, SidebandDrive, build_qubit_block, plan_stabilization
from stabsim.ratemodel import optimal_kappa, rate_model, refilling_rate, steady_fidelity
from stabsim.targets import (
    A_Q1,
    StabilizationTarget,
    bell_phi_minus,
    bell_psi_minus,
    blending_angle,
    closed_form_residual,
    delta_for_blending_angle,
    dressed_parity_state,
    dressing_angle,
    fidelity,
    parity_signature,
    phi_theta,
    product_state,
    psi_theta,
    purity,
    rabi_dressed_coefficients,
    rabi_dressed_state,
    sideband_factor,
)

SQ2 = math.sqrt(2.0)


class TestBlendingFamilies:
    def test_bell_point(self):
        t = psi_theta(math.pi / 2)
        assert np.allclose(t.amplitudes, np.array([1, 0, 0, -1]) / SQ2)

    def test_psi_pi_is_ground_pair(self):
        assert np.allclose(psi_theta(math.pi).amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_phi_zero(self):
        assert np.allclose(phi_theta(0.0).amplitudes, [0, 0, -1, 0])

    def test_unit_norm_over_grid(self):
        for theta in np.linspace(0, 2 * math.pi, 41):
            for target in (psi_theta(theta), phi_theta(theta)):
                assert abs(np.linalg.norm(target.amplitudes) - 1.0) < 1e-12

    def test_psi_is_minimal_eigenvector_of_even_block(self):
        # invert theta -> delta numerically, then check the ground state
        omega = 1.7
        for theta in np.linspace(0.15, math.pi - 0.15, 17):
            delta = brentq(
                lambda d: blending_angle(omega, d) - theta, -1e4, 1e4, xtol=1e-13
            )
            h = build_qubit_block(qq=SidebandDrive("blue", omega, delta))
            vals, vecs = np.linalg.eigh(h.entries)
            ground = vecs[:, 0]
            overlap = abs(np.vdot(psi_theta(theta).amplitudes, ground)) ** 2
            assert overlap > 1.0 - 1e-9


class TestStabilizationTarget:
    # built directly: psi_theta(nan) would trip the RuntimeWarning filter first
    @pytest.mark.parametrize("amps", [[math.nan, 0.0, 0.0, 0.0], [0.6, math.nan, 0.8, 0.0],
                                      [math.inf, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]],
                             ids=["nan", "nan_mixed", "inf", "norm_sqrt2"])
    def test_non_unit_amplitudes_rejected(self, amps):
        with pytest.raises(ValueError, match="norm"):
            StabilizationTarget(amps)


class TestBlendingAngle:
    def test_zero_detuning(self):
        assert blending_angle(2.0, 0.0) == pytest.approx(math.pi / 2)

    def test_large_negative_detuning_limit(self):
        assert blending_angle(1.0, -1e9) < 1e-8

    def test_known_value_against_root_finding(self):
        # tan(theta/2) = (delta + Delta)/Omega inverted numerically
        omega, delta = 1.0, 1.0 / math.sqrt(3.0)
        theta_oracle = brentq(
            lambda th: math.tan(th / 2)
            - (delta + math.hypot(omega, delta)) / omega,
            1e-6,
            math.pi - 1e-6,
            xtol=1e-14,
        )
        assert theta_oracle == pytest.approx(2 * math.pi / 3, abs=1e-10)
        assert blending_angle(omega, delta) == pytest.approx(theta_oracle, abs=1e-12)

    def test_inverse_roundtrip(self):
        omega = 3.3
        for theta in np.linspace(0.05, math.pi - 0.05, 21):
            delta = delta_for_blending_angle(omega, theta)
            assert blending_angle(omega, delta) == pytest.approx(theta, abs=1e-12)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            blending_angle(0.0, 1.0)


class TestProductStates:
    def test_corners(self):
        assert np.allclose(product_state(0, 0).amplitudes, [1, 0, 0, 0])
        assert np.allclose(product_state(math.pi, math.pi).amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_half_rotation(self):
        # direct expansion of (|g>+|e>)/sqrt2 on q1 with q2 in |g>
        amps = product_state(math.pi / 2, 0.0).amplitudes
        assert np.allclose(amps, [1 / SQ2, 0, 1 / SQ2, 0])


class TestDressedParity:
    def test_endpoints(self):
        assert dressing_angle(2.0, 0.0, "blue") == pytest.approx(0.0)
        assert dressing_angle(2.0, 0.0, "red") == pytest.approx(math.pi)
        assert np.allclose(
            dressed_parity_state(0.0).amplitudes, bell_psi_minus().amplitudes
        )
        assert np.allclose(
            dressed_parity_state(math.pi).amplitudes, bell_phi_minus().amplitudes
        )

    def test_matches_ground_state_of_pair_pump_block(self):
        omega, a1 = 2.0, 1.0
        theta1 = dressing_angle(omega, a1, "blue")
        h = build_qubit_block(qq=SidebandDrive("blue", omega, 0.0), rabi_q1=RabiDrive(a1, 0.0))
        vals, vecs = np.linalg.eigh(h.entries)
        overlap = abs(np.vdot(dressed_parity_state(theta1).amplitudes, vecs[:, 0])) ** 2
        assert overlap > 1.0 - 1e-9

    def test_red_blue_sum_to_pi(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            omega = rng.uniform(0.1, 10)
            a1 = rng.uniform(0.0, 10)
            total = dressing_angle(omega, a1, "blue") + dressing_angle(omega, a1, "red")
            assert total == pytest.approx(math.pi, abs=1e-12)


# every public function that takes a sideband color, called with `color`
COLOR_USERS = {
    "SidebandDrive": lambda c: SidebandDrive(c, 1.0),
    "plan_stabilization": lambda c: plan_stabilization(
        build_qubit_block(qq=SidebandDrive("blue", 2.0)), 0.1, 0.1, ("blue", c)
    ),
    "dressing_angle": lambda c: dressing_angle(2.0, 1.0, c),
    "sideband_factor": lambda c: sideband_factor(A_Q1, c),
    "refilling_rate": lambda c: refilling_rate(1.0, 1.0, 1.0, c),
    "optimal_kappa": lambda c: optimal_kappa(1.0, 1.0, c),
    "steady_fidelity": lambda c: steady_fidelity(0.5, 0.1, 1.0, c),
    "rate_model": lambda c: rate_model(1.0, 1.0, 0.1, 1.0, c),
}


@pytest.mark.parametrize("name", list(COLOR_USERS))
def test_unknown_color_rejected_alike(name):
    with pytest.raises(ValueError) as exc:
        COLOR_USERS[name]("x")
    assert str(exc.value) == "unknown sideband color 'x'; expected one of ('red', 'blue')"


class TestRabiDressed:
    def test_origin_is_bell_state(self):
        _, target = rabi_dressed_state(0.0, 0.0, 2.0)
        f = abs(np.vdot(bell_psi_minus().amplitudes, target.amplitudes)) ** 2
        assert f > 1.0 - 1e-12

    def test_closed_form_is_not_eigenvector_at_origin(self):
        # printed coefficients give (-1, 0, 0, -1) at the origin, which is
        # orthogonal to the actual ground state of the block
        coeffs = rabi_dressed_coefficients(0.0, 0.0, 2.0)
        assert np.allclose(coeffs, [-1, 0, 0, -1])
        assert closed_form_residual(0.0, 0.0, 2.0) > 0.5

    @pytest.mark.parametrize("args", [(math.nan, 0.3, 2.0), (0.1, math.nan, 2.0),
                                      (math.inf, 0.3, 2.0), (0.1, 0.3, math.inf)],
                             ids=["nan-delta", "nan-a1", "inf-delta", "inf-omega"])
    def test_coefficients_reject_non_finite(self, args):
        with pytest.raises(ValueError):
            rabi_dressed_coefficients(*args)

    def test_strong_rabi_limit(self):
        # ground state of the dominant single-qubit drive: |-x> on q1 with
        # the pair drive selecting |+x> on q2
        omega = 1.0
        a1 = 100.0 * omega
        _, target = rabi_dressed_state(0.0, a1, omega)
        minus = np.array([1.0, -1.0]) / SQ2
        plus = np.array([1.0, 1.0]) / SQ2
        limit = np.kron(minus, plus)
        assert abs(np.vdot(limit, target.amplitudes)) ** 2 > 0.999

    def test_coefficients_match_eigenvector_when_consistent(self):
        # away from the origin the closed form may or may not track the
        # solver; the residual must be reported, never assumed zero
        res = closed_form_residual(0.3, 0.4, 2.0)
        assert res >= 0.0


class TestMetrics:
    def test_fidelity_pure(self):
        t = bell_psi_minus()
        assert fidelity(t.density(), t) == pytest.approx(1.0)

    def test_fidelity_mixed(self):
        t = bell_psi_minus()
        assert fidelity(np.eye(4) / 4.0, t) == pytest.approx(0.25)
        rho = 0.8 * t.density() + 0.2 * np.eye(4) / 4.0
        assert fidelity(rho, t) == pytest.approx(0.85)

    def test_purity(self):
        assert purity(bell_phi_minus().density()) == pytest.approx(1.0)
        assert purity(np.eye(4) / 4.0) == pytest.approx(0.25)

    def test_parity_signature_values(self):
        assert parity_signature(bell_psi_minus().density()) == pytest.approx(1.0)
        assert parity_signature(bell_phi_minus().density()) == pytest.approx(-1.0)
        assert parity_signature(np.eye(4) / 4.0) == pytest.approx(0.0)
        mix = 0.5 * bell_psi_minus().density() + 0.5 * bell_phi_minus().density()
        assert parity_signature(mix) == pytest.approx(0.0)

    def test_parity_signature_phase_invariance(self):
        base = bell_psi_minus().density()
        for phase in (0.3, 1.2, -2.5):
            rho = base.copy()
            rho[3, 0] *= np.exp(1j * phase)
            rho[0, 3] = rho[3, 0].conjugate()
            assert parity_signature(rho) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(3) / 3.0, bell_psi_minus())

    def test_stack_gives_each_state_its_single_value(self):
        # the per-state formulas the stacked metrics replace are the reference
        rng = np.random.default_rng(5)
        m = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
        stack = m @ m.conj().swapaxes(1, 2)
        stack /= np.trace(stack, axis1=1, axis2=2).real[:, None, None]
        target = psi_theta(1.1)
        amps = target.amplitudes
        cases = [
            (lambda r: fidelity(r, target), lambda a: np.real(amps.conj() @ a @ amps)),
            (purity, lambda a: np.real(np.trace(a @ a))),
            (parity_signature, lambda a: 2.0 * (abs(a[3, 0]) - abs(a[1, 2]))),
        ]
        for metric, per_state in cases:
            values = metric(stack)
            assert isinstance(values, np.ndarray) and values.shape == (7,)
            assert np.allclose(values, [per_state(a) for a in stack], rtol=0, atol=1e-15)
            singles = [metric(a) for a in stack]
            assert all(type(v) is float for v in singles)
            assert np.allclose(singles, values, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(4, 4, 4, 4), (3, 4, 5), (4,)])
    def test_stack_of_the_wrong_shape_rejected(self, shape):
        for metric in (lambda r: fidelity(r, bell_psi_minus()), purity, parity_signature):
            with pytest.raises(ValueError):
                metric(np.zeros(shape, dtype=complex))
