import math

import numpy as np
import pytest

from stabsim.ratemodel import (
    RateModel,
    optimal_kappa,
    rate_matrix_steady_state,
    rate_model,
    refilling_rate,
    steady_fidelity,
    steady_populations,
    transition_rates,
)

TWO_PI = 2 * math.pi


def balance_system_residual(gamma_t, gamma, theta, pops):
    """Residual of the five balance equations that define the steady state.

    The partner state receives c^2 gamma from each of x and y once, so its
    inflow term is c2*gamma*(x+y); the target's outflow carries the factor
    2 because it feeds both intermediates."""
    w, x, y, z = pops
    s2 = math.sin(theta / 2) ** 2
    c2 = math.cos(theta / 2) ** 2
    eqs = [
        (gamma_t + s2 * gamma) * (x + y) - 2 * c2 * gamma * w,
        (gamma_t + s2 * gamma) * z + c2 * gamma * w - (gamma_t + gamma) * x,
        (gamma_t + s2 * gamma) * z + c2 * gamma * w - (gamma_t + gamma) * y,
        c2 * gamma * (x + y) - (2 * gamma_t + 2 * s2 * gamma) * z,
        w + x + y + z - 1.0,
    ]
    return max(abs(e) for e in eqs)


class TestRefillingRate:
    def test_dead_angle(self):
        assert refilling_rate(1.0, 1.0, math.pi, "blue") == pytest.approx(0.0)
        assert refilling_rate(1.0, 1.0, 0.0, "red") == pytest.approx(0.0)

    def test_matched_linewidth_maximum(self):
        w, theta = 2.0, 1.1
        kappa = w * math.cos(theta / 2)
        assert refilling_rate(w, kappa, theta, "blue") == pytest.approx(kappa / 2)

    def test_measured_parameters(self):
        # cross-checked against the relaxation gap of the rate-matrix
        # generator in the small-decay limit
        w, kappa = TWO_PI * 0.47, TWO_PI * 0.33
        gamma_t = refilling_rate(w, kappa, math.pi / 2, "blue")
        assert gamma_t / TWO_PI == pytest.approx(0.17, abs=0.01)
        rates = transition_rates(gamma_t, 1e-12, math.pi / 2)
        gen = rates - np.diag(rates.sum(axis=0))
        slowest_nonzero = sorted(-np.linalg.eigvals(gen).real)[1]
        assert slowest_nonzero == pytest.approx(gamma_t, rel=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            refilling_rate(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            refilling_rate(1.0, -1.0, 1.0)


class TestOptimalKappa:
    def test_bell_point(self):
        assert optimal_kappa(2.0, math.pi / 2, "blue") == pytest.approx(2.0 / math.sqrt(2))

    def test_dead_angle_degenerate(self):
        assert optimal_kappa(2.0, math.pi, "blue") == pytest.approx(0.0)

    def test_grid_argmax_oracle(self):
        # unimodality over 1000 random draws: the grid argmax always falls
        # on the analytic optimum within one grid cell
        rng = np.random.default_rng(11)
        kappas = np.linspace(1e-3, 12.0, 1201)
        step = kappas[1] - kappas[0]
        for _ in range(1000):
            w = rng.uniform(0.2, 5.0)
            theta = rng.uniform(0.2, math.pi - 0.2)
            color = "blue" if rng.uniform() < 0.5 else "red"
            proj = math.cos(theta / 2) ** 2 if color == "blue" else math.sin(theta / 2) ** 2
            coupling_sq = w * w * proj
            vals = coupling_sq * kappas / (kappas**2 + coupling_sq)
            best = kappas[int(np.argmax(vals))]
            assert abs(best - optimal_kappa(w, theta, color)) < step + 1e-9
            assert vals[int(np.argmax(vals))] == pytest.approx(
                refilling_rate(w, best, theta, color)
            )


class TestSteadyPopulations:
    def test_infinite_refilling(self):
        pops = steady_populations(1e12, 0.05, 1.0)
        assert pops[0] == pytest.approx(1.0, abs=1e-10)

    def test_no_drive_at_ground_angle(self):
        pops = steady_populations(0.0, 0.05, math.pi)
        assert pops == pytest.approx((1.0, 0.0, 0.0, 0.0))

    def test_printed_system_residual(self):
        pops = steady_populations(1.0, 0.05, math.pi / 2)
        assert balance_system_residual(1.0, 0.05, math.pi / 2, pops) < 1e-12

    def test_normalization_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            gt, g, th = rng.uniform(0, 5), rng.uniform(0.01, 2), rng.uniform(0, math.pi)
            assert abs(sum(steady_populations(gt, g, th)) - 1.0) < 1e-12


class TestSteadyFidelity:
    def test_no_decay(self):
        assert steady_fidelity(1.0, 0.0, 1.3, "blue") == pytest.approx(1.0)

    def test_ground_angle(self):
        assert steady_fidelity(0.7, 0.1, math.pi, "blue") == pytest.approx(1.0)
        # with zero refilling the dead angle still keeps the fixed point
        assert steady_fidelity(0.0, 0.1, math.pi, "blue") == pytest.approx(1.0)

    def test_measured_point(self):
        gamma_t = refilling_rate(TWO_PI * 0.47, TWO_PI * 0.33, math.pi / 2, "blue")
        gamma = (1 / 25.0 + 1 / 12.0) / 2.0
        f = steady_fidelity(gamma_t, gamma, math.pi / 2, "blue")
        assert f == pytest.approx(0.95, abs=0.01)

    def test_equals_population_w(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            gt, g, th = rng.uniform(0, 5), rng.uniform(0.01, 2), rng.uniform(0, math.pi)
            assert steady_fidelity(gt, g, th, "blue") == steady_populations(gt, g, th)[0]

    def test_monotone_in_refilling(self):
        gammas_t = np.linspace(0.0, 5.0, 60)
        vals = [steady_fidelity(gt, 0.08, 1.0, "blue") for gt in gammas_t]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_exchange_variant_swaps_branching(self):
        th = 1.0
        blue = steady_fidelity(0.5, 0.1, th, "blue")
        red = steady_fidelity(0.5, 0.1, math.pi - th, "red")
        assert blue == pytest.approx(red)


class TestRateMatrixSteadyState:
    def test_symmetric_two_state_chain(self):
        rates = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert rate_matrix_steady_state(rates) == pytest.approx([0.5, 0.5])

    def test_matches_closed_form(self):
        for gt, g, th in ((1.0, 0.05, math.pi / 2), (0.3, 0.11, 2.2), (2.5, 0.01, 0.4)):
            pops = rate_matrix_steady_state(transition_rates(gt, g, th))
            assert np.max(np.abs(pops - steady_populations(gt, g, th))) < 1e-9

    def test_pure_decay_collapses_to_lowest(self):
        # only downhill transitions toward state 0
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[0, 2] = rates[0, 3] = 0.7
        # make the chain technically irreducible with tiny uphill rates
        rates[1, 0] = rates[2, 0] = rates[3, 0] = 1e-12
        pops = rate_matrix_steady_state(rates)
        assert pops[0] > 1.0 - 1e-9

    def test_reducible_chain_rejected(self):
        with pytest.raises(ValueError):
            rate_matrix_steady_state(np.zeros((4, 4)))

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            rate_matrix_steady_state(np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestRateModelAssembly:
    def test_populations_validate(self):
        model = rate_model(2.0, 1.5, 0.08, math.pi / 2, "blue")
        assert model.fidelity == pytest.approx(
            steady_fidelity(model.gamma_t, 0.08, math.pi / 2, "blue")
        )
        assert abs(sum(model.populations) - 1.0) < 1e-12

    @pytest.mark.parametrize("color", ["blue", "red"])
    def test_fidelity_is_steady_fidelity_bitwise(self, color):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            w, kappa = rng.uniform(0.1, 5), rng.uniform(0.1, 5)
            g, th = rng.uniform(0.01, 2), rng.uniform(0.05, math.pi - 0.05)
            model = rate_model(w, kappa, g, th, color)
            assert model.fidelity == steady_fidelity(model.gamma_t, g, th, color)

    def test_invalid_populations_rejected(self):
        with pytest.raises(ValueError):
            RateModel(1.0, 0.1, 1.0, (0.5, 0.5, 0.5, -0.5))
        with pytest.raises(ValueError):
            RateModel(1.0, 0.1, 1.0, (0.5, 0.4, 0.2, 0.2))
