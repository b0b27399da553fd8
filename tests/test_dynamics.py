import math

import numpy as np
import pytest

from stabsim.builders import (
    NoiseSpec,
    build_even_parity_system,
    build_lindblad,
    LindbladProblem,
)
from stabsim.dynamics import (
    DegenerateSteadyStateError,
    DriveSchedule,
    FitError,
    IntegrationError,
    ScheduleSegment,
    evolve,
    evolve_schedule,
    fit_time_constant,
    generator_residual,
    liouvillian,
    steady_state,
)
from stabsim.hilbert import ComplexOperator, DensityMatrix, SpaceLayout, annihilation
from stabsim.targets import bell_psi_minus

TWO_PI = 2 * math.pi
LAYOUT = SpaceLayout()
QUBIT = SpaceLayout((("q1", 2),))

DEVICE_NOISE = NoiseSpec(
    kappa1=TWO_PI * 0.33, kappa2=TWO_PI * 0.43, t1_q1=25.0, t1_q2=12.0,
    tphi_q1=25.0, tphi_q2=25.0,
)


def even_segment(duration, builder="even_parity"):
    return ScheduleSegment(duration, builder, TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47)


def ground(layout):
    return DensityMatrix.from_ket(layout, layout.basis_state([0] * len(layout.subsystems)))


class TestEvolve:
    def test_free_evolution_is_identity(self):
        h = ComplexOperator(QUBIT, np.zeros((2, 2), dtype=complex))
        problem = LindbladProblem(h, ())
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        rho0 = DensityMatrix(QUBIT, np.outer(plus, plus))
        traj = evolve(problem, rho0, np.linspace(0, 3, 7))
        for state in traj.states:
            assert np.max(np.abs(state.entries - rho0.entries)) < 1e-12

    def test_single_qubit_relaxation(self):
        t1 = 4.0
        h = ComplexOperator(QUBIT, np.zeros((2, 2), dtype=complex))
        noise = NoiseSpec(kappa1=1.0, kappa2=1.0, t1_q1=t1, t1_q2=math.inf)
        problem = build_lindblad(h, noise)
        excited = DensityMatrix(QUBIT, np.diag([0.0, 1.0]).astype(complex))
        times = np.linspace(0.0, 10.0, 21)
        traj = evolve(problem, excited, times)
        for t, state in zip(traj.times, traj.states):
            assert state.entries[1, 1].real == pytest.approx(math.exp(-t / t1), abs=1e-7)

    def test_trace_and_positivity(self):
        problem = build_lindblad(
            build_even_parity_system(TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47, LAYOUT),
            DEVICE_NOISE,
        )
        traj = evolve(problem, ground(LAYOUT), np.linspace(0, 5, 11), target=bell_psi_minus())
        for state in traj.states:
            assert abs(np.trace(state.entries) - 1.0) < 1e-6
            assert np.linalg.eigvalsh(state.entries)[0] > -1e-6
        assert traj.fidelity[-1] > traj.fidelity[0]

    def test_grid_validation(self):
        h = ComplexOperator(QUBIT, np.zeros((2, 2), dtype=complex))
        problem = LindbladProblem(h, ())
        rho0 = ground(QUBIT)
        with pytest.raises(ValueError):
            evolve(problem, rho0, [1.0, 0.5])
        with pytest.raises(ValueError):
            evolve(problem, rho0, [-1.0, 0.5])
        with pytest.raises(ValueError):
            evolve(problem, rho0, [])

    @pytest.mark.parametrize("grid", [[0.0, math.inf], [0.0, math.nan], [math.nan]])
    def test_non_finite_grid_rejected(self, grid):
        problem = LindbladProblem(ComplexOperator(QUBIT, np.zeros((2, 2), dtype=complex)), ())
        with pytest.raises(ValueError, match="time grid must be finite"):
            evolve(problem, ground(QUBIT), grid)

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value):RuntimeWarning")
    def test_diverged_state_raises(self):
        # a 10 us step against a unit decay rate blows RK4 up to NaN by t = 2000 us
        h = ComplexOperator(QUBIT, np.zeros((2, 2), dtype=complex))
        problem = LindbladProblem(h, (annihilation(QUBIT, "q1"),))
        excited = DensityMatrix(QUBIT, np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(IntegrationError, match="non-finite"):
            evolve(problem, excited, [0.0, 2000.0], max_step=10.0)

    def test_step_halving_convergence(self):
        problem = build_lindblad(
            build_even_parity_system(TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47, LAYOUT),
            DEVICE_NOISE,
        )
        grid = [0.0, 2.0]
        target = bell_psi_minus()
        coarse = evolve(problem, ground(LAYOUT), grid, target=target, max_step=0.002)
        fine = evolve(problem, ground(LAYOUT), grid, target=target, max_step=0.001)
        assert abs(coarse.fidelity[-1] - fine.fidelity[-1]) < 1e-5


class TestLiouvillian:
    def test_action_matches_master_equation(self):
        problem = build_lindblad(
            build_even_parity_system(1.3, 0.2, 0.4, 0.3, LAYOUT),
            NoiseSpec(kappa1=0.5, kappa2=0.7, t1_q1=9.0, t1_q2=7.0, tphi_q1=11.0),
        )
        gen = liouvillian(problem)
        rng = np.random.default_rng(0)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        h = problem.hamiltonian.entries
        expected = -1j * (h @ rho - rho @ h)
        for op in problem.collapse_ops:
            l = op.entries
            expected += l @ rho @ l.conj().T - 0.5 * (
                l.conj().T @ l @ rho + rho @ l.conj().T @ l
            )
        applied = (gen @ rho.reshape(-1)).reshape(16, 16)
        assert np.max(np.abs(applied - expected)) < 1e-12

    def test_trace_annihilation(self):
        problem = build_lindblad(
            build_even_parity_system(1.0, 0.0, 0.3, 0.3, LAYOUT),
            NoiseSpec(kappa1=0.5, kappa2=0.5, t1_q1=5.0, t1_q2=5.0),
        )
        gen = liouvillian(problem)
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            out = (gen @ m.reshape(-1)).reshape(16, 16)
            assert abs(np.trace(out)) < 1e-10


class TestSteadyState:
    def test_undriven_system_relaxes_to_ground(self):
        h = build_even_parity_system(0.0, 0.0, 0.0, 0.0, LAYOUT)
        noise = NoiseSpec(kappa1=1.0, kappa2=1.0, t1_q1=5.0, t1_q2=5.0)
        rho = steady_state(build_lindblad(h, noise))
        vac = LAYOUT.basis_state("gg00")
        assert (vac.conj() @ rho.entries @ vac).real > 0.999

    def test_far_detuned_drive_keeps_ground(self):
        # a single weak, far-off-resonant sideband barely excites anything;
        # cross-checked against long-time integration
        layout = LAYOUT
        h = build_even_parity_system(TWO_PI * 0.05, TWO_PI * 5.0, 0.0, 0.0, layout)
        noise = NoiseSpec(kappa1=1.0, kappa2=1.0, t1_q1=5.0, t1_q2=5.0)
        problem = build_lindblad(h, noise)
        rho = steady_state(problem)
        vac = layout.basis_state("gg00")
        f_ss = (vac.conj() @ rho.entries @ vac).real
        assert f_ss > 0.99
        long = evolve(problem, ground(layout), [0.0, 80.0], max_step=0.002).final_state()
        assert np.max(np.abs(long.entries - rho.entries)) < 1e-4

    def test_generator_residual_small(self):
        problem = build_lindblad(
            build_even_parity_system(TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47, LAYOUT),
            DEVICE_NOISE,
        )
        rho = steady_state(problem)
        assert generator_residual(problem, rho) < 1e-8

    def test_degenerate_kernel_detected(self):
        h = ComplexOperator(QUBIT, np.zeros((2, 2), dtype=complex))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(LindbladProblem(h, ()))


class TestSchedule:
    def test_single_segment_matches_evolve(self):
        problem = build_lindblad(
            build_even_parity_system(TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47, LAYOUT),
            DEVICE_NOISE,
        )
        grid = np.linspace(0.0, 2.0, 9)
        direct = evolve(problem, ground(LAYOUT), grid)
        schedule = DriveSchedule((even_segment(2.0),), ground(LAYOUT), DEVICE_NOISE)
        via_schedule = evolve_schedule(schedule, grid)
        for a, b in zip(direct.states, via_schedule.states):
            assert np.max(np.abs(a.entries - b.entries)) < 1e-12

    def test_splitting_segment_is_identity(self):
        grid = np.linspace(0.0, 2.0, 9)
        one = DriveSchedule((even_segment(2.0),), ground(LAYOUT), DEVICE_NOISE)
        two = DriveSchedule((even_segment(1.0), even_segment(1.0)), ground(LAYOUT), DEVICE_NOISE)
        t1 = evolve_schedule(one, grid)
        t2 = evolve_schedule(two, grid)
        for a, b in zip(t1.states, t2.states):
            assert np.max(np.abs(a.entries - b.entries)) < 1e-9

    def test_grid_outside_schedule_rejected(self):
        schedule = DriveSchedule((even_segment(1.0),), ground(LAYOUT), DEVICE_NOISE)
        with pytest.raises(ValueError):
            evolve_schedule(schedule, [0.0, 2.0])

    def test_unknown_builder_rejected(self):
        with pytest.raises(ValueError, match="unknown builder"):
            even_segment(1.0, "mystery")

    @pytest.mark.parametrize("duration", [math.nan, math.inf, 0.0, -1.0])
    def test_segment_duration_must_be_finite_and_positive(self, duration):
        with pytest.raises(ValueError, match="duration"):
            even_segment(duration)

    def test_grid_just_past_the_end_rejected(self):
        # past the end by more than the boundary tolerance, so no segment samples it
        schedule = DriveSchedule((even_segment(0.2),), ground(LAYOUT), DEVICE_NOISE)
        with pytest.raises(ValueError, match="past the end"):
            evolve_schedule(schedule, [0.0, 0.1, 0.2 + 5e-10])

    def test_samples_at_start_boundary_and_just_before_end(self):
        odd = ScheduleSegment(0.2, "odd_parity", TWO_PI * 3.0, 0.0, TWO_PI * 0.36, TWO_PI * 0.36)
        schedule = DriveSchedule((even_segment(0.3), odd), ground(LAYOUT), DEVICE_NOISE)
        grid = np.array([0.0, 0.3, 0.5 - 5e-13])
        traj = evolve_schedule(schedule, grid)
        assert len(traj.states) == grid.size
        assert np.array_equal(traj.times, grid)
        first = build_lindblad(
            build_even_parity_system(TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47, LAYOUT),
            DEVICE_NOISE,
        )
        alone = evolve(first, ground(LAYOUT), [0.0, 0.3])
        assert traj.states[1].entries.tobytes() == alone.final_state().entries.tobytes()
        assert traj.states[0].entries.tobytes() == ground(LAYOUT).entries.tobytes()


class TestFitTimeConstant:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 60)
        v = np.exp(-t / 2.0)
        fit = fit_time_constant(t, v, direction="down")
        assert fit.tau == pytest.approx(2.0, abs=1e-6)
        assert fit.residual < 1e-10

    def test_rising_exponential_with_offset(self):
        t = np.linspace(0.0, 8.0, 50)
        v = 0.9 - 0.8 * np.exp(-t / 1.3)
        fit = fit_time_constant(t, v, direction="up")
        assert fit.tau == pytest.approx(1.3, abs=1e-6)
        assert fit.v_inf == pytest.approx(0.9, abs=1e-8)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_time_constant([0, 1, 2, 3], [1, 0.5, 0.25, 0.12])

    def test_failed_fit_raises(self):
        t = np.linspace(0.0, 1.0, 10)
        v = np.full(10, np.nan)
        with pytest.raises(FitError):
            fit_time_constant(t, v)
