import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csc_array
from scipy.sparse.linalg import MatrixRankWarning, splu

from stabsim.builders import (
    RECIPES,
    NoiseSpec,
    RabiDrive,
    SidebandDrive,
    build_color_variant,
    build_even_parity_system,
    build_lindblad,
    build_odd_parity_system,
    build_qubit_block,
    LindbladProblem,
)
from stabsim.dynamics import (
    _inverse_condition,
    DegenerateSteadyStateError,
    DriveSchedule,
    FitError,
    IntegrationError,
    ScheduleSegment,
    charge_gaps,
    conserved_charge,
    default_step,
    evolve,
    evolve_schedule,
    fit_time_constant,
    generator_residual,
    liouvillian,
    steady_state,
)
from stabsim.hilbert import ComplexOperator, DensityMatrix, SpaceLayout, annihilation
import stabsim.dynamics
import stabsim.scenarios
from stabsim.scenarios import run_scenario
from stabsim.targets import bell_psi_minus

TWO_PI = 2 * math.pi
LAYOUT = SpaceLayout()
LAYOUT_D36 = SpaceLayout((("q1", 2), ("q2", 2), ("r1", 3), ("r2", 3)))
QUBIT = SpaceLayout((("q1", 2),))

DEVICE_NOISE = NoiseSpec(
    kappa1=TWO_PI * 0.33, kappa2=TWO_PI * 0.43, t1_q1=25.0, t1_q2=12.0,
    tphi_q1=25.0, tphi_q2=25.0,
)


def even_segment(duration, builder="even_parity"):
    return ScheduleSegment(duration, builder, TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47)


def ground(layout):
    return DensityMatrix.from_ket(layout, layout.basis_state([0] * len(layout.subsystems)))


def even_problem(layout):
    return build_lindblad(
        build_even_parity_system(TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47, layout),
        DEVICE_NOISE,
    )


@pytest.fixture
def matrix_power_calls(monkeypatch):
    """Records each np.linalg.matrix_power call, one per interval propagator evolve forms."""
    calls = []
    real = np.linalg.matrix_power

    def counting(a, n):
        calls.append(n)
        return real(a, n)

    monkeypatch.setattr(np.linalg, "matrix_power", counting)
    return calls


def dense_rk4_propagator(gen, h):
    """One-step RK4 propagator I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, from dense products."""
    hl = h * gen
    p = np.eye(gen.shape[0], dtype=complex) + hl
    term = hl
    for k in (2.0, 3.0, 4.0):
        term = term @ hl / k
        p += term
    return p


def per_step_states(problem, rho0, grid):
    """Reference for evolve: one dense RK4 propagator per step size, one product per step."""
    gen = liouvillian(problem)
    step = default_step(problem)
    vec = rho0.entries.reshape(-1).astype(complex)
    states = [vec]
    propagators = {}
    for span in np.diff(grid):
        n = max(1, int(math.ceil(span / step - 1e-12)))
        key = round(span / n, 15)
        if key not in propagators:
            propagators[key] = dense_rk4_propagator(gen, span / n)
        for _ in range(n):
            vec = propagators[key] @ vec
        states.append(vec)
    return states


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

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value):RuntimeWarning")
    @pytest.mark.parametrize("layout, grid, regrouped", [
        # 20 intervals of 200 steps each against d^2 = 4: the interval propagator is formed
        (QUBIT, np.linspace(0.0, 40000.0, 21), True),
        # one interval of 200 steps against d^2 = 256: sparse steps
        (SpaceLayout((("q1", 2), ("r1", 8))), [0.0, 2000.0], False),
    ], ids=["regrouped", "sparse"])
    def test_diverged_state_raises_on_each_path(self, matrix_power_calls, layout, grid, regrouped):
        # 10 us steps against a unit decay rate grow the excited population 291-fold a step
        h = ComplexOperator(layout, np.zeros((layout.total_dim,) * 2, dtype=complex))
        problem = LindbladProblem(h, (annihilation(layout, "q1"),))
        excited = np.zeros(layout.total_dim)
        excited[layout.total_dim // 2] = 1.0
        with pytest.raises(IntegrationError, match="non-finite"):
            evolve(problem, DensityMatrix.from_ket(layout, excited), grid, max_step=10.0)
        assert bool(matrix_power_calls) == regrouped

    @pytest.mark.filterwarnings("ignore:(overflow|invalid value):RuntimeWarning")
    @pytest.mark.parametrize("layout, grid, regrouped", [
        # three stable 0.1 us steps, then 20 intervals of 200 10 us steps, regrouped
        (QUBIT, np.concatenate(([0.0, 0.1, 0.2], np.linspace(0.3, 40000.3, 21))), True),
        # two stable 0.1 us steps, then one interval of 200 10 us steps on the sparse block
        (SpaceLayout((("q1", 2), ("r1", 8))), [0.0, 0.1, 0.2, 2000.2], False),
    ], ids=["regrouped", "sparse"])
    def test_integration_error_names_the_first_failing_sample(
            self, matrix_power_calls, layout, grid, regrouped):
        h = ComplexOperator(layout, np.zeros((layout.total_dim,) * 2, dtype=complex))
        problem = LindbladProblem(h, (annihilation(layout, "q1"),))
        excited = np.zeros(layout.total_dim)
        excited[layout.total_dim // 2] = 1.0
        first_bad = 4 if regrouped else 3
        expected = (f"state at t = {grid[first_bad]:.6g} us left physical bounds: "
                    "state has non-finite entries")
        with pytest.raises(IntegrationError) as info:
            evolve(problem, DensityMatrix.from_ket(layout, excited), grid, max_step=10.0)
        assert str(info.value) == expected
        assert info.value.__cause__.index == first_bad
        assert bool(matrix_power_calls) == regrouped

    @pytest.mark.parametrize("samples", [11, 101])
    def test_samples_are_checked_as_one_stack(self, monkeypatch, samples):
        rho0 = ground(LAYOUT)
        calls = []
        real = DensityMatrix.__post_init__

        def counting(self):
            calls.append(self)
            real(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        traj = evolve(even_problem(LAYOUT), rho0, np.linspace(0.0, 1.0, samples),
                      target=bell_psi_minus())
        assert len(traj.states) == samples
        assert len(calls) <= 2

    def test_trajectory_is_read_only(self):
        traj = evolve(even_problem(LAYOUT), ground(LAYOUT), np.linspace(0.0, 1.0, 5),
                      target=bell_psi_minus())
        for values in (traj.times, traj.fidelity, traj.purity, traj.parity):
            assert not values.flags.writeable
        base = traj.states[0].entries.base
        assert all(s.entries.base is base for s in traj.states)
        assert not base.flags.writeable
        with pytest.raises(ValueError):
            base[0, 0, 0] = 0.5
        fidelity = np.ones(2)
        copy = stabsim.dynamics.Trajectory([0.0, 1.0], traj.states[:2], fidelity=fidelity)
        assert fidelity.flags.writeable and not copy.fidelity.flags.writeable

    @pytest.mark.parametrize("max_step", [math.nan, math.inf])
    def test_rejects_non_finite_max_step(self, max_step):
        problem = LindbladProblem(ComplexOperator(QUBIT, np.zeros((2, 2), dtype=complex)), ())
        with pytest.raises(ValueError, match="max_step must be finite and positive"):
            evolve(problem, ground(QUBIT), [0.0, 1.0], max_step=max_step)

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


class TestEvolvePaths:
    """evolve regroups a repeated interval into P_h^n or steps the sparse generator;
    both must give the states of one dense propagator product per step."""

    @pytest.mark.parametrize("layout, grid, powers", [
        (LAYOUT, np.linspace(0.0, 5.0, 21), [238]),  # 20 intervals of 238 steps: regrouped
        (LAYOUT_D36, [0.0, 0.25, 0.5], []),  # 2 intervals of 398 steps: sparse
    ], ids=["regrouped_d16", "sparse_d36"])
    def test_matches_per_step_products(self, matrix_power_calls, layout, grid, powers):
        problem = even_problem(layout)
        traj = evolve(problem, ground(layout), grid)
        assert matrix_power_calls == powers
        for state, vec in zip(traj.states, per_step_states(problem, ground(layout), grid)):
            assert np.max(np.abs(state.entries.reshape(-1) - vec)) < 1e-12

    @pytest.mark.parametrize("config, powers", [
        ({"kind": "time_domain"}, 1),
        ({"kind": "time_domain", "resonator_dim": 3, "grid": {"t_max_us": 0.5, "dt_us": 0.25}}, 0),
    ], ids=["default_d16", "two_intervals_d36"])
    def test_path_choice(self, matrix_power_calls, config, powers):
        run_scenario(config)
        assert len(matrix_power_calls) == powers

    @pytest.mark.parametrize("grid, regrouped", [
        (np.linspace(0.0, 5.0, 21), 9),  # 20 intervals of 238 steps: every sector regrouped
        ([0.0, 0.5], 6),  # one interval of 476 steps: only the sectors of 1, 8 and 28 entries
    ], ids=["regrouped", "mixed_paths"])
    def test_several_sectors_match_per_step_products(self, matrix_power_calls, grid, regrouped):
        problem = even_problem(LAYOUT)
        rng = np.random.default_rng(3)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho0 = DensityMatrix(LAYOUT, m @ m.conj().T / np.trace(m @ m.conj().T).real)
        # a full-rank state occupies all nine charge gaps k = -4 ... 4
        assert np.unique(charge_gaps(problem)[rho0.entries.reshape(-1) != 0]).size == 9
        traj = evolve(problem, rho0, grid)
        assert len(matrix_power_calls) == regrouped
        for state, vec in zip(traj.states, per_step_states(problem, rho0, grid)):
            assert np.max(np.abs(state.entries.reshape(-1) - vec)) < 1e-12


def kron_liouvillian(problem):
    """Reference generator from dense Kronecker products of the full operators."""
    h_eff = problem.hamiltonian.entries.astype(complex)
    for op in problem.collapse_ops:
        h_eff -= 0.5j * (op.entries.conj().T @ op.entries)
    eye = np.eye(h_eff.shape[0], dtype=complex)
    gen = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
    for op in problem.collapse_ops:
        gen += np.kron(op.entries, op.entries.conj())
    return gen


ORACLE_NOISES = {
    "all-channels": NoiseSpec(kappa1=0.5, kappa2=0.7, t1_q1=9.0, t1_q2=7.0, tphi_q1=11.0, tphi_q2=13.0),
    # no qubit decay on q2 and no dephasing at all: fewer jump operators
    "infinite-times": NoiseSpec(kappa1=0.5, kappa2=0.7, t1_q1=9.0, t1_q2=math.inf),
}


class TestLiouvillian:
    @pytest.mark.parametrize("noise", ORACLE_NOISES.values(), ids=list(ORACLE_NOISES))
    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 2, 3, 3), (2, 2, 4, 2), (2, 2)])
    def test_equals_kronecker_formula(self, dims, noise):
        layout = SpaceLayout(tuple(zip(("q1", "q2", "r1", "r2"), dims)))
        if len(dims) == 4:
            # delta != 0 and W1 != W2, so no two drive terms coincide
            hamiltonians = [build_color_variant(1.3, 0.2, 0.4, 0.3, recipe, layout) for recipe in RECIPES]
        else:
            hamiltonians = [build_qubit_block(
                qq=SidebandDrive(color, 1.3, 0.2), rabi_q1=RabiDrive(0.4, 0.1), rabi_q2=RabiDrive(0.3),
            ) for color in ("blue", "red")]
        problems = [build_lindblad(h, noise) for h in hamiltonians]
        # the noise operators are real; add a complex, sparse jump operator
        d = layout.total_dim
        rng = np.random.default_rng(d)
        jump = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * (rng.random((d, d)) < 0.2)
        problems.append(LindbladProblem(
            problems[0].hamiltonian, problems[0].collapse_ops + (ComplexOperator(layout, jump),),
        ))
        for problem in problems:
            got, expected = liouvillian(problem), kron_liouvillian(problem)
            nonzero = expected != 0
            assert np.array_equal(got != 0, nonzero)
            assert got[nonzero].tobytes() == expected[nonzero].tobytes()
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("builder, layout, noise", [
        (build_even_parity_system, LAYOUT,
         NoiseSpec(kappa1=0.5, kappa2=0.7, t1_q1=9.0, t1_q2=7.0, tphi_q1=11.0)),
        # d = 36, with every collapse-operator kind: resonator decay, qubit decay
        # and dephasing on both qubits
        (build_odd_parity_system, SpaceLayout((("q1", 2), ("q2", 2), ("r1", 3), ("r2", 3))),
         NoiseSpec(kappa1=0.5, kappa2=0.7, t1_q1=9.0, t1_q2=7.0, tphi_q1=11.0, tphi_q2=13.0)),
    ], ids=["d16", "d36"])
    def test_action_matches_master_equation(self, builder, layout, noise):
        problem = build_lindblad(builder(1.3, 0.2, 0.4, 0.3, layout), noise)
        gen = liouvillian(problem)
        d = layout.total_dim
        rng = np.random.default_rng(0)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        h = problem.hamiltonian.entries
        expected = -1j * (h @ rho - rho @ h)
        for op in problem.collapse_ops:
            l = op.entries
            expected += l @ rho @ l.conj().T - 0.5 * (
                l.conj().T @ l @ rho + rho @ l.conj().T @ l
            )
        applied = (gen @ rho.reshape(-1)).reshape(d, d)
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


@pytest.fixture
def solved_problems(monkeypatch):
    """Records the problem of each steady_state call a scenario makes."""
    problems = []
    real = stabsim.scenarios.steady_state

    def recording(problem):
        problems.append(problem)
        return real(problem)

    monkeypatch.setattr(stabsim.scenarios, "steady_state", recording)
    return problems


class TestConservedCharge:
    @pytest.mark.parametrize("builder, charge", [
        (build_even_parity_system, (-1, 1, 1, -1)),
        (build_odd_parity_system, (-1, -1, -1, 1)),
    ], ids=["even", "odd"])
    @pytest.mark.parametrize("layout, size", [(LAYOUT, 70), (LAYOUT_D36, 262)], ids=["d16", "d36"])
    def test_recipe_charge_and_sector_size(self, builder, charge, layout, size):
        problem = build_lindblad(
            builder(TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47, layout), DEVICE_NOISE)
        assert tuple(conserved_charge(problem)) == charge
        assert np.count_nonzero(charge_gaps(problem) == 0) == size

    def test_default_theta_spectroscopy(self, solved_problems):
        run_scenario({"kind": "theta_spectroscopy", "grid": {"start_deg": 45.0, "stop_deg": 45.0}})
        assert [tuple(conserved_charge(p)) for p in solved_problems] == [(-1, -1, 1, -1)]

    @pytest.mark.parametrize("config", [
        {"kind": "dressed_parity_sweep", "grid": {"a1_over_omega": [0.0, 0.5]}},
        {"kind": "rabi_dressed_map", "grid": {"delta_over_omega": [0.3], "a1_over_omega": [0.0, 0.5]}},
    ], ids=["dressed_parity_sweep", "rabi_dressed_map"])
    def test_rabi_drive_leaves_no_charge(self, solved_problems, config):
        run_scenario(config)
        # jobs alternate zero and nonzero Rabi amplitude
        charged = [bool(conserved_charge(p).any()) for p in solved_problems]
        assert charged == [True, False] * (len(charged) // 2) and charged
        uncharged = solved_problems[1]
        assert np.array_equal(charge_gaps(uncharged), np.zeros(256))

    def test_no_operator_constraint_picks_smallest_sector(self):
        # with H = 0 and one decay, every charge holds; c = (-1, -1) splits the
        # 16 levels of q1 (x) r1 most finely
        layout = SpaceLayout((("q1", 2), ("r1", 8)))
        problem = LindbladProblem(ComplexOperator(layout, np.zeros((16, 16))),
                                  (annihilation(layout, "q1"),))
        assert tuple(conserved_charge(problem)) == (-1, -1)
        assert np.count_nonzero(charge_gaps(problem) == 0) == 30


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

    # H = 0 leaves a 2-D kernel under dephasing; a 1e-5 drive leaves s[-2]/s[0] = 1e-10
    @pytest.mark.parametrize("drive", [0.0, 1e-5])
    def test_dephasing_qubit_kernel_detected(self, drive):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        problem = LindbladProblem(ComplexOperator(QUBIT, drive * sx), (ComplexOperator(QUBIT, sz),))
        with warnings.catch_warnings():
            warnings.simplefilter("error", MatrixRankWarning)
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateSteadyStateError):
                steady_state(problem)

    def test_dark_states_of_different_charge_detected(self):
        # q2 is left alone, so |gg0> and |ge0> are both dark and their coherence,
        # whose charge gap is not 0, is steady too
        layout = SpaceLayout((("q1", 2), ("q2", 2), ("r1", 2)))
        exchange = annihilation(layout, "q1").entries.conj().T @ annihilation(layout, "r1").entries
        problem = LindbladProblem(ComplexOperator(layout, exchange + exchange.conj().T),
                                  (annihilation(layout, "r1"),))
        assert conserved_charge(problem)[1] != 0
        kernel = scipy.linalg.null_space(liouvillian(problem))
        assert kernel.shape[1] == 4
        assert np.max(np.abs(kernel[charge_gaps(problem) != 0])) > 0.1
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(problem)


def _random_problems(count=20):
    """Seeded d = 16 problems over every recipe, qubit T1/Tphi on and off."""
    rng = np.random.default_rng(7)
    cases = itertools.islice(itertools.cycle(itertools.product(RECIPES, (True, False))), count)
    for recipe, qubit_noise in cases:
        omega, delta, w1, w2, kappa1, kappa2 = TWO_PI * rng.uniform(
            [0.5, -0.5, 0.2, 0.2, 0.2, 0.2], [3.0, 0.5, 1.0, 1.0, 0.6, 0.6]
        )
        times = rng.uniform(8.0, 40.0, 4) if qubit_noise else [math.inf] * 4
        h = build_color_variant(omega, delta, w1, w2, recipe, LAYOUT)
        yield build_lindblad(h, NoiseSpec(kappa1, kappa2, *times))


class TestSteadyStateReference:
    @pytest.mark.parametrize("problem", list(_random_problems()))
    def test_matches_null_space(self, problem):
        kernel = scipy.linalg.null_space(liouvillian(problem))
        assert kernel.shape[1] == 1
        expected = kernel[:, 0].reshape(16, 16)
        expected = expected / np.trace(expected)
        assert np.max(np.abs(steady_state(problem).entries - expected)) < 1e-12

    @pytest.mark.parametrize("problem", list(_random_problems()))
    def test_condition_estimate_within_factor_two(self, problem):
        bordered = liouvillian(problem)
        bordered[0] = 0.0
        bordered[0, ::17] = 1.0
        s = np.linalg.svd(bordered, compute_uv=False)
        exact = s[-1] / s[0]
        sparse = csc_array(bordered)
        estimate = _inverse_condition(sparse, splu(sparse))
        assert exact * (1 - 1e-9) <= estimate <= 2.0 * exact

    @pytest.mark.parametrize("problem", list(_random_problems()))
    def test_sector_condition_estimate_within_factor_two(self, problem):
        sector = np.flatnonzero(charge_gaps(problem) == 0)
        bordered = liouvillian(problem, sector)
        bordered[0] = 0.0
        bordered[0, np.searchsorted(sector, np.arange(0, 256, 17))] = 1.0
        s = np.linalg.svd(bordered, compute_uv=False)
        exact = s[-1] / s[0]
        sparse = csc_array(bordered)
        estimate = _inverse_condition(sparse, splu(sparse))
        assert exact * (1 - 1e-9) <= estimate <= 2.0 * exact

    @pytest.mark.parametrize("problem", list(_random_problems()))
    def test_sector_blocks_equal_kronecker_restriction(self, problem):
        full = kron_liouvillian(problem)
        gaps = charge_gaps(problem)
        assert conserved_charge(problem).any()
        for k in np.unique(gaps):
            inside = gaps == k
            sector = np.flatnonzero(inside)
            assert np.array_equal(liouvillian(problem, sector), full[np.ix_(sector, sector)])
            assert not full[np.ix_(inside, ~inside)].any()


class TestGeneratorResidual:
    @pytest.mark.parametrize("problem", list(_random_problems()))
    def test_equals_kronecker_product(self, problem):
        # a random state is Hermitian and not steady, so every term of L counts
        rng = np.random.default_rng(3)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = DensityMatrix(LAYOUT, m @ m.conj().T / np.trace(m @ m.conj().T))
        expected = np.max(np.abs(kron_liouvillian(problem) @ rho.entries.reshape(-1)))
        assert expected > 1e-3
        assert abs(generator_residual(problem, rho) - expected) <= 1e-12

    def test_builds_no_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generator_residual built the generator")

        problem = even_problem(LAYOUT)
        rho = steady_state(problem)
        monkeypatch.setattr(stabsim.dynamics, "liouvillian", refuse)
        assert generator_residual(problem, rho) < 1e-8


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

    @pytest.mark.parametrize("recipe", list(RECIPES))
    def test_segment_of_each_recipe_matches_evolve(self, recipe):
        rates = (TWO_PI * 2.0, TWO_PI * 0.3, TWO_PI * 0.47, TWO_PI * 0.4)
        grid = np.linspace(0.0, 1.0, 5)
        problem = build_lindblad(build_color_variant(*rates, recipe, LAYOUT), DEVICE_NOISE)
        direct = evolve(problem, ground(LAYOUT), grid)
        schedule = DriveSchedule((ScheduleSegment(1.0, recipe, *rates),), ground(LAYOUT),
                                 DEVICE_NOISE)
        via_schedule = evolve_schedule(schedule, grid)
        assert len(via_schedule.states) == grid.size
        for a, b in zip(direct.states, via_schedule.states):
            assert np.max(np.abs(a.entries - b.entries)) < 1e-12

    def test_even_odd_even_matches_full_space_reference(self):
        rates = {"even_parity": (TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47),
                 "odd_parity": (TWO_PI * 3.0, 0.0, TWO_PI * 0.36, TWO_PI * 0.36)}
        recipes = ("even_parity", "odd_parity", "even_parity")
        segments = tuple(ScheduleSegment(0.3, r, *rates[r]) for r in recipes)
        grid = np.linspace(0.0, 0.9, 10)
        traj = evolve_schedule(DriveSchedule(segments, ground(LAYOUT), DEVICE_NOISE), grid)
        expected = [ground(LAYOUT).entries.reshape(-1)]
        for s, recipe in enumerate(recipes):
            problem = build_lindblad(build_color_variant(*rates[recipe], recipe, LAYOUT), DEVICE_NOISE)
            # each switch spreads the state over more charge gaps of the new charge
            occupied = np.unique(charge_gaps(problem)[expected[-1] != 0])
            assert np.array_equal(occupied, [[0], [-2, 0, 2], [-4, -2, 0, 2, 4]][s])
            start = DensityMatrix(LAYOUT, expected[-1].reshape(16, 16), trace_tol=1e-6, eig_tol=1e-6)
            expected += per_step_states(problem, start, grid[3 * s:3 * s + 4])[1:]
        assert len(traj.states) == len(expected)
        for state, vec in zip(traj.states, expected):
            assert np.max(np.abs(state.entries.reshape(-1) - vec)) < 1e-12

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
        fit = fit_time_constant(t, v)
        assert fit.tau == pytest.approx(2.0, abs=1e-6)
        assert fit.residual < 1e-10

    def test_rising_exponential_with_offset(self):
        t = np.linspace(0.0, 8.0, 50)
        v = 0.9 - 0.8 * np.exp(-t / 1.3)
        fit = fit_time_constant(t, v)
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

    def test_fit_ending_on_a_bound_raises(self):
        # a straight line has no interior least-squares exponential: the fit
        # runs v_inf onto its -2 bound and reports a tau of about 3.36
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(FitError, match="bound"):
            fit_time_constant(t, 0.7 - 0.7 * t)
