import math

import numpy as np
import pytest

from stabsim import builders
from stabsim.builders import (
    EnergyMatchingError,
    NoiseSpec,
    RabiDrive,
    SidebandDrive,
    build_color_variant,
    build_even_parity_system,
    build_from_plan,
    build_lindblad,
    build_odd_parity_system,
    build_qubit_block,
    embedded_operators,
    plan_stabilization,
)
from stabsim.dynamics import evolve, steady_state
from stabsim.hilbert import (
    ComplexOperator,
    DensityMatrix,
    SpaceLayout,
    annihilation,
    eigendecompose,
    number_op,
    partial_trace,
)
from stabsim.targets import (
    A_Q1,
    A_Q2,
    TWO_QUBIT_LAYOUT,
    _normalized,
    delta_for_blending_angle,
    fidelity,
    psi_theta,
    rabi_dressed_block,
)

TWO_PI = 2 * math.pi
LAYOUT = SpaceLayout()


def occupancy_energy(h, state_string):
    vec = LAYOUT.basis_state(state_string)
    return float(np.real(vec.conj() @ h.entries @ vec))


class TestEvenParitySystem:
    def test_resonator_detunings_at_zero_delta(self):
        # omega/2pi = 2 MHz puts both resonator terms at 1 MHz
        h = build_even_parity_system(TWO_PI * 2.0, 0.0, 0.0, 0.0, LAYOUT)
        assert occupancy_energy(h, "gg10") == pytest.approx(TWO_PI * 1.0)
        assert occupancy_energy(h, "gg01") == pytest.approx(TWO_PI * 1.0)

    def test_zero_rates_give_zero_operator(self):
        h = build_even_parity_system(0.0, 0.0, 0.0, 0.0, LAYOUT)
        assert np.max(np.abs(h.entries)) == 0.0

    def test_refill_matrix_element_nonzero(self):
        # the resonant refilling transition |eg00> <-> |target 01> is driven
        # by the second pair-pumping sideband
        theta = math.pi / 2
        h = build_even_parity_system(TWO_PI * 2.0, 0.0, 0.0, TWO_PI * 0.5, LAYOUT)
        bra = psi_theta(theta).embed_with_vacuum(LAYOUT)
        # move the target ket to one photon in r2
        d = LAYOUT.total_dim
        lift = np.zeros((d, d))
        for q1 in range(2):
            for q2 in range(2):
                lift[LAYOUT.basis_index((q1, q2, 0, 1)), LAYOUT.basis_index((q1, q2, 0, 0))] = 1.0
        target01 = lift @ bra
        element = target01.conj() @ h.entries @ LAYOUT.basis_state("eg00")
        assert abs(element) == pytest.approx(TWO_PI * 0.5 / 2 * math.cos(theta / 2), abs=1e-12)
        # with only the first sideband on, the same element vanishes
        h1 = build_even_parity_system(TWO_PI * 2.0, 0.0, TWO_PI * 0.5, 0.0, LAYOUT)
        assert abs(target01.conj() @ h1.entries @ LAYOUT.basis_state("eg00")) < 1e-14

    def test_zero_photon_eigenvalues(self):
        omega, delta = 1.9, 0.7
        big = math.hypot(omega, delta)
        h = build_even_parity_system(omega, delta, 0.0, 0.0, LAYOUT)
        vals = np.linalg.eigvalsh(h.entries)
        expected = sorted([(delta - big) / 2, 0.0, delta, (delta + big) / 2])
        for e in expected:
            assert np.min(np.abs(vals - e)) < 1e-10


class TestOddParitySystem:
    def test_resonator_detunings_at_zero_delta(self):
        h = build_odd_parity_system(TWO_PI * 3.0, 0.0, 0.0, 0.0, LAYOUT)
        assert occupancy_energy(h, "gg10") == pytest.approx(TWO_PI * 1.5)
        assert occupancy_energy(h, "gg01") == pytest.approx(TWO_PI * 1.5)

    def test_no_qr_drives_preserves_photon_number(self):
        h = build_odd_parity_system(TWO_PI * 3.0, TWO_PI * 0.4, 0.0, 0.0, LAYOUT)
        for label in ("r1", "r2"):
            n = number_op(LAYOUT, label).entries
            assert np.max(np.abs(h.entries @ n - n @ h.entries)) < 1e-12

    def test_ground_pair_refill_element(self):
        # |gg00> couples to |target 01> through the pair-pumping sideband on
        # the second pair (w4); the first-pair exchange sideband cannot
        # produce that transition
        from stabsim.targets import phi_theta

        theta = math.pi / 2
        d = LAYOUT.total_dim
        lift = np.zeros((d, d))
        for q1 in range(2):
            for q2 in range(2):
                lift[LAYOUT.basis_index((q1, q2, 0, 1)), LAYOUT.basis_index((q1, q2, 0, 0))] = 1.0
        target01 = lift @ phi_theta(theta).embed_with_vacuum(LAYOUT)
        h_w4 = build_odd_parity_system(TWO_PI * 3.0, 0.0, 0.0, TWO_PI * 0.4, LAYOUT)
        el_w4 = target01.conj() @ h_w4.entries @ LAYOUT.basis_state("gg00")
        assert abs(el_w4) == pytest.approx(TWO_PI * 0.4 / 2 * math.sin(theta / 2), abs=1e-12)
        h_w3 = build_odd_parity_system(TWO_PI * 3.0, 0.0, TWO_PI * 0.4, 0.0, LAYOUT)
        assert abs(target01.conj() @ h_w3.entries @ LAYOUT.basis_state("gg00")) < 1e-14


class TestColorVariants:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_color_variant(1.0, 0.0, 0.1, 0.1, "purple", LAYOUT)

    def test_zero_rates_equal_across_variants(self):
        a = build_color_variant(1.0, 0.0, 0.0, 0.0, "even_parity", LAYOUT)
        b = build_color_variant(1.0, 0.0, 0.0, 0.0, "red_red", LAYOUT)
        assert np.allclose(a.entries, b.entries)

    @pytest.mark.parametrize("variant,named", [("even_parity", "build_even_parity_system"),
                                               ("odd_parity", "build_odd_parity_system")])
    def test_parity_variants_call_the_named_builder(self, variant, named, monkeypatch):
        calls = []
        original = getattr(builders, named)
        monkeypatch.setattr(builders, named, lambda *args: calls.append(args) or original(*args))
        h = build_color_variant(2.0, 0.3, 0.5, 0.4, variant, LAYOUT)
        assert calls == [(2.0, 0.3, 0.5, 0.4, LAYOUT)]
        assert np.array_equal(h.entries, original(2.0, 0.3, 0.5, 0.4, LAYOUT).entries)

    def test_blue_blue_reproduces_named_builder(self):
        a = build_color_variant(2.0, 0.3, 0.5, 0.4, "even_parity", LAYOUT)
        b = build_even_parity_system(2.0, 0.3, 0.5, 0.4, LAYOUT)
        assert np.array_equal(a.entries, b.entries)

    def test_red_red_steady_state_holds_same_target(self):
        noise = NoiseSpec(
            kappa1=TWO_PI * 0.33, kappa2=TWO_PI * 0.43, t1_q1=25.0, t1_q2=12.0
        )
        h = build_color_variant(
            TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47, "red_red", LAYOUT
        )
        rho = partial_trace(steady_state(build_lindblad(h, noise)), {"q1", "q2"})
        assert fidelity(rho.entries, psi_theta(math.pi / 2)) > 0.8

    def test_opposite_detuning_stabilizes_orthogonal_partner(self):
        noise = NoiseSpec(
            kappa1=TWO_PI * 0.33, kappa2=TWO_PI * 0.43, t1_q1=25.0, t1_q2=12.0
        )
        h = build_color_variant(
            TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47, "opposite_detuning", LAYOUT
        )
        rho = partial_trace(steady_state(build_lindblad(h, noise)), {"q1", "q2"})
        partner = psi_theta(math.pi / 2 - math.pi)
        assert fidelity(rho.entries, partner) > 0.8
        assert fidelity(rho.entries, psi_theta(math.pi / 2)) < 0.1

    def test_blue_blue_and_red_red_agree_at_bell_point(self):
        noise = NoiseSpec(
            kappa1=TWO_PI * 0.33, kappa2=TWO_PI * 0.43, t1_q1=25.0, t1_q2=12.0
        )
        fids = []
        for variant in ("even_parity", "red_red"):
            h = build_color_variant(
                TWO_PI * 2.0, 0.0, TWO_PI * 0.47, TWO_PI * 0.47, variant, LAYOUT
            )
            rho = partial_trace(steady_state(build_lindblad(h, noise)), {"q1", "q2"})
            fids.append(fidelity(rho.entries, psi_theta(math.pi / 2)))
        assert abs(fids[0] - fids[1]) < 0.02


class TestQubitBlock:
    def test_product_block_eigenvalues(self):
        h = build_qubit_block(rabi_q1=RabiDrive(1.0, 0.0), rabi_q2=RabiDrive(1.0, 0.0))
        assert np.allclose(np.linalg.eigvalsh(h.entries), [-1.0, 0.0, 0.0, 1.0])

    def test_pair_pump_plus_rabi_matrix(self):
        omega, a1 = 1.3, 0.7
        h = build_qubit_block(qq=SidebandDrive("blue", omega, 0.0), rabi_q1=RabiDrive(a1, 0.0))
        expected = np.array(
            [
                [0, 0, a1 / 2, omega / 2],
                [0, 0, 0, a1 / 2],
                [a1 / 2, 0, 0, 0],
                [omega / 2, a1 / 2, 0, 0],
            ]
        )
        assert np.allclose(h.entries, expected)

    def test_exchange_plus_rabi_matrix(self):
        omega, a1 = 1.3, 0.7
        h = build_qubit_block(qq=SidebandDrive("red", omega, 0.0), rabi_q1=RabiDrive(a1, 0.0))
        expected = np.array(
            [
                [0, 0, a1 / 2, 0],
                [0, 0, omega / 2, a1 / 2],
                [a1 / 2, omega / 2, 0, 0],
                [0, a1 / 2, 0, 0],
            ]
        )
        assert np.allclose(h.entries, expected)

    def test_blue_rabi_block_plus_split_diagonal_is_rabi_dressed_block(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            omega, a1, delta = rng.uniform(0.1, 10.0, 3)
            h = build_qubit_block(qq=SidebandDrive("blue", omega, 0.0), rabi_q1=RabiDrive(a1, 0.0))
            split = h.entries + np.diag([-delta / 2.0, delta / 2.0, -delta / 2.0, delta / 2.0])
            assert split.tobytes() == rabi_dressed_block(delta, a1, omega).entries.tobytes()

    def test_split_detuning_block(self):
        omega, delta, a1 = 2.0, 0.8, 0.5
        h = rabi_dressed_block(delta, a1, omega)
        expected = np.array(
            [
                [-delta / 2, 0, a1 / 2, omega / 2],
                [0, delta / 2, 0, a1 / 2],
                [a1 / 2, 0, -delta / 2, 0],
                [omega / 2, a1 / 2, 0, delta / 2],
            ]
        )
        assert np.allclose(h.entries, expected)

    def test_ground_state_at_zero_detuning(self):
        h = build_qubit_block(qq=SidebandDrive("blue", 2.0, 0.0))
        block = h.entries[np.ix_([0, 3], [0, 3])]
        assert np.allclose(block, [[0, 1.0], [1.0, 0]])
        vals, vecs = np.linalg.eigh(h.entries)
        ground = vecs[:, 0]
        assert abs(abs(np.vdot(ground, np.array([1, 0, 0, -1]) / np.sqrt(2))) - 1) < 1e-12


def index_table_block(qq=None, rabi_q1=None, rabi_q2=None):
    # reference: the two-qubit block written entry by entry from index tables
    h = np.zeros((4, 4), dtype=complex)
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
    return h


def hand_entry_rabi_dressed_block(delta, a1, omega):
    # reference: the Rabi-dressed block written entry by entry
    h = np.zeros((4, 4), dtype=complex)
    h[0, 3] = h[3, 0] = omega / 2.0
    h[0, 2] = h[2, 0] = a1 / 2.0
    h[1, 3] = h[3, 1] = a1 / 2.0
    h += np.diag([-delta / 2.0, delta / 2.0, -delta / 2.0, delta / 2.0])
    return h


def embedded_refill_plan(hqq, colors):
    # reference: the plan's detunings and target with each refilling operator
    # embedded afresh, a_q^dag for a blue sideband and a_q for a red one
    e, vectors = eigendecompose(hqq)
    m = []
    for qubit, color in zip(("q1", "q2"), colors):
        aq = annihilation(TWO_QUBIT_LAYOUT, qubit).entries
        op = aq.conj().T if color == "blue" else aq
        m.append(np.abs(vectors[:, 0].conj() @ op @ vectors))
    gap_b, gap_c = e[1] - e[0], e[2] - e[0]
    dets = (gap_b, gap_c) if m[0][1] * m[1][2] >= m[0][2] * m[1][1] else (gap_c, gap_b)
    return float(dets[0]), float(dets[1]), _normalized(vectors[:, 0]).amplitudes


def random_detuning(rng):
    return float(rng.choice([rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 0.0), 0.0, -0.0]))


def random_rate(rng):
    return float(rng.choice([rng.uniform(0.0, 10.0), 0.0]))


def random_drives(rng):
    """A qubit-qubit sideband and two Rabi drives, each present or absent."""
    qq = SidebandDrive(str(rng.choice(["red", "blue"])), random_rate(rng), random_detuning(rng))
    rabi_q1 = RabiDrive(random_rate(rng), random_detuning(rng))
    rabi_q2 = RabiDrive(random_rate(rng), random_detuning(rng))
    present = rng.integers(0, 2, 3)
    return {name: drive for name, drive, keep in
            zip(("qq", "rabi_q1", "rabi_q2"), (qq, rabi_q1, rabi_q2), present) if keep}


class TestDriveVocabulary:
    def test_ladder_operators_are_read_only_embeddings(self):
        for a, qubit in ((A_Q1, "q1"), (A_Q2, "q2")):
            assert not a.flags.writeable
            assert np.array_equal(a, annihilation(TWO_QUBIT_LAYOUT, qubit).entries)

    def test_qubit_block_equals_index_tables(self):
        rng = np.random.default_rng(24)
        seen = set()
        for _ in range(2000):
            drives = random_drives(rng)
            seen.add(tuple(sorted(drives)))
            got = build_qubit_block(**drives).entries
            assert got.tobytes() == index_table_block(**drives).tobytes(), drives
        # no drive, each drive alone, each pair and all three together
        assert len(seen) == 8

    @pytest.mark.parametrize("color", ["red", "blue"])
    @pytest.mark.parametrize("detuning", [0.0, -0.0, -1.7, 2.3])
    def test_qubit_block_signed_zero_and_zero_rates(self, color, detuning):
        for rate in (0.0, 1.3):
            drives = {"qq": SidebandDrive(color, rate, detuning),
                      "rabi_q1": RabiDrive(rate, detuning), "rabi_q2": RabiDrive(0.0, detuning)}
            got = build_qubit_block(**drives).entries
            assert got.tobytes() == index_table_block(**drives).tobytes()

    def test_rabi_dressed_block_equals_hand_entries(self):
        rng = np.random.default_rng(25)
        for _ in range(2000):
            args = (random_detuning(rng), random_rate(rng), random_rate(rng))
            got = rabi_dressed_block(*args).entries
            assert got.tobytes() == hand_entry_rabi_dressed_block(*args).tobytes(), args

    def test_plan_equals_embedded_refill_operators(self):
        rng = np.random.default_rng(26)
        planned = 0
        for _ in range(1000):
            hqq = build_qubit_block(**random_drives(rng))
            for colors in (("blue", "blue"), ("red", "blue"), ("blue", "red"), ("red", "red")):
                try:
                    plan = plan_stabilization(hqq, 0.3, 0.4, colors)
                except ValueError:  # a degenerate or unmatched block has no plan
                    continue
                det1, det2, target = embedded_refill_plan(hqq, colors)
                assert (plan.qr1.detuning, plan.qr2.detuning) == (det1, det2)
                assert plan.target.amplitudes.tobytes() == target.tobytes()
                planned += 1
        assert planned > 1000


def random_block(kind, rng):
    lo, hi = 0.1, 10.0
    if kind == "product":
        return build_qubit_block(
            rabi_q1=RabiDrive(rng.uniform(lo, hi), rng.uniform(lo, hi)),
            rabi_q2=RabiDrive(rng.uniform(lo, hi), rng.uniform(lo, hi)),
        )
    if kind == "pair_pump_rabi":
        return build_qubit_block(
            qq=SidebandDrive("blue", rng.uniform(lo, hi), 0.0),
            rabi_q1=RabiDrive(rng.uniform(lo, hi), 0.0),
        )
    if kind == "exchange_rabi":
        return build_qubit_block(
            qq=SidebandDrive("red", rng.uniform(lo, hi), 0.0),
            rabi_q1=RabiDrive(rng.uniform(lo, hi), 0.0),
        )
    omega = rng.uniform(lo, hi)
    delta = rng.uniform(lo, hi)
    return rabi_dressed_block(delta, rng.uniform(lo, hi), omega)


BLOCK_KINDS = ("product", "pair_pump_rabi", "exchange_rabi", "rabi_dressed")


class TestEnergyMatching:
    def test_random_draws_satisfy_matching(self):
        rng = np.random.default_rng(2024)
        for kind in BLOCK_KINDS:
            for _ in range(100):
                h = random_block(kind, rng)
                e = np.linalg.eigvalsh(h.entries)
                assert abs(e[0] + e[3] - e[1] - e[2]) < 1e-9 * np.max(np.abs(e))


class TestPlanStabilization:
    def test_bell_point_detunings(self):
        h = build_qubit_block(qq=SidebandDrive("blue", TWO_PI * 2.0, 0.0))
        plan = plan_stabilization(h, 0.3, 0.3)
        assert plan.qr1.detuning == pytest.approx(TWO_PI * 1.0, rel=1e-12)
        assert plan.qr2.detuning == pytest.approx(TWO_PI * 1.0, rel=1e-12)
        e, _ = eigendecompose(plan.hqq)
        assert e[3] - e[0] == pytest.approx(TWO_PI * 2.0, rel=1e-12)

    def test_random_product_blocks(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            h = random_block("product", rng)
            plan = plan_stabilization(h, 0.2, 0.2)
            e, _ = eigendecompose(plan.hqq)
            gaps = {round(e[1] - e[0], 9), round(e[2] - e[0], 9)}
            dets = {round(plan.qr1.detuning, 9), round(plan.qr2.detuning, 9)}
            assert gaps == dets

    def test_violated_matching_rejected(self):
        h = build_qubit_block(qq=SidebandDrive("blue", 2.0, 0.0))
        bad = h.entries.copy()
        bad[1, 1] += 0.05
        with pytest.raises(EnergyMatchingError):
            plan_stabilization(ComplexOperator(TWO_QUBIT_LAYOUT, bad), 0.1, 0.1)

    def test_assembled_system_matches_named_builder_at_bell_point(self):
        omega, w = TWO_PI * 2.0, TWO_PI * 0.47
        h = build_qubit_block(qq=SidebandDrive("blue", omega, 0.0))
        plan = plan_stabilization(h, w, w, ("blue", "blue"))
        assembled = build_from_plan(plan, LAYOUT)
        named = build_even_parity_system(omega, 0.0, w, w, LAYOUT)
        assert np.max(np.abs(assembled.entries - named.entries)) < 1e-12

    def test_degenerate_block_rejected(self):
        h = build_qubit_block(qq=SidebandDrive("red", 0.0, 0.0))
        with pytest.raises(ValueError, match="degenerate"):
            plan_stabilization(h, 0.1, 0.1)

    @pytest.mark.parametrize("colors", [("blue",), ("blue", "red", "red"), ()],
                             ids=["one", "three", "none"])
    def test_colors_must_be_one_per_qubit(self, colors):
        h = build_qubit_block(qq=SidebandDrive("blue", 2.0, 0.0))
        with pytest.raises(ValueError, match="one color per qubit"):
            plan_stabilization(h, 0.1, 0.1, colors)

    def test_near_dead_angle_still_plans(self):
        # theta = 179.5 deg has the smallest relative ground gap of the
        # default theta grids (about 2e-5 of max|E|)
        omega = TWO_PI * 5.0
        delta = delta_for_blending_angle(omega, math.radians(179.5))
        h = build_qubit_block(qq=SidebandDrive("blue", omega, delta))
        plan = plan_stabilization(h, TWO_PI * 0.5, TWO_PI * 0.5)
        assert plan.qr1.detuning > 0 and plan.qr2.detuning > 0


class TestBuildLindblad:
    def test_infinite_dephasing_omits_operators(self):
        h = build_even_parity_system(1.0, 0.0, 0.1, 0.1, LAYOUT)
        noise = NoiseSpec(kappa1=1.0, kappa2=1.0, t1_q1=10.0, t1_q2=10.0)
        problem = build_lindblad(h, noise)
        assert len(problem.collapse_ops) == 4

    @pytest.mark.parametrize("kappas", [(math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_resonator_decay_rejected(self, kappas):
        # an infinite time turns a channel off, but an infinite rate is no channel to drop
        with pytest.raises(ValueError):
            NoiseSpec(*kappas, 10.0, 10.0)

    def test_measured_rates(self):
        h = build_even_parity_system(1.0, 0.0, 0.1, 0.1, LAYOUT)
        noise = NoiseSpec(
            kappa1=TWO_PI * 0.33,
            kappa2=TWO_PI * 0.43,
            t1_q1=25.0,
            t1_q2=12.0,
            tphi_q1=25.0,
            tphi_q2=25.0,
        )
        problem = build_lindblad(h, noise)
        assert len(problem.collapse_ops) == 6
        norms = sorted(float(np.linalg.norm(op.entries, 2)) for op in problem.collapse_ops)
        expected = sorted(
            [
                math.sqrt(TWO_PI * 0.33),
                math.sqrt(TWO_PI * 0.43),
                math.sqrt(1 / 25.0),
                math.sqrt(1 / 12.0),
                math.sqrt(2 / 25.0),
                math.sqrt(2 / 25.0),
            ]
        )
        assert np.allclose(norms, expected, rtol=1e-12)

    def test_lone_qubit_dephasing_rate(self):
        # coherence of a driven-free qubit decays as exp(-t/tphi)
        layout = SpaceLayout((("q1", 2),))
        h = ComplexOperator(layout, np.zeros((2, 2), dtype=complex))
        tphi = 7.0
        noise = NoiseSpec(
            kappa1=1.0, kappa2=1.0, t1_q1=math.inf, t1_q2=math.inf, tphi_q1=tphi
        )
        problem = build_lindblad(h, noise)
        assert len(problem.collapse_ops) == 1
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        rho0 = DensityMatrix(layout, np.outer(plus, plus))
        times = np.linspace(0.0, 5.0, 11)
        traj = evolve(problem, rho0, times)
        for t, state in zip(traj.times, traj.states):
            assert abs(state.entries[0, 1] - 0.5 * math.exp(-t / tphi)) < 1e-6

    def test_an_operator_set_builds_the_same_problem_on_its_own_layout(self):
        noise = NoiseSpec(kappa1=1.0, kappa2=1.2, t1_q1=10.0, t1_q2=12.0, tphi_q1=5.0, tphi_q2=6.0)
        ops = embedded_operators(LAYOUT)
        h = build_even_parity_system(1.0, 0.3, 0.1, 0.2, LAYOUT)
        assert np.array_equal(build_even_parity_system(1.0, 0.3, 0.1, 0.2, ops).entries, h.entries)
        shared, own = build_lindblad(h, noise, ops), build_lindblad(h, noise)
        assert len(shared.collapse_ops) == len(own.collapse_ops) == 6
        for a, b in zip(shared.collapse_ops, own.collapse_ops):
            assert np.array_equal(a.entries, b.entries)
        other = embedded_operators(SpaceLayout((("q1", 2), ("q2", 2), ("r1", 3), ("r2", 3))))
        with pytest.raises(ValueError, match="another layout"):
            build_lindblad(h, noise, other)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            NoiseSpec(kappa1=0.0, kappa2=1.0, t1_q1=1.0, t1_q2=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(kappa1=1.0, kappa2=1.0, t1_q1=-2.0, t1_q2=1.0)


class TestHermiticity:
    def test_all_builders_hermitian(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            omega, delta = rng.uniform(0.1, 10), rng.uniform(-5, 5)
            w1, w2 = rng.uniform(0, 3), rng.uniform(0, 3)
            for h in (
                build_even_parity_system(omega, delta, w1, w2, LAYOUT),
                build_odd_parity_system(omega, delta, w1, w2, LAYOUT),
                build_color_variant(omega, delta, w1, w2, "red_red", LAYOUT),
                build_color_variant(omega, delta, w1, w2, "opposite_detuning", LAYOUT),
            ):
                assert np.max(np.abs(h.entries - h.entries.conj().T)) < 1e-12
                assert h.hermitian

    def test_eigendecompose_of_built_system(self):
        h = build_even_parity_system(TWO_PI * 2.0, 0.3, TWO_PI * 0.47, TWO_PI * 0.47, LAYOUT)
        values, _ = eigendecompose(h)
        assert values.shape == (16,)
