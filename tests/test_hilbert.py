import numpy as np
import pytest

from stabsim.hilbert import (
    ComplexOperator,
    DensityMatrix,
    LayoutError,
    SpaceLayout,
    StateError,
    annihilation,
    eigendecompose,
    expectation,
    local_annihilation,
    number_op,
    partial_trace,
)

LAYOUT = SpaceLayout()


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def brute_force_index(levels):
    # idx = (((i_q1*2)+i_q2)*d_r1+i_r1)*d_r2+i_r2 for the default layout
    i1, i2, r1, r2 = levels
    return ((i1 * 2 + i2) * 2 + r1) * 2 + r2


class TestSpaceLayout:
    def test_default_dims(self):
        assert LAYOUT.total_dim == 16
        assert LAYOUT.labels == ("q1", "q2", "r1", "r2")

    def test_basis_index_matches_formula(self):
        for i1 in range(2):
            for i2 in range(2):
                for r1 in range(2):
                    for r2 in range(2):
                        levels = (i1, i2, r1, r2)
                        assert LAYOUT.basis_index(levels) == brute_force_index(levels)

    def test_state_string_parsing(self):
        vec = LAYOUT.basis_state("eg01")
        assert vec[brute_force_index((1, 0, 0, 1))] == 1.0
        assert np.sum(np.abs(vec)) == 1.0

    def test_bad_layouts(self):
        with pytest.raises(LayoutError):
            SpaceLayout((("q1", 1),))
        with pytest.raises(LayoutError):
            SpaceLayout((("q2", 2), ("q1", 2)))  # wrong order
        with pytest.raises(LayoutError):
            SpaceLayout((("q1", 2), ("q1", 2)))
        with pytest.raises(LayoutError):
            SpaceLayout((("foo", 2),))

    def test_restricted_preserves_order(self):
        sub = LAYOUT.restricted({"r1", "q1"})
        assert sub.labels == ("q1", "r1")


class TestAnnihilation:
    def test_two_level_lowering(self):
        assert np.array_equal(local_annihilation(2), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_nilpotent_on_qubit(self):
        a = annihilation(LAYOUT, "q1")
        assert np.max(np.abs(a.entries @ a.entries)) == 0.0

    def test_matrix_element_between_basis_states(self):
        # <gg00| a_q1 |eg00> = 1, checked against direct index arithmetic
        a = annihilation(LAYOUT, "q1").entries
        bra = LAYOUT.basis_state("gg00")
        ket = LAYOUT.basis_state("eg00")
        assert bra.conj() @ a @ ket == pytest.approx(1.0)
        assert a[brute_force_index((0, 0, 0, 0)), brute_force_index((1, 0, 0, 0))] == 1.0

    def test_sqrt_weights_for_higher_dims(self):
        layout = SpaceLayout((("q1", 2), ("q2", 2), ("r1", 4), ("r2", 2)))
        a = annihilation(layout, "r1").entries
        one = layout.basis_state([0, 0, 1, 0])
        two = layout.basis_state([0, 0, 2, 0])
        assert one.conj() @ a @ two == pytest.approx(np.sqrt(2.0))

    def test_unknown_label(self):
        with pytest.raises(LayoutError):
            annihilation(LAYOUT, "r3")

    def test_number_operator_hermitian(self):
        for label in LAYOUT.labels:
            n = number_op(LAYOUT, label)
            assert np.max(np.abs(n.entries - n.entries.conj().T)) < 1e-12
            assert n.hermitian


class TestEigendecompose:
    def test_diagonal_sorted(self):
        layout = SpaceLayout((("q1", 3),))
        op = ComplexOperator(layout, np.diag([3.0, 1.0, 2.0]).astype(complex))
        es = eigendecompose(op)
        assert np.allclose(es.values, [1.0, 2.0, 3.0])

    def test_symmetric_two_level_block(self):
        # [[0, omega/2], [omega/2, delta]] with omega=2, delta=0
        layout = SpaceLayout((("q1", 2),))
        op = ComplexOperator(layout, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        es = eigendecompose(op)
        assert np.allclose(es.values, [-1.0, 1.0])

    def test_residuals_random(self):
        h = random_hermitian(16, seed=7)
        es = eigendecompose(ComplexOperator(LAYOUT, h))
        norm = np.linalg.norm(h, 2)
        for k in range(16):
            res = np.linalg.norm(h @ es.vector(k) - es.values[k] * es.vector(k))
            assert res < 1e-10 * norm

    def test_orthonormal(self):
        es = eigendecompose(ComplexOperator(LAYOUT, random_hermitian(16, seed=3)))
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10

    def test_reconstruction(self):
        for seed in range(5):
            h = random_hermitian(16, seed=seed)
            es = eigendecompose(ComplexOperator(LAYOUT, h))
            rebuilt = (es.vectors * es.values) @ es.vectors.conj().T
            assert np.max(np.abs(rebuilt - h)) < 1e-9 * np.linalg.norm(h, 2)

    def test_phase_convention_and_determinism(self):
        h = random_hermitian(16, seed=11)
        es1 = eigendecompose(ComplexOperator(LAYOUT, h))
        es2 = eigendecompose(ComplexOperator(LAYOUT, h.copy()))
        assert np.array_equal(es1.vectors, es2.vectors)
        for k in range(16):
            col = es1.vector(k)
            pivot = col[np.argmax(np.abs(col))]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_rejects_non_hermitian(self):
        layout = SpaceLayout((("q1", 2),))
        op = ComplexOperator(layout, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError):
            eigendecompose(op)


class TestPartialTrace:
    def test_product_state(self):
        rho = DensityMatrix.from_ket(LAYOUT, LAYOUT.basis_state("gg00"))
        reduced = partial_trace(rho, {"q1", "q2"})
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(reduced.entries, expected)

    def test_maximally_mixed(self):
        rho = DensityMatrix(LAYOUT, np.eye(16) / 16.0)
        reduced = partial_trace(rho, {"q1", "q2"})
        assert np.allclose(reduced.entries, np.eye(4) / 4.0)

    def test_bell_state_reduces_to_mixed(self):
        # (|gg>-|ee>)/sqrt2 x |00>, traced to q1, equals I/2 (brute-force sum)
        ket = (LAYOUT.basis_state("gg00") - LAYOUT.basis_state("ee00")) / np.sqrt(2)
        rho = DensityMatrix.from_ket(LAYOUT, ket)
        reduced = partial_trace(rho, {"q1"})
        full = rho.entries
        brute = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for i2 in range(2):
                    for r1 in range(2):
                        for r2 in range(2):
                            brute[i, j] += full[
                                brute_force_index((i, i2, r1, r2)),
                                brute_force_index((j, i2, r1, r2)),
                            ]
        assert np.allclose(reduced.entries, brute)
        assert np.allclose(reduced.entries, np.eye(2) / 2.0)

    def test_keep_all_is_identity(self):
        rho = DensityMatrix(LAYOUT, np.eye(16) / 16.0)
        assert np.array_equal(partial_trace(rho, set(LAYOUT.labels)).entries, rho.entries)

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho_arr = m @ m.conj().T
        rho_arr /= np.trace(rho_arr).real
        rho = DensityMatrix(LAYOUT, rho_arr)
        for keep in ({"q1"}, {"q1", "q2"}, {"q2", "r1", "r2"}):
            assert abs(np.trace(partial_trace(rho, keep).entries) - 1.0) < 1e-12

    def test_empty_keep_rejected(self):
        rho = DensityMatrix(LAYOUT, np.eye(16) / 16.0)
        with pytest.raises(LayoutError):
            partial_trace(rho, set())


class TestExpectation:
    def test_identity(self):
        rho = DensityMatrix(LAYOUT, np.eye(16) / 16.0)
        ident = ComplexOperator(LAYOUT, np.eye(16, dtype=complex))
        assert expectation(rho, ident) == pytest.approx(1.0)

    def test_number_of_excited_qubit(self):
        rho = DensityMatrix.from_ket(LAYOUT, LAYOUT.basis_state("eg00"))
        assert expectation(rho, number_op(LAYOUT, "q1")) == pytest.approx(1.0)

    def test_thermal_mixture(self):
        layout = SpaceLayout((("q1", 2),))
        p = 0.3
        rho = DensityMatrix(layout, np.diag([p, 1.0 - p]).astype(complex))
        n = number_op(layout, "q1")
        # direct sum: p*<g|n|g> + (1-p)*<e|n|e>
        assert expectation(rho, n) == pytest.approx(1.0 - p)

    def test_layout_mismatch(self):
        rho = DensityMatrix(LAYOUT, np.eye(16) / 16.0)
        other = SpaceLayout((("q1", 2),))
        with pytest.raises(LayoutError):
            expectation(rho, number_op(other, "q1"))


class TestDensityMatrixValidation:
    def test_trace_violation(self):
        with pytest.raises(StateError):
            DensityMatrix(LAYOUT, np.eye(16, dtype=complex))

    def test_negativity_violation(self):
        bad = np.eye(16, dtype=complex) / 16.0
        bad[0, 0] -= 2.0 / 16.0
        bad[1, 1] += 2.0 / 16.0
        bad[0, 0], bad[1, 1] = bad[1, 1], bad[0, 0]
        bad[0, 0] = -1.0 / 16.0
        bad[1, 1] = 2.0 / 16.0
        with pytest.raises(StateError):
            DensityMatrix(LAYOUT, bad)

    def test_non_hermitian_rejected(self):
        bad = np.eye(16, dtype=complex) / 16.0
        bad[0, 1] = 0.5
        with pytest.raises(StateError):
            DensityMatrix(LAYOUT, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # every comparison with NaN is false, so no other check catches it
        two_qubits = SpaceLayout((("q1", 2), ("q2", 2)))
        with pytest.raises(StateError, match="non-finite"):
            DensityMatrix(two_qubits, np.diag([bad, 1.0, 0.0, 0.0]))
