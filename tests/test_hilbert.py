import copy
import dataclasses
import pickle
import re
import warnings

import numpy as np
import pytest

import stabsim.hilbert
from stabsim.hilbert import (
    ComplexOperator,
    DensityMatrix,
    LayoutError,
    SpaceLayout,
    StateError,
    annihilation,
    eigendecompose,
    embed_local,
    expectation,
    fix_eigenvector_phases,
    local_annihilation,
    number_op,
    partial_trace,
)

LAYOUT = SpaceLayout()


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def kron_loop_embedding(layout, label, local):
    # reference: one Kronecker product per subsystem, identities elsewhere
    axis = layout.axis(label)
    mat = np.eye(1, dtype=complex)
    for i, (_, dim) in enumerate(layout.subsystems):
        mat = np.kron(mat, local if i == axis else np.eye(dim, dtype=complex))
    return mat


EMBEDDING_LAYOUTS = [
    (("q1", 2),),
    (("q1", 2), ("r1", 8)),
    (("q1", 2), ("q2", 2), ("r1", 2), ("r2", 2)),
    (("q1", 2), ("q2", 2), ("r1", 3), ("r2", 3)),
    (("q1", 2), ("q2", 2), ("r1", 4), ("r2", 2)),
]


def random_state(dim, seed, layout=LAYOUT):
    """Full-rank random density matrix."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return DensityMatrix(layout, rho / np.trace(rho).real)


def axis_by_axis_trace(rho, keep):
    """One state's reduction, tracing out one axis pair of the (dims + dims) tensor at a time."""
    labels, dims = rho.layout.labels, rho.layout.dims
    tensor = rho.entries.reshape(dims + dims)
    n = len(dims)
    for offset, ax in enumerate(i for i, lbl in enumerate(labels) if lbl not in keep):
        tensor = np.trace(tensor, axis1=ax - offset, axis2=ax - offset + n - offset)
    d_red = rho.layout.restricted(keep).total_dim
    return tensor.reshape(d_red, d_red)


@pytest.fixture(params=[None, 3], ids=["one_block", "blocks_of_3"])
def block_states(request, monkeypatch):
    """Stacked checks and traces in one block, or in blocks of 3 states at d = 16."""
    if request.param is not None:
        monkeypatch.setattr(stabsim.hilbert, "BLOCK_BYTES", request.param * 16 * 16 * 16)
    return request.param


def column_loop_phases(vectors):
    # reference: the per-column loop that fix_eigenvector_phases replaced
    out = np.array(vectors, dtype=complex)
    for k in range(out.shape[1]):
        col = out[:, k]
        mags = np.abs(col)
        j = int(np.argmax(np.isclose(mags, mags.max(), rtol=0, atol=1e-12)))
        pivot = col[j]
        if abs(pivot) > 0:
            out[:, k] = col * (abs(pivot) / pivot)
    return out


def random_unitary(dim, rng):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


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

    @pytest.mark.parametrize("dim", [2.7, 2.0, "3", True, float("nan"), None],
                             ids=["fraction", "whole-float", "string", "bool", "nan", "none"])
    def test_non_integer_dimension_rejected(self, dim):
        with pytest.raises(LayoutError, match=re.escape(f"q1 must be an integer, got {dim!r}")):
            SpaceLayout((("q1", dim),))

    def test_numpy_integer_dimension_accepted(self):
        layout = SpaceLayout((("q1", np.int64(2)), ("r1", np.int32(3))))
        assert layout == SpaceLayout((("q1", 2), ("r1", 3)))
        assert type(layout.dims[1]) is int and type(layout.total_dim) is int

    @pytest.mark.parametrize("key", ["gx01", "eg0-", "eg0 ", "EG01", "eg0\u00b2"])
    def test_bad_state_string_character_rejected(self, key):
        with pytest.raises(LayoutError, match="may hold only g, e and digits"):
            LAYOUT.basis_state(key)

    @pytest.mark.parametrize("subsystems", EMBEDDING_LAYOUTS[1:])
    def test_derived_fields_survive_copies(self, subsystems):
        layout = SpaceLayout(subsystems)
        expected = (tuple(l for l, _ in subsystems), tuple(d for _, d in subsystems),
                    int(np.prod([d for _, d in subsystems])))
        for copied in (pickle.loads(pickle.dumps(layout)), copy.deepcopy(layout)):
            assert copied == layout
            assert (copied.labels, copied.dims, copied.total_dim) == expected
        replaced = dataclasses.replace(LAYOUT, subsystems=subsystems)
        assert replaced == layout
        assert (replaced.labels, replaced.dims, replaced.total_dim) == expected

    def test_equality_and_hash_follow_subsystems(self):
        a = SpaceLayout((("q1", 2), ("r1", 3)))
        b = SpaceLayout([["q1", 2], ["r1", 3]])
        assert a == b and hash(a) == hash(b)
        assert a != SpaceLayout((("q1", 2), ("r1", 4)))
        assert len({a, b, LAYOUT}) == 2
        assert type(a.total_dim) is int and type(LAYOUT.total_dim) is int
        assert "total_dim" not in repr(a)


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


class TestEmbedLocal:
    @pytest.mark.parametrize("subsystems", EMBEDDING_LAYOUTS)
    def test_annihilation_equals_kron_loop_bitwise(self, subsystems):
        layout = SpaceLayout(subsystems)
        for label, dim in subsystems:
            local = local_annihilation(dim)
            got = embed_local(layout, label, local).entries
            expected = kron_loop_embedding(layout, label, local)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert annihilation(layout, label).entries.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("subsystems", EMBEDDING_LAYOUTS)
    def test_complex_local_equals_kron_loop(self, subsystems):
        # the same products in another association: equal values, though the
        # sign of a zero entry may differ
        layout = SpaceLayout(subsystems)
        rng = np.random.default_rng(7)
        for label, dim in subsystems:
            local = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            got = embed_local(layout, label, local).entries
            assert np.array_equal(got, kron_loop_embedding(layout, label, local))

    def test_local_shape_mismatch_rejected(self):
        with pytest.raises(LayoutError, match="does not match dim 2 of r1"):
            embed_local(LAYOUT, "r1", local_annihilation(3))


class TestEigendecompose:
    def test_diagonal_sorted(self):
        layout = SpaceLayout((("q1", 3),))
        op = ComplexOperator(layout, np.diag([3.0, 1.0, 2.0]).astype(complex))
        values, _ = eigendecompose(op)
        assert np.allclose(values, [1.0, 2.0, 3.0])

    def test_symmetric_two_level_block(self):
        # [[0, omega/2], [omega/2, delta]] with omega=2, delta=0
        layout = SpaceLayout((("q1", 2),))
        op = ComplexOperator(layout, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        values, _ = eigendecompose(op)
        assert np.allclose(values, [-1.0, 1.0])

    def test_residuals_random(self):
        h = random_hermitian(16, seed=7)
        values, vectors = eigendecompose(ComplexOperator(LAYOUT, h))
        norm = np.linalg.norm(h, 2)
        for k in range(16):
            res = np.linalg.norm(h @ vectors[:, k] - values[k] * vectors[:, k])
            assert res < 1e-10 * norm

    def test_orthonormal(self):
        _, vectors = eigendecompose(ComplexOperator(LAYOUT, random_hermitian(16, seed=3)))
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10

    def test_reconstruction(self):
        for seed in range(5):
            h = random_hermitian(16, seed=seed)
            values, vectors = eigendecompose(ComplexOperator(LAYOUT, h))
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - h)) < 1e-9 * np.linalg.norm(h, 2)

    def test_phase_convention_and_determinism(self):
        h = random_hermitian(16, seed=11)
        _, vectors1 = eigendecompose(ComplexOperator(LAYOUT, h))
        _, vectors2 = eigendecompose(ComplexOperator(LAYOUT, h.copy()))
        assert np.array_equal(vectors1, vectors2)
        for k in range(16):
            col = vectors1[:, k]
            pivot = col[np.argmax(np.abs(col))]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_returns_read_only_arrays(self):
        values, vectors = eigendecompose(ComplexOperator(LAYOUT, random_hermitian(16, seed=5)))
        assert not values.flags.writeable and not vectors.flags.writeable

    def test_rejects_non_hermitian(self):
        layout = SpaceLayout((("q1", 2),))
        op = ComplexOperator(layout, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError):
            eigendecompose(op)


class TestFixEigenvectorPhases:
    def test_equals_column_loop_on_random_unitaries(self):
        rng = np.random.default_rng(24)
        for dim in (2, 3, 4, 8, 16, 36) * 20:
            q = random_unitary(dim, rng)
            assert fix_eigenvector_phases(q).tobytes() == column_loop_phases(q).tobytes()

    def test_equals_column_loop_on_ties(self):
        rng = np.random.default_rng(25)
        for dim in (2, 4, 16) * 20:
            q = random_unitary(dim, rng)
            # one exact tie and one within 1e-12 of the maximum, each with a random phase
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, dim)))
            q[:, 0] = phases[0] / np.sqrt(dim)
            q[:, 1] = phases[1] / np.sqrt(dim)
            q[-1, 1] *= 1 + 5e-13
            fixed = fix_eigenvector_phases(q)
            assert fixed.tobytes() == column_loop_phases(q).tobytes()
            # the first index of the tie is the pivot, not the slightly larger last one
            for k in (0, 1):
                assert abs(fixed[0, k].imag) < 1e-15 and fixed[0, k].real > 0

    def test_zero_column_left_alone_without_warning(self):
        q = random_unitary(4, np.random.default_rng(26))
        q[:, 2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fixed = fix_eigenvector_phases(q)
        assert fixed.tobytes() == column_loop_phases(q).tobytes()
        assert np.array_equal(fixed[:, 2], np.zeros(4))


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

    @pytest.mark.parametrize("resonator_dim", [2, 3])
    @pytest.mark.parametrize("keep", [{"q1", "q2"}, {"q2"}, {"q1", "r2"}])
    def test_tuple_equals_each_state_bit_for_bit(self, block_states, resonator_dim, keep):
        layout = SpaceLayout((("q1", 2), ("q2", 2), ("r1", resonator_dim), ("r2", resonator_dim)))
        states = tuple(random_state(layout.total_dim, seed, layout) for seed in range(7))
        reduced = partial_trace(states, keep)
        assert isinstance(reduced, tuple) and len(reduced) == len(states)
        for state, r in zip(states, reduced):
            single = partial_trace(state, keep)
            assert r.layout == single.layout == layout.restricted(keep)
            assert np.array_equal(r.entries, single.entries)
            assert np.array_equal(single.entries, axis_by_axis_trace(state, keep))

    def test_tuple_needs_one_layout_and_equal_tolerances(self):
        other = SpaceLayout((("q1", 2), ("q2", 2), ("r1", 3), ("r2", 2)))
        rho = DensityMatrix(LAYOUT, np.eye(16) / 16.0)
        with pytest.raises(LayoutError):
            partial_trace((rho, DensityMatrix(other, np.eye(24) / 24.0)), {"q1"})
        with pytest.raises(LayoutError):
            partial_trace((rho, DensityMatrix(LAYOUT, rho.entries, eig_tol=1e-6)), {"q1"})
        with pytest.raises(ValueError):
            partial_trace((), {"q1"})


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

    @pytest.mark.parametrize("ket, cause", [
        (np.zeros(16), "zero-norm ket"),
        (np.full(16, np.nan), "non-finite ket"),
        (np.array([np.inf] + [0.0] * 15), "non-finite ket"),
    ], ids=["zero", "nan", "inf"])
    def test_from_ket_names_a_ket_it_cannot_normalize(self, ket, cause):
        # dividing by such a norm would raise "invalid value" RuntimeWarnings
        with pytest.raises(StateError, match=cause):
            DensityMatrix.from_ket(LAYOUT, ket)


def state_with_min_eigenvalue(dim, lam_min, seed):
    """Unit-trace Hermitian matrix with smallest eigenvalue lam_min, in a random basis."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rest = rng.uniform(0.5, 1.0, size=dim - 1)
    values = np.concatenate(([lam_min], rest * (1.0 - lam_min) / rest.sum()))
    return (q * values) @ q.conj().T


def single_check_message(entries, **tols):
    """None if one state's construction passes, else its StateError message."""
    try:
        DensityMatrix(LAYOUT, entries, **tols)
    except StateError as exc:
        return str(exc)
    return None


class TestStackedCheck:
    """DensityMatrix.stack checks a stack once; each verdict and message must be those
    of a single-state check, and positivity must agree with a per-state eigvalsh oracle."""

    @pytest.mark.parametrize("eig_tol", [1e-8, 1e-6])
    def test_positivity_matches_eigvalsh_oracle(self, block_states, eig_tol):
        tols = {"trace_tol": 1e-6, "eig_tol": eig_tol}
        levels = [0.0, 1e-3, -eig_tol * (1 - 1e-6), -eig_tol * (1 + 1e-6)]
        samples = [state_with_min_eigenvalue(16, lam, seed)
                   for seed in range(12) for lam in levels]
        oracle = [np.linalg.eigvalsh((s + s.conj().T) / 2.0)[0] < -eig_tol for s in samples]
        assert oracle == [lam < -eig_tol for lam in levels] * 12
        for sample, rejected in zip(samples, oracle):
            assert (single_check_message(sample, **tols) is not None) == rejected
        passing = [s for s, rejected in zip(samples, oracle) if not rejected]
        assert len(DensityMatrix.stack(LAYOUT, np.array(passing), **tols)) == len(passing)
        with pytest.raises(StateError) as info:
            DensityMatrix.stack(LAYOUT, np.array(samples), **tols)
        assert info.value.index == oracle.index(True)
        assert str(info.value) == single_check_message(samples[info.value.index], **tols)

    @pytest.mark.parametrize("plant", ["nan", "inf", "non_hermitian", "trace", "negative"])
    def test_planted_sample_gives_its_single_state_verdict(self, block_states, plant):
        stack = np.array([random_state(16, seed).entries for seed in range(9)])
        bad = stack[4]
        if plant in ("nan", "inf"):
            bad[2, 3] = getattr(np, plant)
        elif plant == "non_hermitian":
            bad[0, 1] += 1e-3
        elif plant == "trace":
            bad *= 1.01
        else:
            stack[4] = state_with_min_eigenvalue(16, -1e-3, seed=4)
        # a later sample failing another check must not hide the planted one
        stack[6] *= 2.0
        message = single_check_message(stack[4])
        assert message is not None
        with pytest.raises(StateError) as info:
            DensityMatrix.stack(LAYOUT, stack)
        assert (info.value.index, str(info.value)) == (4, message)

    def test_states_are_read_only_views_checked_once(self, monkeypatch):
        stack = np.array([random_state(16, seed).entries for seed in range(5)])
        calls = []
        monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: calls.append(self))
        states = DensityMatrix.stack(LAYOUT, stack, trace_tol=1e-6, eig_tol=1e-7)
        assert calls == []
        assert all(s.entries.base is stack and not s.entries.flags.writeable for s in states)
        assert not stack.flags.writeable
        assert all((s.layout, s.trace_tol, s.eig_tol) == (LAYOUT, 1e-6, 1e-7) for s in states)
        for s, entries in zip(states, stack):
            assert np.array_equal(s.entries, entries)

    def test_a_view_is_copied_not_taken_over(self):
        base = np.array([random_state(16, seed).entries for seed in range(3)])
        states = DensityMatrix.stack(LAYOUT, base[1:])
        assert base.flags.writeable
        assert not np.shares_memory(states[0].entries, base)

    @pytest.mark.parametrize("shape", [(16, 16), (2, 16, 8), (2, 8, 8)])
    def test_rejects_a_stack_of_the_wrong_shape(self, shape):
        with pytest.raises(LayoutError):
            DensityMatrix.stack(LAYOUT, np.zeros(shape, dtype=complex))
