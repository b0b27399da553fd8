import math

import numpy as np
import pytest

import stabsim.tomography
from stabsim.hilbert import DensityMatrix
from stabsim.targets import TWO_QUBIT_LAYOUT, bell_psi_minus, product_state
from stabsim.tomography import (
    pauli_estimates,
    CountsTable,
    TomographyError,
    TomographySettings,
    reconstruct,
    reconstruct_from_frequencies,
    setting_probabilities,
    simulate_tomography,
)


SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
ROTATIONS = {
    "I": np.eye(2, dtype=complex),
    "X90": (np.eye(2) - 1j * SIGMA["X"]) / np.sqrt(2.0),
    "Y90": (np.eye(2) - 1j * SIGMA["Y"]) / np.sqrt(2.0),
}
PAULI_LABELS = [a + b for a in "IXYZ" for b in "IXYZ"][1:]
READOUT = {"readout_fidelity_q1": 0.8887, "readout_fidelity_q2": 0.8176}


def random_physical_state(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def loop_pauli_estimates(freqs, s):
    """Reference: the design matrix one trace at a time, tr(P U^dag |o><o| U) / 4."""
    corrected = freqs @ np.linalg.inv(s.confusion_matrix()).T
    n = len(s.pre_rotations)
    design = np.zeros((4 * n, 15))
    rhs = np.zeros(4 * n)
    basis = np.eye(4)
    for i, (a, b) in enumerate(s.pre_rotations):
        u = np.kron(ROTATIONS[a], ROTATIONS[b])
        for o in range(4):
            effect = u.conj().T @ np.outer(basis[o], basis[o]) @ u
            rhs[4 * i + o] = corrected[i, o] - 0.25
            for j, label in enumerate(PAULI_LABELS):
                pauli = np.kron(SIGMA[label[0]], SIGMA[label[1]])
                design[4 * i + o, j] = np.real(np.trace(pauli @ effect)) / 4.0
    coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return dict(zip(PAULI_LABELS, coeffs))


def loop_setting_probabilities(rho, s):
    """Reference: one kron and one Born rule per setting, then the readout confusion."""
    probs = np.empty((len(s.pre_rotations), 4))
    for i, (a, b) in enumerate(s.pre_rotations):
        u = np.kron(ROTATIONS[a], ROTATIONS[b])
        born = np.clip(np.real(np.diag(u @ rho @ u.conj().T)), 0.0, None)
        probs[i] = s.confusion_matrix() @ (born / born.sum())
    return probs


class TestSettings:
    def test_default_has_nine_settings(self):
        s = TomographySettings()
        assert len(s.pre_rotations) == 9
        assert s.shots_per_setting == 5000

    def test_low_fidelity_rejected(self):
        with pytest.raises(TomographyError):
            TomographySettings(readout_fidelity_q1=0.5)
        with pytest.raises(TomographyError):
            TomographySettings(readout_fidelity_q2=0.4)

    def test_unknown_rotation_rejected(self):
        with pytest.raises(TomographyError):
            TomographySettings(pre_rotations=(("I", "Z90"),))

    @pytest.mark.parametrize("field, value", [
        ("shots_per_setting", 100.5),
        ("shots_per_setting", float("nan")),
        ("shots_per_setting", True),
        ("rng_seed", -1),
        ("rng_seed", 2.5),
        ("rng_seed", True),
    ], ids=["shots_fraction", "shots_nan", "shots_bool", "seed_negative", "seed_fraction",
            "seed_bool"])
    def test_non_integer_or_out_of_range_rejected(self, field, value):
        with pytest.raises(TomographyError, match=field):
            TomographySettings(**{field: value})

    def test_numpy_integers_accepted(self):
        s = TomographySettings(shots_per_setting=np.int64(100), rng_seed=np.int32(0))
        assert simulate_tomography(np.eye(4) / 4.0, s).counts.sum() == 900


class TestSimulate:
    def test_ground_state_identity_setting(self):
        s = TomographySettings(shots_per_setting=1000, pre_rotations=(("I", "I"),), rng_seed=1)
        rho = product_state(0.0, 0.0).density()
        counts = simulate_tomography(rho, s)
        assert counts.counts[0, 0] == 1000

    def test_maximally_mixed_uniform(self):
        shots = 40000
        s = TomographySettings(shots_per_setting=shots, rng_seed=2)
        counts = simulate_tomography(np.eye(4) / 4.0, s)
        sigma = math.sqrt(shots * 0.25 * 0.75)
        assert np.all(np.abs(counts.counts - shots / 4) < 5 * sigma)

    def test_counts_sum_invariant(self):
        s = TomographySettings(shots_per_setting=777, rng_seed=3)
        counts = simulate_tomography(random_physical_state(0), s)
        assert np.all(counts.counts.sum(axis=1) == 777)

    def test_readout_error_distribution(self):
        # measured distribution matches the analytic confusion-convolved
        # probabilities at large shot count
        shots = 10**6
        s = TomographySettings(
            shots_per_setting=shots,
            readout_fidelity_q1=0.8887,
            readout_fidelity_q2=0.8176,
            rng_seed=4,
        )
        rho = bell_psi_minus().density()
        probs = setting_probabilities(rho, s)
        counts = simulate_tomography(rho, s)
        freqs = counts.frequencies()
        sigma = np.sqrt(probs * (1 - probs) / shots)
        assert np.all(np.abs(freqs - probs) < 5 * np.maximum(sigma, 1e-9))

    @pytest.mark.parametrize("rho", [
        np.zeros((4, 4)),
        np.full((4, 4), np.nan),
        -np.eye(4) / 4.0,
    ], ids=["zero", "nan", "negative_trace"])
    def test_unphysical_state_rejected(self, rho):
        with pytest.raises(TomographyError, match="positive trace"):
            simulate_tomography(rho, TomographySettings(shots_per_setting=100))

    def test_deterministic_per_seed(self):
        s = TomographySettings(shots_per_setting=500, rng_seed=11)
        rho = random_physical_state(5)
        a = simulate_tomography(rho, s)
        b = simulate_tomography(rho, s)
        assert np.array_equal(a.counts, b.counts)


class TestReconstruct:
    def test_exact_frequencies_identity(self):
        s = TomographySettings(shots_per_setting=1000)
        for seed in range(6):
            rho = random_physical_state(seed)
            freqs = setting_probabilities(rho, s, readout_error=False)
            rebuilt = reconstruct_from_frequencies(freqs, s)
            assert np.max(np.abs(rebuilt.entries - rho)) < 1e-12

    def test_exact_frequencies_identity_with_readout_error(self):
        s = TomographySettings(readout_fidelity_q1=0.9, readout_fidelity_q2=0.85)
        rho = bell_psi_minus().density()
        freqs = setting_probabilities(rho, s, readout_error=True)
        rebuilt = reconstruct_from_frequencies(freqs, s)
        assert np.max(np.abs(rebuilt.entries - rho)) < 1e-12

    def test_finite_shots_error_small(self):
        shots = 5000
        rho = bell_psi_minus().density()
        good = 0
        trials = 200
        for trial in range(trials):
            s = TomographySettings(shots_per_setting=shots, rng_seed=trial)
            rebuilt = reconstruct(simulate_tomography(rho, s))
            err = np.linalg.norm(rebuilt.entries - rho)
            good += err < 0.05
        assert good >= 0.95 * trials

    def test_confusion_inversion_unbiased(self):
        # the confusion-corrected ZZ estimate (before positivity
        # projection) is unbiased within 3 sigma of the trial mean
        shots = 20000
        trials = 60
        rho = bell_psi_minus().density()
        zz = np.diag([1.0, -1.0, -1.0, 1.0])
        truth = np.real(np.trace(rho @ zz))
        estimates = []
        for trial in range(trials):
            s = TomographySettings(
                shots_per_setting=shots,
                readout_fidelity_q1=0.89,
                readout_fidelity_q2=0.82,
                rng_seed=1000 + trial,
            )
            counts = simulate_tomography(rho, s)
            estimates.append(pauli_estimates(counts.frequencies(), s)["ZZ"])
        mean = np.mean(estimates)
        stderr = np.std(estimates, ddof=1) / math.sqrt(trials)
        assert abs(mean - truth) < 3 * stderr

    def test_error_scaling_with_shots(self):
        rho = bell_psi_minus().density()
        shot_counts = (1000, 10000, 100000)
        mean_errors = []
        for shots in shot_counts:
            errs = []
            for trial in range(30):
                s = TomographySettings(shots_per_setting=shots, rng_seed=500 + trial)
                rebuilt = reconstruct(simulate_tomography(rho, s))
                errs.append(np.linalg.norm(rebuilt.entries - rho))
            mean_errors.append(np.mean(errs))
        slope = np.polyfit(np.log10(shot_counts), np.log10(mean_errors), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_output_is_physical(self):
        for seed in range(10):
            s = TomographySettings(shots_per_setting=200, rng_seed=seed)
            rebuilt = reconstruct(simulate_tomography(random_physical_state(seed), s))
            assert isinstance(rebuilt, DensityMatrix)
            assert rebuilt.layout == TWO_QUBIT_LAYOUT

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frequencies_rejected(self, bad):
        s = TomographySettings()
        freqs = setting_probabilities(random_physical_state(0), s)
        freqs[3, 1] = bad
        with pytest.raises(TomographyError, match="finite"):
            pauli_estimates(freqs, s)

    def test_mismatched_settings_rejected(self):
        s_full = TomographySettings(shots_per_setting=100, rng_seed=0)
        counts = simulate_tomography(np.eye(4) / 4.0, s_full)
        s_other = TomographySettings(
            shots_per_setting=100, pre_rotations=(("I", "I"), ("X90", "X90"))
        )
        with pytest.raises(TomographyError):
            reconstruct(counts, s_other)


class TestCountsTable:
    def test_sum_validation(self):
        s = TomographySettings(shots_per_setting=10, pre_rotations=(("I", "I"),))
        with pytest.raises(TomographyError):
            CountsTable(s, np.array([[3, 3, 3, 3]]))

    @pytest.mark.parametrize("row", [
        [-1, 5, 3, 3],
        [2.9, 6, 1, 1],
        [math.nan, 10, 0, 0],
        [math.inf, 10, 0, 0],
    ], ids=["negative", "fractional", "nan", "inf"])
    def test_invalid_counts_rejected(self, row):
        s = TomographySettings(shots_per_setting=10, pre_rotations=(("I", "I"),))
        with pytest.raises(TomographyError):
            CountsTable(s, [row])

    def test_negative_counts_never_reach_reconstruct(self):
        s = TomographySettings(shots_per_setting=10)
        with pytest.raises(TomographyError):
            reconstruct(CountsTable(s, [[-5, 15, 0, 0]] * 9))

    def test_csv_export(self, tmp_path):
        s = TomographySettings(shots_per_setting=50, rng_seed=9)
        counts = simulate_tomography(np.eye(4) / 4.0, s)
        path = tmp_path / "counts.csv"
        counts.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "setting,outcome,count"
        assert len(lines) == 1 + 9 * 4
        total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert total == 50 * 9


class TestLoopReferences:
    """The stacked-array forms against the per-setting, per-element loops they replaced."""

    @pytest.mark.parametrize("pre_rotations", [
        None,
        (("I", "I"), ("X90", "Y90"), ("Y90", "X90")),
    ], ids=["default", "three_settings"])
    def test_pauli_estimates_match_trace_loop(self, pre_rotations):
        kwargs = dict(READOUT, shots_per_setting=2000, rng_seed=7)
        if pre_rotations is not None:
            kwargs["pre_rotations"] = pre_rotations
        s = TomographySettings(**kwargs)
        for seed in range(5):
            freqs = simulate_tomography(random_physical_state(seed), s).frequencies()
            got, want = pauli_estimates(freqs, s), loop_pauli_estimates(freqs, s)
            assert list(got) == PAULI_LABELS
            assert max(abs(got[label] - want[label]) for label in PAULI_LABELS) < 1e-14

    def test_setting_probabilities_bitwise_equal_to_loop(self):
        # equal bytes, not a tolerance: the multinomial counts follow these exactly
        s = TomographySettings(**READOUT)
        for seed in range(20):
            rho = random_physical_state(100 + seed)
            got = setting_probabilities(rho, s)
            assert got.tobytes() == loop_setting_probabilities(rho, s).tobytes()


def kron_setting_unitaries(s):
    """Reference: one np.kron per setting on every call."""
    return np.stack([np.kron(ROTATIONS[a], ROTATIONS[b]) for a, b in s.pre_rotations])


class TestRotationTable:
    """The pre-rotations built once at import against np.kron on every call."""

    def test_table_equals_kron_bit_for_bit(self):
        table = stabsim.tomography._PAIR_ROTATIONS
        assert sorted(table) == sorted((a, b) for a in ROTATIONS for b in ROTATIONS)
        for (a, b), rotation in table.items():
            assert rotation.tobytes() == np.kron(ROTATIONS[a], ROTATIONS[b]).tobytes()

    def test_counts_and_reconstruction_equal_per_call_kron(self, monkeypatch):
        for seed in range(5):
            rho = random_physical_state(200 + seed)
            settings = TomographySettings(**READOUT, shots_per_setting=2000, rng_seed=seed)
            counts = simulate_tomography(rho, settings)
            rebuilt = reconstruct(counts)
            with monkeypatch.context() as patch:
                patch.setattr(stabsim.tomography, "_setting_unitaries", kron_setting_unitaries)
                want_counts = simulate_tomography(rho, settings)
                want_rebuilt = reconstruct(want_counts)
            assert counts.counts.tobytes() == want_counts.counts.tobytes()
            assert rebuilt.entries.tobytes() == want_rebuilt.entries.tobytes()
