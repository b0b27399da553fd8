import copy
import importlib.resources
import json
import math
import re

import pytest
from scipy.optimize import brentq

from stabsim.calibration import (
    CalibrationError,
    CircuitParams,
    DeviceTable,
    kappa_from_resonator_t1,
    load_device_table,
    qq_sideband_rate,
    qr_blue_rate,
    static_couplings,
)

TWO_PI = 2 * math.pi

BUNDLED_TABLE = json.loads(
    importlib.resources.files("stabsim.data").joinpath("device_table.json").read_text()
)


def leaf_paths(node, prefix=()):
    """Key paths of every non-object value below `node`."""
    if not isinstance(node, dict):
        return [prefix]
    return [path for key, value in node.items() for path in leaf_paths(value, prefix + (key,))]


def load_edited(tmp_path, edit):
    """Load a copy of the bundled table after `edit(raw)` (which may return a replacement)."""
    raw = copy.deepcopy(BUNDLED_TABLE)
    raw = edit(raw) or raw
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(raw))
    return load_device_table(str(table_path))


# measured coupler and qubit constants used across the rate tests
COUPLER = dict(
    ej1=12.2, ej2=12.3, ejc=1700.0, phi_dc=0.3795,
    omega_q1=TWO_PI * 3204.6, omega_q2=TWO_PI * 3662.4,
)


class TestQQSidebandRate:
    def test_zero_flux_bias(self):
        p = CircuitParams(epsilon=0.1, **dict(COUPLER, phi_dc=0.0))
        assert qq_sideband_rate(p) == 0.0

    def test_linear_in_modulation(self):
        p1 = CircuitParams(epsilon=0.01, **COUPLER)
        p2 = CircuitParams(epsilon=0.02, **COUPLER)
        assert qq_sideband_rate(p2) == pytest.approx(2 * qq_sideband_rate(p1))

    def test_invert_for_target_rate(self):
        # numerically invert for the modulation amplitude that gives a
        # 2 MHz sideband
        target = TWO_PI * 2.0

        def gap(eps):
            return qq_sideband_rate(CircuitParams(epsilon=eps, **COUPLER)) - target

        eps_star = brentq(gap, 1e-8, 1.0, xtol=1e-14)
        assert 0 < eps_star < 0.1
        p = CircuitParams(epsilon=eps_star, **COUPLER)
        assert qq_sideband_rate(p) == pytest.approx(target, rel=1e-10)

    def test_first_order_expansion_coefficient(self):
        # rate equals the first-order modulation coefficient of the
        # flux-tunable coupling
        p = CircuitParams(epsilon=1.0, **COUPLER)
        base = (
            math.sqrt(p.ej1 * p.ej2) / (2 * p.ejc)
            * math.sqrt(p.omega_q1 * p.omega_q2)
        )
        phi = p.phi_dc_rad
        eps = 1e-4
        numeric = base * (1 / math.cos(phi + eps) - 1 / math.cos(phi - eps)) / (2 * eps)
        assert qq_sideband_rate(p) == pytest.approx(numeric, rel=1e-3)

    def test_singular_flux_rejected(self):
        p = CircuitParams(epsilon=0.1, **dict(COUPLER, phi_dc=0.5))
        with pytest.raises(CalibrationError):
            qq_sideband_rate(p)

    def test_adiabatic_validity_required(self):
        p = CircuitParams(epsilon=0.1, **dict(COUPLER, ejc=50.0))
        assert not p.adiabatic_valid
        with pytest.raises(CalibrationError):
            qq_sideband_rate(p)


class TestQRBlueRate:
    def test_quadratic_in_drive(self):
        w1 = qr_blue_rate(10.0, 1.0, 100.0)
        w2 = qr_blue_rate(10.0, 2.0, 100.0)
        assert w2 == pytest.approx(4 * w1)

    def test_quartic_in_detuning(self):
        w1 = qr_blue_rate(10.0, 1.0, 100.0)
        w2 = qr_blue_rate(10.0, 1.0, 200.0)
        assert w1 == pytest.approx(16 * w2)

    def test_reachable_rate(self):
        # a strong charge drive on the measured coupling and detuning scale
        # reaches the half-megahertz regime
        g = TWO_PI * 100.0
        delta = TWO_PI * 1790.0
        eps_q = TWO_PI * 600.0
        assert qr_blue_rate(g, eps_q, delta) >= TWO_PI * 0.5

    def test_homogeneity(self):
        s = 3.0
        assert qr_blue_rate(s * 10.0, s * 1.0, s * 100.0) == pytest.approx(
            s * qr_blue_rate(10.0, 1.0, 100.0)
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(CalibrationError):
            qr_blue_rate(-1.0, 1.0, 1.0)


class TestKappa:
    def test_measured_lifetimes(self):
        assert kappa_from_resonator_t1(0.48) / TWO_PI == pytest.approx(0.33, abs=0.005)
        assert kappa_from_resonator_t1(0.37) / TWO_PI == pytest.approx(0.43, abs=0.005)

    def test_infinite_lifetime(self):
        assert kappa_from_resonator_t1(math.inf) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(CalibrationError):
            kappa_from_resonator_t1(0.0)


class TestStaticCouplings:
    def test_flux_zero_minimizes_inductive_coupling(self):
        values = []
        for frac in (0.0, 0.1, 0.2, 0.3, 0.4):
            p = CircuitParams(**dict(COUPLER, phi_dc=frac), c_q1=1.0, c_q2=1.0, c_q12=10.0)
            values.append(static_couplings(p)[0])
        assert values == sorted(values)

    def test_symmetric_in_junction_swap(self):
        p1 = CircuitParams(**COUPLER, c_q1=1.0, c_q2=1.0, c_q12=10.0)
        p2 = CircuitParams(
            **dict(COUPLER, ej1=COUPLER["ej2"], ej2=COUPLER["ej1"]),
            c_q1=1.0, c_q2=1.0, c_q12=10.0,
        )
        assert static_couplings(p1)[0] == pytest.approx(static_couplings(p2)[0])

    def test_measured_bias_point(self):
        p = CircuitParams(**COUPLER, c_q1=65.0, c_q2=65.0, c_q12=600.0)
        g1, g2 = static_couplings(p)
        assert g1 > 0 and g2 > 0
        ratio = math.sqrt(COUPLER["ej1"] * COUPLER["ej2"]) / (
            2 * COUPLER["ejc"] * math.cos(COUPLER["phi_dc"] * math.pi)
        )
        assert g1 == pytest.approx(
            ratio * math.sqrt(COUPLER["omega_q1"] * COUPLER["omega_q2"])
        )


class TestDeviceTable:
    def test_bundled_table_loads(self):
        table = load_device_table()
        assert table.qubit_ge_frequency_ghz["q1"] == pytest.approx(3.2046)
        assert table.qubit_ge_frequency_ghz["q2"] == pytest.approx(3.6624)
        assert table.anharmonicity_mhz["q1"] == pytest.approx(-116.3)
        assert table.anharmonicity_mhz["q2"] == pytest.approx(-159.5)
        assert table.readout_frequency_ghz["r1"] == pytest.approx(4.9946)
        assert table.readout_frequency_ghz["r2"] == pytest.approx(5.4505)
        assert table.zz_shift_khz == pytest.approx(-261.0)
        assert table.readout_fidelity["q1"] == pytest.approx(0.8887)
        assert table.readout_fidelity["q2"] == pytest.approx(0.8176)

    def test_coherence_points(self):
        table = load_device_table()
        assert table.qubit_t1s("bias_point") == (24.3, 9.1)
        assert table.qubit_t1s("sweet_spot") == (31.6, 2.8)
        k1, k2 = table.resonator_kappas()
        assert k1 / TWO_PI == pytest.approx(0.33, abs=0.005)
        assert k2 / TWO_PI == pytest.approx(0.43, abs=0.005)

    def test_missing_field_rejected(self, tmp_path):
        table_path = tmp_path / "table.json"
        import importlib.resources as resources

        raw = json.loads(
            resources.files("stabsim.data").joinpath("device_table.json").read_text()
        )
        del raw["zz_shift_khz"]
        table_path.write_text(json.dumps(raw))
        with pytest.raises(CalibrationError):
            load_device_table(str(table_path))

    def test_missing_coherence_entry_rejected(self, tmp_path):
        import importlib.resources as resources

        raw = json.loads(
            resources.files("stabsim.data").joinpath("device_table.json").read_text()
        )
        del raw["coherence_us"]["bias_point"]["q2"]["t_echo"]
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(raw))
        with pytest.raises(CalibrationError):
            load_device_table(str(table_path))

    def test_bundled_table_is_the_file(self):
        assert load_device_table() == DeviceTable(**BUNDLED_TABLE)
        assert BUNDLED_TABLE["coherence_us"]["sweet_spot"]["q2"]["t_echo"] is None

    # every value of the bundled table is required, including the null one
    @pytest.mark.parametrize("path", leaf_paths(BUNDLED_TABLE), ids=".".join)
    def test_every_value_required(self, tmp_path, path):
        def drop(raw):
            node = raw
            for key in path[:-1]:
                node = node[key]
            del node[path[-1]]

        with pytest.raises(CalibrationError, match=re.escape(".".join(path))):
            load_edited(tmp_path, drop)

    # a string is never a value; null only for a Ramsey or echo time
    @pytest.mark.parametrize("path,value", [
        *((path, "0.48") for path in leaf_paths(BUNDLED_TABLE)),
        (("zz_shift_khz",), None),
        (("coherence_us", "bias_point", "r1", "t1"), None),
        (("zz_shift_khz",), "abc"),
        (("zz_shift_khz",), math.nan),
        (("coherence_us", "bias_point", "q1", "t1"), math.inf),
        (("readout_fidelity", "q1"), True),
        (("coherence_us", "sweet_spot", "q1", "t1"), {"value": 31.6}),
    ], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v))
    def test_value_must_be_a_finite_number(self, tmp_path, path, value):
        def put(raw):
            node = raw
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value

        with pytest.raises(CalibrationError, match=re.escape(f"{'.'.join(path)}' must be a finite")):
            load_edited(tmp_path, put)

    @pytest.mark.parametrize("field", ["t_ram", "t_echo"])
    def test_null_coherence_time_loads(self, tmp_path, field):
        table = load_edited(tmp_path, lambda raw: raw["coherence_us"]["bias_point"]["q1"].update(
            {field: None}))
        assert table.coherence_us["bias_point"]["q1"][field] is None
        assert table.qubit_t1s() == (24.3, 9.1)

    @pytest.mark.parametrize("edit", [
        lambda raw: raw.update(coherence_us=5),
        lambda raw: raw["coherence_us"].update(bias_point=None),
        lambda raw: raw["coherence_us"]["sweet_spot"].update(q1=[31.6, 28.4, 26.6]),
        lambda raw: [raw],
    ], ids=["coherence_number", "bias_point_null", "qubit_list", "top_level_list"])
    def test_non_object_rejected(self, tmp_path, edit):
        with pytest.raises(CalibrationError, match="must be an object"):
            load_edited(tmp_path, edit)
