import csv
import functools
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from stabsim import builders, cli, scenarios
from stabsim.builders import plan_stabilization
from stabsim.calibration import load_device_table
from stabsim.cli import main
from stabsim.dynamics import fit_time_constant
from stabsim.scenarios import (
    FAMILY_DRIVES,
    MEASURED_NOISE,
    ConfigError,
    compare_analytic,
    default_config,
    read_result,
    run_scenario,
    validate_config,
    write_result,
)
from stabsim.targets import rabi_dressed_block, rabi_dressed_state

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

SMALL_KAPPA_SWEEP = {
    "kind": "kappa_sweep",
    "families": ["psi"],
    "grid": {"kappa_over_w": [0.5, 1.0, 2.0]},
}


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "warp_drive"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "time_domain", "fidelity_goal": 1.0})

    def test_unknown_segment_key(self):
        segments = [{"parity": "even", "duration_us": 1.0},
                    {"parity": "odd", "duration_us": 1.0, "duraton_us": 5.0}]
        with pytest.raises(ConfigError, match=r"'segments\[1\]\.duraton_us'"):
            validate_config({"kind": "parity_switch", "segments": segments})

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "kappa_sweep", "grid": {"kappa_over_w": []}})

    def test_theta_grid_bounds(self):
        with pytest.raises(ConfigError):
            validate_config(
                {"kind": "theta_spectroscopy", "grid": {"start_deg": 0.0}}
            )

    def test_defaults_complete(self):
        for kind in scenarios.KINDS:
            cfg = validate_config({"kind": kind})
            assert cfg["kind"] == kind
            assert "seed" in cfg

    @pytest.mark.parametrize("kind", [["time_domain"], {"time_domain": 1}, 3, None],
                             ids=["list", "object", "number", "null"])
    def test_kind_that_is_not_a_name_rejected(self, kind):
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            validate_config({"kind": kind})

    def test_family_switch_pulls_drive_defaults(self):
        cfg = validate_config({"kind": "time_domain", "family": "phi"})
        assert cfg["drives"]["omega_mhz"] == FAMILY_DRIVES["phi"]["omega_mhz"]

    @pytest.mark.parametrize("drives", [{"omega_mhz": 3.0}, {"w1_mhz": 0.4, "delta_mhz": 0.1}])
    def test_family_with_partial_drives_fills_in_that_family(self, drives):
        cfg = validate_config({"kind": "time_domain", "family": "phi", "drives": drives})
        assert cfg["drives"] == {**FAMILY_DRIVES["phi"], **drives}

    def test_rate_model_compare_family_pulls_its_drives(self):
        cfg = validate_config({"kind": "rate_model_compare", "family": "phi"})
        assert cfg["drives"] == FAMILY_DRIVES["phi"]

    @pytest.mark.parametrize("drives", [{"omega_mhz": 3.0}, {"w1_mhz": 0.4, "delta_mhz": 0.1}])
    def test_rate_model_compare_partial_drives_fill_in_that_family(self, drives):
        cfg = validate_config({"kind": "rate_model_compare", "family": "phi", "drives": drives})
        assert cfg["drives"] == {**FAMILY_DRIVES["phi"], **drives}

    def test_bad_noise_rejected(self):
        with pytest.raises(ValueError):
            validate_config(
                {"kind": "time_domain", "noise": {"kappa1_mhz": -0.3}}
            )

    @pytest.mark.parametrize("kind", ["theta_spectroscopy", "rate_model_compare"])
    @pytest.mark.parametrize("grid", [
        {"step_deg": 0.0},
        {"step_deg": -10.0},
        {"stop_deg": 180.0},
    ])
    def test_theta_grid_checked_for_both_theta_kinds(self, kind, grid):
        cfg = {"kind": kind, "grid": grid}
        with pytest.raises(ConfigError):
            validate_config(cfg)
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    @pytest.mark.parametrize("kind,override", [
        ("time_domain", {"drives": {"omega_mhz": -1.0}}),
        ("time_domain", {"drives": {"w1_mhz": 0.0}}),
        ("time_domain", {"drives": {"delta_mhz": math.inf}}),
        ("time_domain", {"grid": {"dt_us": math.inf}}),
        ("time_domain", {"resonator_dim": 2.7}),
        ("time_domain", {"resonator_dim": "2"}),
        ("theta_spectroscopy", {"drives": {"omega_mhz": 0.0}}),
        ("theta_spectroscopy", {"grid": {"start_deg": math.nan}}),
        ("parity_switch", {"drives": {"even": {"omega_mhz": "2.0"}}}),
        ("parity_switch", {"segments": [{"parity": "even", "duration_us": math.inf}]}),
        ("parity_switch", {"fit_window_us": -1.0}),
        ("tphi_sweep", {"grid": {"tphi_us": [10.0, math.nan]}}),
        ("tphi_sweep", {"drives": {"phi": {"w2_mhz": -0.3}}}),
        ("tphi_sweep", {"w_convention": "tripled"}),
        ("kappa_sweep", {"grid": {"kappa_over_w": [0.0]}}),
        ("kappa_sweep", {"grid": {"kappa_over_w": [-1.0]}}),
        ("kappa_sweep", {"families": []}),
        ("omega_kappa_map", {"grid": {"kappa_mhz": [0.0]}}),
        ("omega_kappa_map", {"grid": {"omega_mhz": [True]}}),
        ("dressed_parity_sweep", {"grid": {"a1_over_omega": [-0.1]}}),
        ("dressed_parity_sweep", {"branches": "blue"}),
        ("rabi_dressed_map", {"grid": {"delta_over_omega": [math.inf]}}),
        ("rate_model_compare", {"family": "chi"}),
        ("rate_model_compare", {"drives": {"delta_mhz": math.nan}}),
        ("rate_model_compare", {"grid": {"start_deg": 100.0, "stop_deg": 50.0}}),
        ("time_domain", {"grid": 5}),
        ("kappa_sweep", {"families": "psi"}),
        ("parity_switch", {"segments": [{"parity": "even"}]}),
        ("time_domain", {"seed": None}),
        ("kappa_sweep", {"seed": "x"}),
        ("tphi_sweep", {"seed": 1.7}),
        ("rabi_dressed_map", {"seed": True}),
        ("theta_spectroscopy", {"swap_colors": "yes"}),
        ("time_domain", {"noise": {"kappa1_mhz": "0.3"}}),
        ("omega_kappa_map", {"noise": {"kappa1_mhz": True}}),
        ("tphi_sweep", {"families": ["psi"], "grid": {"tphi_us": [20.0]},
                        "noise": {"kappa1_mhz": math.inf}}),
        ("dressed_parity_sweep", {"noise": {"t1_us": [True, "12"]}}),
        ("tphi_sweep", {"grid": {"tphi_us": [[10.0]]}}),
        ("time_domain", {"family": {"psi": 1}}),
    ])
    def test_bad_input_rejected(self, kind, override):
        with pytest.raises(ConfigError):
            validate_config(dict(override, kind=kind))

    @pytest.mark.parametrize("grid", [{"t_max_us": 0.1, "dt_us": 0.25},
                                      {"t_max_us": 1.0, "dt_us": 0.3}],
                             ids=["dt_past_t_max", "t_max_between_samples"])
    def test_time_domain_grid_must_end_on_t_max(self, grid, tmp_path, capsys):
        # the last sample would lie before t_max, and final_fidelity would report it
        cfg = {"kind": "time_domain", "grid": grid}
        with pytest.raises(ConfigError, match="must be a whole multiple of grid.dt_us"):
            validate_config(cfg)
        path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(out_dir), "--workers", "1"]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out_dir.exists()

    def test_time_domain_grid_within_rounding_of_a_multiple_accepted(self):
        # 3 x 0.1 is 0.30000000000000004: the last of the four samples lies at t_max
        result = run_scenario({"kind": "time_domain", "grid": {"t_max_us": 0.3, "dt_us": 0.1}})
        assert [row[0] for row in result.rows] == pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-15)

    def test_zero_ratio_and_whole_float_dim_accepted(self):
        cfg = validate_config({"kind": "rabi_dressed_map", "resonator_dim": 3.0,
                               "grid": {"delta_over_omega": [0.0], "a1_over_omega": [0]}})
        assert cfg["resonator_dim"] == 3 and isinstance(cfg["resonator_dim"], int)


class TestMeasuredDefaults:
    def test_noise_matches_device_table(self):
        table = load_device_table()
        k1, k2 = table.resonator_kappas()
        assert round(k1 / (2 * math.pi), 2) == MEASURED_NOISE["kappa1_mhz"]
        assert round(k2 / (2 * math.pi), 2) == MEASURED_NOISE["kappa2_mhz"]

    def test_bell_drive_sets(self):
        assert FAMILY_DRIVES["psi"] == {
            "omega_mhz": 2.0, "w1_mhz": 0.47, "w2_mhz": 0.47, "delta_mhz": 0.0,
        }
        assert FAMILY_DRIVES["phi"] == {
            "omega_mhz": 3.0, "w1_mhz": 0.36, "w2_mhz": 0.36, "delta_mhz": 0.0,
        }
        assert MEASURED_NOISE["t1_us"] == [25.0, 12.0]
        assert MEASURED_NOISE["tphi_us"] == [25.0, 25.0]

    def test_rabi_dressed_plan_target_is_the_family_state(self):
        # the rabi_dressed_map point scores against its plan's target
        cfg = default_config("rabi_dressed_map")
        omega = 2 * math.pi * cfg["drives"]["omega_mhz"]
        w1, w2 = (2 * math.pi * cfg["drives"][k] for k in ("w1_mhz", "w2_mhz"))
        points = [(d, a) for d in cfg["grid"]["delta_over_omega"]
                  for a in cfg["grid"]["a1_over_omega"]]
        assert len(points) == 441
        for d_over_om, a_over_om in points:
            delta, a1 = d_over_om * omega, a_over_om * omega
            plan = plan_stabilization(rabi_dressed_block(delta, a1, omega), w1, w2)
            _, target = rabi_dressed_state(delta, a1, omega)
            assert plan.target.amplitudes.tobytes() == target.amplitudes.tobytes()


class TestRunScenario:
    def test_kappa_sweep_runs(self):
        result = run_scenario(SMALL_KAPPA_SWEEP)
        assert result.columns == ("family", "kappa_over_w", "kappa_mhz", "fidelity", "purity")
        assert len(result.rows) == 3
        assert result.summary["peak"]["psi"]["fidelity"] > 0.8

    def test_row_count_matches_grid(self):
        cfg = {
            "kind": "rabi_dressed_map",
            "grid": {"delta_over_omega": [0.0, 0.5], "a1_over_omega": [0.0, 0.5, 1.0]},
        }
        result = run_scenario(cfg)
        assert len(result.rows) == 6

    def test_time_domain_small(self):
        cfg = {"kind": "time_domain", "grid": {"t_max_us": 2.0, "dt_us": 0.5}}
        result = run_scenario(cfg)
        assert len(result.rows) == 5
        fid = result.column("fidelity")
        assert fid[0] == pytest.approx(0.5)  # |gg> overlaps the Bell target at 1/2
        assert fid[-1] > fid[0]

    def test_parity_switch_small(self):
        cfg = {
            "kind": "parity_switch",
            "segments": [
                {"parity": "even", "duration_us": 4.0},
                {"parity": "odd", "duration_us": 4.0},
            ],
            "grid": {"dt_us": 0.2},
            "fit_window_us": 4.0,
        }
        result = run_scenario(cfg)
        parity = np.asarray(result.column("parity"))
        times = np.asarray(result.column("t_us"))
        assert parity[times <= 4.0].max() > 0.5
        assert parity[-1] < -0.5
        fits = result.summary["switch_fits"]
        assert len(fits) == 1 and fits[0]["to_parity"] == "odd"

    def test_switch_fit_reports_configured_parity(self):
        # 0.05 us of even drive leaves the parity near +1 at the switch; a 2 us window
        # holds enough of the fall to odd for an interior time constant (about 6.9 us)
        cfg = {
            "kind": "parity_switch",
            "fit_window_us": 2.0,
            "grid": {"dt_us": 0.1},
            "segments": [
                {"parity": "even", "duration_us": 0.05},
                {"parity": "odd", "duration_us": 3.0},
            ],
        }
        fits = run_scenario(cfg).summary["switch_fits"]
        assert [fit["to_parity"] for fit in fits] == ["odd"]

    def test_default_switch_fits_sit_at_the_least_squares_minimum(self):
        result = run_scenario({"kind": "parity_switch"})
        times = np.asarray(result.column("t_us"))
        parity = np.asarray(result.column("parity"))
        fits = result.summary["switch_fits"]
        assert [fit["switch_t_us"] for fit in fits] == [20.0, 40.0, 60.0]
        rng = np.random.default_rng(0)
        for fit, tau in zip(fits, [1.149652835946, 0.839854911033, 1.149652835946]):
            assert fit["tau_us"] == pytest.approx(tau, abs=1e-10)
            window = (times >= fit["switch_t_us"]) & (times <= fit["switch_t_us"] + 12.0)
            t, v = times[window], parity[window]
            # tau is a root of the cost's derivative, so a 1e-14 kick moves it by rounding
            kicked = fit_time_constant(t, v + 1e-14 * rng.standard_normal(v.size))
            assert abs(kicked.tau - fit["tau_us"]) <= 1e-12

            def cost(tau):  # v0 and v_inf by an independent linear least-squares fit
                basis = np.column_stack([np.ones_like(t), np.exp(-(t - t[0]) / tau)])
                return np.linalg.lstsq(basis, v, rcond=None)[1][0]

            nearby = min(cost(fit["tau_us"] * (1.0 - 1e-6)), cost(fit["tau_us"] * (1.0 + 1e-6)))
            assert nearby >= cost(fit["tau_us"])

    def test_boundary_between_equal_parities_is_not_fitted(self):
        # the even state is already stabilized at 20 us: after the boundary the parity
        # drifts by about 6e-11, which is no switch and has no time constant to report
        cfg = {
            "kind": "parity_switch",
            "segments": [
                {"parity": "even", "duration_us": 20.0},
                {"parity": "even", "duration_us": 20.0},
            ],
        }
        assert run_scenario(cfg).summary["switch_fits"] == []

    @pytest.mark.parametrize("odd_us,tau_us", [(4.0, 1.5403), (3.0, 2.1873)])
    def test_switch_fit_window_ends_at_the_next_switch(self, odd_us, tau_us):
        # an 8 us window after the switch at 10 us would run into the next
        # switch, back to even parity, and fit across both segments
        cfg = {
            "kind": "parity_switch",
            "fit_window_us": 8.0,
            "grid": {"dt_us": 0.1},
            "segments": [
                {"parity": "even", "duration_us": 10.0},
                {"parity": "odd", "duration_us": odd_us},
                {"parity": "even", "duration_us": 12.0},
            ],
        }
        fits = run_scenario(cfg).summary["switch_fits"]
        assert [(f["switch_t_us"], f["to_parity"]) for f in fits] == [
            (10.0, "odd"), (10.0 + odd_us, "even")
        ]
        assert fits[0]["tau_us"] == pytest.approx(tau_us, abs=1e-4)
        assert fits[0]["residual"] < 0.1

    def test_switch_fit_without_interior_minimum_is_left_out(self):
        # over 1 us after the switch the parity trace is nearly straight, and its
        # projected least-squares cost falls on to tau near 1e4 us, past 100 x the window
        cfg = {
            "kind": "parity_switch",
            "grid": {"dt_us": 0.1},
            "fit_window_us": 1.0,
            "segments": [
                {"parity": "even", "duration_us": 1.5},
                {"parity": "odd", "duration_us": 1.5},
            ],
        }
        result = run_scenario(cfg)
        assert result.summary["switch_fits"] == []
        assert len(result.rows) == 31

    def test_theta_spectroscopy_small(self):
        cfg = {
            "kind": "theta_spectroscopy",
            "family": "psi",
            "grid": {"start_deg": 60.0, "stop_deg": 120.0, "step_deg": 30.0},
        }
        result = run_scenario(cfg)
        assert [row[0] for row in result.rows] == [60.0, 90.0, 120.0]
        assert all(row[2] > 0.8 for row in result.rows)

    def test_theta_collapse_at_measured_drive_rates(self):
        # the odd family still fails to stabilize near 180 degrees when
        # driven with the measured Bell-point rates
        cfg = {
            "kind": "theta_spectroscopy",
            "drives": {"omega_mhz": 3.0, "w1_mhz": 0.36, "w2_mhz": 0.36, "delta_mhz": 0.0},
            "noise": dict(MEASURED_NOISE),
            "grid": {"start_deg": 175.0, "stop_deg": 175.0, "step_deg": 5.0},
        }
        result = run_scenario(cfg)
        assert result.rows[0][2] < 0.3

    def test_dressed_parity_sweep_small(self):
        cfg = {
            "kind": "dressed_parity_sweep",
            "grid": {"a1_over_omega": [0.0, 0.6]},
        }
        result = run_scenario(cfg)
        rows = {(row[0], row[1]): row for row in result.rows}
        assert len(rows) == 4
        # at zero dressing the two branches sit at the opposite Bell states
        assert rows[("blue", 0.0)][2] == pytest.approx(0.0)
        assert rows[("red", 0.0)][2] == pytest.approx(180.0)
        assert all(row[3] > 0.7 for row in result.rows)

    def test_tphi_sweep_w_convention_switch(self):
        base = {"kind": "tphi_sweep", "families": ["psi"], "grid": {"tphi_us": [30.0]}}
        listed = run_scenario(dict(base))
        doubled = run_scenario(dict(base, w_convention="double_listed"))
        # doubling the sideband rates breaks perturbativity and costs fidelity
        assert doubled.rows[0][2] < listed.rows[0][2]

    def test_worker_failure_flagged(self, monkeypatch):
        original = scenarios._run_job

        def flaky(cfg, job, patterns):
            if job == ("point", 90.0):
                raise RuntimeError("synthetic point failure")
            return original(cfg, job, patterns)

        monkeypatch.setattr(scenarios, "_run_job", flaky)
        cfg = {
            "kind": "theta_spectroscopy",
            "family": "psi",
            "grid": {"start_deg": 60.0, "stop_deg": 120.0, "step_deg": 30.0},
        }
        result = run_scenario(cfg)
        assert len(result.failures) == 1
        assert "synthetic point failure" in result.failures[0][1]
        assert len(result.rows) == 2

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patched job runs in forked workers")
    def test_crashed_worker_becomes_job_failure(self, monkeypatch):
        original = scenarios._run_job

        def crashing(cfg, job, patterns):
            if job == ("psi", 1.0):
                os._exit(1)  # the worker dies, as under an out-of-memory kill
            return original(cfg, job, patterns)

        monkeypatch.setattr(scenarios, "_run_job", crashing)
        monkeypatch.setattr(scenarios, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        result = run_scenario(SMALL_KAPPA_SWEEP, workers=2)
        failed = {index for index, _ in result.failures}
        ratios = SMALL_KAPPA_SWEEP["grid"]["kappa_over_w"]
        done = {ratios.index(row[1]) for row in result.rows}
        assert 1 in failed and not failed & done
        assert failed | done == set(range(len(ratios)))

    def test_family_without_rows_left_out_of_kappa_peaks(self, monkeypatch):
        original = scenarios._run_job

        def flaky(cfg, job, patterns):
            if job[0] == "phi":
                raise RuntimeError("synthetic family failure")
            return original(cfg, job, patterns)

        monkeypatch.setattr(scenarios, "_run_job", flaky)
        result = run_scenario(dict(SMALL_KAPPA_SWEEP, families=["psi", "phi"]))
        assert len(result.failures) == 3 and len(result.rows) == 3
        assert set(result.summary["peak"]) == {"psi"}


class TestDeterminism:
    def test_rerun_and_worker_count_independence(self, tmp_path):
        paths = []
        for i, workers in enumerate((1, 2, 3)):
            result = run_scenario(dict(SMALL_KAPPA_SWEEP, seed=7), workers=workers)
            out = tmp_path / f"run{i}"
            write_result(result, out)
            paths.append((out / "result.csv").read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_metadata_complete(self):
        result = run_scenario(SMALL_KAPPA_SWEEP)
        meta = result.metadata
        assert meta["artifact_version"]
        assert meta["config_sha256"]
        assert meta["row_count"] == len(result.rows)
        assert meta["mirrors"]


@pytest.fixture
def operator_calls(monkeypatch):
    """Counts the calls through builders' annihilation and number_op bindings."""
    calls = []
    for name in ("annihilation", "number_op"):
        def counting(*args, real=getattr(builders, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(builders, name, counting)
    return calls


def omega_kappa_map(omegas, kappas):
    return {"kind": "omega_kappa_map", "grid": {"omega_mhz": omegas, "kappa_mhz": kappas}}


class TestEmbeddedOperatorScope:
    """A run embeds its layout's operators once for all its points, and never shares
    them with another run."""

    def test_operator_calls_do_not_grow_with_the_points(self, operator_calls):
        counts = []
        for omegas, kappas in (([2.0], [0.4, 0.6]), ([1.0, 2.0], [0.4, 0.5, 0.6, 0.7])):
            operator_calls.clear()
            rows = run_scenario(omega_kappa_map(omegas, kappas)).rows
            assert len(rows) == len(omegas) * len(kappas)
            counts.append(len(operator_calls))
        assert counts[0] == counts[1] > 0

    def test_each_run_builds_its_own_set(self, monkeypatch, operator_calls):
        sets = []
        real = scenarios.build_lindblad

        def recording(h, noise, ops):
            sets.append(ops)
            return real(h, noise, ops)

        monkeypatch.setattr(scenarios, "build_lindblad", recording)
        counts = []
        for _ in range(2):
            operator_calls.clear()
            run_scenario(omega_kappa_map([2.0], [0.4, 0.6]))
            counts.append(len(operator_calls))
        assert counts[0] == counts[1] > 0
        assert sets[0] is sets[1] and sets[2] is sets[3] and sets[1] is not sets[2]


class TestCompareAnalytic:
    def test_small_decay_regime_agrees(self):
        # the rate model holds in the perturbative regime W << Omega;
        # vanishing qubit decay removes its only infidelity channel
        cfg = {
            "kind": "kappa_sweep",
            "families": ["psi"],
            "drives": {
                "psi": {"omega_mhz": 5.0, "w1_mhz": 0.25, "w2_mhz": 0.25, "delta_mhz": 0.0}
            },
            "noise": {"t1_us": [50000.0, 50000.0], "tphi_us": None},
            "grid": {"kappa_over_w": [0.5, 1.0]},
        }
        result = run_scenario(cfg)
        _, rows = compare_analytic(result)
        for _, f_lind, f_rate, diff in rows:
            assert diff < 0.02

    def test_rate_model_compare_scenario(self):
        cfg = {
            "kind": "rate_model_compare",
            "grid": {"start_deg": 90.0, "stop_deg": 90.0, "step_deg": 5.0},
            "noise": {"tphi_us": None},
        }
        result = run_scenario(cfg)
        assert len(result.rows) == 1
        theta, f_lind, f_rate, diff = result.rows[0]
        assert theta == 90.0
        assert diff == pytest.approx(abs(f_lind - f_rate))

    def test_rate_column_from_disk_is_the_in_memory_one(self, tmp_path):
        # the CSV rounds kappa_mhz to %.12g; the rate model reads the job instead
        result = run_scenario({"kind": "kappa_sweep",
                               "grid": {"kappa_over_w": [0.35, 0.7, 1.4, 2.8]}})
        write_result(result, tmp_path)
        _, in_memory = compare_analytic(result)
        _, from_disk = compare_analytic(read_result(tmp_path))
        assert len(from_disk) == 8
        assert [r[0] for r in from_disk] == [r[0] for r in in_memory]
        assert [r[2] for r in from_disk] == [r[2] for r in in_memory]

    def test_rows_pair_with_their_jobs_past_a_failed_job(self, monkeypatch, tmp_path):
        full = compare_analytic(run_scenario(SMALL_KAPPA_SWEEP))[1]
        original = scenarios._run_job

        def flaky(cfg, job, patterns):
            if job == ("psi", 1.0):  # job 1
                raise RuntimeError("synthetic point failure")
            return original(cfg, job, patterns)

        monkeypatch.setattr(scenarios, "_run_job", flaky)
        result = run_scenario(SMALL_KAPPA_SWEEP)
        assert [f["index"] for f in result.metadata["failed_jobs"]] == [1]
        assert compare_analytic(result)[1] == [full[0], full[2]]
        write_result(result, tmp_path)
        from_disk = compare_analytic(read_result(tmp_path))[1]
        assert [(r[0], r[2]) for r in from_disk] == [(r[0], r[2]) for r in (full[0], full[2])]

    def test_failed_jobs_survive_a_write_read_round_trip(self, monkeypatch, tmp_path):
        original = scenarios._run_job

        def flaky(cfg, job, patterns):
            if job == ("psi", 1.0):  # job 1
                raise RuntimeError("synthetic point failure")
            return original(cfg, job, patterns)

        monkeypatch.setattr(scenarios, "_run_job", flaky)
        result = run_scenario(SMALL_KAPPA_SWEEP)
        assert [index for index, _ in result.failures] == [1]
        assert "synthetic point failure" in result.failures[0][1]
        write_result(result, tmp_path)
        assert read_result(tmp_path).failures == result.failures

    def test_failed_job_without_error_rejected(self, tmp_path):
        write_result(run_scenario(SMALL_KAPPA_SWEEP), tmp_path)
        summary_path = tmp_path / "summary.json"
        summary = json.loads(summary_path.read_text())
        summary["metadata"]["failed_jobs"] = [{"index": 1}]
        summary_path.write_text(json.dumps(summary))
        with pytest.raises(ConfigError, match="an integer index and an error text"):
            read_result(tmp_path)

    def test_row_missing_from_the_csv_rejected(self, tmp_path):
        write_result(run_scenario(SMALL_KAPPA_SWEEP), tmp_path)
        csv_path = tmp_path / "result.csv"
        csv_path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(ConfigError, match="2 rows but its config gives 3 jobs"):
            compare_analytic(read_result(tmp_path))

    def test_unsupported_kind_rejected(self):
        result = run_scenario(
            {"kind": "time_domain", "grid": {"t_max_us": 1.0, "dt_us": 0.5}}
        )
        with pytest.raises(ConfigError):
            compare_analytic(result)


class TestCli:
    def test_validate_and_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_KAPPA_SWEEP))
        assert main(["validate", str(cfg_path)]) == 0
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir), "--workers", "1"]) == 0
        assert (out_dir / "result.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["metadata"]["kind"] == "kappa_sweep"
        assert main(["compare", str(out_dir), "--analytic"]) == 0
        assert (out_dir / "compare.csv").exists()

    @pytest.mark.parametrize("kind", ["theta_spectroscopy", "tphi_sweep", "kappa_sweep",
                                      "omega_kappa_map", "rate_model_compare"])
    def test_compare_from_disk_matches_in_memory(self, kind, tmp_path, capsys):
        # the golden run's small config; compare reads the rounded CSV cells back
        with open(os.path.join(GOLDEN_DIR, f"{kind}.json"), encoding="utf-8") as fh:
            config = json.load(fh)["config"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir), "--workers", "1"]) == 0
        assert main(["compare", str(out_dir), "--analytic"]) == 0
        columns, rows = compare_analytic(run_scenario(config, workers=1))
        with open(out_dir / "compare.csv", newline="", encoding="utf-8") as fh:
            header, *lines = csv.reader(fh)
        assert header == list(columns)
        assert len(lines) == len(rows) > 0
        for cells, row in zip(lines, rows):
            assert len(cells) == len(row)
            for cell, value in zip(cells, row):
                if isinstance(value, str):
                    assert cell == value
                else:
                    assert math.isclose(float(cell), value, rel_tol=0.0, abs_tol=1e-10)

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"kind": "nope"}))
        assert main(["validate", str(cfg_path)]) == 1

    @pytest.mark.parametrize("command,text", [
        ("run", '{"kind": "time_domain", "drives": {"omega_mhz": -1.0}}'),
        ("validate", '{"kind": "time_domain", "seed": null}'),
        ("run", "{not json"),
        ("validate", None),  # no such file
        ("compare", '{"kind": "time_domain", "grid": {"t_max_us": 0.5, "dt_us": 0.25}}'),
    ], ids=["bad-config", "null-seed", "not-json", "missing-file", "no-analytic-counterpart"])
    def test_error_is_one_line_and_exit_1(self, command, text, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        argv = [command, str(path)]
        if text is not None:
            path.write_text(text)
        if command == "compare":  # a time_domain result has no analytic counterpart
            assert main(["run", str(path), "--out", str(tmp_path), "--workers", "1"]) == 0
            argv = ["compare", str(tmp_path), "--analytic"]
        capsys.readouterr()
        assert main(argv) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("name", ["nonexist", "result.csv"])
    def test_compare_names_a_result_path_that_does_not_exist(self, name, tmp_path, capsys):
        missing = str(tmp_path / "absent" / name)
        assert main(["compare", missing, "--analytic"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and repr(missing) in err[0]
        assert "summary.json" not in err[0]

    @pytest.mark.parametrize("summary_edit,csv_edit", [
        (lambda s: s["metadata"].pop("kind"), None),
        (lambda s: s["metadata"]["config"].pop("grid"), None),
        ("metadata", None),  # the whole summary.json is this JSON string
        (None, lambda t: t.replace("fidelity", "fid", 1)),
        (None, lambda t: t.replace("\npsi,10,0.", "\npsi,10,abc", 1)),
        (lambda s: s["metadata"].update(failed_jobs=[1]), None),
        (lambda s: s["metadata"].update(kind="kappa_sweep"), None),
    ], ids=["metadata-without-kind", "config-without-grid", "summary-is-a-string",
            "no-fidelity-column", "fidelity-not-a-number", "failed-job-not-an-object",
            "kind-not-the-config-kind"])
    def test_hand_edited_result_is_one_line_and_exit_1(self, summary_edit, csv_edit, tmp_path,
                                                        capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"kind": "tphi_sweep", "families": ["psi"], "grid": {"tphi_us": [10.0, 30.0]}}))
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir), "--workers", "1"]) == 0
        summary_path, csv_path = out_dir / "summary.json", out_dir / "result.csv"
        if isinstance(summary_edit, str):
            summary_path.write_text(json.dumps(summary_edit))
        elif summary_edit is not None:
            summary = json.loads(summary_path.read_text())
            summary_edit(summary)
            summary_path.write_text(json.dumps(summary))
        if csv_edit is not None:
            text = csv_path.read_text()
            assert csv_edit(text) != text
            csv_path.write_text(csv_edit(text))
        capsys.readouterr()
        assert main(["compare", str(out_dir), "--analytic"]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_csv_row_of_the_wrong_length_rejected(self, tmp_path):
        write_result(run_scenario(SMALL_KAPPA_SWEEP), tmp_path)
        csv_path = tmp_path / "result.csv"
        csv_path.write_text(csv_path.read_text() + "psi,0.5\n")
        with pytest.raises(ConfigError, match="not a stabsim result table"):
            read_result(tmp_path)

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_run_rejects_workers_below_one(self, workers, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_KAPPA_SWEEP))
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out_dir), "--workers", workers]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out_dir.exists()

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for kind in scenarios.KINDS:
            assert kind in out

    def test_show_config(self, capsys):
        assert main(["show-config", "tphi_sweep"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg == default_config("tphi_sweep")

    @pytest.mark.parametrize("kind", ["time_domain", "rate_model_compare"])
    def test_shown_family_config_runs_the_family_drives(self, capsys, kind):
        assert main(["show-config", kind]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert "drives" not in cfg
        cfg["family"] = "phi"
        assert validate_config(cfg)["drives"] == FAMILY_DRIVES["phi"]

    def test_parser_built_once_and_parses_stay_apart(self, monkeypatch, tmp_path):
        builds = []
        real = cli.build_parser

        def counting():
            builds.append(None)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_KAPPA_SWEEP))
        for name, extra in (("seeded", ["--seed", "99"]), ("plain", [])):
            argv = ["run", str(cfg_path), "--out", str(tmp_path / name), "--workers", "1"]
            assert main(argv + extra) == 0
        assert len(builds) == 1
        seeds = [json.loads((tmp_path / name / "summary.json").read_text())["metadata"]["seed"]
                 for name in ("seeded", "plain")]
        assert seeds == [99, validate_config(SMALL_KAPPA_SWEEP)["seed"]]

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_KAPPA_SWEEP))
        out_dir = tmp_path / "seeded"
        assert main(["run", str(cfg_path), "--out", str(out_dir), "--seed", "99",
                     "--workers", "1"]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["metadata"]["seed"] == 99
