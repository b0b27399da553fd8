"""Golden outputs: one small config per scenario kind at resonator_dim 2,
plus two steady points whose k = 0 blocks are large enough for the sparse
steady-state path (a Rabi-driven point at resonator_dim 3, B = 1296, and a
Bell point at resonator_dim 4, B = 646).

Each file under ``tests/golden/`` holds the rows, the analytic-comparison
rows (for kinds that have one) and the summary of one small run. Numeric
cells must agree within 1e-10 and strings exactly, so a refactor of the
scenario runner, the Hamiltonian builders or the solvers cannot move a
number unseen.

Regenerate (only when a change to the numbers is intended) the named
cases, or every case when no name is given:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

Name only the cases whose numbers are meant to move, so that adding or
re-recording one case leaves the other files untouched.
"""

import json
import math
import os
import sys

import pytest

from stabsim.scenarios import ConfigError, compare_analytic, run_scenario

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
TOL = 1e-10

GOLDEN_CONFIGS = {
    "time_domain": {"kind": "time_domain", "family": "phi",
                    "grid": {"t_max_us": 2.0, "dt_us": 0.5}},
    "theta_spectroscopy": {"kind": "theta_spectroscopy", "family": "psi", "swap_colors": True,
                           "grid": {"start_deg": 30.0, "stop_deg": 150.0, "step_deg": 60.0}},
    "parity_switch": {"kind": "parity_switch", "grid": {"dt_us": 0.1}, "fit_window_us": 1.0,
                      "segments": [{"parity": "even", "duration_us": 1.5},
                                   {"parity": "odd", "duration_us": 1.5}]},
    "tphi_sweep": {"kind": "tphi_sweep", "w_convention": "double_listed",
                   "grid": {"tphi_us": [10.0, 50.0]}},
    "kappa_sweep": {"kind": "kappa_sweep", "grid": {"kappa_over_w": [0.5, 2.0]}},
    "omega_kappa_map": {"kind": "omega_kappa_map", "family": "phi",
                        "grid": {"omega_mhz": [1.0, 3.0], "kappa_mhz": [0.3, 0.6]}},
    "dressed_parity_sweep": {"kind": "dressed_parity_sweep",
                             "grid": {"a1_over_omega": [0.0, 0.6]}},
    "rabi_dressed_map": {"kind": "rabi_dressed_map",
                         "grid": {"delta_over_omega": [0.0, 0.5],
                                  "a1_over_omega": [0.25, 1.0]}},
    "rabi_dressed_map_d36": {"kind": "rabi_dressed_map", "resonator_dim": 3,
                             "grid": {"delta_over_omega": [0.3], "a1_over_omega": [0.5]}},
    "tphi_sweep_d64": {"kind": "tphi_sweep", "resonator_dim": 4, "families": ["psi"],
                       "grid": {"tphi_us": [20.0]}},
    "rate_model_compare": {"kind": "rate_model_compare", "family": "phi",
                           "grid": {"start_deg": 30.0, "stop_deg": 150.0, "step_deg": 60.0}},
}


def _record(config: dict) -> dict:
    result = run_scenario(config, workers=1)
    try:
        compare = compare_analytic(result)
    except ConfigError:
        compare = None
    return {
        "config": config,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "compare": None if compare is None
        else {"columns": list(compare[0]), "rows": [list(row) for row in compare[1]]},
        "summary": result.summary,
        "failed_jobs": len(result.failures),
    }


def _assert_close(actual, expected, path: str):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), path
        for key in expected:
            _assert_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{path}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, (str, bool)):
        assert math.isclose(actual, expected, rel_tol=0.0, abs_tol=TOL), \
            f"{path}: {actual!r} != {expected!r}"
    else:
        assert actual == expected and type(actual) is type(expected), \
            f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_output(name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert expected["config"] == GOLDEN_CONFIGS[name]
    # a JSON round trip gives the same tuple -> list, numpy -> float shapes
    actual = json.loads(json.dumps(_record(GOLDEN_CONFIGS[name])))
    _assert_close(actual, expected, name)


if __name__ == "__main__":
    names = sys.argv[1:] or list(GOLDEN_CONFIGS)
    unknown = sorted(set(names) - set(GOLDEN_CONFIGS))
    if unknown:
        sys.exit(f"unknown golden case(s) {unknown}; known: {sorted(GOLDEN_CONFIGS)}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names:
        with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(_record(GOLDEN_CONFIGS[name]), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}.json")
