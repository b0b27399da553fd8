"""The benchmark's own tests: wrapper coverage, bypass predictions, output format.

    python3 -m pytest -q perfbench/test_spans.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import report  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_totals  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]

# (span, binding) pairs the callers in stabsim and the benchmark go through
CALLER_SITES = {
    ("cli", "stabsim.cli.main"),
    ("scenarios.run", "stabsim.cli.run_scenario"),
    ("scenarios.write", "stabsim.cli.write_result"),
    ("dynamics.steady_state", "stabsim.scenarios.steady_state"),
    ("dynamics.evolve", "stabsim.scenarios.evolve"),
    ("dynamics.evolve", "stabsim.dynamics.evolve"),
    ("dynamics.evolve_schedule", "stabsim.scenarios.evolve_schedule"),
    ("dynamics.fit", "stabsim.scenarios.fit_time_constant"),
    ("dynamics.liouvillian", "stabsim.dynamics.liouvillian"),
    ("builders.lindblad", "stabsim.scenarios.build_lindblad"),
    ("builders.lindblad", "stabsim.dynamics.build_lindblad"),
    ("builders.hamiltonian", "stabsim.scenarios.build_even_parity_system"),
    ("builders.hamiltonian", "stabsim.scenarios.build_odd_parity_system"),
    ("builders.hamiltonian", "stabsim.scenarios.build_qubit_block"),
    ("builders.hamiltonian", "stabsim.scenarios.build_from_plan"),
    ("builders.hamiltonian", "stabsim.builders.build_even_parity_system"),
    ("builders.hamiltonian", "stabsim.builders.build_odd_parity_system"),
    ("builders.plan", "stabsim.scenarios.plan_stabilization"),
    ("hilbert.eigendecompose", "stabsim.builders.eigendecompose"),
    ("hilbert.operators", "stabsim.builders.annihilation"),
    ("hilbert.operators", "stabsim.builders.number_op"),
    ("hilbert.operators", "stabsim.hilbert.annihilation"),
    ("hilbert.operators", "stabsim.hilbert.embed_local"),
    ("hilbert.partial_trace", "stabsim.scenarios.partial_trace"),
    ("hilbert.partial_trace", "stabsim.dynamics.partial_trace"),
    ("hilbert.state_check", spans.STATE_CHECK_SITE),
    ("targets.metrics", "stabsim.scenarios.fidelity"),
    ("targets.metrics", "stabsim.scenarios.purity"),
    ("targets.metrics", "stabsim.scenarios.parity_signature"),
    ("targets.metrics", "stabsim.dynamics.state_fidelity"),
    ("targets.metrics", "stabsim.dynamics.purity"),
    ("targets.metrics", "stabsim.dynamics.parity_signature"),
    ("targets.metrics", "stabsim.targets.fidelity"),
    ("targets.metrics", "stabsim.targets.purity"),
    ("ratemodel", "stabsim.scenarios.refilling_rate"),
    ("ratemodel", "stabsim.scenarios.steady_fidelity"),
    ("tomography.simulate", "stabsim.tomography.simulate_tomography"),
    ("tomography.reconstruct", "stabsim.tomography.reconstruct"),
    ("calibration.load", "stabsim.calibration.load_device_table"),
}

TINY_SWEEPS = [
    workloads.Sweep("tphi", {"kind": "tphi_sweep", "families": ["psi", "phi"],
                             "grid": {"tphi_us": [20.0]}}, 2, 2),
    workloads.Sweep("theta", {"kind": "theta_spectroscopy",
                              "grid": {"start_deg": 45.0, "stop_deg": 45.0}}, 1, 1),
    workloads.Sweep("rate", {"kind": "rate_model_compare",
                             "grid": {"start_deg": 45.0, "stop_deg": 45.0}}, 1, 1),
    workloads.Sweep("time", {"kind": "time_domain",
                             "grid": {"t_max_us": 0.5, "dt_us": 0.25}}, 1, 3),
    workloads.Sweep("switch", {
        "kind": "parity_switch", "fit_window_us": 1.0, "grid": {"dt_us": 0.1},
        "segments": [{"parity": "even", "duration_us": 1.5},
                     {"parity": "odd", "duration_us": 1.5}]}, 1, 31),
]


def _tiny_workload(tmp_path):
    workload = workloads.Workload("mixed_d3", 0, str(tmp_path))
    workload.sweeps = TINY_SWEEPS
    workload.tomography = workloads.TomographyJobs(random.Random(0), 2)
    workload.setup()
    return workload


def _traced_pass(workload):
    with Tracer(timed=True) as tracer:
        _, outputs = workload.run_pass(tracer, lambda: 0.0)
    return outputs


def test_every_binding_gets_a_wrapper_and_is_restored(tmp_path):
    _tiny_workload(tmp_path)
    bound = []
    for name, (module_name, functions) in spans.LAYERS.items():
        for fn_name in functions:
            fn = getattr(sys.modules[module_name], fn_name)
            bound += [(module, attr, fn) for module, attr in spans._bindings(fn)]
    with Tracer(timed=True):
        for module, attr, fn in bound:
            assert getattr(module, attr).__wrapped__ is fn, f"{module.__name__}.{attr}"
    for module, attr, fn in bound:
        assert getattr(module, attr) is fn


def test_every_span_fires_at_each_binding_its_callers_use(tmp_path):
    outputs = _traced_pass(_tiny_workload(tmp_path))
    fired = {(s.name, s.site) for o in outputs for s in o.spans}
    assert CALLER_SITES - fired == set()
    assert {name for name, _ in fired} == set(spans.LAYERS) | {spans.STATE_CHECK}
    assert all(o.failed_jobs == 0 and len(o.rows) == o.sweep.rows for o in outputs)


@pytest.mark.parametrize("name", ["steady_d2", "trace_d2"])
def test_bypass_predictions(name, tmp_path):
    workload = workloads.Workload(name, 1, str(tmp_path))
    workload.setup()
    outputs = _traced_pass(workload)
    totals = report.pass_layers(outputs)["totals"]
    steady_calls = totals.get("dynamics.steady_state", (0,))[0]
    if name == "steady_d2":
        assert "dynamics.evolve" not in totals
        assert steady_calls == sum(len(o.rows) for o in outputs) == 62
    else:
        assert steady_calls == 0


def test_self_time_subtracts_children_and_nested_layer_counts_once():
    spans_ = [
        Span("a", "s", 0.0, 10.0, -1),
        Span("b", "s", 1.0, 4.0, 0),
        Span("b", "s", 2.0, 3.0, 1),
        Span("c", "s", 5.0, 7.0, 0),
    ]
    totals = layer_totals(spans_)
    assert totals["a"] == (1, 10.0, 5.0)
    assert totals["b"] == (2, 3.0, 3.0)
    assert totals["c"] == (1, 2.0, 2.0)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_and_units_match_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = subprocess.run(RUN + ["--workload", "steady_d2", "--seed", "0", "--seconds", "1",
                                 "--trace", str(trace)], capture_output=True, text=True,
                          cwd=ROOT, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "steady_d2",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
