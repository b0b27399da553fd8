"""Correctness checks on the rows and states a pass produced.

Failed jobs count their missing rows. Three checks, each counting failed rows:

* reference: for the reference seed, every row equals the committed
  reference row, numbers within ``ABS_TOL``;
* invariants, for any seed, on the first pass: every returned state passes
  ``DensityMatrix`` validation, every steady state has a small
  ``generator_residual``, each row's purity and parity match its state, and
  tomography reproduces the input state from exact frequencies;
* repeat: every later pass returns the same rows as the first.
"""

from __future__ import annotations

import json
import math
import os

from stabsim import dynamics, hilbert, targets, tomography

REFERENCE_SEED = 0
ABS_TOL = 1e-10
# validation tolerances steady_state and evolve apply to their own states
STEADY_TOLS = {"trace_tol": 1e-9, "eig_tol": 1e-7}
TRAJECTORY_TOLS = {"trace_tol": 1e-6, "eig_tol": 1e-6}
RESIDUAL_TOL = 1e-8
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
QUBITS = ("q1", "q2")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def write_reference(workload: str, seed: int, outputs: list) -> str:
    path = reference_path(workload)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    sweeps = {o.sweep.name: {"columns": list(o.columns), "rows": [list(r) for r in o.rows]}
              for o in outputs}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "sweeps": sweeps}, fh, indent=1)
        fh.write("\n")
    return path


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= ABS_TOL
    return a == b


def _differing_rows(rows: list, expected: list) -> int:
    """Rows that differ from the expected ones, plus rows missing or extra."""
    bad = abs(len(rows) - len(expected))
    for row, want in zip(rows, expected):
        if len(row) != len(want) or not all(_same(a, b) for a, b in zip(row, want)):
            bad += 1
    return bad


def reference_failures(workload: str, outputs: list, notes: list) -> int:
    with open(reference_path(workload), encoding="utf-8") as fh:
        reference = json.load(fh)["sweeps"]
    bad = 0
    for o in outputs:
        want = reference.get(o.sweep.name)
        if want is None or tuple(want["columns"]) != tuple(o.columns):
            notes.append(f"{o.sweep.name}: no reference rows with these columns")
            bad += max(len(o.rows), 1)
            continue
        differ = _differing_rows(o.rows, [tuple(r) for r in want["rows"]])
        if differ:
            notes.append(f"{o.sweep.name}: {differ} row(s) differ from the reference")
        bad += differ
    return bad


def repeat_failures(outputs: list, first_rows: list, notes: list) -> int:
    bad = 0
    for o, rows in zip(outputs, first_rows):
        differ = _differing_rows(o.rows, rows)
        if differ:
            notes.append(f"{o.sweep.name}: {differ} row(s) changed between passes")
        bad += differ
    return bad


def _bad_cells(columns: tuple, row: tuple) -> bool:
    for column, value in zip(columns, row):
        if isinstance(value, str):
            continue
        if not math.isfinite(value):
            return True
        if column.startswith("fidelity") and not -1e-9 <= value <= 1.0 + 1e-9:
            return True
        if column.startswith("purity") and not 0.25 - 1e-9 <= value <= 1.0 + 1e-9:
            return True
    return False


def _returned_states(output) -> list:
    """(state, problem or None) for every state the scenario returned, in order."""
    states = []
    for capture in output.captures:
        if not capture.site.startswith("stabsim.scenarios."):
            continue
        if capture.name == "dynamics.steady_state":
            states.append((capture.result, capture.args[0]))
        else:
            states.extend((state, None) for state in capture.result.states)
    return states


def _state_fails(state, problem, residuals: list) -> bool:
    tols = STEADY_TOLS if problem is not None else TRAJECTORY_TOLS
    try:
        hilbert.DensityMatrix(state.layout, state.entries, **tols)
    except ValueError:
        return True
    if problem is not None:
        residual = dynamics.generator_residual(problem, state)
        residuals.append(residual)
        return not residual <= RESIDUAL_TOL
    return False


def _row_matches_state(columns: tuple, row: tuple, state) -> bool:
    reduced = hilbert.partial_trace(state, QUBITS)
    named = dict(zip(columns, row))
    if "purity" in named and abs(named["purity"] - targets.purity(reduced)) > ABS_TOL:
        return False
    if "parity" in named and abs(named["parity"] - targets.parity_signature(reduced)) > ABS_TOL:
        return False
    return True


def invariant_failures(outputs: list, notes: list, residuals: list) -> int:
    """Failed rows of one pass under the invariants of the public API."""
    bad = 0
    for o in outputs:
        failed_rows = {i for i, row in enumerate(o.rows) if _bad_cells(o.columns, row)}
        states = _returned_states(o)
        for i, (state, problem) in enumerate(states):
            if _state_fails(state, problem, residuals):
                failed_rows.add(i)
        # the row-to-state match assumes one returned state per row, which
        # holds while each sweep calls steady_state per point or evolves once
        if len(states) == len(o.rows):
            for i, (row, (state, _)) in enumerate(zip(o.rows, states)):
                if not _row_matches_state(o.columns, row, state):
                    failed_rows.add(i)
        elif o.captures:
            notes.append(f"{o.sweep.name}: {len(states)} states for {len(o.rows)} rows; "
                         "row-to-state match skipped")
        for i, estimate in enumerate(o.estimates):
            if _tomography_fails(o.tomography, i, estimate):
                failed_rows.add(i)
        if failed_rows:
            notes.append(f"{o.sweep.name}: {len(failed_rows)} row(s) fail the invariants")
        bad += len(failed_rows)
    return bad


def _tomography_fails(jobs, index: int, estimate) -> bool:
    """The estimate is a valid state and exact frequencies give back the input."""
    try:
        hilbert.DensityMatrix(estimate.layout, estimate.entries)
    except ValueError:
        return True
    rho, settings = jobs.states[index], jobs.settings(index)
    exact = tomography.setting_probabilities(rho, settings)
    rebuilt = tomography.reconstruct_from_frequencies(exact, settings)
    return not float(abs(rebuilt.entries - rho).max()) <= ABS_TOL


def sweep_failures(outputs: list, notes: list) -> int:
    """Rows missing because a job failed, as the program reported it."""
    bad = 0
    for o in outputs:
        missing = max(0, o.sweep.rows - len(o.rows))
        if missing or o.failed_jobs or o.exit_code != 0:
            notes.append(f"{o.sweep.name}: exit {o.exit_code}, {o.failed_jobs} failed job(s), "
                         f"{len(o.rows)} of {o.sweep.rows} rows")
            bad += max(missing, 1)
    return bad
