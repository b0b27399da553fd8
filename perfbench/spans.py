"""Spans around stabsim's public functions, installed from outside the package.

A wrapper is placed at every module attribute in ``stabsim`` that is bound to
an instrumented function, so a call is seen whichever name its caller bound:
``stabsim.scenarios.steady_state`` and ``stabsim.dynamics.steady_state`` both
get one. Each binding gets its own wrapper, which records the binding as the
span's ``site``. ``DensityMatrix`` is a class that callers also test with
``isinstance``, so its validation method is wrapped instead of the name.

Spans (name, site, start, end, parent) are kept in memory. A layer's self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# layer span name -> (defining module, public functions timed as that layer)
LAYERS = {
    "hilbert.operators": ("stabsim.hilbert", ("annihilation", "number_op", "embed_local")),
    "hilbert.partial_trace": ("stabsim.hilbert", ("partial_trace",)),
    "hilbert.eigendecompose": ("stabsim.hilbert", ("eigendecompose",)),
    "builders.hamiltonian": (
        "stabsim.builders",
        (
            "build_even_parity_system",
            "build_odd_parity_system",
            "build_color_variant",
            "build_qubit_block",
            "build_from_plan",
        ),
    ),
    "builders.plan": ("stabsim.builders", ("plan_stabilization",)),
    "builders.lindblad": ("stabsim.builders", ("build_lindblad",)),
    "dynamics.liouvillian": ("stabsim.dynamics", ("liouvillian",)),
    "dynamics.steady_state": ("stabsim.dynamics", ("steady_state",)),
    "dynamics.evolve": ("stabsim.dynamics", ("evolve",)),
    "dynamics.evolve_schedule": ("stabsim.dynamics", ("evolve_schedule",)),
    "dynamics.fit": ("stabsim.dynamics", ("fit_time_constant",)),
    "targets.metrics": ("stabsim.targets", ("fidelity", "purity", "parity_signature")),
    "ratemodel": (
        "stabsim.ratemodel",
        (
            "refilling_rate",
            "optimal_kappa",
            "steady_populations",
            "steady_fidelity",
            "rate_model",
            "transition_rates",
            "rate_matrix_steady_state",
        ),
    ),
    "tomography.simulate": ("stabsim.tomography", ("simulate_tomography",)),
    "tomography.reconstruct": ("stabsim.tomography", ("reconstruct",)),
    "calibration.load": ("stabsim.calibration", ("load_device_table",)),
    "scenarios.run": ("stabsim.scenarios", ("run_scenario",)),
    "scenarios.write": ("stabsim.scenarios", ("write_result",)),
    "cli": ("stabsim.cli", ("main",)),
}
STATE_CHECK = "hilbert.state_check"
STATE_CHECK_SITE = "stabsim.hilbert.DensityMatrix.__post_init__"

# calls whose arguments and results the benchmark keeps for its checks
CAPTURED = ("dynamics.steady_state", "dynamics.evolve", "dynamics.evolve_schedule")


@dataclass(frozen=True)
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int


@dataclass(frozen=True)
class Capture:
    name: str
    site: str
    args: tuple
    kwargs: dict
    result: object


def _bindings(fn) -> list:
    """Every (module, attribute) of the loaded stabsim modules bound to `fn`."""
    found = []
    for mod_name in sorted(sys.modules):
        if mod_name != "stabsim" and not mod_name.startswith("stabsim."):
            continue
        module = sys.modules[mod_name]
        for attr, value in list(vars(module).items()):
            if value is fn:
                found.append((module, attr))
    return found


class Tracer:
    """Installs wrappers at every binding and restores the originals on exit.

    With ``timed`` false only the ``CAPTURED`` functions are wrapped, and
    only to keep their arguments and results; nothing is timed.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list = []
        self.captures: list = []
        self._stack: list = []
        self._restore: list = []

    def __enter__(self) -> "Tracer":
        for module_name in {m for m, _ in LAYERS.values()}:
            importlib.import_module(module_name)
        targets = []
        for name, (module_name, functions) in LAYERS.items():
            if not self.timed and name not in CAPTURED:
                continue
            module = sys.modules[module_name]
            # a function a later version removes has no caller left to time
            targets += [(name, getattr(module, fn_name)) for fn_name in functions
                        if hasattr(module, fn_name)]
        # look up every binding before replacing any, so no wrapper is wrapped
        plan = [(name, fn, _bindings(fn)) for name, fn in targets]
        for name, fn, sites in plan:
            for module, attr in sites:
                self._patch(module, attr, self._wrap(name, f"{module.__name__}.{attr}", fn))
        if self.timed:
            cls = sys.modules["stabsim.hilbert"].DensityMatrix
            self._patch(cls, "__post_init__",
                        self._wrap(STATE_CHECK, STATE_CHECK_SITE, cls.__post_init__))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def take(self) -> tuple:
        """Return and clear the spans and captures recorded so far."""
        spans, captures = self.spans, self.captures
        self.spans, self.captures = [], []
        return spans, captures

    def _wrap(self, name: str, site: str, fn):
        keep = name in CAPTURED
        if not self.timed:
            @functools.wraps(fn)
            def capture(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.captures.append(Capture(name, site, args, kwargs, result))
                return result
            return capture

        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, site, start, end, parent)
            if keep:
                self.captures.append(Capture(name, site, args, kwargs, result))
            return result

        return timed


def layer_totals(spans: list) -> dict:
    """name -> (calls, seconds, self seconds) for one list of spans.

    ``seconds`` counts a span only when no ancestor has the same name, so
    nested calls within one layer (``number_op`` -> ``annihilation``) are not
    counted twice. ``self seconds`` subtracts every child span's duration.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    totals: dict = {}
    for i, span in enumerate(spans):
        duration = span.end - span.start
        calls, total, self_s = totals.get(span.name, (0, 0.0, 0.0))
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            total += duration
        totals[span.name] = (calls + 1, total, self_s + duration - child[i])
    return totals
