"""stabsim benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload steady_d2 --seed 3 --seconds 32 --trace 0
    python3 perfbench/run.py                      # every workload, seed 0

One process generates the load: it sets up once, then repeats whole passes
of the workload until their wall times add up to ``--seconds``. ``--trace 0``
prints the end-to-end metrics, timed in calibrated seconds (``pace.py``);
``--trace 1`` alternates traced and untraced passes and prints the per-layer
metrics. The last line of standard output is one JSON object; the
exit code is nonzero when a correctness check fails.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP to one thread before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("steady_d2", "trace_d2", "mixed_d3")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def _set_up(name: str, seed: int):
    from workloads import Workload

    workload = Workload(name, seed, os.path.join(WORKDIR, name))
    workload.setup()
    return workload


def _setup_seconds(name: str, seed: int) -> tuple:
    """Seconds from starting a fresh process until it could begin the first pass.

    Returns the wall time and the calibrated time: the wall time without the
    probe's pacer kernel, at the machine's nominal speed (see ``pace.py``).
    """
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    words = line.split()
    if len(words) != 3 or words[0] != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited {code} without becoming ready")
    handler_s, slowdown = float(words[1]), float(words[2])
    return seconds, (seconds - handler_s) / slowdown


def _setup_probe(name: str, seed: int) -> None:
    """Set up as the load process does, under a pacer; report the pacer's figures."""
    import pace

    with pace.Pacer() as pacer:
        _set_up(name, seed)
    print(f"ready {pacer.handler_s!r} {pacer.slowdown()!r}", flush=True)


def _measure(workload, seconds: float, trace: bool, host: dict) -> dict:
    """Repeat passes until they add up to `seconds`, checking every one.

    With `trace`, passes alternate traced and untraced, starting traced, and
    their rates are wall-clock rates. Without it, every pass runs under a
    pacer and its rate is taken over the calibrated pass time (``pace.py``).
    The first pass is the one whose states the invariant checks examine;
    later passes must repeat its rows. A pass's states are dropped once
    checked, so the peak memory does not grow with the number of passes.
    """
    import contextlib
    import gc

    import checks
    import pace
    import report
    import spans

    clock = time.perf_counter
    run = {"rates": {True: [], False: []}, "pass_s": [], "layers": [], "notes": [],
           "residuals": [], "raw_rates": [], "slowdowns": [], "failed": 0, "attempted": 0}
    notes, first_rows = run["notes"], None
    while True:
        traced = trace and len(run["pass_s"]) % 2 == 0
        gc.collect()
        start = clock()
        with spans.Tracer(timed=traced) as tracer, \
                (contextlib.nullcontext() if trace else pace.Pacer()) as pacer:
            pass_s, outputs = workload.run_pass(tracer, pacer.clock if pacer else clock)
        run["pass_s"].append(clock() - start)
        rows_done = sum(len(o.rows) for o in outputs)
        if pacer:
            run["raw_rates"].append(rows_done / pass_s)
            run["slowdowns"].append(pacer.slowdown())
            pass_s = pacer.calibrated(pass_s)
        run["rates"][traced].append(rows_done / pass_s)
        rows = workload.rows_per_pass
        run["attempted"] += rows
        failed = checks.sweep_failures(outputs, notes)
        if first_rows is None:
            first_rows = [o.rows for o in outputs]
            failed += checks.invariant_failures(outputs, notes, run["residuals"])
            if workload.seed == checks.REFERENCE_SEED:
                failed += checks.reference_failures(workload.name, outputs, notes)
            run["problem"] = report.problem_descriptors(outputs, host)
        else:
            failed += checks.repeat_failures(outputs, first_rows, notes)
        run["failed"] += min(failed, rows)
        if traced:
            run["layers"].append(report.pass_layers(outputs))
        del outputs
        enough = len(run["pass_s"]) >= (2 if trace else 1)
        if enough and sum(run["pass_s"]) + statistics.median(run["pass_s"]) > seconds:
            return run


def run_workload(args) -> int:
    import checks
    import report
    import spans

    if args.write_reference:
        with spans.Tracer(timed=False) as tracer:
            _, outputs = _set_up(args.workload, args.seed).run_pass(tracer, time.perf_counter)
        print(f"wrote {checks.write_reference(args.workload, args.seed, outputs)}")
        return 0
    probes = [] if args.trace else [_setup_seconds(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
    setup_s = [calibrated for _, calibrated in probes]
    workload = _set_up(args.workload, args.seed)
    host = report.machine(ROOT)
    run = _measure(workload, args.seconds, bool(args.trace), host)
    problem = run["problem"]
    attempted, failed = run["attempted"], run["failed"]
    rows_per_s = statistics.median(run["rates"][False])
    if args.trace:
        traced_rate = statistics.median(run["rates"][True])
        metrics = report.layer_metrics(run["layers"], run["residuals"])
        metrics.update({
            "scenarios.jobs": (float(workload.jobs_per_pass), "count"),
            "tracing.rows_per_s_untraced": (rows_per_s, "1/s"),
            "tracing.rows_per_s_traced": (traced_rate, "1/s"),
            "tracing.overhead_pct": (100.0 * (rows_per_s / traced_rate - 1.0), "%"),
            "tracing.passes": (float(len(run["layers"])), "count"),
        })
    else:
        metrics = {
            "rows_per_s": (rows_per_s, "1/s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print("machine: " + json.dumps(host, sort_keys=True))
    print(f"problem {args.workload} (computed): " + json.dumps(problem, sort_keys=True))
    print(f"{args.workload}  passes = {len(run['pass_s'])} of "
          + ", ".join(f"{s:.3f}" for s in run["pass_s"]) + " s")
    if probes:
        print(f"{args.workload}  set-ups = " + ", ".join(f"{s:.3f}" for s in setup_s)
              + " s calibrated, " + ", ".join(f"{w:.3f}" for w, _ in probes) + " s wall")
        print(f"{args.workload}  wall-clock rows_per_s = {statistics.median(run['raw_rates']):.6g}"
              " 1/s; machine slowdown per pass = "
              + ", ".join(f"{x:.3f}" for x in run["slowdowns"]))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} rows)")
    for note in run["notes"]:
        print(f"{args.workload}  check: {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=host, problem=problem, pass_s=run["pass_s"], setup_s=setup_s,
                  setup_wall_s=[wall for wall, _ in probes], raw_rates=run["raw_rates"],
                  slowdowns=run["slowdowns"], notes=run["notes"])
    os.makedirs(WORKDIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORKDIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results, code = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="run one pass and store its rows as the workload's reference")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stabsim", "__init__.py")):
        print(f"no stabsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
