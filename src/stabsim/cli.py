"""Command-line entry point: run scenarios, validate configs, compare results."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .scenarios import (
    SCENARIO_INFO,
    ConfigError,
    compare_analytic,
    default_config,
    read_result,
    run_scenario,
    validate_config,
    write_csv,
    write_result,
)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_run(args) -> int:
    config = _load_json(args.config)
    if args.seed is not None and isinstance(config, dict):  # validation rejects a non-object
        config["seed"] = args.seed
    result = run_scenario(config, workers=args.workers)
    paths = write_result(result, args.out)
    print(f"wrote {paths['result_csv']} ({len(result.rows)} rows)")
    print(f"wrote {paths['summary_json']}")
    if result.failures:
        for index, error in result.failures:
            print(f"job {index} failed: {error}", file=sys.stderr)
        print(f"{len(result.failures)} grid point(s) failed; results are partial",
              file=sys.stderr)
        return 2
    return 0


def _cmd_list(_args) -> int:
    width = max(len(k) for k in SCENARIO_INFO)
    for kind, info in SCENARIO_INFO.items():
        print(f"{kind:<{width}}  {info}")
    return 0


def _cmd_validate(args) -> int:
    cfg = validate_config(_load_json(args.config))
    print(f"ok: {cfg['kind']} scenario, seed {cfg['seed']}")
    return 0


def _cmd_show_config(args) -> int:
    print(json.dumps(default_config(args.kind), indent=2, sort_keys=True))
    return 0


def _cmd_compare(args) -> int:
    if not args.analytic:
        print("nothing to compare: pass --analytic", file=sys.stderr)
        return 1
    result = read_result(args.result)
    columns, rows = compare_analytic(result)
    out_path = args.out or os.path.join(
        args.result if os.path.isdir(args.result) else os.path.dirname(args.result), "compare.csv")
    write_csv(out_path, columns, rows)
    widths = [max(len(str(c)), 12) for c in columns]
    print("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)))
    for row in rows:
        cells = [f"{v:.6f}" if isinstance(v, float) else str(v) for v in row]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabsim",
        description="Driven-dissipative stabilization of two-qubit entangled states: "
        "scenario runner and analysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write CSV/JSON outputs")
    p_run.add_argument("config", help="path to a JSON scenario config")
    p_run.add_argument("--out", default="stabsim-results", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument(
        "--workers", type=int, default=os.cpu_count(), help="parallel worker count"
    )
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list-scenarios", help="list scenario kinds")
    p_list.set_defaults(func=_cmd_list)

    p_val = sub.add_parser("validate", help="validate a scenario config")
    p_val.add_argument("config", help="path to a JSON scenario config")
    p_val.set_defaults(func=_cmd_validate)

    p_show = sub.add_parser("show-config", help="print the default config for a kind")
    p_show.add_argument("kind", help="scenario kind")
    p_show.set_defaults(func=_cmd_show_config)

    p_cmp = sub.add_parser("compare", help="compare a result against the analytic rate model")
    p_cmp.add_argument("result", help="result directory or result.csv path")
    p_cmp.add_argument("--analytic", action="store_true", help="compare to the rate model")
    p_cmp.add_argument("--out", default=None, help="path for compare.csv")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    """Run one command; a bad config or an unreadable file ends in one line
    on stderr and exit code 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"stabsim {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
