"""Command line entry point.

Four subcommands over one JSON config format:

  partid lb <config>          solve the allocation bound, print the saddle
  partid run <config> --delta D [--seed S]   execute a single run
  partid mc <config>          Monte Carlo campaign, CSV + JSON summary
  partid risk-demo <config>   nested-simulation threshold-crossing demo

Artifacts land in --out (default: current directory). --format picks the
stdout payload (text tables by default, json for machines); the mc and
risk-demo file artifacts are always written in both CSV and JSON. The
PARTID_SEED environment variable overrides the config seed. Exit codes:
0 success, 2 for config or instance problems, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ExperimentConfig, RiskDemoConfig, parse_config
from .errors import (ConfigError, DegenerateInstance, DomainError,
                     InfeasibleAlternative, NumericalError, UnsupportedCase)
from .experiments import (risk_demo, run_experiment, run_single,
                          write_risk_csv, write_risk_json, write_rows_csv,
                          write_summary_json, _json_safe)
from .lb_solvers import solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partid",
        description="Partition identification in bandit models: allocation "
                    "lower bounds and track-and-stop experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pooled=False):
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="directory for result artifacts (default: .)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="stdout payload format (default: csv/text)")
        if pooled:
            p.add_argument("--parallelism", type=int, default=None,
                           metavar="N", help="worker processes, at least 1 "
                                             "(default: config value)")

    common(sub.add_parser("lb", help="solve the allocation lower bound"))
    p_run = sub.add_parser("run", help="execute one track-and-stop run")
    common(p_run)
    p_run.add_argument("--delta", type=float, required=True,
                       help="confidence level for this run")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    common(sub.add_parser("mc", help="run a Monte Carlo campaign"), True)
    common(sub.add_parser("risk-demo",
                          help="nested-simulation risk estimate"), True)
    return parser


def _apply_seed_overrides(cfg, cli_seed=None):
    env = os.environ.get("PARTID_SEED")
    if env is not None:
        try:
            cfg = cfg.with_seed(int(env))
        except ValueError:
            raise ConfigError(
                f"PARTID_SEED must be an integer, got {env!r}")
    if cli_seed is not None:
        cfg = cfg.with_seed(cli_seed)
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError(f"seed must fit in 64 bits, got {cfg.seed}")
    return cfg


def _require_experiment(cfg, command):
    if not isinstance(cfg, ExperimentConfig):
        raise ConfigError(
            f"the {command} command needs an experiment config; this file "
            f"is a risk-demo config (it has n_outer)")
    return cfg


def _parallelism(args):
    n = args.parallelism  # None takes the config's
    if n is not None and n < 1:
        raise ConfigError(f"--parallelism must be >= 1, got {n}")
    return n


def _vector(values) -> str:
    return "[" + ", ".join(f"{v:.10g}" for v in values) + "]"


def _solution_payload(sol) -> dict:
    return {
        "c_star": sol.c_star,
        "t_star": sol.t_star,
        "w_star": [float(x) for x in sol.w_star],
        "nu_star": [float(x) for x in sol.nu_star],
        "active_set": list(sol.active_set),
        "kkt_residuals": dict(sol.kkt_residuals),
        "flags": list(sol.flags),
    }


def cmd_lb(cfg: ExperimentConfig, args) -> int:
    sol = solve(list(cfg.arms), np.array(cfg.true_means), cfg.partition)
    payload = _solution_payload(sol)
    out = os.path.join(args.out, "lb.json")
    with open(out, "w", encoding="utf-8", newline="") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.format == "json":
        print(json.dumps(_json_safe(payload), indent=2, sort_keys=True))
    else:
        print(f"c_star     {sol.c_star:.12g}")
        print(f"t_star     {sol.t_star:.12g}")
        print(f"w_star     {_vector(sol.w_star)}")
        print(f"nu_star    {_vector(sol.nu_star)}")
        print(f"active_set {list(sol.active_set)}")
        if sol.flags:
            print(f"flags      {', '.join(sol.flags)}")
        for name, value in sorted(sol.kkt_residuals.items()):
            print(f"residual {name:<24s} {value:.3e}")
        print(f"saved      {out}")
    return EXIT_OK


def cmd_run(cfg: ExperimentConfig, args) -> int:
    if not 0.0 < args.delta < 1.0:
        raise ConfigError(f"--delta must be in (0, 1), got {args.delta}")
    row = run_single(cfg, args.delta)
    write_rows_csv([row], os.path.join(args.out, "run.csv"))
    payload = {
        "delta": row.delta, "seed": row.seed, "stop_time": row.stop_time,
        "declared": row.declared, "correct": row.correct,
        "glr_at_stop": row.glr_at_stop, "counts": list(row.counts),
        "truncated": row.truncated,
    }
    if args.format == "json":
        print(json.dumps(_json_safe(payload), indent=2, sort_keys=True))
    else:
        status = "truncated" if row.truncated else (
            "correct" if row.correct else "WRONG")
        print(f"declared {row.declared} after {row.stop_time} samples "
              f"({status}), glr {row.glr_at_stop:.4g}")
        print(f"counts   {list(row.counts)}")
        print(f"saved    {os.path.join(args.out, 'run.csv')}")
    return EXIT_OK


def cmd_mc(cfg: ExperimentConfig, args) -> int:
    report = run_experiment(cfg, _parallelism(args))
    csv_path = os.path.join(args.out, "results.csv")
    json_path = os.path.join(args.out, "summary.json")
    write_rows_csv(report.rows, csv_path)
    write_summary_json(report, json_path)
    if args.format == "json":
        print(json.dumps(_json_safe({"summaries": report.summaries,
                                     "provenance": report.provenance}),
                         indent=2, sort_keys=True))
    else:
        print(f"{'delta':>10s} {'error':>8s} {'mean_T':>10s} {'std_T':>10s} "
              f"{'T/log(1/d)':>11s} {'t_star':>9s} {'trunc':>6s}")
        for s in report.summaries:
            print(f"{s['delta']:>10.4g} {s['error_rate']:>8.4f} "
                  f"{s['mean_T']:>10.2f} {s['std_T']:>10.2f} "
                  f"{s['mean_T_over_log_inv_delta']:>11.3f} "
                  f"{s['t_star']:>9.4g} {s['truncated']:>6d}")
        print(f"saved {csv_path} and {json_path}")
    return EXIT_OK


def cmd_risk(cfg: RiskDemoConfig, args) -> int:
    report = risk_demo(cfg, _parallelism(args))
    csv_path = os.path.join(args.out, "risk_paths.csv")
    json_path = os.path.join(args.out, "risk_summary.json")
    write_risk_csv(report.rows, csv_path)
    write_risk_json(report, json_path)
    s = report.summary
    if args.format == "json":
        print(json.dumps(_json_safe({"summary": s,
                                     "provenance": report.provenance}),
                         indent=2, sort_keys=True))
    else:
        print(f"gamma_hat   {s['gamma_hat']:.6f}")
        print(f"gamma_exact {s['gamma_exact']:.6f} (same paths)")
        print(f"abs_gap     {s['abs_gap']:.6f} (bound {s['gap_bound']:.6f})")
        print(f"paths       {s['n_outer']}, truncated {s['truncated']}, "
              f"mean stop {s['mean_stop_time']:.1f}")
        print(f"saved {csv_path} and {json_path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "lb":
            cfg = _require_experiment(cfg, "lb")
            return cmd_lb(_apply_seed_overrides(cfg), args)
        if args.command == "run":
            cfg = _require_experiment(cfg, "run")
            return cmd_run(_apply_seed_overrides(cfg, args.seed), args)
        if args.command == "mc":
            cfg = _require_experiment(cfg, "mc")
            return cmd_mc(_apply_seed_overrides(cfg), args)
        if args.command == "risk-demo":
            if not isinstance(cfg, RiskDemoConfig):
                raise ConfigError(
                    "the risk-demo command needs a risk-demo config "
                    "(one with n_outer)")
            return cmd_risk(_apply_seed_overrides(cfg), args)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, DegenerateInstance, InfeasibleAlternative,
            UnsupportedCase) as e:
        print(f"invalid instance: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
