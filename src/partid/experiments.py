"""Monte Carlo experiment engine and the nested-simulation risk demo.

Reproducibility contract: every replication owns an independent
generator derived from (master seed, replication index) through
SeedSequence, keyed as SeedSequence((master, 0, replication)), so results
are identical bytes whether replications execute inline or across a
process pool, and identical again on a rerun with the same config. One
sample path per replication serves every delta of the campaign
(track_stop.run_deltas): the row at each delta equals a run at that delta
alone on the replication's generator, which is what run_single gives.
Nothing time- or host-dependent enters the outputs.

CSV rows follow the fixed column order
delta, replication, seed, stop_time, declared, correct, glr_at_stop, n1..nK
with one row per (delta, replication), truncated runs included. Aggregates
live in a JSON summary next to the CSV: per-delta error rate over completed
runs, stopping-time moments, the mean stopping time divided by log(1/delta)
against a freshly solved characteristic time, realized sampling fractions,
and provenance (seed, config digest, package version).

Every run of a campaign has the same arms and partition, so a campaign
prepares its geometry (lb_solvers.prepare) once, builds one
StoppingConfig per delta, and passes both to each replication's
track_stop.run_deltas, which still checks the path's truth; the
summary's t_star is the same geometry's solution at the true means. A
prepared geometry carries nothing from one run into the next. On a
process pool it travels in the task arguments, and pickle keeps one copy
of it per chunk of tasks. The risk
demo's tasks carry only numbers and build their arms, threshold and
geometry per path: that setup is a few microseconds of a path's
milliseconds, and shipping those objects to the pool measured slower.

The pool (concurrent.futures, and multiprocessing with it) is imported by
the first campaign or risk demo run on more than one worker, so a process
that runs inline never loads it. The config classes appear here only in
annotations, so this module does not import the config parser either.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from ._version import __version__
from .lb_solvers import _validate_instance, prepare
from .partitions import Side, Threshold
from .spef import gaussian
from .track_stop import StoppingConfig, run, run_deltas

if TYPE_CHECKING:
    from .config import ExperimentConfig, RiskDemoConfig


@dataclass(frozen=True)
class RunRow:
    """One CSV row of a Monte Carlo campaign.

    violations is carried for the summary and invariant checks; the CSV
    schema stays the fixed column set.
    """
    delta: float
    replication: int
    seed: int
    stop_time: int
    declared: str
    correct: bool
    glr_at_stop: float
    counts: tuple[int, ...]
    truncated: bool
    violations: int = 0


@dataclass(frozen=True)
class ExperimentReport:
    rows: list[RunRow]
    summaries: list[dict]
    provenance: dict


@dataclass(frozen=True)
class RiskPathRow:
    path: int
    seed: int
    w_exact: int
    w_declared: int
    stop_time: int
    truncated: bool
    violations: int = 0


@dataclass(frozen=True)
class RiskReport:
    rows: list[RiskPathRow]
    summary: dict
    provenance: dict


def derive_seed_sequence(master: int,
                         rep_idx: int) -> np.random.SeedSequence:
    """Per-replication entropy; the pair keys the stream, so any execution
    order reproduces the same draws. The key (master, 0, rep_idx) is the
    one each replication's first-delta run had when every delta drew a
    path of its own, so single-delta campaigns keep their bytes."""
    return np.random.SeedSequence((master, 0, rep_idx))


def _fingerprint(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


def _mc_task(args) -> list[RunRow]:
    """One replication's rows, one per stopping config in stops order,
    from one sample path."""
    models, true_means, spec, geometry, stops, master, rep_idx = args
    ss = derive_seed_sequence(master, rep_idx)
    seed = _fingerprint(ss)
    results = run_deltas(models, true_means, spec, stops,
                         np.random.default_rng(ss), geometry)
    return [RunRow(
        delta=stop.delta,
        replication=rep_idx,
        seed=seed,
        stop_time=res.stop_time,
        declared=res.declared.value,
        correct=bool(res.correct),
        glr_at_stop=res.glr_at_stop,
        counts=tuple(int(c) for c in res.final_counts),
        truncated=res.truncated,
        violations=res.forced_exploration_violations,
    ) for stop, res in zip(stops, results)]


def _map_tasks(task, args, parallelism: int):
    if parallelism <= 1 or len(args) <= 1:
        return [task(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(args) // (parallelism * 4))
    with ProcessPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(task, args, chunksize=chunk))


def _stopping(cfg: ExperimentConfig, delta: float) -> StoppingConfig:
    return StoppingConfig(delta=delta, c_const=cfg.c_const,
                          max_steps=cfg.max_steps)


def _campaign(cfg: ExperimentConfig) -> tuple:
    """(models, true means, partition, prepared geometry): what every run
    of the campaign shares, with the geometry prepared once."""
    models = list(cfg.arms)
    return (models, cfg.true_means, cfg.partition,
            prepare(models, cfg.partition))


def run_single(cfg: ExperimentConfig, delta: float,
               replication: int = 0) -> RunRow:
    """One run at delta on replication `replication`'s generator: the mc
    campaign's row at that delta and replication, for any of its
    deltas."""
    stops = (_stopping(cfg, delta),)
    return _mc_task((*_campaign(cfg), stops, cfg.seed, replication))[0]


def run_experiment(cfg: ExperimentConfig,
                   parallelism: Optional[int] = None) -> ExperimentReport:
    """Full campaign: one path per replication, a row per (delta,
    replication), delta-major, and ordered aggregation."""
    par = cfg.parallelism if parallelism is None else parallelism
    stops = tuple(_stopping(cfg, delta) for delta in cfg.deltas)
    shared = _campaign(cfg)
    args = [(*shared, stops, cfg.seed, ri) for ri in range(cfg.replications)]
    paths = _map_tasks(_mc_task, args, par)
    rows = [path[di] for di in range(len(stops)) for path in paths]

    models, true_means, _, geometry = shared
    sol = geometry.solution(_validate_instance(models, true_means))
    summaries = []
    for di, delta in enumerate(cfg.deltas):
        block = rows[di * cfg.replications:(di + 1) * cfg.replications]
        done = [r for r in block if not r.truncated]
        if done:
            times = np.array([r.stop_time for r in done], dtype=float)
            fractions = np.array([np.array(r.counts) / r.stop_time
                                  for r in done])
            error_rate = float(np.mean([not r.correct for r in done]))
            mean_t = float(times.mean())
            std_t = float(times.std(ddof=1)) if times.size > 1 else 0.0
            ratio = mean_t / math.log(1.0 / delta)
            mean_w = [float(x) for x in fractions.mean(axis=0)]
        else:
            error_rate = mean_t = std_t = ratio = math.nan
            mean_w = [math.nan] * len(cfg.arms)
        summaries.append({
            "delta": delta,
            "error_rate": error_rate,
            "mean_T": mean_t,
            "std_T": std_t,
            "mean_T_over_log_inv_delta": ratio,
            "t_star": sol.t_star,
            "mean_weight_vector": mean_w,
            "completed": len(done),
            "truncated": len(block) - len(done),
            "forced_exploration_violations": int(sum(r.violations
                                                     for r in block)),
        })

    provenance = {"seed": cfg.seed, "config_digest": cfg.digest,
                  "version": __version__}
    return ExperimentReport(rows=rows, summaries=summaries,
                            provenance=provenance)


def write_rows_csv(rows: Sequence[RunRow], path: str):
    """The fixed-schema results table; float cells use repr so equal results
    are equal bytes."""
    if not rows:
        raise ValueError("no rows to write")
    k = len(rows[0].counts)
    header = ["delta", "replication", "seed", "stop_time", "declared",
              "correct", "glr_at_stop"] + [f"n{i + 1}" for i in range(k)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            if len(r.counts) != k:
                raise ValueError("inconsistent arm counts across rows")
            writer.writerow(
                [repr(r.delta), r.replication, r.seed, r.stop_time,
                 r.declared, "true" if r.correct else "false",
                 repr(r.glr_at_stop)] + list(r.counts))


def _json_safe(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _json_text(payload) -> str:
    """payload as every JSON artifact spells it: non-finite floats as
    null, keys sorted, two-space indent."""
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True)


def _write_json(payload, path: str) -> str:
    """Write _json_text(payload) and a newline to path; return the text."""
    text = _json_text(payload)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")
    return text


def write_summary_json(report: ExperimentReport, path: str) -> str:
    return _write_json({"summaries": report.summaries,
                        "provenance": report.provenance}, path)


# ---------------------------------------------------------------------------
# nested-simulation risk demo


def _risk_task(args) -> RiskPathRow:
    (horizon, vol, u, inner_delta, c_const, max_steps, master, j) = args
    ss = np.random.SeedSequence((master, j))
    path_ss, inner_ss = ss.spawn(2)
    path_rng = np.random.default_rng(path_ss)
    steps = path_rng.normal(0.0, 1.0, horizon) * vol
    levels = np.cumsum(steps)  # identity payoff: arm means are the path

    w_exact = int(np.max(levels) > u)
    models = [gaussian(1.0)] * horizon
    cfg = StoppingConfig(delta=inner_delta, c_const=c_const,
                         max_steps=max_steps)
    res = run(models, levels, Threshold(u), cfg,
              np.random.default_rng(inner_ss))
    return RiskPathRow(
        path=j,
        seed=_fingerprint(ss),
        w_exact=w_exact,
        w_declared=int(res.declared is Side.A1),
        stop_time=res.stop_time,
        truncated=res.truncated,
        violations=res.forced_exploration_violations,
    )


def risk_demo(cfg: RiskDemoConfig,
              parallelism: Optional[int] = None) -> RiskReport:
    """Estimate the probability that a random-walk factor path crosses u.

    Outer stage simulates n_outer paths; for each, the inner stage treats
    the path values as unknown arm means observable through unit-variance
    Gaussian samples and runs the threshold tracker at inner_delta. The
    identity payoff keeps the exact per-path indicator available, so the
    estimate is validated against the truth over the same paths: the gap is
    at most inner_delta per path plus binomial noise.
    """
    par = cfg.parallelism if parallelism is None else parallelism
    args = [(cfg.horizon, cfg.volatility, cfg.u, cfg.inner_delta,
             cfg.c_const, cfg.max_steps, cfg.seed, j)
            for j in range(cfg.n_outer)]
    rows = _map_tasks(_risk_task, args, par)

    n = len(rows)
    gamma_hat = float(np.mean([r.w_declared for r in rows]))
    gamma_exact = float(np.mean([r.w_exact for r in rows]))
    se = math.sqrt(max(gamma_exact * (1.0 - gamma_exact), 0.0) / n)
    times = np.array([r.stop_time for r in rows], dtype=float)
    summary = {
        "n_outer": n,
        "gamma_hat": gamma_hat,
        "gamma_exact": gamma_exact,
        "abs_gap": abs(gamma_hat - gamma_exact),
        "gap_bound": cfg.inner_delta + 3.0 * se,
        "disagreements": int(sum(r.w_declared != r.w_exact for r in rows)),
        "truncated": int(sum(r.truncated for r in rows)),
        "forced_exploration_violations": int(sum(r.violations
                                                 for r in rows)),
        "mean_stop_time": float(times.mean()),
        "max_stop_time": int(times.max()),
    }
    provenance = {"seed": cfg.seed, "config_digest": cfg.digest,
                  "version": __version__}
    return RiskReport(rows=rows, summary=summary, provenance=provenance)


def write_risk_csv(rows: Sequence[RiskPathRow], path: str):
    header = ["path", "seed", "w_exact", "w_declared", "stop_time",
              "truncated"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            writer.writerow([r.path, r.seed, r.w_exact, r.w_declared,
                             r.stop_time, "true" if r.truncated else "false"])


def write_risk_json(report: RiskReport, path: str) -> str:
    return _write_json({"summary": report.summary,
                        "provenance": report.provenance}, path)
