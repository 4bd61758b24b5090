"""The benchmark's three workloads, driven through partid's public functions.

Each workload is a closed loop in one process: an operation starts when the
previous one ends. Its inputs come from the seed alone. They are split into
chunks of about CHUNK_S seconds each on the reference machine (2 cores,
Python 3.11, numpy 2.4, scipy 1.17), and the run length sets the number of
chunks. Each chunk is timed on its own; work_per_ref is the mean over the
middle half of the chunk rates, each scaled by the machine's speed during
that chunk, which keeps a burst of load on a shared machine from deciding
the figure.

- ``mc_halfspace``: ``run_experiment`` at 1 worker on the shipped
  two-arm Gaussian half-space config, at delta 0.1 and 0.01; one campaign
  per chunk. Every pull goes through the generic loop (classify, inner_inf,
  solve, rootfind, spef inverses). An operation is one run; work is pulls.
- ``risk_threshold``: ``risk_demo`` at 2 workers with the shipped settings;
  one demo per chunk. It runs only the inlined threshold kernel, never the
  solvers, and is the only workload on the process pool. An operation is
  one outer path; work is pulls.
- ``bound_sweep``: one cold ``solve`` and one ``inner_inf`` at the mixed
  weights (w* + uniform) / 2 per instance, over a fixed mix of kinds; one
  round of kinds per chunk. It has no run loop. An operation and a unit of
  work are one instance.

Functions are looked up on the ``partid`` package at call time, so a traced
pass sees them through its wrappers.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import partid

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CHUNK_S = 2.0
MC_REPLICATIONS_PER_CHUNK = 14    # two runs (one per delta) each
RISK_PATHS_PER_CHUNK = 180
MC_DELTAS = (0.1, 0.01)


@dataclass
class Outcome:
    """What one pass produced, checked."""
    attempted: int
    failed: int            # raised or failed a per-operation check
    truncated: int         # stopped at max_steps or at an iteration cap
    pulls: int
    digest: str
    chunk_work: list       # work per chunk; None leaves it out of work_per_ref
    checks: list = field(default_factory=list)   # (name, ok, detail)
    extra: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def chunk_count(seconds: float) -> int:
    return max(1, round(seconds / CHUNK_S))


def chunk_seed(seed: int, chunk: int) -> int:
    return int(np.random.SeedSequence((seed, chunk)).generate_state(1)[0])


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# mc_halfspace


class McHalfspace:
    name = "mc_halfspace"
    timed_workers = 1

    @staticmethod
    def build(seed: int, seconds: float):
        cfg = partid.parse_config(str(CONFIGS / "halfspace_symmetric.json"))
        cfg = replace(cfg, deltas=MC_DELTAS, parallelism=1,
                      replications=MC_REPLICATIONS_PER_CHUNK)
        return [replace(cfg, seed=chunk_seed(seed, c))
                for c in range(chunk_count(seconds))]

    @staticmethod
    def warm(chunks):
        partid.run_experiment(replace(chunks[0], replications=1,
                                      seed=chunks[0].seed + 1), parallelism=1)

    @staticmethod
    def execute(cfg, workers: int, tracer=None):
        return partid.run_experiment(cfg, parallelism=workers)

    @staticmethod
    def evaluate(chunks, reports, times) -> Outcome:
        rows = [r for rep in reports for r in rep.rows]
        bad = sum(r.violations != 0 or sum(r.counts) != r.stop_time
                  for r in rows)
        checks, ratios = [], []
        for di, delta in enumerate(MC_DELTAS):
            done = [r for r in rows if r.delta == delta and not r.truncated]
            n = len(done)
            errors = sum(not r.correct for r in done)
            limit = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / max(n, 1))
            checks.append((f"error_rate[delta={delta}]",
                           n > 0 and errors / n <= limit,
                           f"{errors}/{n} <= {limit:.4f}"))
            if n:
                t_star = reports[0].summaries[di]["t_star"]
                mean_t = statistics.fmean(r.stop_time for r in done)
                ratios.append(mean_t / (t_star * math.log(1.0 / delta)))
        pulls = [sum(r.stop_time for r in rep.rows) for rep in reports]
        return Outcome(
            attempted=len(rows), failed=bad,
            truncated=sum(r.truncated for r in rows), pulls=sum(pulls),
            digest=_digest((r.delta, r.replication, r.stop_time, r.declared,
                            r.counts) for r in rows),
            chunk_work=pulls,
            checks=checks,
            extra={"sample_ratio": statistics.fmean(ratios)} if ratios else {})


# ---------------------------------------------------------------------------
# risk_threshold


class RiskThreshold:
    name = "risk_threshold"
    timed_workers = 2

    @staticmethod
    def build(seed: int, seconds: float):
        cfg = partid.parse_config(str(CONFIGS / "risk_demo.json"))
        return [replace(cfg, n_outer=RISK_PATHS_PER_CHUNK,
                        seed=chunk_seed(seed, c))
                for c in range(chunk_count(seconds))]

    @staticmethod
    def warm(chunks):
        partid.risk_demo(replace(chunks[0], n_outer=4,
                                 seed=chunks[0].seed + 1), parallelism=1)

    @staticmethod
    def execute(cfg, workers: int, tracer=None):
        return partid.risk_demo(cfg, parallelism=workers)

    @staticmethod
    def evaluate(chunks, reports, times) -> Outcome:
        rows = [(c, r) for c, rep in enumerate(reports) for r in rep.rows]
        over = [f"chunk {c}: {rep.summary['abs_gap']:.4f} > "
                f"{rep.summary['gap_bound']:.4f}"
                for c, rep in enumerate(reports)
                if not rep.summary["abs_gap"] <= rep.summary["gap_bound"]]
        pulls = [sum(r.stop_time for r in rep.rows) for rep in reports]
        return Outcome(
            attempted=len(rows),
            failed=sum(r.violations != 0 for _, r in rows),
            truncated=sum(rep.summary["truncated"] for rep in reports),
            pulls=sum(pulls),
            digest=_digest((c, r.path, r.stop_time, r.w_declared, r.truncated)
                           for c, r in rows),
            chunk_work=pulls,
            checks=[("abs_gap <= gap_bound", not over,
                     "; ".join(over) or f"all {len(reports)} demos")])


# ---------------------------------------------------------------------------
# bound_sweep


def _family_arm(rng, family):
    if family == "gaussian":
        return partid.gaussian(float(rng.uniform(0.3, 2.0)))
    return partid.bernoulli() if family == "bernoulli" else partid.poisson()


def _mean_for(rng, model):
    if model.family is partid.Family.GAUSSIAN:
        return float(rng.uniform(-2.0, 2.0))
    if model.family is partid.Family.BERNOULLI:
        return float(rng.uniform(0.15, 0.85))
    return float(rng.uniform(0.4, 4.0))


def _mixed_arms(rng, k):
    names = ("gaussian", "bernoulli", "poisson")
    return [_family_arm(rng, names[int(rng.integers(3))]) for _ in range(k)]


def _threshold(rng):
    while True:
        models = _mixed_arms(rng, 3)
        mu = np.array([_mean_for(rng, m) for m in models])
        families = {m.family for m in models}
        if partid.Family.BERNOULLI in families:
            u = float(rng.uniform(0.1, 0.9))
        elif partid.Family.POISSON in families:
            u = float(rng.uniform(0.3, 3.5))
        else:
            u = float(rng.uniform(-1.5, 1.5))
        if abs(float(mu.max()) - u) > 0.05:
            return "threshold", models, mu, partid.Threshold(u)


def _halfspace(rng):
    while True:
        k = int(rng.integers(2, 6))
        models = _mixed_arms(rng, k)
        mu = np.array([_mean_for(rng, m) for m in models])
        a = rng.uniform(0.25, 1.5, k) * rng.choice((-1.0, 1.0), k)
        anchor = np.array([_mean_for(rng, m) for m in models])
        b = float(a @ anchor)
        if abs(float(a @ mu) - b) / float(np.linalg.norm(a)) > 0.05:
            return "halfspace", models, mu, partid.HalfSpace(tuple(a), b)


def _gaussian_ball(rng):
    while True:
        models = [partid.gaussian(float(rng.uniform(0.3, 2.0)))
                  for _ in range(2)]
        mu = rng.uniform(-2.0, 2.0, 2)
        spec = partid.ball(tuple(rng.uniform(-1.5, 1.5, 2)),
                           float(rng.uniform(0.3, 1.2)))
        if spec.value(mu) - spec.level > 0.05:
            return "ball", models, mu, spec


def _poisson_ellipsoid(rng):
    while True:
        models = [partid.poisson(), partid.poisson()]
        mu = rng.uniform(0.4, 4.0, 2)
        spec = partid.ellipsoid(tuple(rng.uniform(1.5, 3.0, 2)),
                                tuple(rng.uniform(0.4, 1.0, 2)))
        if spec.value(mu) - spec.level > 0.05:
            return "ellipsoid", models, mu, spec


def _union(rng, k, rows):
    models = [partid.gaussian(float(rng.uniform(0.3, 2.0))) for _ in range(k)]
    mu = rng.uniform(-1.5, 1.5, k)
    halfspaces = []
    for _ in range(rows):
        a = rng.uniform(0.25, 1.5, k) * rng.choice((-1.0, 1.0), k)
        halfspaces.append((tuple(a), float(a @ mu) + float(rng.uniform(0.3, 1.0))))
    return f"union_k{k}", models, mu, partid.UnionHalfSpaces(tuple(halfspaces))


# One round, one chunk: the fixed number of instances of each kind. A sweep
# is a number of rounds plus one three-arm union in a chunk of its own.
ROUND = (
    _threshold,
    _halfspace, _halfspace,
    _gaussian_ball,
    _poisson_ellipsoid,
    lambda rng: _union(rng, 2, int(rng.integers(2, 4))),
    lambda rng: _union(rng, 2, int(rng.integers(2, 4))),
)


@dataclass
class SweepResult:
    kind: str
    solution: object = None
    inner: object = None
    error: str = ""


class BoundSweep:
    name = "bound_sweep"
    timed_workers = 1

    @staticmethod
    def build(seed: int, seconds: float):
        rng = np.random.default_rng(seed)
        made = [[make(rng) for make in ROUND]
                for _ in range(chunk_count(seconds))]
        made.append([_union(rng, 3, 3)])
        ops = iter(range(sum(map(len, made))))
        return [[(next(ops),) + inst for inst in chunk] for chunk in made]

    @staticmethod
    def warm(chunks):
        # The cutting-plane refinement imports scipy.optimize on first use.
        # Importing it here keeps the timing and the peak RSS of a pass from
        # depending on whether one of its instances reaches that path.
        import scipy.optimize  # noqa: F401
        BoundSweep.execute(chunks[0][:1], 1)

    @staticmethod
    def execute(chunk, workers: int, tracer=None):
        out = []
        for op, kind, models, mu, spec in chunk:
            try:
                with tracer.operation(op) if tracer else nullcontext():
                    sol, inner = BoundSweep._solve(models, mu, spec)
            except partid.PartidError as exc:
                out.append(SweepResult(kind,
                                       error=f"{type(exc).__name__}: {exc}"))
                continue
            out.append(SweepResult(kind, sol, inner))
        return out

    @staticmethod
    def _solve(models, mu, spec):
        sol = partid.solve(models, mu, spec)
        mixed = 0.5 * (sol.w_star + 1.0 / len(models))
        return sol, partid.inner_inf(models, mu, mixed, spec)

    @staticmethod
    def evaluate(chunks, results, times) -> Outcome:
        pairs = [(inst, r) for chunk, res in zip(chunks, results)
                 for inst, r in zip(chunk, res)]
        bad = []
        for (op, kind, models, mu, spec), r in pairs:
            problem = r.error or _sweep_problem(models, mu, r.solution,
                                                r.inner)
            if problem:
                bad.append(f"instance {op} ({kind}): {problem}")
        # The rounds set work_per_ref. The closing three-arm union is timed
        # on its own: about one in three runs its solve to the iteration cap
        # (MaxIters) and takes ten times as long, which would split the
        # per-seed figure in two.
        return Outcome(
            attempted=len(pairs), failed=len(bad),
            truncated=sum(r.solution is not None
                          and "MaxIters" in r.solution.flags
                          for _, r in pairs),
            pulls=0,
            digest=_digest((r.kind, r.error) if r.error else
                           (r.kind, r.solution.c_star,
                            tuple(r.solution.w_star), r.inner.value)
                           for _, r in pairs),
            chunk_work=[len(c) for c in chunks[:-1]] + [None],
            checks=[("solutions", not bad, "; ".join(bad[:3]) or
                     f"{len(pairs)} instances certified")],
            extra={"union_k3_s": times[-1]})


def _sweep_problem(models, mu, sol, inner) -> str:
    """Geometry-independent certificate of one solution; '' when it holds."""
    c = sol.c_star
    if not (math.isfinite(c) and c > 0):
        return f"c_star={c}"
    w = np.asarray(sol.w_star)
    if not (np.all(np.isfinite(w)) and abs(float(w.sum()) - 1.0) <= 1e-9):
        return f"w_star={w.tolist()}"
    saddle = sum(w[i] * partid.kl(models[i], mu[i], sol.nu_star[i])
                 for i in range(len(models)))
    if abs(saddle - c) > 1e-6 * c:
        return f"sum w kl(mu, nu*)={saddle!r} vs c_star={c!r}"
    if not inner.value <= c * (1.0 + 1e-6):
        return f"inner_inf at mixed weights {inner.value!r} > c_star={c!r}"
    return ""


WORKLOADS = {w.name: w for w in (McHalfspace, RiskThreshold, BoundSweep)}
