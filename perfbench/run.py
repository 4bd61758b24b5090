"""Layered benchmark for partid: one command, three workloads.

    python3 perfbench/run.py --workload mc_halfspace --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload bound_sweep --trace 1   # per-layer run
    python3 perfbench/run.py --workload all --seed 3 --out bench-results/new.jsonl
    python3 perfbench/run.py --compare bench-results/old.jsonl bench-results/new.jsonl

Run from the repository root; the package is imported from ``src/``. The
untraced run (``--trace 0``) times one pass of the seeded workload, checks
its outputs, and prints every end-to-end metric that applies to it, each
with its unit, then one JSON line with the metrics named in
``BENCHMARK.json``. The traced run (``--trace 1``) makes an untraced pass,
then a traced pass of the same inputs at 1 worker, and reports the
per-layer metrics; the two passes must give the same workload digest.

End-to-end metrics, from untraced runs only:

- ``setup_s``: the set-up partid adds to a fresh Python process that
  imports numpy: median over fresh processes that import partid, parse
  the config and build the seeded inputs, of each one's wall time less
  the mean wall time of the reference probes (a fresh interpreter that
  imports numpy and nothing of partid) run right before and after it.
  Whole-process set-up moved by a quarter between batches of runs minutes
  apart, and the reference probe with it by the same number of
  milliseconds; a ratio to the probe, or to the reference loop, did not
  cancel it.
- ``work_per_ref``: work done in the time of one reference loop (see
  ``reference.py``): each chunk's rate times the mean CPU time of the
  loops the gauge ran during that chunk, then the mean of the middle half
  of those figures. Work is pulls on mc_halfspace and risk_threshold and
  instances over the rounds on bound_sweep. The host's fast and slow
  spells moved ``work_per_s`` by 13-15% (quartile spread over ten
  seeds); they cancel out of this figure, which moved by 3-7%.
- ``peak_rss_mb``: the larger peak RSS of this process and its children.
- ``work_per_s`` and ``setup_wall_s``: the rate as measured, and the
  probes' whole wall time.
- ``ops_per_s`` (runs, paths or instances), ``pulls_per_s``,
  ``pulls_per_op``, ``sample_ratio`` (mean over delta of
  mean_T / (t_star log(1/delta))), ``failed_frac`` (raised, truncated or
  failed a per-operation check, over attempted) and ``union_k3_s``.

Only the first three are in the JSON line: a metric there must apply to
every workload and never be 0. At 1 worker the chunk times behind every
rate leave out the time the gauge's loops took. Paths per second on
risk_threshold also moves by a sixth between seeds, since a few truncated
paths carry half of all pulls; pulls per second does not.

``--out FILE`` appends each run's full record (every metric, checks,
digest, machine, seed) as one JSON line to FILE, and a traced run appends
its recorded spans to FILE with ``.spans.jsonl`` in place of its suffix.
``--compare A B`` prints, per workload, the median of every metric over the
records of A and of B, side by side with the relative change.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
package or its configs cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import SpeedGauge, reference_loop
from tracer import LayerStats, Tracer, patched

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# End-to-end metrics: name -> unit. The first three go to the JSON line.
E2E_UNITS = {
    "setup_s": "s", "work_per_ref": "1/ref", "peak_rss_mb": "MB",
    "work_per_s": "1/s", "setup_wall_s": "s",
    "ops_per_s": "1/s", "pulls_per_s": "1/s", "pulls_per_op": "count",
    "sample_ratio": "ratio", "failed_frac": "ratio", "union_k3_s": "s",
}
JSON_E2E = ("setup_s", "work_per_ref", "peak_rss_mb")
SETUP_PROBES = 15
# A fresh interpreter importing numpy, which partid imports first: what
# starting Python and importing numpy costs on the host right now.
REF_PROBE = ("-c", "import numpy")

# (span name, module, attribute) for every traced layer function.
TRACED = [
    ("experiments.run_experiment", "partid.experiments", "run_experiment"),
    ("track_stop.run", "partid.track_stop", "run"),
    ("lb_solvers.solve", "partid.lb_solvers", "solve"),
    ("lb_solvers.inner_inf", "partid.lb_solvers", "inner_inf"),
    ("partitions.classify", "partid.partitions", "classify"),
    ("rootfind.bisect_monotone", "partid.rootfind", "bisect_monotone"),
    ("rootfind.walk_to_root", "partid.rootfind", "walk_to_root"),
] + [(f"spef.{f}", "partid.spef", f) for f in (
    "kl", "kl_dnu", "kl_inverse", "kl_inverse_capped", "kl_dnu_inverse",
    "kl_dnu_range", "sample", "clamp_to_interior")]
RECORDED = ("experiments.run_experiment", "track_stop.run",
            "lb_solvers.solve", "lb_solvers.inner_inf")
SPEF_TIMED = ("kl", "kl_dnu", "kl_inverse", "kl_inverse_capped",
              "kl_dnu_inverse", "kl_dnu_range")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def import_package() -> str:
    """Import partid from this checkout's src/, never from elsewhere;
    returns an error message, or '' on success."""
    src = ROOT / "src"
    if not (src / "partid" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        return (f"error: no partid sources under {src} or no configs/ "
                f"beside them; run from a full checkout")
    sys.path.insert(0, str(src))
    import partid
    if Path(partid.__file__).resolve().parent != src / "partid":
        return f"error: partid imported from {partid.__file__}"
    return ""


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def wall_s(args) -> float:
    """Wall time of a fresh interpreter run with ``args``, start to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                   timeout=120, check=True)
    return time.perf_counter() - t0


def median_setup_s(workload: str, seed: int, seconds: float):
    """Median over fresh processes of import + config parse + build: each
    one's wall time less the mean of the reference probes run right before
    and after it, and each one's whole wall time."""
    probe = (str(HERE / "setup_probe.py"), workload, str(seed), repr(seconds))
    added, whole = [], []
    before = wall_s(REF_PROBE)
    for _ in range(SETUP_PROBES):
        whole.append(wall_s(probe))
        after = wall_s(REF_PROBE)
        added.append(whole[-1] - 0.5 * (before + after))
        before = after
    return statistics.median(added), statistics.median(whole)


# ---------------------------------------------------------------------------
# untraced run


def run_pass(wl, chunks, workers, tracer=None, gauge=None):
    """Execute every chunk in order; returns the results, the chunk times
    and, with a gauge running, the reference-loop samples taken during each
    chunk. At 1 worker the gauge's loops halt the work, so their time is
    taken out of the chunk times; on a pool the workers go on meanwhile."""
    raws, times, samples = [], [], []
    for chunk in chunks:
        spent, first = (gauge.spent, len(gauge.samples)) if gauge else (0, 0)
        t0 = time.perf_counter()
        raws.append(wl.execute(chunk, workers, tracer))
        elapsed = time.perf_counter() - t0
        if gauge:
            if workers == 1:
                elapsed -= gauge.spent - spent
            samples.append(gauge.samples[first:])
        times.append(elapsed)
    return raws, times, samples


def middle_mean(xs):
    """Mean of the middle half of xs: a chunk slowed or sped up by the
    rest of a shared machine falls in the quarters left out."""
    xs = sorted(xs)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def untraced(wl, seed, seconds):
    chunks = wl.build(seed, seconds)
    wl.warm(chunks)
    reference_loop()
    with SpeedGauge().running() as gauge:
        raws, times, samples = run_pass(wl, chunks, wl.timed_workers,
                                        gauge=gauge)
    out = wl.evaluate(chunks, raws, times)
    rss = peak_rss_mb()   # before the setup probes add children of their own
    wall, n = sum(times), out.attempted
    # each chunk's rate times the mean reference-loop time during it (over
    # the whole pass for a chunk too short to hold a sample)
    work = [(w, t, statistics.fmean(s or gauge.samples)) for w, t, s
            in zip(out.chunk_work, times, samples) if w is not None]
    setup_s, setup_wall_s = median_setup_s(wl.name, seed, seconds)
    metrics = {
        "setup_s": setup_s,
        "work_per_ref": middle_mean([w / t * r for w, t, r in work]),
        "peak_rss_mb": rss,
        "work_per_s": middle_mean([w / t for w, t, _ in work]),
        "setup_wall_s": setup_wall_s,
        "ops_per_s": n / wall,
        "failed_frac": (out.failed + out.truncated) / n,
    }
    if out.pulls:
        metrics["pulls_per_s"] = out.pulls / wall
        metrics["pulls_per_op"] = out.pulls / n
    metrics.update(out.extra)
    return out, metrics, {"wall_s": wall, "chunks": len(chunks),
                          "workers": wl.timed_workers,
                          "ref_ms": 1e3 * statistics.fmean(gauge.samples),
                          "gauge_s": gauge.spent,
                          "chunk_work": out.chunk_work, "chunk_s": times,
                          "ref_s": samples}


# ---------------------------------------------------------------------------
# traced run


def new_tracer():
    return Tracer(record=RECORDED, op_roots=("track_stop.run",),
                  counted=("rootfind.bisect_monotone", "rootfind.walk_to_root"),
                  work_of={"track_stop.run": lambda res: res.stop_time},
                  durations=("track_stop.run",))


def traced_pass(wl, chunks):
    tracer = new_tracer()
    with patched(tracer, TRACED):
        raws, times, _ = run_pass(wl, chunks, 1, tracer)
    return tracer, raws, times


def counts(tracer) -> dict:
    return {name: (st.calls, st.evals, st.errors)
            for name, st in sorted(tracer.stats.items())}


def tail(durations):
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it; (0, 0) with fewer than twenty samples."""
    xs = sorted(durations)
    for p in TAIL_PERCENTILES:
        beyond = len(xs) - math.ceil(len(xs) * p / 100.0)
        if beyond >= 10:
            return p, xs[math.ceil(len(xs) * p / 100.0) - 1]
    return 0.0, 0.0


def layer_metrics(tracer, workers, wall_untraced, overhead):
    def st(name):
        return tracer.stats.get(name, LayerStats())

    m = {}
    run = st("track_stop.run")
    pct, tail_s = tail(run.durations)
    m["track_stop.run.calls"] = (run.calls, "count")
    m["track_stop.run.ms_p50"] = (
        1e3 * statistics.median(run.durations) if run.durations else 0.0, "ms")
    m["track_stop.run.ms_tail"] = (1e3 * tail_s, "ms")
    m["track_stop.run.tail_pct"] = (pct, "%")
    m["track_stop.run.self_us_per_pull"] = (
        1e6 * run.self_s / run.work if run.work else 0.0, "us")
    for name in ("lb_solvers.inner_inf", "lb_solvers.solve"):
        s = st(name)
        m[f"{name}.calls"] = (s.calls, "count")
        m[f"{name}.self_ms"] = (1e3 * s.self_s, "ms")
        m[f"{name}.errors"] = (s.errors, "count")
    for f in SPEF_TIMED:
        s = st(f"spef.{f}")
        m[f"spef.{f}.calls"] = (s.calls, "count")
        m[f"spef.{f}.self_ms"] = (1e3 * s.self_s, "ms")
    m["spef.sample.calls"] = (st("spef.sample").calls, "count")
    m["spef.clamp_to_interior.calls"] = (st("spef.clamp_to_interior").calls,
                                         "count")
    for f in ("bisect_monotone", "walk_to_root"):
        s = st(f"rootfind.{f}")
        m[f"rootfind.{f}.calls"] = (s.calls, "count")
        m[f"rootfind.{f}.evals"] = (s.evals, "count")
    s = st("partitions.classify")
    m["partitions.classify.calls"] = (s.calls, "count")
    m["partitions.classify.self_ms"] = (1e3 * s.self_s, "ms")
    # Only the risk workload runs on the pool: serial run time over the
    # capacity of its workers during the untraced pass; 0 elsewhere.
    m["experiments.pool_efficiency"] = (
        run.total_s / (workers * wall_untraced) if workers > 1 else 0.0,
        "ratio")
    m["experiments.run_experiment.self_ms"] = (
        1e3 * st("experiments.run_experiment").self_s, "ms")
    m["trace.overhead"] = (overhead, "x")
    return m


def traced(wl, seed, seconds):
    chunks = wl.build(seed, seconds)
    wl.warm(chunks)
    raws, times, _ = run_pass(wl, chunks, wl.timed_workers)
    out_u, wall_u = wl.evaluate(chunks, raws, times), sum(times)
    tracer, raws, times = traced_pass(wl, chunks)
    out_t, wall_t = wl.evaluate(chunks, raws, times), sum(times)

    # The first chunk once untraced at 1 worker and twice traced: the
    # overhead is their time ratio, and the counts must repeat exactly.
    plain_s = sum(run_pass(wl, chunks[:1], 1)[1])
    first, _, first_s = traced_pass(wl, chunks[:1])
    second, _, second_s = traced_pass(wl, chunks[:1])
    out_t.checks.append(("digest traced == untraced",
                         out_t.digest == out_u.digest,
                         f"{out_t.digest} vs {out_u.digest}"))
    out_t.checks.append(("counts repeat", counts(first) == counts(second),
                         "calls, evals and errors of two traced passes over "
                         "the first chunk"))
    overhead = (sum(first_s) + sum(second_s)) / (2.0 * plain_s)
    metrics = layer_metrics(tracer, wl.timed_workers, wall_u, overhead)
    info = {"wall_s": wall_t, "untraced_wall_s": wall_u}
    return out_t, metrics, info, tracer.spans


# ---------------------------------------------------------------------------
# reporting


def print_report(wl, seed, seconds, trace, machine, out, metrics, info):
    print(f"# workload {wl.name}  seed {seed}  seconds {seconds:g}  "
          f"trace {trace}")
    print("# machine " + "  ".join(f"{k} {v}" for k, v in machine.items()))
    print("# " + "  ".join(f"{k} {v:.4g}" if isinstance(v, float) else
                           f"{k} {v}" for k, v in info.items()
                           if isinstance(v, (int, float))))
    for name, ok, detail in out.checks:
        print(f"# check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print(f"# ops {out.attempted}  failed {out.failed}  truncated "
          f"{out.truncated}  pulls {out.pulls}  digest {out.digest}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:40s} {shown} {unit}")


def result_line(out, metrics, names):
    return json.dumps({
        "correct": out.correct, "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names}})


def run_workload(name, seed, seconds, trace, out_path, machine) -> bool:
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    spans = []
    if trace:
        out, metrics, info, spans = traced(wl, seed, seconds)
        names = list(metrics)
    else:
        out, raw, info = untraced(wl, seed, seconds)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in raw.items()}
        names = list(JSON_E2E)
    print_report(wl, seed, seconds, trace, machine, out, metrics, info)
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": trace, "machine": machine, "digest": out.digest,
                  "correct": out.correct, "attempted": out.attempted,
                  "failed": out.failed, "truncated": out.truncated,
                  "checks": [list(c) for c in out.checks], "info": info,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        if spans:
            with open(Path(out_path).with_suffix(".spans.jsonl"), "a",
                      encoding="utf-8") as fh:
                for sp_name, start, end, parent, op, error in spans:
                    fh.write(json.dumps({
                        "workload": name, "seed": seed, "name": sp_name,
                        "start": start, "end": end, "parent": parent,
                        "op": op, "error": error}) + "\n")
    print(result_line(out, metrics, names), flush=True)
    return out.correct


def compare(old_path, new_path):
    """Per workload and trace mode, the median of each metric in each file."""
    def load(path):
        groups = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                key = (rec["workload"], rec["trace"])
                for name, m in rec["metrics"].items():
                    groups.setdefault(key, {}).setdefault(
                        name, (m["unit"], []))[1].append(m["value"])
        return groups

    old, new = load(old_path), load(new_path)
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key, {}), new.get(key, {})
        print(f"## {key[0]} (trace {key[1]})")
        print(f"{'metric':40s} {'unit':>6s} {'old':>14s} {'new':>14s} "
              f"{'delta':>9s}  runs")
        for name in list(a) + [n for n in b if n not in a]:
            unit = (a.get(name) or b.get(name))[0]
            ma = statistics.median(a[name][1]) if name in a else math.nan
            mb = statistics.median(b[name][1]) if name in b else math.nan
            delta = (f"{(mb - ma) / abs(ma):+9.1%}" if ma and
                     math.isfinite(ma) and math.isfinite(mb) else f"{'':>9s}")
            runs = f"{len(a.get(name, (0, []))[1])}/{len(b.get(name, (0, []))[1])}"
            print(f"{name:40s} {unit:>6s} {ma:14.6g} {mb:14.6g} {delta}  {runs}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="mc_halfspace, risk_threshold, bound_sweep or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=22.0,
                   help="run length that sizes each workload's composition")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append run records to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    error = import_package()
    if error:
        print(error, file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload == "all":
        # one process per workload, so each peak RSS is its own
        given = sys.argv[1:] if argv is None else list(argv)
        codes = [subprocess.run([sys.executable, __file__, *given,
                                 "--workload", name]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}")
    ok = run_workload(args.workload, args.seed, args.seconds, args.trace,
                      args.out, machine_info())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
