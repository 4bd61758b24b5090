"""The package's public names and import footprint: everything
partid.__all__ lists is there, once, and importing partid loads neither
the process pool nor the modules that resolve on first access."""

import collections
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import partid

SRC = str(Path(partid.__file__).resolve().parents[1])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# loaded on first use only: the pool with a parallel campaign or risk demo,
# the config parser and the reference oracle on first access
POOL = ("concurrent.futures", "multiprocessing")
LAZY = ("partid.config", "partid.reference_oracle")


def run_fresh(code: str) -> str:
    """Run code in a new interpreter that imports this checkout's partid;
    returns its stdout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_exported_name_resolves_and_is_listed_once():
    counts = collections.Counter(partid.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in partid.__all__ if not hasattr(partid, name)] \
        == []


def test_import_leaves_the_pool_and_the_lazy_modules_unloaded():
    out = run_fresh(f"""
        import sys
        import partid
        print(sorted(m for m in {POOL + LAZY!r} if m in sys.modules))
        import partid.cli
        print(sorted(m for m in {POOL + LAZY!r} if m in sys.modules))
        """)
    # the command line parses configs, so it loads the parser itself
    assert out.splitlines() == ["[]", "['partid.config']"]


def test_lazy_names_are_their_modules_names():
    lazy = {"parse_config": "config", "ExperimentConfig": "config",
            "RiskDemoConfig": "config", "GridSpec": "reference_oracle",
            "brute_force_lb": "reference_oracle",
            "brute_force_inner": "reference_oracle",
            "solve_two_arm_gaussian": "reference_oracle"}
    out = run_fresh(f"""
        import importlib
        import partid
        got = {{n: getattr(partid, n) for n in {lazy!r}}}
        print([n for n, m in {lazy!r}.items()
               if got[n] is not getattr(importlib.import_module(
                   "partid." + m), n)])
        """)
    assert out.splitlines() == ["[]"]
    # the submodules stay attributes of the package, as when it loaded them
    out = run_fresh("""
        import partid
        print(partid.config.__name__, partid.reference_oracle.__name__)
        """)
    assert out.splitlines() == ["partid.config partid.reference_oracle"]


def test_star_import_binds_every_exported_name():
    out = run_fresh("""
        import partid
        names = {}
        exec("from partid import *", names)
        print([n for n in partid.__all__ if n not in names])
        """)
    assert out.splitlines() == ["[]"]


def test_first_pool_use_gives_the_inline_rows():
    out = run_fresh(f"""
        import sys
        from dataclasses import replace
        import partid
        cfg = replace(partid.parse_config({str(CONFIGS / "threshold_gaussian.json")!r}),
                      replications=6)
        print("concurrent.futures" in sys.modules)
        pooled = partid.run_experiment(cfg, parallelism=2)
        print("concurrent.futures" in sys.modules)
        inline = partid.run_experiment(cfg, parallelism=1)
        print(pooled.rows == inline.rows, len(pooled.rows),
              pooled.summaries == inline.summaries)
        """)
    assert out.splitlines() == ["False", "True", "True 12 True"]


def test_a_union_search_leaves_scipy_unloaded():
    # the three-Poisson best-arm union is not settled by one row, so its
    # saddle comes from the KKT solve, which needs numpy alone; the
    # cutting planes it replaces imported scipy.optimize here
    out = run_fresh("""
        import sys
        import partid
        rows = (((-1.0, 1.0, 0.0), 0.0), ((-1.0, 0.0, 1.0), 0.0))
        sol = partid.solve([partid.poisson()] * 3, [2.0, 1.5, 1.2],
                           partid.UnionHalfSpaces(rows))
        print("single_constraint" in sol.flags, "scipy" in sys.modules)
        """)
    assert out.splitlines() == ["False False"]
