"""Tests for the benchmark's tracer and speed gauge.

    python3 -m pytest perfbench -q
"""

import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import partid  # noqa: E402
from partid import rootfind  # noqa: E402
from reference import SpeedGauge  # noqa: E402
from run import TRACED  # noqa: E402
from tracer import Tracer, binding_sites, patched  # noqa: E402


class StepClock:
    """Returns the listed instants one call at a time."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_of_nested_calls():
    tracer = Tracer(clock=StepClock(0.0, 1.0, 3.0, 4.0, 5.0, 10.0),
                    record=("outer", "inner"))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()
    tracer.wrap("outer", body)()

    outer_st, inner_st = tracer.stats["outer"], tracer.stats["inner"]
    assert (outer_st.calls, outer_st.total_s, outer_st.self_s) == (1, 10.0, 7.0)
    assert (inner_st.calls, inner_st.total_s, inner_st.self_s) == (2, 3.0, 3.0)
    # records keep (name, start, end, parent, op, error); children name
    # the outer span as parent
    assert tracer.spans == [("outer", 0.0, 10.0, -1, -1, False),
                            ("inner", 1.0, 3.0, 0, -1, False),
                            ("inner", 4.0, 5.0, 0, -1, False)]


def test_exception_closes_span_and_counts_error():
    tracer = Tracer(record=("boom", "after"), op_roots=("boom",))

    def fail():
        raise ValueError("no bracket")
    boom = tracer.wrap("boom", fail)
    with pytest.raises(ValueError):
        boom()
    tracer.wrap("after", lambda: None)()

    assert tracer.stats["boom"].calls == 1
    assert tracer.stats["boom"].errors == 1
    assert tracer.stats["after"].errors == 0
    assert not tracer._stack
    name, start, end, parent, op, error = tracer.spans[0]
    assert (name, parent, op, error) == ("boom", -1, 0, True) and end >= start
    # the span after the failure is a root again, outside any operation
    assert tracer.spans[1][3:] == (-1, -1, False)


def test_evals_count_each_objective_call_once():
    tracer = Tracer(counted=("rootfind.bisect_monotone",
                             "rootfind.walk_to_root"))
    calls = []

    def f(x):
        calls.append(x)
        return x * x

    targets = [("rootfind.bisect_monotone", "partid.rootfind",
                "bisect_monotone"),
               ("rootfind.walk_to_root", "partid.rootfind", "walk_to_root")]
    with patched(tracer, targets):
        root = partid.rootfind.walk_to_root(f, 0.0, float("inf"), 10.0)
    assert abs(root * root - 10.0) < 1e-9
    walk = tracer.stats["rootfind.walk_to_root"]
    bisect = tracer.stats["rootfind.bisect_monotone"]
    assert walk.calls == bisect.calls == 1
    assert walk.evals > 0 and bisect.evals > 0
    assert walk.evals + bisect.evals == len(calls)


def test_every_binding_site_is_restored():
    originals = {}
    for _, mod_path, attr in TRACED:
        fn = getattr(sys.modules[mod_path], attr)
        originals[(mod_path, attr)] = (fn, binding_sites("partid", fn))
    assert len(binding_sites("partid", rootfind.bisect_monotone)) >= 3

    tracer = Tracer()
    models = [partid.gaussian(1.0), partid.gaussian(1.0)]
    with pytest.raises(RuntimeError):
        with patched(tracer, TRACED) as saved:
            assert partid.track_stop.solve is not originals[
                ("partid.lb_solvers", "solve")][0]
            partid.solve(models, [0.0, 0.0], partid.HalfSpace((1.0, 1.0), 1.0))
            raise RuntimeError("abort the traced pass")
    assert tracer.stats["lb_solvers.solve"].calls == 1
    assert len(saved) == sum(len(s) for _, s in originals.values())

    for (mod_path, attr), (fn, sites) in originals.items():
        for mod, site_attr in sites:
            assert getattr(mod, site_attr) is fn, f"{mod.__name__}.{site_attr}"


def test_gauge_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    gauge = SpeedGauge(interval=0.01)
    with pytest.raises(RuntimeError):
        with gauge.running():
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
            raise RuntimeError("abort the timed pass")
    assert len(gauge.samples) >= 3
    assert 0.0 < sum(gauge.samples) <= gauge.spent + 1e-3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
